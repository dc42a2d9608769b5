#include "cluster/load_balancer.hpp"

#include "util/check.hpp"

namespace pinsim::cluster {

const char* to_string(BalancerPolicy policy) {
  switch (policy) {
    case BalancerPolicy::RoundRobin:
      return "round-robin";
    case BalancerPolicy::LeastOutstanding:
      return "least-outstanding";
  }
  return "?";
}

LoadBalancer::LoadBalancer(BalancerPolicy policy, int backends)
    : policy_(policy) {
  PINSIM_CHECK_MSG(backends >= 1,
                   "balancer needs >= 1 backend (got " << backends << ")");
  backends_.resize(static_cast<std::size_t>(backends));
}

LoadBalancer::Backend& LoadBalancer::slot(int backend) {
  PINSIM_CHECK_MSG(backend >= 0 && backend < backends(),
                   "backend " << backend << " out of range");
  return backends_[static_cast<std::size_t>(backend)];
}

const LoadBalancer::Backend& LoadBalancer::slot(int backend) const {
  PINSIM_CHECK_MSG(backend >= 0 && backend < backends(),
                   "backend " << backend << " out of range");
  return backends_[static_cast<std::size_t>(backend)];
}

void LoadBalancer::set_active(int backend, bool active) {
  slot(backend).active = active;
}

bool LoadBalancer::active(int backend) const { return slot(backend).active; }

int LoadBalancer::active_count() const {
  int count = 0;
  for (const Backend& b : backends_) {
    if (b.active) ++count;
  }
  return count;
}

void LoadBalancer::add_outstanding(int backend, int delta) {
  Backend& b = slot(backend);
  b.outstanding += delta;
  PINSIM_CHECK_MSG(b.outstanding >= 0, "backend " << backend
                                                  << " outstanding went "
                                                     "negative");
}

int LoadBalancer::outstanding(int backend) const {
  return slot(backend).outstanding;
}

std::int64_t LoadBalancer::total_outstanding() const {
  std::int64_t total = 0;
  for (const Backend& b : backends_) total += b.outstanding;
  return total;
}

int LoadBalancer::pick_least() const {
  int best = -1;
  for (int i = 0; i < backends(); ++i) {
    const Backend& b = backends_[static_cast<std::size_t>(i)];
    if (!b.active) continue;
    if (best < 0 ||
        b.outstanding < backends_[static_cast<std::size_t>(best)].outstanding) {
      best = i;
    }
  }
  return best;
}

int LoadBalancer::pick() {
  int choice = -1;
  switch (policy_) {
    case BalancerPolicy::RoundRobin: {
      const int n = backends();
      for (int step = 1; step <= n; ++step) {
        const int i = (cursor_ + step) % n;
        if (backends_[static_cast<std::size_t>(i)].active) {
          choice = i;
          break;
        }
      }
      if (choice >= 0) cursor_ = choice;
      break;
    }
    case BalancerPolicy::LeastOutstanding:
      choice = pick_least();
      break;
  }
  if (choice >= 0) ++decisions_;
  return choice;
}

}  // namespace pinsim::cluster
