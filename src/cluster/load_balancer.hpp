// Front-end request routing for the cluster serving layer.
//
// The LoadBalancer is pure bookkeeping: it holds what the front end
// knows about every backend instance — active or not, outstanding
// requests as seen from the front end (dispatches minus completion
// notifications, so the view lags the hosts by the network latency).
// pick() is a deterministic pure function of that state:
//
//   RoundRobin        next active backend after the previous pick;
//   LeastOutstanding  active backend with the fewest outstanding
//                     requests, ties to the lowest index.
//
// Every host of a fleet runs the same spec, so every backend has the
// same container-to-host core ratio; the paper's CHR band (§VI best
// practice 5) is applied when sizing the instance
// (cluster::PinningPolicy::ChrAdvisor), not when routing.
#pragma once

#include <cstdint>
#include <vector>

namespace pinsim::cluster {

enum class BalancerPolicy { RoundRobin, LeastOutstanding };

const char* to_string(BalancerPolicy policy);

// Front-end state: lives on shard 0, mutated only by the dispatch
// loop there. Worker-shard callbacks reach it by posting back.
class LoadBalancer {
 public:
  LoadBalancer(BalancerPolicy policy, int backends);

  BalancerPolicy policy() const { return policy_; }
  int backends() const { return static_cast<int>(backends_.size()); }

  void set_active(int backend, bool active);
  bool active(int backend) const;
  int active_count() const;

  void add_outstanding(int backend, int delta);
  int outstanding(int backend) const;
  std::int64_t total_outstanding() const;

  /// Route the next request; -1 when no backend is active. Does not
  /// adjust outstanding counts — the caller records the dispatch.
  int pick();

  /// Successful pick() calls so far.
  std::int64_t decisions() const { return decisions_; }

 private:
  struct Backend {
    bool active = true;
    int outstanding = 0;
  };

  Backend& slot(int backend);
  const Backend& slot(int backend) const;
  int pick_least() const;

  BalancerPolicy policy_;
  std::vector<Backend> backends_;
  int cursor_ = -1;
  std::int64_t decisions_ = 0;
};

}  // namespace pinsim::cluster
