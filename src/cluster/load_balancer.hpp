// Front-end request routing for the cluster serving layer.
//
// The LoadBalancer is pure bookkeeping: it holds what the front end
// knows about every backend instance — active or not, outstanding
// requests as seen from the front end (dispatches minus completion
// notifications, so the view lags the hosts by the network latency),
// and whether the instance's container-to-host core ratio sits inside
// the paper's recommended band for the application class. pick() is a
// deterministic pure function of that state:
//
//   RoundRobin        next active backend after the previous pick;
//   LeastOutstanding  active backend with the fewest outstanding
//                     requests, ties to the lowest index;
//   ChrAware          LeastOutstanding restricted to backends whose CHR
//                     is in the recommended band (paper §VI best
//                     practice 5 as a live routing policy), falling
//                     back to all active backends when none qualify.
#pragma once

#include <cstdint>
#include <vector>

namespace pinsim::cluster {

enum class BalancerPolicy { RoundRobin, LeastOutstanding, ChrAware };

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

  void set_chr_in_range(int backend, bool in_range);
  bool chr_in_range(int backend) const;

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
    bool in_range = true;
    int outstanding = 0;
  };

  Backend& slot(int backend);
  const Backend& slot(int backend) const;
  int pick_least(bool require_in_range) const;

  BalancerPolicy policy_;
  std::vector<Backend> backends_;
  int cursor_ = -1;
  std::int64_t decisions_ = 0;
};

}  // namespace pinsim::cluster
