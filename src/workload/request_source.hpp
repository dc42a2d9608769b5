// Request-granularity serving.
//
// A workload::Workload runs a fixed batch to completion; a
// RequestSource is its serving-side counterpart. Deployed once onto a
// platform, it accepts externally injected requests one at a time and
// reports each completion through a callback — the unit of work is the
// request, and the *caller* owns arrival timing, routing, and latency
// measurement (cluster::Fleet does all three from its front end). The
// source owns only how a request executes on its platform, and runs the
// same driver classes as the fig-5/fig-6 batch runs: each source is
// defined next to its figure's workload (wordpress.cpp, cassandra.cpp),
// so a recalibrated recipe moves both.
//
// Two serving models cover the paper's request-serving applications:
//
//   WordPress  one task per request (Apache process-per-request):
//              inject() spawns the fig-5 request process (socket ->
//              parse -> db -> render -> socket) and the task's exit is
//              the completion;
//   Cassandra  the fig-6 server-thread pool, spawned at deployment with
//              no op budget: inject() round-robins the op to a
//              thread's queue and posts a message; the thread loops
//              recv -> parse -> commit-log/SSTable IO -> respond and
//              never exits.
//
// Determinism: a source derives each request's service randomness by
// forking its own Rng at inject() time, and a Cassandra source picks a
// thread in injection order. The batch runs do both by request index
// instead, so a batch is not a source driven by inject(), byte for byte.
// Injections reach a host in a deterministic order (the fleet posts
// them through the sharded engine's canonical mailbox merge), so a
// (config, seed) pair replays the same per-request service times for
// any thread or shard count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "util/rng.hpp"
#include "workload/cassandra.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::virt {
class Platform;
}  // namespace pinsim::virt

namespace pinsim::workload {

class RequestSource {
 public:
  using Done = std::function<void()>;

  virtual ~RequestSource() = default;

  virtual const char* name() const = 0;

  /// Begin serving one request now. Must be called at a simulated
  /// instant on the platform's engine (the fleet posts the call to the
  /// host's shard); `done` runs at the instant the request completes.
  virtual void inject(Done done) = 0;

  /// Requests accepted and not yet completed.
  virtual int outstanding() const = 0;

  /// Requests completed since deployment.
  virtual std::int64_t served() const = 0;
};

/// The source must not outlive `platform`. Config knobs keep their
/// fig-5/fig-6 meanings; batch-only fields (requests, operations,
/// ramp/submit windows, horizon) are ignored. A Cassandra source with
/// fewer than one server thread CHECK-fails, as the batch run does.
std::unique_ptr<RequestSource> make_wordpress_source(
    virt::Platform& platform, const WordPressConfig& config, Rng rng);
std::unique_ptr<RequestSource> make_cassandra_source(
    virt::Platform& platform, const CassandraConfig& config, Rng rng);

}  // namespace pinsim::workload
