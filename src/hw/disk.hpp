// Queued IO devices.
//
// A device has a fixed number of service channels (an HDD RAID has one
// head per spindle; a NIC has effectively many) and a FIFO backlog.
// Service time is log-normal — the heavy right tail of seek/rotation and
// network jitter — plus a per-KB transfer cost. Completion invokes a
// caller-supplied callback; the OS layer turns that into an interrupt.
//
// The paper's testbed stores data on RAID1 (2 x 900 GB HDD) and serves web
// load over a LAN; `raid1_hdd` and `gigabit_nic` encode those devices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "stats/accumulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pinsim::hw {

enum class IoKind { Read, Write, NetRecv, NetSend };

const char* to_string(IoKind kind);

struct IoRequest {
  IoKind kind = IoKind::Read;
  double size_kb = 4.0;
};

class IoDevice {
 public:
  struct Config {
    /// Concurrent service channels.
    int channels = 1;
    /// Mean/stddev of the base service time for reads (and net receive).
    SimDuration read_mean = msec(6);
    SimDuration read_stddev = msec(3);
    /// Mean/stddev for writes (and net send).
    SimDuration write_mean = msec(8);
    SimDuration write_stddev = msec(4);
    /// Transfer cost per KB on top of the base service time.
    SimDuration per_kb = usec(8);
  };

  IoDevice(sim::Engine& engine, std::string name, Config config, Rng rng);

  /// The paper's storage: RAID1 of two 900 GB HDDs. Reads are served by
  /// either spindle (2 channels); writes hit both (modelled as a higher
  /// base service time).
  static IoDevice raid1_hdd(sim::Engine& engine, Rng rng);

  /// LAN NIC: sub-millisecond service, wide parallelism.
  static IoDevice gigabit_nic(sim::Engine& engine, Rng rng);

  /// Enqueue a request; `on_complete` runs at completion time. If
  /// `extra_latency` > 0 it is added to the service time (virtio path).
  void submit(const IoRequest& request, std::function<void()> on_complete,
              SimDuration extra_latency = 0);

  const std::string& name() const { return name_; }
  int queue_depth() const {
    return static_cast<int>(backlog_.size() - backlog_head_);
  }
  int busy_channels() const { return busy_; }
  std::int64_t completed() const { return completed_; }

  /// Distribution of request latencies (queueing + service), in seconds.
  const stats::Accumulator& latency() const { return latency_; }

 private:
  struct Pending {
    IoRequest request;
    std::function<void()> on_complete;
    SimDuration extra_latency;
    SimTime submitted;
  };

  SimDuration sample_service(const IoRequest& request);
  void start(Pending pending);

  sim::Engine* engine_;
  std::string name_;
  Config config_;
  Rng rng_;
  int busy_ = 0;
  /// The backlog, in FIFO order from backlog_head_. Popping advances
  /// the head; the vector keeps its capacity (see submit()).
  std::vector<Pending> backlog_;
  std::size_t backlog_head_ = 0;
  std::int64_t completed_ = 0;
  stats::Accumulator latency_;
};

}  // namespace pinsim::hw
