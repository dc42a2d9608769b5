// The benchmark's workloads, how one run executes, and the output oracle.
//
// Each workload is a deterministic batch simulation, run one pass after
// another from one thread (jobs = 1, shards = 1, threads = 1):
//
//   web-sweep    Figure 5: WordPress (1,000 requests) on the 7 paper
//                series x 5 instances (xLarge..16xLarge) of the 112-core
//                dell_r830 host, 35 runs per pass. Steal and pick scans
//                rebuild CpuSet masks, so the hw layer shows here.
//   mpi-sweep    Figure 4: MPI Search on the same 35 cells. Event-loop
//                bound (engine pop, boundary re-arm); CpuSet mask
//                building does not show, so a mask fix is flat here.
//   fleet-serve  scenario_cluster's pinned WordPress cell: one
//                cluster::Fleet::run of 50 pinned xLarge containers on
//                16-core hosts, diurnal open-loop arrivals at 2,320 req/s
//                for 30 s, LeastOutstanding routing. Request churn, one
//                engine carrying 50 hosts, and the only cluster:: user.
//
// Pass p of a run with seed S simulates repetition r = p mod kReps with
// the per-run seed S + 1000003 * r, exactly core::ExperimentRunner's
// seed_for(r) with base_seed S, and the fleet's base_seed for a fleet.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cluster/fleet.hpp"
#include "core/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

enum class WorkloadId { WebSweep, MpiSweep, FleetServe };

inline constexpr std::array<WorkloadId, 3> kWorkloads = {
    WorkloadId::WebSweep, WorkloadId::MpiSweep, WorkloadId::FleetServe};

const char* name_of(WorkloadId id);
std::optional<WorkloadId> workload_by_name(std::string_view name);

/// Repetitions a run cycles through; goldens cover exactly these.
inline constexpr int kReps = 3;
/// The seed the goldens were recorded at (ExperimentConfig's default).
inline constexpr std::uint64_t kGoldenSeed = 42;

inline std::uint64_t seed_for(std::uint64_t base_seed, int rep) {
  return base_seed + 1000003ull * static_cast<std::uint64_t>(rep);
}

/// Platform kinds in report order: bm, cn, vm, vmcn.
inline constexpr int kKinds = 4;
int kind_index(pinsim::virt::PlatformKind kind);
const char* kind_label(pinsim::virt::PlatformKind kind);
inline constexpr std::array<const char*, kKinds> kKindLabels = {"bm", "cn",
                                                                "vm", "vmcn"};

/// Counters read from each layer's public stats() after a run, summed
/// over a pass (peak_heap is the maximum).
struct LayerCounters {
  // sim::Engine::stats() (a fleet: ClusterResult::engine_stats)
  std::int64_t events = 0;
  std::int64_t reschedules = 0;
  std::int64_t deferred_rearms = 0;
  std::int64_t tombstone_pops = 0;
  std::int64_t peak_heap = 0;
  std::int64_t boundaries_batched = 0;
  std::int64_t boundaries_skipped = 0;
  std::int64_t quiet_windows = 0;
  std::array<std::int64_t, kKinds> events_by_kind{};
  // os::Kernel::stats(); not reachable from outside Fleet::run
  std::int64_t context_switches = 0;
  std::int64_t wakeups = 0;
  std::int64_t migrations = 0;
  std::int64_t steals = 0;
  std::int64_t balance_moves = 0;
  std::int64_t preemptions = 0;
  std::int64_t irqs = 0;
  std::int64_t throttle_events = 0;
  std::int64_t aggregation_events = 0;
  // virt::GuestKernel::stats() through VmPlatform::guest()
  std::int64_t guest_bursts = 0;
  std::int64_t guest_dispatches = 0;
  std::int64_t guest_halts = 0;
  std::int64_t guest_kicks = 0;
  std::int64_t guest_io_exits = 0;
  // cluster::ClusterResult
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  std::int64_t rounds = 0;
  std::int64_t cross_posts = 0;

  void add(const LayerCounters& other);
};

/// One simulation run of a pass: a sweep cell or a fleet run.
struct RunOutcome {
  std::uint64_t digest = 0;
  /// Why the run failed (threw, did not complete, broke an invariant);
  /// empty when it succeeded.
  std::string error;
};

struct PassResult {
  int rep = 0;
  double wall_s = 0.0;   // host seconds for the whole pass
  double setup_s = 0.0;  // host seconds building hosts/platforms/workloads
  double sim_s = 0.0;    // simulated seconds covered
  std::vector<RunOutcome> runs;
  LayerCounters counters;
};

/// Run one pass. `spans` null = untraced. `first_run_id` numbers the
/// pass's simulation runs in its spans.
PassResult run_pass(WorkloadId id, std::uint64_t base_seed, int rep,
                    SpanRecorder* spans, std::int64_t first_run_id);

// --- One run, exposed for the self-tests. ----------------------------

/// The sweep's cells, in run order (instance-major, paper legend order).
std::vector<pinsim::virt::PlatformSpec> sweep_cells();
pinsim::core::WorkloadFactory sweep_factory(WorkloadId id);
/// The Host/cost defaults ExperimentRunner uses.
const pinsim::core::ExperimentConfig& experiment_defaults();

struct CellRun {
  pinsim::workload::RunResult result;
  double setup_s = 0.0;
  LayerCounters counters;
};

/// One sweep cell, the steps ExperimentRunner::run_once takes at
/// shards = 1, with spans around each layer call.
CellRun run_cell(const pinsim::virt::PlatformSpec& spec,
                 const pinsim::core::WorkloadFactory& factory,
                 std::uint64_t seed, SpanRecorder* spans, std::int64_t run_id);

/// fleet-serve's configuration at `base_seed`.
pinsim::cluster::FleetConfig fleet_config(std::uint64_t base_seed);

// --- The output oracle. ----------------------------------------------

/// metric_seconds, wall_seconds and extras at full precision.
std::uint64_t digest_of(const pinsim::workload::RunResult& result);
/// SloSummary, dispatched/completed and the whole request trace.
std::uint64_t digest_of(const pinsim::cluster::ClusterResult& result);
/// Empty when the result is sane (finite, positive, complete).
std::string check_invariants(const pinsim::workload::RunResult& result);
std::string check_invariants(const pinsim::cluster::ClusterResult& result);

/// Recorded digests at kGoldenSeed: (workload, rep, run index) -> digest.
using Goldens = std::map<std::tuple<std::string, int, int>, std::uint64_t>;
/// Throws std::runtime_error on a malformed file.
Goldens load_goldens(const std::string& path);
void write_goldens(const std::string& path, const Goldens& goldens);

/// Checks each run's digest: against the golden at kGoldenSeed, and
/// against the first run of the same repetition otherwise (a simulation
/// must repeat bit for bit).
class Oracle {
 public:
  Oracle(WorkloadId id, std::uint64_t seed, const Goldens* goldens);

  /// Empty when the digest is accepted, else why it is not.
  std::string check(int rep, int index, std::uint64_t digest);

  /// Digest over every checked run, in (rep, index) order. A run covers
  /// every repetition at least once, so this is the same set of runs
  /// for any run length.
  std::uint64_t combined() const;

  /// Whether the goldens judged this seed's runs.
  bool against_goldens() const { return goldens_ != nullptr; }

 private:
  std::string workload_;
  const Goldens* goldens_;
  std::map<std::pair<int, int>, std::uint64_t> seen_;
};

/// FNV-1a, the hash every digest folds with.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace perfbench
