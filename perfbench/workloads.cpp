#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/figure.hpp"
#include "virt/factory.hpp"
#include "virt/vm.hpp"
#include "workload/mpi.hpp"
#include "workload/wordpress.hpp"

namespace perfbench {

using namespace pinsim;

namespace {

/// ExperimentRunner::run_once derives the workload stream from the run
/// seed with this constant; the self-test proves the copy is exact.
constexpr std::uint64_t kWorkloadSeedSalt = 0x517cc1b727220a95ull;

/// Fleet constructions timed per pass; setup_s reports their median
/// because one construction takes a fraction of a microsecond.
constexpr int kFleetCtorSamples = 33;

std::uint64_t fold(std::uint64_t hash, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  return fnv1a(hash, &bits, sizeof bits);
}

std::uint64_t fold(std::uint64_t hash, std::int64_t value) {
  return fnv1a(hash, &value, sizeof value);
}

PassResult run_sweep_pass(WorkloadId id, std::uint64_t base_seed, int rep,
                          SpanRecorder* spans, std::int64_t first_run_id) {
  static const std::vector<virt::PlatformSpec> cells = sweep_cells();
  const core::WorkloadFactory factory = sweep_factory(id);
  const std::uint64_t seed = seed_for(base_seed, rep);
  PassResult pass;
  pass.rep = rep;
  pass.runs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    RunOutcome outcome;
    try {
      const CellRun cell =
          run_cell(cells[i], factory, seed, spans,
                   first_run_id + static_cast<std::int64_t>(i));
      pass.setup_s += cell.setup_s;
      pass.sim_s += cell.result.wall_seconds;
      pass.counters.add(cell.counters);
      outcome.digest = digest_of(cell.result);
      outcome.error = check_invariants(cell.result);
    } catch (const std::exception& e) {
      outcome.error = std::string("threw: ") + e.what();
    }
    if (!outcome.error.empty()) {
      outcome.error = cells[i].label() + " " + cells[i].instance.name + ": " +
                      outcome.error;
    }
    pass.runs.push_back(std::move(outcome));
  }
  return pass;
}

PassResult run_fleet_pass(std::uint64_t base_seed, int rep,
                          SpanRecorder* spans, std::int64_t run_id) {
  const cluster::FleetConfig config = fleet_config(seed_for(base_seed, rep));
  PassResult pass;
  pass.rep = rep;
  RunOutcome outcome;
  try {
    // Fleet::run builds the hosts itself, so from outside set-up is the
    // constructor alone.
    std::optional<cluster::Fleet> fleet;
    std::vector<double> ctor_s;
    for (int k = 0; k < kFleetCtorSamples; ++k) {
      const ScopedSpan span(spans, "cluster.fleet_ctor", run_id);
      const std::int64_t t0 = now_ns();
      fleet.emplace(config);
      ctor_s.push_back(since_s(t0));
    }
    pass.setup_s = median(std::move(ctor_s));

    cluster::ClusterResult result;
    {
      const ScopedSpan span(spans, "cluster.fleet_run", run_id,
                            kind_label(config.spec.kind));
      result = fleet->run();
    }
    const ScopedSpan span(spans, "oracle", run_id);
    for (const cluster::RequestRecord& r : result.trace) {
      pass.sim_s = std::max(pass.sim_s, to_seconds(r.arrival + r.latency));
    }
    LayerCounters& c = pass.counters;
    const sim::EngineStats& e = result.engine_stats;
    c.events = e.fired;
    c.reschedules = e.reschedules;
    c.deferred_rearms = e.deferred_rearms;
    c.tombstone_pops = e.tombstone_pops;
    c.peak_heap = e.peak_heap;
    c.boundaries_batched = e.boundaries_batched;
    c.boundaries_skipped = e.boundaries_skipped;
    c.quiet_windows = e.quiet_windows;
    c.events_by_kind[static_cast<std::size_t>(kind_index(config.spec.kind))] =
        e.fired;
    c.dispatched = result.dispatched;
    c.completed = result.completed;
    c.rounds = result.shard_stats.rounds;
    c.cross_posts = result.shard_stats.cross_posts;
    outcome.digest = digest_of(result);
    outcome.error = check_invariants(result);
  } catch (const std::exception& e) {
    outcome.error = std::string("threw: ") + e.what();
  }
  pass.runs.push_back(std::move(outcome));
  return pass;
}

}  // namespace

const char* name_of(WorkloadId id) {
  switch (id) {
    case WorkloadId::WebSweep:
      return "web-sweep";
    case WorkloadId::MpiSweep:
      return "mpi-sweep";
    case WorkloadId::FleetServe:
      return "fleet-serve";
  }
  return "?";
}

std::optional<WorkloadId> workload_by_name(std::string_view name) {
  for (const WorkloadId id : kWorkloads) {
    if (name == name_of(id)) return id;
  }
  return std::nullopt;
}

int kind_index(virt::PlatformKind kind) {
  switch (kind) {
    case virt::PlatformKind::BareMetal:
      return 0;
    case virt::PlatformKind::Container:
      return 1;
    case virt::PlatformKind::Vm:
      return 2;
    case virt::PlatformKind::VmContainer:
      return 3;
  }
  throw std::logic_error("unknown platform kind");
}

const char* kind_label(virt::PlatformKind kind) {
  return kKindLabels[static_cast<std::size_t>(kind_index(kind))];
}

void LayerCounters::add(const LayerCounters& o) {
  events += o.events;
  reschedules += o.reschedules;
  deferred_rearms += o.deferred_rearms;
  tombstone_pops += o.tombstone_pops;
  peak_heap = std::max(peak_heap, o.peak_heap);
  boundaries_batched += o.boundaries_batched;
  boundaries_skipped += o.boundaries_skipped;
  quiet_windows += o.quiet_windows;
  for (std::size_t k = 0; k < events_by_kind.size(); ++k) {
    events_by_kind[k] += o.events_by_kind[k];
  }
  context_switches += o.context_switches;
  wakeups += o.wakeups;
  migrations += o.migrations;
  steals += o.steals;
  balance_moves += o.balance_moves;
  preemptions += o.preemptions;
  irqs += o.irqs;
  throttle_events += o.throttle_events;
  aggregation_events += o.aggregation_events;
  guest_bursts += o.guest_bursts;
  guest_dispatches += o.guest_dispatches;
  guest_halts += o.guest_halts;
  guest_kicks += o.guest_kicks;
  guest_io_exits += o.guest_io_exits;
  dispatched += o.dispatched;
  completed += o.completed;
  rounds += o.rounds;
  cross_posts += o.cross_posts;
}

const core::ExperimentConfig& experiment_defaults() {
  static const core::ExperimentConfig config;
  return config;
}

std::vector<virt::PlatformSpec> sweep_cells() {
  std::vector<virt::PlatformSpec> cells;
  for (const std::string& name : core::fig456_instances()) {
    for (const virt::PlatformSpec& spec :
         virt::paper_series(virt::instance_by_name(name))) {
      cells.push_back(spec);
    }
  }
  return cells;
}

core::WorkloadFactory sweep_factory(WorkloadId id) {
  switch (id) {
    case WorkloadId::WebSweep:
      return [] { return std::make_unique<workload::WordPress>(); };
    case WorkloadId::MpiSweep:
      return [] { return std::make_unique<workload::MpiSearch>(); };
    case WorkloadId::FleetServe:
      break;
  }
  throw std::logic_error("fleet-serve is not a sweep");
}

CellRun run_cell(const virt::PlatformSpec& spec,
                 const core::WorkloadFactory& factory, std::uint64_t seed,
                 SpanRecorder* spans, std::int64_t run_id) {
  const core::ExperimentConfig& defaults = experiment_defaults();
  const char* kind = kind_label(spec.kind);
  const ScopedSpan run_span(spans, "run", run_id, kind);
  CellRun out;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<workload::Workload> workload;
  {
    const ScopedSpan span(spans, "workload.make", run_id);
    workload = factory();
  }
  if (workload == nullptr) throw std::runtime_error("factory returned null");
  const Rng workload_rng(seed ^ kWorkloadSeedSalt);
  std::optional<virt::Host> host;
  {
    const ScopedSpan span(spans, "virt.host_ctor", run_id);
    host.emplace(virt::host_topology_for(spec, defaults.full_host),
                 defaults.costs, seed);
  }
  std::unique_ptr<virt::Platform> platform;
  {
    const ScopedSpan span(spans, "virt.make_platform", run_id);
    platform = virt::make_platform(*host, spec);
  }
  out.setup_s = since_s(t0);
  {
    const ScopedSpan span(spans, "workload.run", run_id, kind);
    out.result = workload->run(*platform, workload_rng);
  }

  const ScopedSpan span(spans, "stats.read", run_id);
  LayerCounters& c = out.counters;
  const sim::EngineStats e = host->engine().stats();
  c.events = e.fired;
  c.reschedules = e.reschedules;
  c.deferred_rearms = e.deferred_rearms;
  c.tombstone_pops = e.tombstone_pops;
  c.peak_heap = e.peak_heap;
  c.boundaries_batched = e.boundaries_batched;
  c.boundaries_skipped = e.boundaries_skipped;
  c.quiet_windows = e.quiet_windows;
  c.events_by_kind[static_cast<std::size_t>(kind_index(spec.kind))] = e.fired;
  const os::KernelStats& k = host->kernel().stats();
  c.context_switches = k.context_switches;
  c.wakeups = k.wakeups;
  c.migrations = k.migrations;
  c.steals = k.steals;
  c.balance_moves = k.balance_moves;
  c.preemptions = k.preemptions;
  c.irqs = k.irqs;
  c.throttle_events = k.throttle_events;
  c.aggregation_events = k.aggregation_events;
  if (auto* vm = dynamic_cast<virt::VmPlatform*>(platform.get())) {
    const virt::GuestStats& g = vm->guest().stats();
    c.guest_bursts = g.bursts;
    c.guest_dispatches = g.dispatches;
    c.guest_halts = g.halts;
    c.guest_kicks = g.kicks;
    c.guest_io_exits = g.io_exits;
  }
  return out;
}

cluster::FleetConfig fleet_config(std::uint64_t base_seed) {
  cluster::FleetConfig config;
  config.hosts = 50;
  config.shards = 1;
  config.threads = 1;
  config.app = workload::AppClass::IoWeb;
  config.spec.mode = virt::CpuMode::Pinned;
  config.balancer = cluster::BalancerPolicy::LeastOutstanding;
  config.arrivals.kind = cluster::ArrivalKind::Diurnal;
  config.arrivals.rate_per_second = 2320.0;
  config.arrivals.diurnal_amplitude = 0.8;
  config.arrivals.diurnal_period_seconds = 30.0;
  config.traffic_seconds = 30.0;
  config.drain_seconds = 120.0;
  config.slo.target_seconds = 0.35;
  config.base_seed = base_seed;
  return config;
}

PassResult run_pass(WorkloadId id, std::uint64_t base_seed, int rep,
                    SpanRecorder* spans, std::int64_t first_run_id) {
  const std::int64_t t0 = now_ns();
  PassResult pass;
  {
    const ScopedSpan span(spans, "pass");
    pass = id == WorkloadId::FleetServe
               ? run_fleet_pass(base_seed, rep, spans, first_run_id)
               : run_sweep_pass(id, base_seed, rep, spans, first_run_id);
  }
  pass.wall_s = since_s(t0);
  return pass;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t digest_of(const workload::RunResult& result) {
  std::uint64_t h = kFnvBasis;
  h = fold(h, result.metric_seconds);
  h = fold(h, result.wall_seconds);
  for (const auto& [key, value] : result.extras) {
    h = fnv1a(h, key.data(), key.size() + 1);  // + the terminator
    h = fold(h, value);
  }
  return h;
}

std::uint64_t digest_of(const cluster::ClusterResult& result) {
  std::uint64_t h = kFnvBasis;
  h = fold(h, result.dispatched);
  h = fold(h, result.completed);
  const cluster::SloSummary& s = result.slo;
  h = fold(h, s.total);
  h = fold(h, s.violations);
  for (const double v : {s.violation_fraction, s.p50_seconds, s.p99_seconds,
                         s.p999_seconds, s.mean_seconds, s.max_seconds}) {
    h = fold(h, v);
  }
  for (const cluster::RequestRecord& r : result.trace) {
    h = fold(h, r.arrival);
    h = fold(h, static_cast<std::int64_t>(r.host));
    h = fold(h, r.latency);
  }
  return h;
}

std::string check_invariants(const workload::RunResult& result) {
  if (!std::isfinite(result.metric_seconds) || result.metric_seconds <= 0.0) {
    return "metric_seconds is not a positive number";
  }
  if (!std::isfinite(result.wall_seconds) || result.wall_seconds <= 0.0) {
    return "wall_seconds is not a positive number";
  }
  return {};
}

std::string check_invariants(const cluster::ClusterResult& result) {
  if (result.dispatched <= 0) return "no request was dispatched";
  if (result.completed != result.dispatched) {
    return "not every dispatched request completed";
  }
  if (result.slo.total != result.dispatched ||
      static_cast<std::int64_t>(result.trace.size()) != result.dispatched) {
    return "SLO summary or trace does not cover every request";
  }
  return {};
}

Goldens load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read goldens file " + path);
  Goldens goldens;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    int rep = -1;
    int index = -1;
    std::string hex;
    std::string rest;
    if (!(fields >> workload >> rep >> index >> hex) || (fields >> rest) ||
        !workload_by_name(workload) || rep < 0 || rep >= kReps || index < 0 ||
        hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed golden line");
    }
    goldens[{workload, rep, index}] = std::stoull(hex, nullptr, 16);
  }
  return goldens;
}

void write_goldens(const std::string& path, const Goldens& goldens) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write goldens file " + path);
  out << "# Run digests at seed " << kGoldenSeed
      << ": workload rep run-index digest.\n"
         "# Written by `pinbench record-goldens`; a change that alters a "
         "simulated result must re-record them and say why.\n";
  for (const auto& [key, digest] : goldens) {
    out << std::get<0>(key) << ' ' << std::get<1>(key) << ' '
        << std::get<2>(key) << ' ' << std::hex << std::setw(16)
        << std::setfill('0') << digest << std::dec << '\n';
  }
}

Oracle::Oracle(WorkloadId id, std::uint64_t seed, const Goldens* goldens)
    : workload_(name_of(id)),
      goldens_(seed == kGoldenSeed ? goldens : nullptr) {}

std::string Oracle::check(int rep, int index, std::uint64_t digest) {
  const auto [it, first] = seen_.try_emplace({rep, index}, digest);
  if (goldens_ != nullptr) {
    const auto golden = goldens_->find({workload_, rep, index});
    if (golden == goldens_->end()) return "no golden recorded";
    if (golden->second != digest) return "digest differs from the golden";
  }
  if (!first && it->second != digest) {
    return "digest differs from an earlier run of the same repetition";
  }
  return {};
}

std::uint64_t Oracle::combined() const {
  std::uint64_t h = kFnvBasis;
  for (const auto& [key, digest] : seen_) {
    const std::int64_t rep = key.first;
    const std::int64_t index = key.second;
    h = fold(h, rep);
    h = fold(h, index);
    h = fnv1a(h, &digest, sizeof digest);
  }
  return h;
}

}  // namespace perfbench
