// pinbench: host time of pinsim on named workloads, end to end and per
// layer. perfbench/run.py builds it and is the command to run:
//
//   python3 perfbench/run.py --workload web-sweep --seed 42 --seconds 25 --trace 0
//
// One process, one thread. A run simulates passes of the workload (see
// workloads.hpp) until the next pass would overrun --seconds, but always
// covers every repetition once. Every run is checked by the oracle:
// against the recorded goldens at seed 42, for repeatability at any
// other seed. The last stdout line is one JSON object:
//
//   --trace 0  end-to-end metrics, medians over passes: wall_s,
//              sim_s_per_wall_s, setup_s, peak_rss_mb. failed_frac is
//              `failed` / `attempted` in the same object.
//   --trace 1  per-layer metrics. Passes alternate untraced and traced
//              on the same repetition; spans are recorded around the
//              benchmark's calls into each layer, counters are read from
//              each layer's stats(), and the layer probes run last.
//              trace.overhead_s is the median traced-minus-untraced
//              pass time. The spans are written to --trace-out at exit.
//
// Other modes: `pinbench selftest --goldens PATH` and
// `pinbench record-goldens --goldens PATH`.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_selftest(const std::string& goldens_path);

namespace {

constexpr const char* kUsage =
    "usage: pinbench --workload web-sweep|mpi-sweep|fleet-serve --seed N "
    "--seconds N --trace 0|1 --goldens PATH [--commit ID] [--trace-out PATH]\n"
    "       pinbench selftest --goldens PATH\n"
    "       pinbench record-goldens --goldens PATH\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "pinbench: " << message << "\n" << kUsage;
  std::exit(2);
}

struct Options {
  std::string mode = "measure";
  WorkloadId workload = WorkloadId::WebSweep;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string goldens;
  std::string commit = "unknown";
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  int i = 1;
  if (argc > 1 && argv[1][0] != '-') o.mode = argv[i++];
  if (o.mode != "measure" && o.mode != "selftest" &&
      o.mode != "record-goldens") {
    usage_error("unknown mode '" + o.mode + "'");
  }
  std::map<std::string, std::string> flags;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("expected --flag VALUE, got '" + flag + "'");
    }
    if (!flags.emplace(flag, argv[++i]).second) {
      usage_error("repeated " + flag);
    }
  }
  auto take = [&flags](const std::string& flag) -> std::optional<std::string> {
    const auto it = flags.find(flag);
    if (it == flags.end()) return std::nullopt;
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto required = [&take](const std::string& flag) {
    std::optional<std::string> value = take(flag);
    if (!value) usage_error("missing " + flag);
    return *value;
  };
  auto number = [](const std::string& flag, const std::string& text) {
    const std::optional<std::uint64_t> value = parse_uint(text);
    if (!value) usage_error(flag + " needs a non-negative integer, got '" +
                            text + "'");
    return *value;
  };

  o.goldens = required("--goldens");
  if (o.mode == "measure") {
    const std::string name = required("--workload");
    const std::optional<WorkloadId> id = workload_by_name(name);
    if (!id) usage_error("unknown workload '" + name + "'");
    o.workload = *id;
    o.seed = number("--seed", required("--seed"));
    o.seconds = number("--seconds", required("--seconds"));
    if (o.seconds < 1 || o.seconds > 3600) {
      usage_error("--seconds must be within 1..3600");
    }
    const std::string trace = required("--trace");
    if (trace != "0" && trace != "1") usage_error("--trace must be 0 or 1");
    o.trace = trace == "1";
    if (std::optional<std::string> commit = take("--commit")) o.commit = *commit;
    if (std::optional<std::string> out = take("--trace-out")) o.trace_out = *out;
  }
  if (!flags.empty()) usage_error("unknown flag " + flags.begin()->first);
  return o;
}

// --- Host context ------------------------------------------------------

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_context(const Options& o) {
  std::cout << "context {\"workload\":" << json_string(name_of(o.workload))
            << ",\"seed\":" << o.seed << ",\"seconds\":" << o.seconds
            << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"nproc\":" << nproc()
            << ",\"compiler\":" << json_string(compiler())
            << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
            << ",\"optimized\":" << (kOptimized ? "true" : "false")
            << ",\"commit\":" << json_string(o.commit) << "}\n";
  if (!kOptimized) {
    for (std::ostream* out : {&std::cout, &std::cerr}) {
      *out << "*** WARNING: pinbench was built WITHOUT optimization ("
           << PERFBENCH_BUILD_TYPE
           << "). Its timings say nothing about an optimized build. ***\n";
    }
  }
}

// --- Measurement -------------------------------------------------------

struct Measurement {
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;  // traced[k] repeats untraced[k]'s rep
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::uint64_t combined_digest = 0;
  bool against_goldens = false;
};

Measurement measure(const Options& o, const Goldens& goldens,
                    SpanRecorder& recorder) {
  Measurement m;
  Oracle oracle(o.workload, o.seed, &goldens);
  auto account = [&](const PassResult& pass) {
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      const RunOutcome& run = pass.runs[i];
      std::string why = run.error;
      if (why.empty()) {
        why = oracle.check(pass.rep, static_cast<int>(i), run.digest);
      }
      ++m.attempted;
      if (!why.empty()) {
        ++m.failed;
        if (m.failures.size() < 5) {
          m.failures.push_back("rep " + std::to_string(pass.rep) + " run " +
                               std::to_string(i) + ": " + why);
        }
      }
    }
  };

  const std::int64_t start = now_ns();
  std::int64_t run_id = 0;
  for (int p = 0;; ++p) {
    const int rep = p % kReps;
    const std::int64_t step_start = now_ns();
    m.untraced.push_back(run_pass(o.workload, o.seed, rep, nullptr, 0));
    account(m.untraced.back());
    if (o.trace) {
      m.traced.push_back(run_pass(o.workload, o.seed, rep, &recorder, run_id));
      account(m.traced.back());
      run_id += static_cast<std::int64_t>(m.traced.back().runs.size());
    }
    const double step = since_s(step_start);
    if (p + 1 >= kReps &&
        since_s(start) + step > static_cast<double>(o.seconds)) {
      break;
    }
  }
  m.combined_digest = oracle.combined();
  m.against_goldens = oracle.against_goldens();
  return m;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const Measurement& m) {
  std::vector<double> wall;
  std::vector<double> speed;
  std::vector<double> setup;
  for (const PassResult& pass : m.untraced) {
    wall.push_back(pass.wall_s);
    speed.push_back(ratio(pass.sim_s, pass.wall_s));
    setup.push_back(pass.setup_s);
  }
  return {{"wall_s", "s", median(wall)},
          {"sim_s_per_wall_s", "s/s", median(speed)},
          {"setup_s", "s", median(setup)},
          {"peak_rss_mb", "MiB", peak_rss_mb()}};
}

/// Host seconds per pass that the traced mode attributes from spans.
struct PassTimes {
  std::array<double, kKinds> run_s{};  // Workload::run / Fleet::run by kind
  double run_total_s = 0.0;
  double host_ctor_s = 0.0;
  double make_platform_s = 0.0;
  double fleet_run_s = 0.0;
};

std::vector<PassTimes> pass_times(const std::vector<Span>& spans,
                                  std::size_t passes) {
  std::vector<PassTimes> times(passes);
  const std::vector<int> root = roots(spans);
  std::vector<int> pass_of(spans.size(), -1);
  int next_pass = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      if (std::string_view(s.name) == "pass") pass_of[i] = next_pass++;
      continue;
    }
    const int p = pass_of[static_cast<std::size_t>(root[i])];
    if (p < 0) continue;
    PassTimes& t = times[static_cast<std::size_t>(p)];
    const std::string_view name = s.name;
    if (name == "workload.run" || name == "cluster.fleet_run") {
      for (std::size_t k = 0; k < kKinds; ++k) {
        if (std::string_view(s.label) == kKindLabels[k]) t.run_s[k] += s.seconds();
      }
      t.run_total_s += s.seconds();
      if (name == "cluster.fleet_run") t.fleet_run_s += s.seconds();
    } else if (name == "virt.host_ctor") {
      t.host_ctor_s += s.seconds();
    } else if (name == "virt.make_platform") {
      t.make_platform_s += s.seconds();
    }
  }
  if (static_cast<std::size_t>(next_pass) != passes) {
    throw std::logic_error("traced passes and pass spans disagree");
  }
  return times;
}

std::vector<Metric> per_layer(const Measurement& m, const SpanRecorder& recorder,
                              const ProbeResults& probes) {
  using Fn = std::function<double(const PassTimes&, const LayerCounters&)>;
  struct Def {
    std::string name;
    const char* unit;
    Fn value;
  };
  auto count = [](std::int64_t LayerCounters::*field) -> Fn {
    return [field](const PassTimes&, const LayerCounters& c) {
      return static_cast<double>(c.*field);
    };
  };
  std::vector<Def> defs;
  for (std::size_t k = 0; k < kKinds; ++k) {
    defs.push_back({std::string("run_s.") + kKindLabels[k], "s",
                    [k](const PassTimes& t, const LayerCounters&) {
                      return t.run_s[k];
                    }});
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    defs.push_back({std::string("ns_per_event.") + kKindLabels[k], "ns",
                    [k](const PassTimes& t, const LayerCounters& c) {
                      return 1e9 * ratio(t.run_s[k], static_cast<double>(
                                                         c.events_by_kind[k]));
                    }});
  }
  const std::vector<Def> fixed = {
      {"sim.events", "count", count(&LayerCounters::events)},
      {"sim.ns_per_event", "ns",
       [](const PassTimes& t, const LayerCounters& c) {
         return 1e9 * ratio(t.run_total_s, static_cast<double>(c.events));
       }},
      {"sim.reschedules", "count", count(&LayerCounters::reschedules)},
      {"sim.deferred_rearms", "count", count(&LayerCounters::deferred_rearms)},
      {"sim.tombstone_pops", "count", count(&LayerCounters::tombstone_pops)},
      {"sim.peak_heap", "count", count(&LayerCounters::peak_heap)},
      {"sim.boundaries_batched", "count",
       count(&LayerCounters::boundaries_batched)},
      {"sim.boundaries_skipped", "count",
       count(&LayerCounters::boundaries_skipped)},
      {"sim.quiet_windows", "count", count(&LayerCounters::quiet_windows)},
      {"os.context_switches", "count", count(&LayerCounters::context_switches)},
      {"os.wakeups", "count", count(&LayerCounters::wakeups)},
      {"os.migrations", "count", count(&LayerCounters::migrations)},
      {"os.steals", "count", count(&LayerCounters::steals)},
      {"os.balance_moves", "count", count(&LayerCounters::balance_moves)},
      {"os.preemptions", "count", count(&LayerCounters::preemptions)},
      {"os.irqs", "count", count(&LayerCounters::irqs)},
      {"os.throttle_events", "count", count(&LayerCounters::throttle_events)},
      {"os.aggregation_events", "count",
       count(&LayerCounters::aggregation_events)},
      {"os.reschedules_per_event", "ratio",
       [](const PassTimes&, const LayerCounters& c) {
         return ratio(static_cast<double>(c.reschedules),
                      static_cast<double>(c.events));
       }},
      {"virt.host_ctor_s", "s",
       [](const PassTimes& t, const LayerCounters&) { return t.host_ctor_s; }},
      {"virt.make_platform_s", "s",
       [](const PassTimes& t, const LayerCounters&) {
         return t.make_platform_s;
       }},
      {"virt.guest.bursts", "count", count(&LayerCounters::guest_bursts)},
      {"virt.guest.dispatches", "count",
       count(&LayerCounters::guest_dispatches)},
      {"virt.guest.halts", "count", count(&LayerCounters::guest_halts)},
      {"virt.guest.kicks", "count", count(&LayerCounters::guest_kicks)},
      {"virt.guest.io_exits", "count", count(&LayerCounters::guest_io_exits)},
      {"workload.run_s", "s",
       [](const PassTimes& t, const LayerCounters&) { return t.run_total_s; }},
      {"cluster.fleet_run_s", "s",
       [](const PassTimes& t, const LayerCounters&) { return t.fleet_run_s; }},
      {"cluster.ns_per_request", "ns",
       [](const PassTimes& t, const LayerCounters& c) {
         return 1e9 * ratio(t.fleet_run_s, static_cast<double>(c.dispatched));
       }},
      {"cluster.dispatched", "count", count(&LayerCounters::dispatched)},
      {"cluster.completed_frac", "ratio",
       [](const PassTimes&, const LayerCounters& c) {
         return ratio(static_cast<double>(c.completed),
                      static_cast<double>(c.dispatched));
       }},
      {"cluster.rounds", "count", count(&LayerCounters::rounds)},
      {"cluster.cross_posts", "count", count(&LayerCounters::cross_posts)},
  };
  defs.insert(defs.end(), fixed.begin(), fixed.end());

  const std::vector<PassTimes> times =
      pass_times(recorder.spans(), m.traced.size());
  std::vector<Metric> out;
  for (const Def& def : defs) {
    std::vector<double> values;
    for (std::size_t p = 0; p < m.traced.size(); ++p) {
      values.push_back(def.value(times[p], m.traced[p].counters));
    }
    out.push_back({def.name, def.unit, median(values)});
  }
  out.push_back({"workload.runs", "count",
                 static_cast<double>(m.traced.front().runs.size())});
  for (std::size_t i = 0; i < kFirstNSizes.size(); ++i) {
    out.push_back({"hw.first_n_ns.n" + std::to_string(kFirstNSizes[i]), "ns",
                   probes.first_n_ns[i]});
  }
  out.push_back({"sim.probe_fire_ns", "ns", probes.fire_ns});
  out.push_back({"cluster.pick_ns", "ns", probes.pick_ns});
  out.push_back({"cluster.arrival_ns", "ns", probes.arrival_ns});
  out.push_back({"cluster.slo_record_ns", "ns", probes.slo_record_ns});
  std::vector<double> overhead;
  for (std::size_t p = 0; p < m.traced.size(); ++p) {
    overhead.push_back(m.traced[p].wall_s - m.untraced[p].wall_s);
  }
  out.push_back({"trace.overhead_s", "s", median(overhead)});
  return out;
}

/// Self time per span name (and platform label), largest first.
void print_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  struct Row {
    std::int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string key = spans[i].name;
    if (*spans[i].label != '\0') key += std::string("[") + spans[i].label + "]";
    Row& row = rows[key];
    ++row.count;
    row.total += spans[i].seconds();
    row.self += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::cout << "self time by span (all traced passes and probes):\n";
  for (const auto& [key, row] : sorted) {
    std::cout << "  " << std::left << std::setw(28) << key << std::right
              << " n=" << std::setw(6) << row.count << "  total "
              << std::fixed << std::setprecision(4) << std::setw(9)
              << row.total << " s  self " << std::setw(9) << row.self
              << " s\n"
              << std::defaultfloat;
  }
}

void print_result(const Measurement& m, const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (m.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
         << ": {\"value\": " << metrics[i].value
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run_measure(const Options& o) {
  Goldens goldens;
  try {
    goldens = load_goldens(o.goldens);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  print_context(o);
  SpanRecorder recorder;
  const Measurement m = measure(o, goldens, recorder);

  std::vector<Metric> metrics;
  if (o.trace) {
    const std::string problem = check_well_formed(recorder.spans());
    if (!problem.empty()) {
      std::cerr << "pinbench: malformed spans: " << problem << "\n";
      return 1;
    }
    std::int64_t peak_heap = 0;
    for (const PassResult& pass : m.traced) {
      peak_heap = std::max(peak_heap, pass.counters.peak_heap);
    }
    const ProbeResults probes = run_probes(o.seed, peak_heap, &recorder);
    metrics = per_layer(m, recorder, probes);
    print_self_times(recorder.spans());
    if (!o.trace_out.empty()) {
      std::ofstream out(o.trace_out);
      recorder.write_jsonl(out);
      if (!out) {
        std::cerr << "pinbench: cannot write " << o.trace_out << "\n";
        return 1;
      }
    }
  } else {
    metrics = end_to_end(m);
  }

  std::cout << "digest " << name_of(o.workload) << " seed=" << o.seed
            << " reps=0.." << kReps - 1 << ": " << std::hex << std::setw(16)
            << std::setfill('0') << m.combined_digest << std::dec
            << std::setfill(' ')
            << (m.against_goldens ? " (runs checked against the goldens)"
                                  : " (runs checked for repeatability)")
            << "\n";
  std::cout << "passes " << m.untraced.size() << (o.trace ? " untraced + " : "")
            << (o.trace ? std::to_string(m.traced.size()) + " traced" : "")
            << ", runs attempted " << m.attempted << ", failed " << m.failed
            << "\n";
  auto print_walls = [](const char* what, const std::vector<PassResult>& passes) {
    std::cout << what << " pass wall_s:";
    for (const PassResult& pass : passes) std::cout << ' ' << pass.wall_s;
    std::cout << "\n";
  };
  print_walls("untraced", m.untraced);
  if (o.trace) print_walls("traced", m.traced);
  for (const std::string& failure : m.failures) {
    std::cout << "FAILED " << failure << "\n";
  }
  if (o.workload == WorkloadId::FleetServe && !o.trace) {
    std::cout << "note: Fleet::run builds its hosts, so fleet-serve's setup_s "
                 "is the cluster::Fleet constructor alone\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << "  " << std::left << std::setw(26) << metric.name << std::right
              << " " << std::setprecision(6) << metric.value << " "
              << metric.unit << "\n";
  }
  // Not a metric of the result: it is 0 when all is well, so it travels
  // as the result's "failed" / "attempted".
  std::cout << "  " << std::left << std::setw(26) << "failed_frac" << std::right
            << " "
            << ratio(static_cast<double>(m.failed),
                     static_cast<double>(m.attempted))
            << " failed/attempted runs\n";
  print_result(m, metrics);
  return 0;
}

int run_record_goldens(const Options& o) {
  Goldens goldens;
  for (const WorkloadId id : kWorkloads) {
    for (int rep = 0; rep < kReps; ++rep) {
      const PassResult pass = run_pass(id, kGoldenSeed, rep, nullptr, 0);
      for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        if (!pass.runs[i].error.empty()) {
          std::cerr << "pinbench: " << name_of(id) << " rep " << rep << " run "
                    << i << " failed: " << pass.runs[i].error << "\n";
          return 1;
        }
        goldens[{name_of(id), rep, static_cast<int>(i)}] = pass.runs[i].digest;
      }
      std::cout << name_of(id) << " rep " << rep << ": " << pass.runs.size()
                << " runs in " << pass.wall_s << " s\n";
    }
  }
  write_goldens(o.goldens, goldens);
  std::cout << "wrote " << goldens.size() << " goldens to " << o.goldens << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse_args(argc, argv);
  try {
    if (options.mode == "selftest") return run_selftest(options.goldens);
    if (options.mode == "record-goldens") return run_record_goldens(options);
    return run_measure(options);
  } catch (const std::exception& e) {
    std::cerr << "pinbench: " << e.what() << "\n";
    return 1;
  }
}
