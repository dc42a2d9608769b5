// The benchmark's own tests (`pinbench selftest --goldens PATH`):
//
//  - run_cell reproduces core::ExperimentRunner::run_once bit
//    for bit on every cell of both sweeps, and cluster::run_cluster for
//    the fleet, with tracing on; at seed 42 its digests match the goldens;
//  - a perturbed result trips the digest check;
//  - spans are well formed (each child inside its parent, self time
//    >= 0), and the checker rejects spans that are not;
//  - the strict number parser rejects what std::atoi would accept.
#include <bit>
#include <cmath>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pinsim;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL " << what << "\n";
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const workload::RunResult& a, const workload::RunResult& b) {
  if (!same_bits(a.metric_seconds, b.metric_seconds) ||
      !same_bits(a.wall_seconds, b.wall_seconds) ||
      a.extras.size() != b.extras.size()) {
    return false;
  }
  auto ia = a.extras.begin();
  for (auto ib = b.extras.begin(); ib != b.extras.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_bits(ia->second, ib->second)) {
      return false;
    }
  }
  return true;
}

/// Every sweep cell through run_cell (traced) against run_once. Returns
/// the first cell's result for the perturbation test.
workload::RunResult test_sweep_matches_run_once(WorkloadId id,
                                                const Goldens& goldens,
                                                SpanRecorder& spans) {
  const core::ExperimentRunner runner(experiment_defaults());
  const core::WorkloadFactory factory = sweep_factory(id);
  const std::uint64_t seed = seed_for(kGoldenSeed, 0);
  const std::vector<virt::PlatformSpec> cells = sweep_cells();
  workload::RunResult first;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string what = std::string(name_of(id)) + " " +
                             cells[i].label() + " " + cells[i].instance.name;
    const workload::RunResult reference =
        runner.run_once(cells[i], factory, seed);
    const ScopedSpan pass(&spans, "pass");
    const CellRun cell = run_cell(cells[i], factory, seed, &spans,
                                  static_cast<std::int64_t>(i));
    expect(identical(reference, cell.result),
           what + ": run_cell differs from run_once");
    const auto golden =
        goldens.find({name_of(id), 0, static_cast<int>(i)});
    expect(golden != goldens.end() && golden->second == digest_of(cell.result),
           what + ": digest differs from the golden");
    if (i == 0) first = cell.result;
  }
  return first;
}

cluster::ClusterResult test_fleet_matches_run_cluster(const Goldens& goldens,
                                                      SpanRecorder& spans) {
  const cluster::ClusterResult reference =
      cluster::run_cluster(fleet_config(seed_for(kGoldenSeed, 0)));
  const PassResult pass = run_pass(WorkloadId::FleetServe, kGoldenSeed, 0,
                                   &spans, 0);
  expect(pass.runs.size() == 1 && pass.runs[0].error.empty(),
         "fleet-serve pass failed");
  expect(pass.runs[0].digest == digest_of(reference),
         "fleet-serve: the pass differs from run_cluster");
  const auto golden = goldens.find({"fleet-serve", 0, 0});
  expect(golden != goldens.end() && golden->second == pass.runs[0].digest,
         "fleet-serve: digest differs from the golden");
  return reference;
}

void test_perturbation_trips_digest(const workload::RunResult& result,
                                    cluster::ClusterResult fleet) {
  const std::uint64_t digest = digest_of(result);
  auto differs = [&](workload::RunResult changed, const std::string& what) {
    expect(digest_of(changed) != digest, "digest misses " + what);
  };
  workload::RunResult r = result;
  r.metric_seconds = std::nextafter(r.metric_seconds, 1e300);
  differs(r, "a one-ulp change of metric_seconds");
  r = result;
  r.wall_seconds = std::nextafter(r.wall_seconds, 0.0);
  differs(r, "a one-ulp change of wall_seconds");
  expect(!result.extras.empty(), "the sweep result has no extras to perturb");
  if (!result.extras.empty()) {
    r = result;
    r.extras.begin()->second = std::nextafter(r.extras.begin()->second, 1e300);
    differs(r, "a one-ulp change of an extra");
  }
  r = result;
  r.extras["perturbed"] = 0.0;
  differs(r, "an added extra");

  const std::uint64_t fleet_digest = digest_of(fleet);
  ++fleet.trace[fleet.trace.size() / 2].latency;
  expect(digest_of(fleet) != fleet_digest,
         "digest misses a 1 ns change of one request's latency");

  // The oracle turns a perturbed digest into a failed run, both against
  // the goldens and, at other seeds, against an earlier run.
  const Goldens goldens = {{{"web-sweep", 0, 0}, digest}};
  Oracle at_golden(WorkloadId::WebSweep, kGoldenSeed, &goldens);
  expect(at_golden.check(0, 0, digest).empty(), "oracle rejects the golden");
  expect(!at_golden.check(0, 0, digest ^ 1).empty(),
         "oracle accepts a digest that differs from the golden");
  Oracle elsewhere(WorkloadId::WebSweep, kGoldenSeed + 1, &goldens);
  expect(elsewhere.check(0, 0, digest ^ 2).empty(),
         "oracle applies the goldens at another seed");
  expect(!elsewhere.check(0, 0, digest ^ 3).empty(),
         "oracle accepts a repetition whose digest changed");
}

void test_spans(const SpanRecorder& recorder) {
  expect(recorder.idle(), "a span was left open");
  expect(!recorder.spans().empty(), "the traced runs recorded no spans");
  const std::string problem = check_well_formed(recorder.spans());
  expect(problem.empty(), "spans of the traced runs: " + problem);
  for (const double self : self_seconds(recorder.spans())) {
    expect(self >= 0.0, "negative self time");
  }

  const Span parent{"parent", "", -1, -1, 100, 200};
  expect(check_well_formed({parent, {"child", "", 0, 0, 150, 250}}) != "",
         "checker accepts a child that ends after its parent");
  expect(check_well_formed({parent, {"child", "", 0, 0, 50, 150}}) != "",
         "checker accepts a child that starts before its parent");
  expect(check_well_formed({parent, {"a", "", 0, 0, 100, 180},
                            {"b", "", 0, 0, 120, 200}}) != "",
         "checker accepts overlapping children (negative self time)");
  expect(check_well_formed({{"open", "", -1, -1, 100, -1}}) != "",
         "checker accepts a span that never closed");
  expect(check_well_formed({{"ahead", "", 1, -1, 100, 200}, parent}) != "",
         "checker accepts a parent that follows its child");
}

void test_strict_numbers() {
  expect(parse_uint("42") == 42u, "parse_uint(\"42\")");
  expect(parse_uint("0") == 0u, "parse_uint(\"0\")");
  for (const char* bad : {"", "abc", "4x", "-1", "+1", " 7", "7 ", "1e3",
                          "99999999999999999999"}) {
    expect(!parse_uint(bad), std::string("parse_uint accepts '") + bad + "'");
  }
}

}  // namespace

int run_selftest(const std::string& goldens_path) {
  const Goldens goldens = load_goldens(goldens_path);
  SpanRecorder spans;
  test_strict_numbers();
  const workload::RunResult web =
      test_sweep_matches_run_once(WorkloadId::WebSweep, goldens, spans);
  test_sweep_matches_run_once(WorkloadId::MpiSweep, goldens, spans);
  const cluster::ClusterResult fleet =
      test_fleet_matches_run_cluster(goldens, spans);
  test_spans(spans);
  test_perturbation_trips_digest(web, fleet);
  std::cout << (g_failures == 0 ? "selftest passed"
                                : "selftest FAILED: " +
                                      std::to_string(g_failures) + " checks")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
