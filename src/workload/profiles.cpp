#include "workload/profiles.hpp"

#include "util/check.hpp"
#include "virt/factory.hpp"
#include "workload/cassandra.hpp"
#include "workload/ffmpeg.hpp"
#include "workload/mpi.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::workload {

const char* to_string(AppClass cls) {
  switch (cls) {
    case AppClass::CpuBound:
      return "CPU-bound";
    case AppClass::Hpc:
      return "HPC";
    case AppClass::IoWeb:
      return "IO-bound web";
    case AppClass::IoNoSql:
      return "Big Data (NoSQL)";
  }
  return "unknown";
}

const std::vector<AppSpec>& table1_applications() {
  static const std::vector<AppSpec> kTable = {
      {"FFmpeg", "3.4.6", "CPU-bound workload", AppClass::CpuBound},
      {"Open MPI", "2.1.1", "HPC workload", AppClass::Hpc},
      {"WordPress", "5.3.2", "IO-bound web-based workload", AppClass::IoWeb},
      {"Cassandra", "2.2", "Big Data (NoSQL) workload", AppClass::IoNoSql},
  };
  return kTable;
}

std::unique_ptr<Workload> make_workload(AppClass cls) {
  switch (cls) {
    case AppClass::CpuBound:
      return std::make_unique<Ffmpeg>();
    case AppClass::Hpc:
      return std::make_unique<MpiSearch>();
    case AppClass::IoWeb:
      return std::make_unique<WordPress>();
    case AppClass::IoNoSql:
      return std::make_unique<Cassandra>();
  }
  PINSIM_CHECK_MSG(false, "unknown app class");
  return nullptr;
}

MeasuredProfile measure_profile(Workload& workload, int cores,
                                std::uint64_t seed) {
  const virt::PlatformSpec spec{virt::PlatformKind::BareMetal,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_cores(cores)};
  virt::Host host(
      virt::host_topology_for(spec, hw::Topology::dell_r830()),
      hw::CostModel{}, seed);
  auto platform = virt::make_platform(host, spec);
  const RunResult result = workload.run(*platform, Rng(seed));

  MeasuredProfile profile;
  profile.metric_seconds = result.metric_seconds;
  const os::TaskTotals& totals = host.kernel().finished_totals();
  const double lifetime = to_seconds(totals.lifetime);
  const double cpu = to_seconds(totals.cpu_time);
  const double blocked = to_seconds(totals.block_time);
  const double waiting = to_seconds(totals.wait_time);
  const auto io_ops = static_cast<double>(totals.io_ops);
  const auto messages = static_cast<double>(totals.messages_sent);
  PINSIM_CHECK(lifetime > 0.0);
  profile.cpu_fraction = cpu / lifetime;
  profile.block_fraction = blocked / lifetime;
  profile.wait_fraction = waiting / lifetime;
  profile.io_ops_per_second = io_ops / result.wall_seconds;
  profile.messages_per_second = messages / result.wall_seconds;
  return profile;
}

}  // namespace pinsim::workload
