// Properties of the two-level (host + guest) scheduling stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>

#include "virt/factory.hpp"
#include "virt/vm.hpp"
#include "workload/ffmpeg.hpp"

namespace pinsim::virt {
namespace {

std::unique_ptr<os::TaskDriver> compute_once(SimDuration work) {
  auto state = std::make_shared<bool>(false);
  return std::make_unique<os::LambdaDriver>([state, work](os::Task&) {
    if (*state) return os::Action::exit();
    *state = true;
    return os::Action::compute(work);
  });
}

class GuestPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(GuestPropertyTest, GuestWorkAllCompletesAndGrantsAreBounded) {
  const auto& [instance, tasks, seed] = GetParam();
  const PlatformSpec spec{PlatformKind::Vm, CpuMode::Vanilla,
                          instance_by_name(instance)};
  Host host(hw::Topology::dell_r830(), hw::CostModel{},
            static_cast<std::uint64_t>(seed));
  VmPlatform platform(host, spec);
  int done = 0;
  SimDuration requested_work = 0;
  for (int i = 0; i < tasks; ++i) {
    const SimDuration work = msec(5 + 3 * (i % 4));
    requested_work += work;
    WorkTaskConfig config;
    config.name = "g" + std::to_string(i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = platform.spawn(std::move(config), compute_once(work));
    platform.start(task);
  }
  ASSERT_TRUE(host.engine().run_until([&] { return done == tasks; },
                                      sec(300)));
  // Every guest task accomplished exactly its requested work.
  SimDuration done_work = 0;
  for (const auto& task : platform.guest().tasks()) {
    done_work += task->stats.work_done;
  }
  EXPECT_EQ(done_work, requested_work);
  // Grants cannot exceed vcpus x wall time.
  const double wall = to_seconds(host.engine().now());
  EXPECT_LE(to_seconds(platform.guest().stats().granted),
            wall * spec.instance.cores * 1.0001);
  // Inflation holds in aggregate: granted cpu >= inflation x work.
  EXPECT_GE(static_cast<double>(platform.guest().stats().granted),
            static_cast<double>(requested_work) *
                host.costs().guest_compute_inflation * 0.98);
}

std::string guest_property_name(
    const ::testing::TestParamInfo<GuestPropertyTest::ParamType>& info) {
  return std::get<0>(info.param) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    InstanceTaskSeedSweep, GuestPropertyTest,
    ::testing::Combine(::testing::Values("Large", "xLarge", "2xLarge"),
                       ::testing::Values(1, 6, 20),
                       ::testing::Values(3, 77)),
    guest_property_name);

TEST(GuestPropertyTest, HaltPollingAvoidsKicksForShortGaps) {
  // Ping-pong inside a 2-vCPU guest with sub-poll-window gaps: after the
  // warm-up, messages should be picked up by polling vCPUs, not kicks.
  const PlatformSpec spec{PlatformKind::Vm, CpuMode::Vanilla,
                          instance_by_name("Large")};
  Host host(hw::Topology::dell_r830(), hw::CostModel{}, 5);
  VmPlatform platform(host, spec);

  constexpr int kRounds = 200;
  os::Task* a_ptr = nullptr;
  os::Task* b_ptr = nullptr;
  int done = 0;
  auto make_pinger = [&](os::Task*& peer, bool starts) {
    // starts=true:  post, recv, post, recv, ...
    // starts=false: recv, post, recv, post, ...
    auto step = std::make_shared<int>(0);
    return std::make_unique<os::LambdaDriver>(
        [&peer, step, starts](os::Task&) {
          if (*step >= 2 * kRounds) return os::Action::exit();
          const bool post_turn = (*step)++ % 2 == (starts ? 0 : 1);
          if (post_turn) return os::Action::post(*peer);
          return os::Action::recv_spin();
        });
  };
  WorkTaskConfig ca;
  ca.name = "a";
  ca.on_exit = [&done](os::Task&) { ++done; };
  os::Task& a = platform.spawn(std::move(ca), make_pinger(b_ptr, true));
  WorkTaskConfig cb;
  cb.name = "b";
  cb.on_exit = [&done](os::Task&) { ++done; };
  os::Task& b = platform.spawn(std::move(cb), make_pinger(a_ptr, false));
  a_ptr = &a;
  b_ptr = &b;
  platform.start(a);
  platform.start(b);
  ASSERT_TRUE(host.engine().run_until([&] { return done == 2; }, sec(60)));
  // Far fewer kicks than messages: spinning + halt-polling absorb them.
  EXPECT_LT(platform.guest().stats().kicks, kRounds / 2);
}

TEST(GuestPropertyTest, VmcnQuotaBoundsGuestUsage) {
  const PlatformSpec spec{PlatformKind::VmContainer, CpuMode::Vanilla,
                          instance_by_name("Large")};
  Host host(hw::Topology::dell_r830(), hw::CostModel{}, 9);
  VmPlatform platform(host, spec);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    WorkTaskConfig config;
    config.name = "w" + std::to_string(i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = platform.spawn(std::move(config),
                                    compute_once(msec(40)));
    platform.start(task);
  }
  ASSERT_TRUE(host.engine().run_until([&] { return done == 6; },
                                      sec(300)));
  const double wall = to_seconds(host.engine().now());
  EXPECT_LE(to_seconds(platform.cgroup()->stats().usage),
            2.0 * wall + 0.03);
}

TEST(GuestPropertyTest, PinnedVcpusNeverLeaveTheirCpus) {
  const PlatformSpec spec{PlatformKind::Vm, CpuMode::Pinned,
                          instance_by_name("xLarge")};
  Host host(hw::Topology::dell_r830(), hw::CostModel{}, 13);
  VmPlatform platform(host, spec);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    WorkTaskConfig config;
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = platform.spawn(std::move(config),
                                    compute_once(msec(20)));
    platform.start(task);
  }
  ASSERT_TRUE(host.engine().run_until([&] { return done == 8; },
                                      sec(300)));
  for (const os::Task* vcpu : platform.vcpu_tasks()) {
    EXPECT_EQ(vcpu->stats.migrations, 0) << vcpu->name();
    EXPECT_TRUE(vcpu->affinity.contains(vcpu->last_cpu));
  }
}

TEST(GuestPropertyTest, QueuedMaskMatchesTheRunqueuesAfterEveryEvent) {
  // The steal search visits only queued_vcpus(), so the mask must name
  // every vCPU with a queued task; placement picks from idle_vcpus(),
  // the vCPUs with neither a running nor a queued task. Recompute both
  // from the tasks' queue slots and running vCPUs after each event of
  // VMCN runs: short naps throttle and park the guest group, long naps
  // let sticky and vanilla wakes queue work behind busy vCPUs for the
  // idle-vCPU balance and the rotation.
  struct Mix {
    int tasks;
    SimDuration work;
    SimDuration nap;
  };
  std::int64_t throttles = 0;
  for (const Mix mix : {Mix{14, usec(200), usec(50)},
                        Mix{8, usec(500), usec(3000)}}) {
    for (const CpuMode mode : {CpuMode::Vanilla, CpuMode::Pinned}) {
      const PlatformSpec spec{PlatformKind::VmContainer, mode,
                              instance_by_name("xLarge")};
      Host host(hw::Topology::dell_r830(), hw::CostModel{}, 21);
      VmPlatform platform(host, spec);
      int done = 0;
      for (int i = 0; i < mix.tasks; ++i) {
        auto rounds = std::make_shared<int>(0);
        const SimDuration work = mix.work + usec(150 * (i % 5));
        const SimDuration nap = mix.nap * (i % 4);
        WorkTaskConfig config;
        config.name = "w" + std::to_string(i);
        config.on_exit = [&done](os::Task&) { ++done; };
        os::Task& task = platform.spawn(
            std::move(config),
            std::make_unique<os::LambdaDriver>([rounds, work, nap](os::Task&) {
              const int round = (*rounds)++;
              if (round >= 60) return os::Action::exit();
              return round % 2 == 0 ? os::Action::compute(work)
                                    : os::Action::sleep_for(nap);
            }));
        platform.start(task);
      }
      const GuestKernel& guest = platform.guest();
      std::int64_t non_empty = 0;
      ASSERT_TRUE(host.engine().run_until(
          [&] {
            hw::CpuSet queued;
            hw::CpuSet idle = hw::CpuSet::first_n(guest.vcpus());
            for (const auto& task : guest.tasks()) {
              if (task->queued_cpu >= 0) {
                queued.add(task->queued_cpu);
                idle.remove(task->queued_cpu);
              }
              if (task->state == os::TaskState::Running) {
                idle.remove(task->last_cpu);
              }
            }
            EXPECT_EQ(guest.queued_vcpus().to_string(), queued.to_string())
                << "at " << host.engine().now();
            EXPECT_EQ(guest.idle_vcpus().to_string(), idle.to_string())
                << "at " << host.engine().now();
            if (!queued.empty()) ++non_empty;
            return done == mix.tasks;
          },
          sec(60)));
      EXPECT_GT(non_empty, 100);
      throttles += platform.cgroup()->stats().throttles;
    }
  }
  EXPECT_GT(throttles, 0);
}

}  // namespace
}  // namespace pinsim::virt
