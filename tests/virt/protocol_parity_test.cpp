// The host kernel and the guest kernel run one task-action protocol
// (os/protocol.hpp): the same scripted pair must yield the same
// protocol-level outcome on bare metal and inside a VM, where only the
// costs differ.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "virt/factory.hpp"

namespace pinsim::virt {
namespace {

/// Plays `script` in order, then exits. The script is filled in after
/// both tasks exist, since a Post names its target task.
std::unique_ptr<os::TaskDriver> play(
    std::shared_ptr<std::vector<os::Action>> script) {
  auto next = std::make_shared<std::size_t>(0);
  return std::make_unique<os::LambdaDriver>([script, next](os::Task&) {
    if (*next >= script->size()) return os::Action::exit();
    return (*script)[(*next)++];
  });
}

struct Outcome {
  os::TaskStats a;
  os::TaskStats b;
  int unconsumed = 0;  // messages left pending on either task
  std::vector<std::string> finish_order;
};

struct PlatformRun {
  explicit PlatformRun(PlatformKind kind)
      : spec{kind, CpuMode::Vanilla, instance_by_name("Large")},
        host(host_topology_for(spec, hw::Topology::dell_r830()),
             hw::CostModel{}, 7),
        platform(make_platform(host, spec)) {}

  os::Task& spawn(const std::string& name,
                  std::unique_ptr<os::TaskDriver> driver) {
    WorkTaskConfig config;
    config.name = name;
    config.on_exit = [this](os::Task& task) {
      finish_order.push_back(task.name());
    };
    return platform->spawn(std::move(config), std::move(driver));
  }

  PlatformSpec spec;
  Host host;
  std::unique_ptr<Platform> platform;
  std::vector<std::string> finish_order;
};

// Task a: a skipped zero-length Compute, a Post to b, a blocking Recv
// that b's Post wakes, a spin Recv that b's second Post ends, then
// Sleep, Io and Exit. Task b: Sleep, a Recv whose message (a's Post) is
// already pending, two Posts to a around a Compute, then Io and Exit.
Outcome run_pair(PlatformKind kind) {
  PlatformRun run(kind);
  auto a_script = std::make_shared<std::vector<os::Action>>();
  auto b_script = std::make_shared<std::vector<os::Action>>();
  os::Task& a = run.spawn("a", play(a_script));
  os::Task& b = run.spawn("b", play(b_script));
  const hw::IoRequest read{hw::IoKind::Read, 4.0};
  hw::IoDevice& disk = run.platform->disk();
  *a_script = {os::Action::compute(0),     os::Action::post(b),
               os::Action::compute(msec(1)), os::Action::recv(),
               os::Action::recv_spin(),    os::Action::sleep_for(msec(5)),
               os::Action::io(disk, read)};
  *b_script = {os::Action::sleep_for(msec(5)), os::Action::recv(),
               os::Action::post(a),            os::Action::compute(msec(1)),
               os::Action::post(a),            os::Action::io(disk, read)};
  run.platform->start(a);
  run.platform->start(b);
  run.host.engine().run_until([&] { return run.finish_order.size() == 2; },
                              sec(1));
  return Outcome{a.stats, b.stats, a.pending_msgs + b.pending_msgs,
                 run.finish_order};
}

TEST(ProtocolParityTest, HostAndGuestAgreeOnTheProtocol) {
  const Outcome host = run_pair(PlatformKind::BareMetal);
  const Outcome guest = run_pair(PlatformKind::Vm);

  // b finishes first: a still sleeps and does IO after b's last Post.
  const std::vector<std::string> order{"b", "a"};
  EXPECT_EQ(host.finish_order, order);
  EXPECT_EQ(guest.finish_order, order);

  EXPECT_EQ(host.a.messages_sent, 1);
  EXPECT_EQ(host.b.messages_sent, 2);
  EXPECT_EQ(host.a.io_ops, 1);
  EXPECT_EQ(host.b.io_ops, 1);
  // a wakes from its blocking Recv, its Sleep and its Io; b's Recv found
  // its message pending, so b wakes only from its Sleep and its Io.
  EXPECT_EQ(host.a.wakeups, 3);
  EXPECT_EQ(host.b.wakeups, 2);
  EXPECT_EQ(host.unconsumed, 0);
  EXPECT_EQ(guest.unconsumed, 0);

  EXPECT_EQ(guest.a.messages_sent, host.a.messages_sent);
  EXPECT_EQ(guest.b.messages_sent, host.b.messages_sent);
  EXPECT_EQ(guest.a.io_ops, host.a.io_ops);
  EXPECT_EQ(guest.b.io_ops, host.b.io_ops);
  EXPECT_EQ(guest.a.wakeups, host.a.wakeups);
  EXPECT_EQ(guest.b.wakeups, host.b.wakeups);

  // Only the zero-length Compute was skipped: each level ran both 1 ms
  // bursts of pure work.
  EXPECT_EQ(host.a.work_done, msec(1));
  EXPECT_EQ(guest.a.work_done, msec(1));
  EXPECT_EQ(host.b.work_done, msec(1));
  EXPECT_EQ(guest.b.work_done, msec(1));
}

// A driver that never yields anything with a cost trips the one
// zero-cost-action guard, with the same message on both levels.
std::string guard_message(PlatformKind kind) {
  PlatformRun run(kind);
  os::Task& task = run.spawn(
      "stuck", std::make_unique<os::LambdaDriver>(
                   [](os::Task&) { return os::Action::compute(0); }));
  try {
    run.platform->start(task);
    run.host.engine().run(msec(10));
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return "";
}

TEST(ProtocolParityTest, ZeroCostDriverTripsTheGuardOnBothLevels) {
  for (const PlatformKind kind : {PlatformKind::BareMetal, PlatformKind::Vm}) {
    const std::string message = guard_message(kind);
    EXPECT_NE(message.find("driver for stuck spun 100000 zero-cost actions"),
              std::string::npos)
        << to_string(kind) << ": " << message;
  }
}

}  // namespace
}  // namespace pinsim::virt
