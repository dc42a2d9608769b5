// Steady-state allocation test: the simulator's per-event paths allocate
// nothing.
//
// Every figure replays millions of scheduler events per cell. The host
// and guest kernels, the devices and the engine are written so that,
// once a run has warmed up, an event touches only memory they already
// own: reserved runqueues, the timer slab, FIFOs that keep their
// capacity, callbacks stored inline. This binary measures that claim on
// real runs instead of inferring it from the source. It replaces the
// global operator new with a counting one; each cell runs once to learn
// its simulated length L, then again at the same seed with two
// fire-once events at L/4 and 3L/4 that open and close a counting
// window. The window holds about twice as many events as came before
// it, so a container that grows with the event count has to reallocate
// inside it at least once, however early it started growing.
//
// Cells: the Fig. 4 (MPI Search) and Fig. 3 (FFmpeg) recipes on all
// seven paper series at two instance sizes, and a fixed set of looping
// compute, disk and NIC tasks (a disk backlog, quota throttling, IRQs,
// virtio exits) on all seven series. The Fig. 5 WordPress recipe
// creates a task per request by design, so its window counts only
// allocations of a task record (exactly sizeof(os::Task)): a finished
// request's slot is reused, so a record is allocated only when the
// host holds more tasks at once than ever before. Cassandra is left
// out: an open-loop backlog can first reach a new depth inside the
// window, and that one-time growth of the disk's FIFO looks the same as
// a per-event allocation.
//
// It is its own executable because a replaced operator new in
// pinsim_tests would turn off ASan's new/delete checks for every other
// test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <tuple>

#include "virt/factory.hpp"
#include "virt/vm.hpp"
#include "workload/ffmpeg.hpp"
#include "workload/mpi.hpp"
#include "workload/wordpress.hpp"
#include "workload/workload.hpp"

// --- counting operator new ---------------------------------------------------

namespace {

constexpr int kKeptSizes = 8;

bool g_counting = false;
std::int64_t g_allocations = 0;
std::int64_t g_task_allocations = 0;   // of exactly sizeof(os::Task)
std::size_t g_sizes[kKeptSizes] = {};  // the first counted request sizes

void* allocate(std::size_t size, std::size_t align) {
  if (g_counting) {
    if (g_allocations < kKeptSizes) g_sizes[g_allocations] = size;
    ++g_allocations;
    if (size == sizeof(pinsim::os::Task)) ++g_task_allocations;
  }
  // aligned_alloc takes a nonzero multiple of the alignment.
  const std::size_t bytes = (std::max<std::size_t>(size, 1) + align - 1) /
                            align * align;
  void* p = std::aligned_alloc(align, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return allocate(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) { return allocate(size, kPlain); }
void* operator new[](std::size_t size) { return allocate(size, kPlain); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, kPlain);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, kPlain);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return allocate_nothrow(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pinsim {
namespace {

constexpr std::uint64_t kSeed = 42;

// --- cells -------------------------------------------------------------------

/// A fixed task: `rounds` times {compute, disk read, compute, NIC send},
/// or `rounds` compute chunks when it has no devices. It never
/// allocates, so whatever the window counts is the simulator's.
class LoopDriver final : public os::TaskDriver {
 public:
  LoopDriver(virt::Platform* io, SimDuration work, int rounds)
      : io_(io), work_(work), steps_(io != nullptr ? 4 * rounds : rounds) {}

  os::Action next(os::Task&) override {
    if (step_ == steps_) return os::Action::exit();
    const int phase = io_ != nullptr ? step_ % 4 : 0;
    ++step_;
    switch (phase) {
      case 1:
        return os::Action::io(io_->disk(),
                              hw::IoRequest{hw::IoKind::Read, 64.0});
      case 3:
        return os::Action::io(io_->nic(),
                              hw::IoRequest{hw::IoKind::NetSend, 16.0});
      default:
        return os::Action::compute(work_);
    }
  }

 private:
  virt::Platform* io_;
  SimDuration work_;
  int steps_;
  int step_ = 0;
};

/// Compute hogs that use up a Large instance's two-core quota, next to
/// IO loopers that outnumber the disk's two channels.
void run_io_loop(virt::Platform& platform) {
  constexpr int kHogs = 4;
  constexpr int kLoopers = 8;
  workload::Completion completion(platform.engine());
  for (int i = 0; i < kHogs + kLoopers; ++i) {
    const bool hog = i < kHogs;
    virt::WorkTaskConfig config;
    config.name = hog ? "hog" : "looper";
    config.on_exit = completion.tracker(platform.engine().now());
    completion.expect(1);
    os::Task& task = platform.spawn(
        std::move(config),
        hog ? std::make_unique<LoopDriver>(nullptr, msec(2), 600)
            : std::make_unique<LoopDriver>(&platform, msec(1), 60));
    platform.start(task);
  }
  workload::run_to_completion(platform, completion, sec(600), "io loop");
}

void run_recipe(const std::string& recipe, virt::Platform& platform) {
  // The workload stream ExperimentRunner::run_once derives from a seed.
  const Rng rng(kSeed ^ 0x517cc1b727220a95ull);
  if (recipe == "mpi") {
    workload::MpiSearch().run(platform, rng);
  } else if (recipe == "ffmpeg") {
    workload::Ffmpeg().run(platform, rng);
  } else if (recipe == "wordpress") {
    workload::WordPress().run(platform, rng);
  } else {
    run_io_loop(platform);
  }
}

// --- one windowed run --------------------------------------------------------

/// The per-event paths some window must take, and how often one
/// window's events took each. The disk backlog is the deeper of its
/// depths at the window's two edges.
constexpr const char* kPathNames[] = {
    "host throttles",
    "host preemptions",
    "host migrations",
    "host IRQs",
    "host cgroup aggregations",
    "host steals or balance moves",
    "guest halts",
    "guest kicks",
    "guest throttles",
    "guest IO exits",
    "guest migrations",
    "disk backlog",
};
using Paths = std::array<std::int64_t, std::size(kPathNames)>;

struct Snapshot {
  os::KernelStats host;
  virt::GuestStats guest;
};

struct Outcome {
  SimTime end = 0;
  std::int64_t fired = 0;
  std::int64_t allocations = 0;
  std::size_t sizes[kKeptSizes] = {};
  Paths paths = {};
  /// Task records allocated and host tasks created in the window, and
  /// the host's task slots when it opened and closed, and at the end of
  /// the run.
  std::int64_t task_allocations = 0;
  os::Task::Id created = 0;
  std::size_t slots_open = 0;
  std::size_t slots_close = 0;
  std::size_t slots_end = 0;
  /// The most host tasks live at once over the run.
  int peak_live = 0;
};

/// Reads the host's live-task count whenever a task leaves its cpu.
/// A finishing task leaves its cpu just before it retires, the only
/// step that lowers the count, so the largest reading is the peak.
class PeakLive final : public os::SchedObserver {
 public:
  explicit PeakLive(const os::Kernel& kernel) : kernel_(&kernel) {}
  void on_slice(const os::Task&, int, SimDuration) override {
    peak_ = std::max(peak_, kernel_->live_tasks());
  }
  int peak() const { return peak_; }

 private:
  const os::Kernel* kernel_;
  int peak_ = 0;
};

/// One past the largest id the kernel has given a task: ids count up
/// from 0 in creation order, and the newest task still holds its slot.
os::Task::Id next_task_id(const os::Kernel& kernel) {
  os::Task::Id next = 0;
  for (const auto& task : kernel.tasks()) {
    next = std::max(next, task->id() + 1);
  }
  return next;
}

/// Run `recipe` on `spec`. With `window_end` > 0, count allocations
/// between two fire-once events at `window_begin` and `window_end`.
Outcome run_cell(const std::string& recipe, const virt::PlatformSpec& spec,
                 SimTime window_begin, SimTime window_end) {
  virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                  hw::CostModel{}, kSeed);
  auto platform = virt::make_platform(host, spec);
  auto* vm = dynamic_cast<virt::VmPlatform*>(platform.get());
  const auto snapshot = [&] {
    return Snapshot{host.kernel().stats(),
                    vm != nullptr ? vm->guest().stats() : virt::GuestStats{}};
  };

  PeakLive peak_live(host.kernel());
  host.kernel().add_observer(peak_live);

  Outcome out;
  Snapshot before;
  int backlog_at_open = 0;
  if (window_end > 0) {
    host.engine().schedule_detached_at(window_begin, [&] {
      before = snapshot();
      backlog_at_open = host.disk().queue_depth();
      out.slots_open = host.kernel().tasks().size();
      out.created = -next_task_id(host.kernel());
      g_allocations = 0;
      g_task_allocations = 0;
      g_counting = true;
    });
    host.engine().schedule_detached_at(window_end, [&] {
      g_counting = false;
      out.allocations = g_allocations;
      out.task_allocations = g_task_allocations;
      out.slots_close = host.kernel().tasks().size();
      out.created += next_task_id(host.kernel());
      std::copy(std::begin(g_sizes), std::end(g_sizes), std::begin(out.sizes));
      const Snapshot after = snapshot();
      const os::KernelStats& h0 = before.host;
      const os::KernelStats& h1 = after.host;
      const virt::GuestStats& g0 = before.guest;
      const virt::GuestStats& g1 = after.guest;
      out.paths = {// in kPathNames order
                   h1.throttle_events - h0.throttle_events,
                   h1.preemptions - h0.preemptions,
                   h1.migrations - h0.migrations,
                   h1.irqs - h0.irqs,
                   h1.aggregation_events - h0.aggregation_events,
                   h1.steals + h1.balance_moves - h0.steals -
                       h0.balance_moves,
                   g1.halts - g0.halts,
                   g1.kicks - g0.kicks,
                   g1.throttle_events - g0.throttle_events,
                   g1.io_exits - g0.io_exits,
                   g1.guest_migrations - g0.guest_migrations,
                   std::max(backlog_at_open, host.disk().queue_depth())};
    });
  }
  run_recipe(recipe, *platform);
  g_counting = false;
  out.end = host.engine().now();
  out.fired = host.engine().stats().fired;
  out.slots_end = host.kernel().tasks().size();
  out.peak_live = peak_live.peak();
  return out;
}

std::string sizes_of(const Outcome& out) {
  std::ostringstream s;
  const auto kept = std::min<std::int64_t>(out.allocations, kKeptSizes);
  for (std::int64_t i = 0; i < kept; ++i) {
    s << (i == 0 ? "" : ", ") << out.sizes[i] << " B";
  }
  if (out.allocations > kKeptSizes) s << ", ...";
  return s.str();
}

/// The windowed run of one cell, after a plain run that measures its
/// length. The window's events must not move the run: the same end
/// instant, and exactly two more events fired.
Outcome windowed(const std::string& recipe, const virt::PlatformSpec& spec) {
  const Outcome plain = run_cell(recipe, spec, 0, 0);
  const Outcome out =
      run_cell(recipe, spec, plain.end / 4, plain.end / 4 * 3);
  EXPECT_EQ(out.end, plain.end);
  EXPECT_EQ(out.fired, plain.fired + 2);
  return out;
}

virt::PlatformSpec series(const std::string& size, int index) {
  return virt::paper_series(
      virt::instance_by_name(size))[static_cast<std::size_t>(index)];
}

// --- the tests ---------------------------------------------------------------

using CellParam = std::tuple<std::string, std::string, int>;

class SteadyStateAllocTest : public ::testing::TestWithParam<CellParam> {};

TEST_P(SteadyStateAllocTest, NothingAllocatesInTheWindow) {
  const auto& [recipe, size, index] = GetParam();
  const Outcome out = windowed(recipe, series(size, index));
  EXPECT_EQ(out.allocations, 0) << "sizes: " << sizes_of(out);
}

std::string cell_name(const ::testing::TestParamInfo<CellParam>& info) {
  const auto& [recipe, size, index] = info.param;
  std::string label = series(size, index).label();
  std::replace(label.begin(), label.end(), ' ', '_');
  return recipe + "_" + size + "_" + label;
}

INSTANTIATE_TEST_SUITE_P(
    Figures, SteadyStateAllocTest,
    ::testing::Combine(::testing::Values("mpi", "ffmpeg"),
                       ::testing::Values("xLarge", "16xLarge"),
                       ::testing::Range(0, 7)),
    cell_name);

INSTANTIATE_TEST_SUITE_P(IoLoop, SteadyStateAllocTest,
                         ::testing::Combine(::testing::Values("io"),
                                            ::testing::Values("Large"),
                                            ::testing::Range(0, 7)),
                         cell_name);

// Fig. 5 WordPress on the host series (CN vanilla, CN pinned, BM): a
// process per request, so a 1,000-request burst allocates drivers and
// exit hooks throughout. Its task records, though, are allocated only
// as the table grows, and the table never holds more than the most
// tasks live at once (plus the slot of a task whose exit hook runs).
// At 8xLarge and 16xLarge requests finish as fast as they arrive, so
// the window sees hundreds start; on smaller instances the burst
// queues and the window opens after the last arrival.
class WordPressTaskRecordTest : public ::testing::TestWithParam<CellParam> {};

TEST_P(WordPressTaskRecordTest, RecordsOnlyAtANewLivePeak) {
  const auto& [recipe, size, index] = GetParam();
  const Outcome out = windowed(recipe, series(size, index));
  RecordProperty("task_allocations", std::to_string(out.task_allocations));
  RecordProperty("created", std::to_string(out.created));
  RecordProperty("peak_live", std::to_string(out.peak_live));
  EXPECT_GT(out.created, 0);
  EXPECT_LE(out.task_allocations,
            static_cast<std::int64_t>(out.slots_close - out.slots_open))
      << "slots " << out.slots_open << " -> " << out.slots_close;
  EXPECT_LE(out.slots_end, static_cast<std::size_t>(out.peak_live) + 1)
      << "task records allocated in the window: " << out.task_allocations;
}

INSTANTIATE_TEST_SUITE_P(Fig5Host, WordPressTaskRecordTest,
                         ::testing::Combine(::testing::Values("wordpress"),
                                            ::testing::Values("8xLarge",
                                                              "16xLarge"),
                                            ::testing::Range(4, 7)),
                         cell_name);

// A window that never takes a path proves nothing about it. Across the
// IO cells on all seven series, each path in kPathNames runs inside
// some window.
TEST(SteadyStateCoverageTest, WindowsTakeEveryPath) {
  Paths seen = {};
  for (int index = 0; index < 7; ++index) {
    const Paths p = windowed("io", series("Large", index)).paths;
    for (std::size_t k = 0; k < seen.size(); ++k) {
      seen[k] = std::max(seen[k], p[k]);
    }
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_GT(seen[k], 0) << kPathNames[k];
  }
}

}  // namespace
}  // namespace pinsim
