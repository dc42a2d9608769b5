// In-memory spans for the benchmark's traced mode.
//
// The benchmark opens a span around each of its own calls into a pinsim
// layer (Host construction, make_platform, Workload::run, Fleet::run,
// the layer probes). Spans nest strictly because everything runs on one
// thread: a span's parent is whichever span was open when it began.
// They are kept in memory and written out once, at exit, so the trace
// file costs nothing while the clock runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double since_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

struct Span {
  const char* name = "";
  /// Platform kind ("bm", "cn", "vm", "vmcn") for spans around a
  /// simulation run, "" otherwise.
  const char* label = "";
  /// Index of the enclosing span in the recorder, -1 for a root.
  int parent = -1;
  /// Simulation run the span belongs to (a sweep cell or a fleet run),
  /// -1 for pass-level and probe spans.
  std::int64_t run = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  /// Open a span as a child of the innermost open span.
  int begin(const char* name, std::int64_t run = -1, const char* label = "");
  /// Close span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  bool idle() const { return open_.empty(); }

  /// One JSON object per line.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced mode).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t run = -1,
             const char* label = "")
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name, run, label) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap on one thread).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Empty when the spans are well formed: every span closed, end >= start,
/// parents precede children, each child lies inside its parent, and no
/// self time is negative. Otherwise a description of the first problem.
std::string check_well_formed(const std::vector<Span>& spans);

/// Index of each span's root ancestor.
std::vector<int> roots(const std::vector<Span>& spans);

}  // namespace perfbench
