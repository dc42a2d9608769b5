// FFmpeg video-transcoding workload (paper §III-B1, Figures 3, 7, 8).
//
// Changing the codec of a 30 MB HD video from AVC (H.264) to HEVC
// (H.265) — the most CPU-intensive transcoding operation, with a small
// (~50 MB) memory footprint. Modelled as one process per input video:
// a coordinator thread doing the serial bitstream work plus N encoder
// threads splitting the parallelizable encode, N sized from the cpus the
// platform makes *visible* (like x265's thread-pool autosizing — inside a
// vanilla container that is the whole host, which is how small vanilla
// containers end up over-threaded) and capped at 16, the paper's stated
// FFmpeg scaling limit.
#pragma once

#include "workload/workload.hpp"

namespace pinsim::workload {

struct FfmpegConfig {
  /// Serial (non-parallelizable) bitstream/mux work, one-core seconds.
  double serial_seconds = 6.0;
  /// Parallelizable encode work, one-core seconds.
  double parallel_seconds = 50.0;
  /// Effective encoder parallelism cap. The paper states FFmpeg can
  /// utilize up to 16 cores; on an HD source, x265's wavefront
  /// parallelism saturates earlier — a cap of 10 reproduces the paper's
  /// measured flattening between 2xLarge and 4xLarge.
  int max_threads = 10;
  /// Per-process startup work: demux/probe, codec init, file IO
  /// (one-core seconds; paid once per input file).
  double startup_seconds = 1.0;
  /// Source duration; splitting it into many files (Fig. 8) leaves each
  /// file too short to parallelize well.
  double source_seconds = 30.0;
  /// Work is produced in chunks of this size (scheduler interaction
  /// granularity — a frame batch).
  double chunk_ms = 40.0;
  /// Relative jitter on chunk sizes.
  double jitter = 0.08;
  /// Total hot working set of the encode (paper: ~50 MB).
  double working_set_mb = 50.0;
  /// Number of independent transcode processes (Fig. 8 multitasking
  /// experiment: 1 large video vs 30 small ones). Total work is split
  /// evenly across processes.
  int processes = 1;
  /// Safety horizon.
  SimTime horizon = sec(1200);
};

class Ffmpeg final : public Workload {
 public:
  explicit Ffmpeg(FfmpegConfig config = {}) : config_(config) {}

  std::string name() const override { return "ffmpeg"; }

  /// Metric: mean execution time of the transcode processes (= makespan
  /// for a single process).
  RunResult run(virt::Platform& platform, Rng rng) override;

  /// Encoder threads a process spawns on `platform`.
  int threads_on(const virt::Platform& platform) const;

 private:
  FfmpegConfig config_;
};

}  // namespace pinsim::workload
