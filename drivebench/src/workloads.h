// Two drives of the pipeline as benchmark workloads:
//
//   fleet-golden  batch core::run_fleet over the 2004-block world
//   shard-split   core::run_sharded_fleet over ~10k blocks, split windows,
//                 burst-loss faults, checkpoints on
//
// Each runs untraced (end-to-end metrics) or traced (per-layer metrics).
// fleet-golden's traced run also measures the serve layers
// (core::SnapshotServer with 6-hour epochs and a paced open-loop query
// generator) on its world.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace drivebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Generated blocks of the world; 0 = the workload's default size.
  /// Only the default size at seed 1 is checked against a pinned digest.
  int blocks = 0;
  /// Directory (relative to the working directory) for checkpoint files
  /// and the span dump.
  std::string work_dir = ".bench_build/drivebench-work";
  /// Test hook: the untraced in-process timed pass with this number
  /// (0 = the first) throws; -1 = none.
  int fail_pass = -1;
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Result run_workload(const Options& opt);

}  // namespace drivebench
