// The traced views of a fleet pass, driven from outside the engine
// through each layer's public calls.
//
//  * Production order: per block, recon::BlockStream begin/advance_to/
//    finalize calls exactly as core::StreamingFleet::run_to_completion
//    makes them, then core::classify_blocks_batch (single window) or
//    core::classify_block (split windows), then core::BatchDetector.
//    Its outcomes must hash to the production digest, which shows the
//    replay runs the production path.
//  * Stage view: the same blocks through probe::round_prober_resume,
//    fault::apply_faults_chunk, recon::one_loss_repair,
//    probe::merge_observations_into and recon::reconstruct, one
//    whole-window call each, so each stage gets its own span.
//
// Both views run on worker threads that claim work from a shared
// counter, like the engine.  Each worker records into its own SpanLog
// under one root span, so self times per layer are thread-seconds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aggregate.h"
#include "core/pipeline.h"
#include "harness.h"
#include "sim/world_slice.h"

namespace drivebench {

/// Work counts of one pass (either view).
struct PassCounts {
  std::size_t classified = 0;      ///< blocks through classification
  std::size_t detect_samples = 0;  ///< series samples through detection
  std::size_t samples = 0;         ///< reconstructed samples
  std::size_t probes = 0;          ///< probe observations (stage view)
  std::size_t fault_input = 0;     ///< observations entering injection
  std::size_t fault_kept = 0;      ///< observations injection left unaltered
  std::size_t repairs = 0;         ///< non-replies flipped by 1-loss repair

  void add(const PassCounts& o);
};

/// Where a pass runs: a materialized population split into chunks, or a
/// block generator split into shards (each worker materializes one
/// sim::WorldSlice at a time, like core::run_sharded_fleet).
struct Population {
  std::span<const diurnal::sim::BlockProfile> blocks;  ///< chunked mode
  const diurnal::sim::BlockGenerator* generator = nullptr;  ///< shard mode
  std::size_t shard_size = 0;

  std::size_t size() const;
};

/// Production-order pass.  Fills `out` (outcomes and funnel, aligned
/// with the population) and `agg` (change aggregation).  `logs` null =
/// spans off; otherwise it is resized to one log per worker.
PassCounts replay_production(const diurnal::core::FleetConfig& fc,
                             const Population& pop, unsigned threads,
                             std::vector<SpanLog>* logs,
                             diurnal::core::FleetResult& out,
                             diurnal::core::ChangeAggregator& agg);

/// Stage-view pass over the detection window.
PassCounts replay_stages(const diurnal::core::FleetConfig& fc,
                         const Population& pop, unsigned threads,
                         std::vector<SpanLog>* logs);

}  // namespace drivebench
