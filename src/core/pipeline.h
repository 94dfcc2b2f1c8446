// End-to-end fleet pipeline: probe -> repair -> merge -> reconstruct ->
// classify -> extract trend -> detect changes, over every block of a
// world (paper Table 1), parallelized across blocks.
//
// Following section 3.4, classification can run on a short window (the
// paper uses 2020m1, before Covid skews the baseline) while detection
// runs over a longer one (2020h1).
//
// run_fleet() is the batch schedule of the one streaming engine
// (core/streaming.h); the incremental, sharded and served drives
// finalize to the same bytes.  The analysis runs through the batched
// SoA kernels wherever the engine can use them (analysis/batch.h); the
// result is bit-identical to the scalar kernels per block.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/aggregate.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "core/detect.h"
#include "core/series_store.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "probe/loss_model.h"
#include "recon/block_recon.h"
#include "sim/world.h"

namespace diurnal::core {

struct FleetConfig {
  /// Detection dataset: probing window and observer set.
  DatasetSpec dataset;
  /// Classification dataset; defaults to `dataset` when unset.
  std::optional<DatasetSpec> classify_dataset;

  probe::LossModelConfig loss{};
  bool one_loss_repair = true;
  bool additional_observations = false;

  /// Observer fault plan (degraded mode).  The default empty plan is the
  /// healthy fleet: output is bit-identical to a run without the fault
  /// layer.  With a seeded plan the run stays deterministic across
  /// thread counts; classifications and detections whose evidence
  /// degrades are annotated rather than silently misreported.
  fault::FaultPlan faults{};

  ClassifierOptions classifier{};
  DetectorOptions detector{};
  recon::ReconOptions recon{};  ///< hourly sampling by default

  /// Run change detection on change-sensitive blocks.
  bool run_detection = true;

  /// When the classification window is a prefix of the detection window
  /// (same start, same observers, no skew faults), observe once over
  /// the detection window and fork the classification reconstruction at
  /// the boundary instead of re-observing the overlap.  Results are
  /// bit-identical either way; disable only to cross-check that
  /// equivalence or to time the two-pass path.
  bool fuse_observation_windows = true;

  int threads = 0;  ///< 0 = hardware concurrency
};

struct BlockOutcome {
  net::BlockId id{};
  BlockClassification cls{};
  /// Detected changes (only populated for change-sensitive blocks when
  /// run_detection is set).
  std::vector<DetectedChange> changes;
};

struct FleetResult {
  FunnelCounts funnel{};                 ///< the Table 2 row
  std::vector<BlockOutcome> outcomes;    ///< aligned with world.blocks()
  /// Per-block coverage/trust accounting (blocks aligned with outcomes).
  fault::DegradationReport degradation{};
  /// Columnar per-block reconstructed series (rows aligned with
  /// outcomes).  Which rows are populated depends on the window mode:
  /// with a single fused window every nonzero block's detection-window
  /// series is present; with separate classification/detection windows
  /// only change-sensitive blocks reach the detection pass, so other
  /// rows have length 0.  Not hashed by the fleet digest.
  SeriesStore series;
};

/// Runs the pipeline over every block of the world.
FleetResult run_fleet(const sim::World& world, const FleetConfig& config);

/// The per-block observation setup (observers, loss, prober, repair,
/// faults, reconstruction) the fleet uses for dataset `ds`.
recon::BlockObservationConfig block_observation_config(
    const FleetConfig& cfg, const DatasetSpec& ds);

/// Degraded-mode annotation: marks every change low-evidence when the
/// reconstruction's evidence fraction is below `evidence_floor`, else
/// each change whose evidence window overlaps a coverage gap.
void annotate_low_evidence(std::vector<DetectedChange>& changes,
                           double evidence_fraction,
                           std::span<const recon::CoverageGap> gaps,
                           double evidence_floor);

/// Aggregates a fleet result's activity changes by gridcell/continent
/// over the detection window.
ChangeAggregator aggregate_changes(const sim::World& world,
                                   const FleetResult& result,
                                   const FleetConfig& config);

}  // namespace diurnal::core
