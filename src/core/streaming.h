// Streaming fleet engine: the staged, round-by-round pipeline over a
// whole world.  Every drive is a short schedule over two per-cell steps,
// and each window mode is written once, inside those steps:
//
//   * ingest(cell, until) consumes every round starting before `until`.
//     In the split-window modes it records the block's classification
//     verdict on the call that crosses the classification end — before
//     consuming any later round — and keeps ingesting detection rounds
//     only if the block is watched (change-sensitive, detection on).
//     kUnion classifies from the reconstruction the stream forked at the
//     boundary; kSeparate from a dedicated classification pass.
//   * finish(cell) produces the authoritative outcome: kSame classifies
//     and detects the full-window reconstruction, the split modes detect
//     on watched blocks.  Finished blocks queue into the worker's SoA
//     batch (analysis/batch.h): kSame batches the classify+detect chain,
//     and detection is batched whenever the trend model is STL.
//
// The three schedules:
//
//   * run_to_completion() — the batch drive (run_fleet() wraps it).  One
//     worker-local cell per worker: begin, ingest(window end), finish,
//     block after block, so only one live stream per worker exists.
//   * advance_to(t) — the incremental drive: ingest(t) on every cell,
//     then the provisional watch.  Each advance returns an EpochReport
//     with delivery counts, classification progress, and *provisional*
//     change alarms (trailing-window STL + online CUSUM over the stable
//     emitted-sample prefix).
//   * finalize() — ingest(window end) and finish on every cell: the
//     authoritative FleetResult, bit-identical to the batch drive
//     whatever the epoch schedule, because the per-block state machines
//     make any chopping of the window finalize to the same bytes.
//
// Provisional vs authoritative: epoch alarms are early warnings, not
// detections.  They z-normalize with running statistics and freeze the
// trend as first estimated (the trailing STL's rightmost values, where
// the fit is least stable), so they can lead, lag, or miss the final
// verdict; only the full-window detection is comparable across runs and
// hashed by the fleet digest.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "analysis/block_analyzer.h"
#include "analysis/cusum.h"
#include "core/pipeline.h"
#include "core/series_store.h"
#include "recon/stream.h"

namespace diurnal::core {

/// An early-warning change alarm surfaced by the incremental drive.
struct ProvisionalChange {
  net::BlockId id{};
  util::SimTime start = 0;  ///< where the accumulator left zero
  util::SimTime alarm = 0;  ///< threshold crossing
  util::SimTime end = 0;    ///< excursion peak
  analysis::ChangeDirection direction = analysis::ChangeDirection::kDown;
  /// Excursion amplitude under the running normalization (z-units);
  /// not comparable to DetectedChange::amplitude.
  double amplitude = 0.0;
};

/// What one advance_to() call produced.
struct EpochReport {
  std::size_t epoch_index = 0;
  util::SimTime epoch_start = 0;  ///< previous high-water mark
  util::SimTime epoch_end = 0;    ///< new high-water mark (clamped)
  /// Post-fault observations delivered across the fleet this epoch.
  std::size_t observations = 0;
  /// True once every block's classification verdict is final (the
  /// classification window has been fully ingested).  The funnel below
  /// is populated from that point on.
  bool classification_complete = false;
  FunnelCounts funnel{};
  /// Alarms confirmed this epoch, ordered by (alarm time, block id).
  std::vector<ProvisionalChange> provisional;
};

class StreamingFleet {
 public:
  /// Read-only per-block row extracted from the incremental drive for
  /// the query plane's epoch snapshots (core/snapshot_server.h).  Rows
  /// align with the engine's block span.
  struct BlockSnapshotRow {
    net::BlockId id{};
    bool begun = false;
    bool active = false;      ///< still ingesting rounds
    bool classified = false;  ///< cls/degradation below are authoritative
    bool watched = false;     ///< provisional detector runs on this block
    std::size_t delivered = 0;  ///< post-fault observations so far
    std::size_t emitted = 0;    ///< stable reconstructed samples so far
    /// Live coverage over the emitted prefix (mid-stream
    /// snapshot_stats); meaningful when emitted > 0.
    double evidence_fraction = 0.0;
    double max_gap_hours = 0.0;
    /// Mid-run verdicts: the split-window modes publish them as soon as
    /// the classification window is ingested; kSame classifies at
    /// finalize, so these stay default until drain.
    BlockClassification cls{};
    fault::BlockDegradation degradation{};
  };
  /// Borrows `world` for the engine's lifetime; `config` is copied.
  StreamingFleet(const sim::World& world, const FleetConfig& config)
      : StreamingFleet(std::span<const sim::BlockProfile>(world.blocks()),
                       config) {}

  /// Span form: drives any contiguous block population (a full world or
  /// one shard's WorldSlice).  Outcomes/degradation/series rows align
  /// with `blocks`; the storage must outlive the engine.
  StreamingFleet(std::span<const sim::BlockProfile> blocks,
                 const FleetConfig& config);
  StreamingFleet(const StreamingFleet&) = delete;
  StreamingFleet& operator=(const StreamingFleet&) = delete;

  util::SimTime window_start() const noexcept { return window_.start; }
  util::SimTime window_end() const noexcept { return window_.end; }

  /// Batch drive: processes every block start-to-finish in parallel (one
  /// live cell per worker) and returns the result.  Use either this or
  /// the incremental drive on one engine instance, not both.
  FleetResult run_to_completion();

  /// Incremental drive: ingests every round starting before `until`
  /// (clamped to the detection window) across all blocks.  Monotone in
  /// `until`; a no-op advance returns an empty report.
  EpochReport advance_to(util::SimTime until);

  /// Drains all remaining state and returns the authoritative result,
  /// bit-identical to run_to_completion() regardless of how the window
  /// was chopped into epochs.
  FleetResult finalize();

  /// High-water mark of the incremental drive (the next advance/resume
  /// point).  window_start() until the first advance.
  util::SimTime clock() const noexcept { return clock_; }

  /// Serializes the incremental drive's complete mid-window state:
  /// every cell's reconstruction stream, provisional-detector moments
  /// and CUSUM, plus any mid-run classification verdicts.  Valid only
  /// between advances (never after finalize()).  restore() targets a
  /// freshly constructed engine over the same blocks and FleetConfig —
  /// it re-begins each cell's stream internally, then overwrites the
  /// mutable state, so advance/finalize after restore are bit-identical
  /// to an uninterrupted run (tests/test_checkpoint.cc gates this at
  /// every epoch boundary).  A mismatched window, mode, or block count
  /// throws StateError(kBadValue).
  void save(util::StateWriter& w) const;
  void restore(util::StateReader& r);

  /// Fills `rows` (resized to the block span) with the incremental
  /// drive's current per-block state.  Like save(), valid only between
  /// advances and only from the thread driving the engine — the rows
  /// are a copy, so the caller may publish them to other threads.
  void extract_rows(std::vector<BlockSnapshotRow>& rows) const;

  /// The stable emitted-sample prefix of block i's detection-window
  /// reconstruction.  Same validity rules as extract_rows(); the view
  /// is invalidated by the next advance, so concurrent consumers must
  /// copy.  Empty before the block's stream begins.
  std::span<const double> emitted_series(std::size_t i) const;

 private:
  /// How the classification pass relates to the detection pass.
  enum class Mode {
    kSame,      ///< one window serves both (one pass, one recon)
    kUnion,     ///< classification is a prefix: one pass, forked recon
    kSeparate,  ///< unrelated windows: dedicated classification pass
  };

  /// Per-block state: one per block for the incremental drive (lazily
  /// built by the first advance), one per worker for the batch drive.
  struct Cell {
    recon::BlockStream stream;
    bool begun = false;
    bool active = false;      ///< still ingesting rounds
    bool classified = false;  ///< authoritative verdict recorded
    bool screened = false;    ///< provisional watch decision made
    bool watched = false;     ///< provisional detector runs on this block
    std::size_t delivered = 0;  ///< high-water mark for epoch deltas
    // Provisional detector state: trend values frozen as first
    // estimated, z-normalized by running moments, scanned by an online
    // CUSUM over the concatenated z sequence.
    std::size_t trend_fed = 0;   ///< recon samples already folded in
    std::size_t trend_base = 0;  ///< recon index of the first z pushed
    double tsum = 0.0, tsum2 = 0.0;
    std::size_t tn = 0;
    analysis::OnlineCusum cusum;
    std::size_t reported = 0;  ///< confirmed changes already surfaced
  };

  /// One worker's context (defined in streaming.cc): probing scratch,
  /// the classification pass, stats buffers, the analyzers and the SoA
  /// batch queue.  Built once per run_pool() call, for every drive.
  struct Worker;

  /// Runs `step(worker, i)` for every block index across the worker
  /// pool, then drains each worker's queued batch; returns the workers
  /// for the caller's reductions.
  template <typename Step>
  std::deque<Worker> run_pool(Step&& step);

  // The per-cell steps (see the file comment).  begin_cell() resets the
  // cell for block i (keeping the stream's buffers) and begins its
  // detection-window stream; ingest() begins lazily.
  void begin_cell(Cell& c, std::size_t i, probe::ProbeScratch& scratch);
  void ingest(Cell& c, std::size_t i, util::SimTime until, Worker& w);
  void finish(Cell& c, std::size_t i, Worker& w);
  /// Analyzes the blocks finish() queued on `w` in one SoA batch.
  void flush(Worker& w);

  void classify_outcome(std::size_t i, std::span<const double> counts,
                        const recon::DegradedReconStats& ds,
                        analysis::BlockAnalyzer& az);
  void screen_cell(Cell& c, Worker& w);
  void update_provisional(Cell& c, std::size_t i, Worker& w);
  void finish_result();

  std::span<const sim::BlockProfile> blocks_;
  /// The engine's own copy: classify_oc_/detect_oc_ point into its
  /// fault plan, so the engine is neither copyable nor movable.
  const FleetConfig config_;
  Mode mode_ = Mode::kSame;
  probe::ProbeWindow window_{};           ///< detection window
  probe::ProbeWindow classify_window_{};  ///< classification window
  recon::BlockObservationConfig classify_oc_{};
  recon::BlockObservationConfig detect_oc_{};
  double evidence_floor_ = 0.0;
  unsigned threads_ = 1;
  /// kUnion's fork point for the classification reconstruction (0 =
  /// no fork).
  util::SimTime fork_end_ = 0;
  /// ingest() records the split-mode verdict once it reaches this time;
  /// never for kSame, whose verdict comes from finish().
  util::SimTime verdict_end_ = 0;
  /// Ingesting up to here completes every stream and every split-mode
  /// verdict (the classification window may end after the detection
  /// window).
  util::SimTime drain_end_ = 0;
  /// kSame has no verdict before finish(): a provisional screen of the
  /// stream so far decides which blocks the incremental drive watches.
  bool screen_ = false;
  /// Detection runs through the batched kernels (STL trend model).
  bool batch_detect_ = false;

  FleetResult result_;
  /// Columnar destination for detection-window series: rows are bound
  /// to each block's reconstruction before it runs, then moved into
  /// result_.series by finish_result().
  SeriesStore store_;
  bool finished_ = false;

  // Incremental drive state.
  std::vector<Cell> cells_;
  util::SimTime clock_ = 0;
  std::size_t epoch_index_ = 0;
};

}  // namespace diurnal::core
