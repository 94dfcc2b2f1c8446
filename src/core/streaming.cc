#include "core/streaming.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "analysis/stl.h"
#include "core/checkpoint.h"

namespace diurnal::core {

namespace {

unsigned resolve_threads(int requested) {
  const unsigned n = requested > 0
                         ? static_cast<unsigned>(requested)
                         : std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(n, 64);
}

// Chunked self-scheduling: workers steal fixed runs of consecutive
// blocks from a shared counter.  Chunks amortize the atomic to one
// fetch_add per kChunk blocks while still load-balancing (block costs
// vary by orders of magnitude between categories); consecutive blocks
// also keep each worker's scratch buffers at a stable working size.
// Each block's state and result slots are its own, so the schedule
// cannot affect the output (see bench_fleet's determinism gate) —
// fault injection included, because every fault draw is a stateless
// hash, never shared RNG state.
constexpr std::size_t kChunk = 16;

constexpr std::size_t kLanes = analysis::BatchAnalyzer::kMaxLanes;

/// Trailing-window span for the provisional detector's STL re-fits, in
/// seasonal periods: long enough that the right edge of the trend is
/// anchored by a few full cycles, short enough that the per-epoch cost
/// stays flat as the stream grows.
constexpr std::size_t kTrailPeriods = 5;

}  // namespace

// One worker's context.  finish() queues finalized blocks as slots
// until a full-width SoA batch is ready (the ragged tail flushes
// narrower when the worker runs out of blocks).  finalize_stats()
// writes into the slot in place, and slot vectors reuse their
// high-water capacity, so every drive keeps its zero-allocs-per-block
// steady state.
struct StreamingFleet::Worker {
  struct Slot {
    std::size_t index = 0;
    bool classify = false;  ///< kSame: the verdict is computed at flush
    recon::DegradedReconStats sr;
  };

  explicit Worker(const DetectorOptions& detector) : det(detector) {}

  probe::ProbeScratch scratch;
  recon::BlockStream cpass;         ///< kSeparate classification pass
  recon::DegradedReconStats sr;     ///< classification-window stats
  recon::ReconStats screen_stats;   ///< provisional screen snapshot
  analysis::BlockAnalyzer analyzer;
  std::array<Slot, kLanes> slots;
  std::size_t n_slots = 0;
  analysis::BatchAnalyzer baz;
  BatchDetector det;
  Cell cell;  ///< the batch drive's one live cell
  // Incremental-drive reductions.
  std::size_t delivered = 0;
  std::vector<ProvisionalChange> found;
};

template <typename Step>
std::deque<StreamingFleet::Worker> StreamingFleet::run_pool(Step&& step) {
  std::deque<Worker> workers;
  for (unsigned t = 0; t < threads_; ++t) {
    workers.emplace_back(config_.detector);
  }
  std::atomic<std::size_t> next{0};
  auto work = [&](Worker& w) {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= blocks_.size()) break;
      const std::size_t end = std::min(begin + kChunk, blocks_.size());
      for (std::size_t i = begin; i < end; ++i) step(w, i);
    }
    flush(w);
  };
  if (threads_ <= 1) {
    work(workers.front());
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (auto& w : workers) pool.emplace_back(work, std::ref(w));
    for (auto& t : pool) t.join();
  }
  return workers;
}

StreamingFleet::StreamingFleet(std::span<const sim::BlockProfile> blocks,
                               const FleetConfig& config)
    : blocks_(blocks), config_(config) {
  const DatasetSpec& classify_ds =
      config.classify_dataset ? *config.classify_dataset : config.dataset;
  window_ = config.dataset.window();
  classify_window_ = classify_ds.window();
  const bool same_window =
      !config.classify_dataset ||
      (classify_window_.start == window_.start &&
       classify_window_.end == window_.end &&
       classify_ds.sites == config.dataset.sites &&
       classify_ds.survey == config.dataset.survey);
  // The fused single pass requires the classification stream to be a
  // prefix slice of the detection stream: same start and observers so
  // the rounds coincide, and no skew faults because retiming drops
  // depend on the window span.
  const bool nested = classify_window_.start == window_.start &&
                      classify_window_.end <= window_.end &&
                      classify_ds.sites == config.dataset.sites &&
                      classify_ds.survey == config.dataset.survey &&
                      config.faults.skews.empty();
  mode_ = same_window ? Mode::kSame
                      : (config.fuse_observation_windows && nested
                             ? Mode::kUnion
                             : Mode::kSeparate);
  classify_oc_ = block_observation_config(config, classify_ds);
  detect_oc_ = block_observation_config(config, config.dataset);
  evidence_floor_ = config.classifier.min_evidence_fraction;
  threads_ = resolve_threads(config.threads);
  fork_end_ = mode_ == Mode::kUnion ? classify_window_.end : 0;
  verdict_end_ = mode_ == Mode::kSame
                     ? std::numeric_limits<util::SimTime>::max()
                     : classify_window_.end;
  drain_end_ = std::max(window_.end, classify_window_.end);
  screen_ = mode_ == Mode::kSame;
  batch_detect_ = config.run_detection &&
                  config.detector.trend_model == TrendModel::kStl;

  result_.outcomes.resize(blocks_.size());
  result_.degradation.blocks.resize(blocks_.size());
  // One allocation for every block's detection-window series; rows are
  // bound to each reconstruction as it begins (stride mirrors
  // BlockReconState::begin()'s sample count).
  const std::int64_t sstep = detect_oc_.recon.sample_step;
  const std::int64_t dur = window_.end - window_.start;
  const std::size_t stride =
      (sstep <= 0 || dur <= 0)
          ? 0
          : static_cast<std::size_t>((dur + sstep - 1) / sstep);
  store_.reset(blocks_.size(), stride, window_.start, sstep);
  clock_ = window_.start;
}

void StreamingFleet::classify_outcome(std::size_t i,
                                      std::span<const double> counts,
                                      const recon::DegradedReconStats& ds,
                                      analysis::BlockAnalyzer& az) {
  BlockOutcome& out = result_.outcomes[i];
  out.cls = classify_block(counts, ds.recon.start, ds.recon.step,
                           ds.recon.responsive, ds.recon.evidence_fraction,
                           config_.classifier, az);
  result_.degradation.blocks[i] = fault::summarize_block(
      ds.observers, static_cast<int>(ds.observers.size()), classify_oc_.window,
      ds.recon.evidence_fraction, ds.recon.max_gap_seconds, evidence_floor_);
}

void StreamingFleet::begin_cell(Cell& c, std::size_t i,
                                probe::ProbeScratch& scratch) {
  recon::BlockStream stream = std::move(c.stream);
  c = Cell{};
  c.stream = std::move(stream);
  const auto& block = blocks_[i];
  result_.outcomes[i].id = block.id;
  c.begun = true;
  if (block.eb_count == 0) {
    c.classified = true;  // trivially: never responds
    c.screened = true;
    return;
  }
  c.stream.begin(block, detect_oc_, scratch, fork_end_);
  c.stream.bind_series(store_.row(i));
  c.active = true;
}

void StreamingFleet::ingest(Cell& c, std::size_t i, util::SimTime until,
                            Worker& w) {
  if (!c.begun) begin_cell(c, i, w.scratch);
  if (!c.active) return;
  c.stream.set_scratch(w.scratch);
  if (!c.classified && until >= verdict_end_) {
    // The classification window is complete: record the verdict before
    // consuming any later round, so an unwatched block stops here.
    std::span<const double> counts;
    if (mode_ == Mode::kUnion) {
      c.stream.advance_to(classify_window_.end);
      c.stream.finalize_classify_stats(w.sr);
      counts = c.stream.classify_series();
    } else {
      w.cpass.begin(blocks_[i], classify_oc_, w.scratch);
      w.cpass.finalize_stats(w.sr);
      counts = w.cpass.series();
    }
    classify_outcome(i, counts, w.sr, w.analyzer);
    c.classified = true;
    c.screened = true;
    c.watched = result_.outcomes[i].cls.change_sensitive &&
                config_.run_detection;
    c.active = c.watched;  // only watched blocks ingest further rounds
  }
  if (c.active) c.stream.advance_to(until);
  const std::size_t d = c.stream.delivered_observations();
  w.delivered += d - c.delivered;
  c.delivered = d;
}

void StreamingFleet::finish(Cell& c, std::size_t i, Worker& w) {
  if (!c.active) return;
  c.active = false;
  // kSame classifies (and detects) the full window at flush; the split
  // modes hold a verdict already and only watched blocks stay active.
  Worker::Slot& s = w.slots[w.n_slots];
  s.index = i;
  s.classify = mode_ == Mode::kSame;
  c.stream.finalize_stats(s.sr);
  store_.set_len(i, s.sr.recon.len);
  if (++w.n_slots == kLanes) flush(w);
}

void StreamingFleet::flush(Worker& w) {
  if (w.n_slots == 0) return;
  const std::span<const Worker::Slot> slots(w.slots.data(), w.n_slots);
  std::array<BatchClassifyJob, kLanes> jobs;
  std::size_t n_jobs = 0;
  for (const Worker::Slot& s : slots) {
    if (!s.classify) continue;
    const recon::ReconStats& rs = s.sr.recon;
    jobs[n_jobs++] = BatchClassifyJob{store_.series(s.index), rs.start,
                                      rs.step,           rs.responsive,
                                      rs.evidence_fraction,
                                      &result_.outcomes[s.index].cls};
    result_.degradation.blocks[s.index] = fault::summarize_block(
        s.sr.observers, static_cast<int>(s.sr.observers.size()),
        classify_oc_.window, rs.evidence_fraction, rs.max_gap_seconds,
        evidence_floor_);
  }
  if (n_jobs > 0) {
    classify_blocks_batch(std::span<BatchClassifyJob>(jobs.data(), n_jobs),
                          config_.classifier, w.baz, w.analyzer);
  }
  if (config_.run_detection) {
    // The batched detector requires the STL trend model; the naive
    // ablation keeps the scalar path.
    for (const Worker::Slot& s : slots) {
      BlockOutcome& out = result_.outcomes[s.index];
      if (!out.cls.change_sensitive) continue;
      const recon::ReconStats& rs = s.sr.recon;
      if (batch_detect_) {
        w.det.enqueue(store_.series(s.index), rs.start, rs.step,
                      &out.changes);
      } else {
        detect_changes(store_.series(s.index), rs.start, rs.step,
                       config_.detector, w.analyzer, out.changes);
      }
    }
    w.det.flush();
    for (const Worker::Slot& s : slots) {
      BlockOutcome& out = result_.outcomes[s.index];
      if (!out.cls.change_sensitive) continue;
      annotate_low_evidence(out.changes, s.sr.recon.evidence_fraction,
                            s.sr.recon.gaps, evidence_floor_);
    }
  }
  w.n_slots = 0;
}

void StreamingFleet::finish_result() {
  result_.funnel = FunnelCounts{};
  for (const auto& out : result_.outcomes) result_.funnel.add(out.cls);
  result_.degradation.finalize();
  result_.series = std::move(store_);
  finished_ = true;
}

FleetResult StreamingFleet::run_to_completion() {
  assert(!finished_ && cells_.empty());
  run_pool([&](Worker& w, std::size_t i) {
    begin_cell(w.cell, i, w.scratch);
    ingest(w.cell, i, drain_end_, w);
    finish(w.cell, i, w);
  });
  finish_result();
  return std::move(result_);
}

void StreamingFleet::screen_cell(Cell& c, Worker& w) {
  const std::int64_t step = detect_oc_.recon.sample_step;
  if (step <= 0) {
    c.screened = true;
    return;
  }
  const std::size_t period =
      static_cast<std::size_t>(config_.detector.period_seconds / step);
  if (period < 2 || !config_.run_detection) {
    c.screened = true;  // nothing the watch could feed
    return;
  }
  const auto& rs = c.stream.recon_state();
  if (rs.emitted() < 2 * period) return;  // not yet decidable
  // Provisional screen: classify a truncated snapshot of the stream so
  // far.  The verdict is only a watch decision — the authoritative
  // classification happens at finish over the full window.
  recon::ReconStats& stats = w.screen_stats;
  rs.snapshot_stats(stats);
  const auto counts = c.stream.series().first(stats.len);
  const auto cls =
      classify_block(counts, stats.start, stats.step, stats.responsive,
                     stats.evidence_fraction, config_.classifier, w.analyzer);
  c.screened = true;
  c.watched = cls.change_sensitive;
}

void StreamingFleet::update_provisional(Cell& c, std::size_t i, Worker& w) {
  const std::int64_t step = detect_oc_.recon.sample_step;
  const std::size_t period =
      static_cast<std::size_t>(config_.detector.period_seconds / step);
  const auto& rs = c.stream.recon_state();
  const std::size_t emitted = rs.emitted();
  if (period < 2 || emitted < 2 * period || emitted <= c.trend_fed) return;
  if (c.tn == 0) c.cusum.begin(config_.detector.cusum);

  // Trailing-window STL re-fit: bounded per-epoch cost.  If the last fit
  // is older than the trailing span (an epoch longer than the span),
  // stretch the window back to it so the z sequence stays contiguous —
  // the CUSUM's indices map 1:1 onto samples trend_base + k.
  std::size_t first = emitted - std::min(emitted, kTrailPeriods * period);
  if (c.tn > 0 && c.trend_fed < first) first = c.trend_fed;
  analysis::StlOptions stl = config_.detector.stl;
  stl.period = static_cast<int>(period);
  if (stl.trend_span == 0) {
    stl.trend_span = static_cast<int>(period + period / 4 + 1);
  }
  const auto samples = c.stream.series();
  const auto dec =
      w.analyzer.decompose_stl(samples.subspan(first, emitted - first), stl);

  if (c.tn == 0) c.trend_base = first;
  for (std::size_t idx = std::max(c.trend_fed, first); idx < emitted; ++idx) {
    // Freeze the trend as first estimated and z-normalize with running
    // moments: the stream sees each value once, so this is what an
    // online detector can actually know at that point in time.
    const double v = dec.trend[idx - first];
    ++c.tn;
    c.tsum += v;
    c.tsum2 += v * v;
    const double mean = c.tsum / static_cast<double>(c.tn);
    const double var =
        std::max(0.0, c.tsum2 / static_cast<double>(c.tn) - mean * mean);
    const double sd = std::sqrt(var);
    c.cusum.push(sd > 1e-9 ? (v - mean) / sd : 0.0);
  }
  c.trend_fed = emitted;

  const auto& confirmed = c.cusum.confirmed();
  for (; c.reported < confirmed.size(); ++c.reported) {
    const auto& cp = confirmed[c.reported];
    ProvisionalChange pc;
    pc.id = result_.outcomes[i].id;
    pc.start = window_.start +
               static_cast<std::int64_t>(c.trend_base + cp.start) * step;
    pc.alarm = window_.start +
               static_cast<std::int64_t>(c.trend_base + cp.alarm) * step;
    pc.end =
        window_.start + static_cast<std::int64_t>(c.trend_base + cp.end) * step;
    pc.direction = cp.direction;
    pc.amplitude = cp.amplitude;
    w.found.push_back(pc);
  }
}

EpochReport StreamingFleet::advance_to(util::SimTime until) {
  assert(!finished_);
  cells_.resize(blocks_.size());
  until = std::clamp(until, window_.start, window_.end);
  until = std::max(until, clock_);

  EpochReport rep;
  rep.epoch_index = epoch_index_++;
  rep.epoch_start = clock_;
  rep.epoch_end = until;

  auto workers = run_pool([&](Worker& w, std::size_t i) {
    Cell& c = cells_[i];
    ingest(c, i, until, w);
    if (screen_ && !c.screened) screen_cell(c, w);
    if (c.watched) update_provisional(c, i, w);
  });

  clock_ = until;
  for (const Worker& w : workers) {
    rep.observations += w.delivered;
    rep.provisional.insert(rep.provisional.end(), w.found.begin(),
                           w.found.end());
  }
  std::sort(rep.provisional.begin(), rep.provisional.end(),
            [](const ProvisionalChange& a, const ProvisionalChange& b) {
              if (a.alarm != b.alarm) return a.alarm < b.alarm;
              return a.id.id() < b.id.id();
            });
  if (clock_ >= verdict_end_) {
    rep.classification_complete = true;
    for (const auto& out : result_.outcomes) rep.funnel.add(out.cls);
  }
  return rep;
}

FleetResult StreamingFleet::finalize() {
  assert(!finished_);
  cells_.resize(blocks_.size());
  run_pool([&](Worker& w, std::size_t i) {
    ingest(cells_[i], i, drain_end_, w);
    finish(cells_[i], i, w);
  });
  finish_result();
  cells_.clear();
  return std::move(result_);
}

void StreamingFleet::extract_rows(std::vector<BlockSnapshotRow>& rows) const {
  assert(!finished_);
  rows.resize(blocks_.size());
  recon::ReconStats stats;  // recycled across rows
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    BlockSnapshotRow& row = rows[i];
    row = BlockSnapshotRow{};
    row.id = blocks_[i].id;
    if (cells_.empty()) continue;  // before the first advance
    const Cell& c = cells_[i];
    row.begun = c.begun;
    row.active = c.active;
    row.classified = c.classified;
    row.watched = c.watched;
    row.delivered = c.delivered;
    if (c.begun && blocks_[i].eb_count > 0) {
      const recon::StreamHealth h = c.stream.health();
      row.emitted = h.emitted;
      if (row.emitted > 0) {
        c.stream.recon_state().snapshot_stats(stats);
        row.evidence_fraction = stats.evidence_fraction;
        row.max_gap_hours = stats.max_gap_seconds / 3600.0;
      }
      if (c.classified) {
        row.cls = result_.outcomes[i].cls;
        row.degradation = result_.degradation.blocks[i];
      }
    }
  }
}

std::span<const double> StreamingFleet::emitted_series(std::size_t i) const {
  if (cells_.empty()) return {};
  const Cell& c = cells_[i];
  if (!c.begun || blocks_[i].eb_count == 0) return {};
  return c.stream.series().first(c.stream.recon_state().emitted());
}

namespace {

// Cell flag bits in the engine snapshot.
constexpr std::uint8_t kCellBegun = 1u << 0;
constexpr std::uint8_t kCellActive = 1u << 1;
constexpr std::uint8_t kCellClassified = 1u << 2;
constexpr std::uint8_t kCellScreened = 1u << 3;
constexpr std::uint8_t kCellWatched = 1u << 4;

}  // namespace

void StreamingFleet::save(util::StateWriter& w) const {
  assert(!finished_);
  w.begin_section(util::state_tag("FLTM"));
  w.u64(blocks_.size());
  w.i64(window_.start);
  w.i64(window_.end);
  w.i64(classify_window_.start);
  w.i64(classify_window_.end);
  w.u8(static_cast<std::uint8_t>(mode_));
  w.i64(clock_);
  w.u64(epoch_index_);
  w.u64(cells_.size());
  w.end_section();
  if (cells_.empty()) return;  // saved before the first advance

  w.begin_section(util::state_tag("CELL"));
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    std::uint8_t flags = 0;
    if (c.begun) flags |= kCellBegun;
    if (c.active) flags |= kCellActive;
    if (c.classified) flags |= kCellClassified;
    if (c.screened) flags |= kCellScreened;
    if (c.watched) flags |= kCellWatched;
    w.u8(flags);
    if (!c.begun) continue;
    w.u64(c.delivered);
    w.u64(c.trend_fed);
    w.u64(c.trend_base);
    w.f64(c.tsum);
    w.f64(c.tsum2);
    w.u64(c.tn);
    w.u64(c.reported);
    // The provisional CUSUM exists once the watch fed it (tn > 0); the
    // stream only while the cell still ingests rounds; a mid-run
    // verdict (kUnion/kSeparate) only for probed blocks — eb_count == 0
    // cells classify trivially and carry the default verdict.
    if (c.tn > 0) c.cusum.save(w);
    if (c.active) c.stream.save(w);
    if (c.classified && blocks_[i].eb_count > 0) {
      save_state(w, result_.outcomes[i].cls);
      save_state(w, result_.degradation.blocks[i]);
    }
  }
  w.end_section();
}

void StreamingFleet::restore(util::StateReader& r) {
  assert(!finished_ && cells_.empty());
  r.begin_section(util::state_tag("FLTM"));
  const std::uint64_t n_blocks = r.u64();
  const util::SimTime ws = r.i64();
  const util::SimTime we = r.i64();
  const util::SimTime cs = r.i64();
  const util::SimTime ce = r.i64();
  const std::uint8_t mode = r.u8();
  const util::SimTime clock = r.i64();
  const std::uint64_t epochs = r.u64();
  const std::uint64_t n_cells = r.u64();
  r.end_section();
  if (n_blocks != blocks_.size() || ws != window_.start ||
      we != window_.end || cs != classify_window_.start ||
      ce != classify_window_.end ||
      mode != static_cast<std::uint8_t>(mode_)) {
    throw util::StateError(
        util::StateErrorKind::kBadValue,
        "fleet snapshot was written under a different configuration");
  }
  if (n_cells != 0 && n_cells != blocks_.size()) {
    throw util::StateError(util::StateErrorKind::kBadValue,
                           "fleet snapshot cell count does not match");
  }
  clock_ = clock;
  epoch_index_ = static_cast<std::size_t>(epochs);
  if (n_cells == 0) return;

  cells_.resize(blocks_.size());
  probe::ProbeScratch scratch;
  r.begin_section(util::state_tag("CELL"));
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::uint8_t flags = r.u8();
    if (flags >= (kCellWatched << 1)) {
      throw util::StateError(util::StateErrorKind::kBadValue,
                             "unknown cell flags in fleet snapshot");
    }
    if ((flags & kCellBegun) == 0) continue;
    // Rebuild the config-derived skeleton exactly as the first advance
    // did (stream begin + row binding + outcome id), then overwrite the
    // mutable state from the snapshot.
    Cell& c = cells_[i];
    begin_cell(c, i, scratch);
    c.active = (flags & kCellActive) != 0;
    c.classified = (flags & kCellClassified) != 0;
    c.screened = (flags & kCellScreened) != 0;
    c.watched = (flags & kCellWatched) != 0;
    c.delivered = static_cast<std::size_t>(r.u64());
    c.trend_fed = static_cast<std::size_t>(r.u64());
    c.trend_base = static_cast<std::size_t>(r.u64());
    c.tsum = r.f64();
    c.tsum2 = r.f64();
    c.tn = static_cast<std::size_t>(r.u64());
    c.reported = static_cast<std::size_t>(r.u64());
    if (c.tn > 0) c.cusum.restore(r);
    if (c.active) c.stream.restore(r);
    if (c.classified && blocks_[i].eb_count > 0) {
      restore_state(r, result_.outcomes[i].cls);
      restore_state(r, result_.degradation.blocks[i]);
    }
  }
  r.end_section();
}

}  // namespace diurnal::core
