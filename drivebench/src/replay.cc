#include "replay.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/batch_analyzer.h"
#include "analysis/block_analyzer.h"
#include "core/classify.h"
#include "core/detect.h"
#include "core/series_store.h"
#include "fault/inject.h"
#include "geo/countries.h"
#include "probe/prober.h"
#include "recon/repair.h"
#include "recon/stream.h"

namespace drivebench {

using namespace diurnal;

void PassCounts::add(const PassCounts& o) {
  classified += o.classified;
  detect_samples += o.detect_samples;
  samples += o.samples;
  probes += o.probes;
  fault_input += o.fault_input;
  fault_kept += o.fault_kept;
  repairs += o.repairs;
}

std::size_t Population::size() const {
  return generator != nullptr ? generator->total_blocks() : blocks.size();
}

namespace {

constexpr std::size_t kChunk = 16;  // the engine's block-claim granularity
constexpr std::size_t kWidth = analysis::BatchAnalyzer::kMaxLanes;

// The window plan core::StreamingFleet derives from a FleetConfig.  Only
// the two modes the workloads use are replayed: one window for both
// passes, or a classification window that is a prefix of the detection
// window (one observation pass, forked reconstruction).
struct Plan {
  bool split = false;  // classification window is a strict prefix
  recon::BlockObservationConfig detect_oc;
  recon::BlockObservationConfig classify_oc;
  util::SimTime classify_end = 0;
  std::size_t stride = 0;
  util::SimTime start = 0;
  std::int64_t step = 1;
};

recon::BlockObservationConfig observation_config(const core::FleetConfig& cfg,
                                                 const core::DatasetSpec& ds) {
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.loss = probe::LossModel(cfg.loss);
  oc.window = ds.window();
  oc.prober.kind =
      ds.survey ? probe::ProberKind::kSurvey : probe::ProberKind::kTrinocular;
  oc.one_loss_repair = cfg.one_loss_repair;
  oc.additional_observations = cfg.additional_observations;
  oc.faults = &cfg.faults;
  oc.recon = cfg.recon;
  return oc;
}

Plan make_plan(const core::FleetConfig& fc) {
  if (fc.detector.trend_model != core::TrendModel::kStl) {
    throw std::invalid_argument("replay needs the STL trend model");
  }
  Plan p;
  const core::DatasetSpec& cds =
      fc.classify_dataset ? *fc.classify_dataset : fc.dataset;
  p.detect_oc = observation_config(fc, fc.dataset);
  p.classify_oc = observation_config(fc, cds);
  const auto w = p.detect_oc.window;
  const auto cw = p.classify_oc.window;
  const bool same = cw.start == w.start && cw.end == w.end &&
                    cds.sites == fc.dataset.sites &&
                    cds.survey == fc.dataset.survey;
  const bool prefix = cw.start == w.start && cw.end < w.end &&
                      cds.sites == fc.dataset.sites &&
                      cds.survey == fc.dataset.survey &&
                      fc.faults.skews.empty() && fc.fuse_observation_windows;
  if (!same && !prefix) {
    throw std::invalid_argument(
        "replay covers one window or a prefix classification window");
  }
  p.split = !same;
  p.classify_end = cw.end;
  p.start = w.start;
  p.step = fc.recon.sample_step;
  const std::int64_t dur = w.end - w.start;
  p.stride = (p.step <= 0 || dur <= 0)
                 ? 0
                 : static_cast<std::size_t>((dur + p.step - 1) / p.step);
  return p;
}

// One worker's reusable state for the production-order view.
class ProductionWorker {
 public:
  ProductionWorker(const core::FleetConfig& fc, const Plan& plan)
      : fc_(fc), plan_(plan), det_(fc.detector, kWidth) {}

  // Replays block i of a population whose series rows live in `store`.
  void block(std::size_t i, const sim::BlockProfile& b,
             core::SeriesStore& store, std::vector<core::BlockOutcome>& out,
             SpanLog* log) {
    core::BlockOutcome& o = out[i];
    o.id = b.id;
    if (b.eb_count == 0) return;  // never responds
    if (!plan_.split) {
      Slot& s = slots_[n_slots_];
      {
        Scope span(log, "recon.stream");
        stream_.begin(b, plan_.detect_oc, scratch_);
        stream_.bind_series(store.row(i));
        stream_.finalize_stats(s.sr);
      }
      s.index = i;
      store.set_len(i, s.sr.recon.len);
      counts.samples += s.sr.recon.len;
      if (++n_slots_ == kWidth) flush(store, out, log);
      return;
    }
    {
      Scope span(log, "recon.stream");
      stream_.begin(b, plan_.detect_oc, scratch_, plan_.classify_end);
      stream_.bind_series(store.row(i));
      stream_.advance_to(plan_.classify_end);
      stream_.finalize_classify_stats(classify_sr_);
    }
    counts.samples += classify_sr_.recon.len;
    {
      Scope span(log, "core.classify");
      const auto& r = classify_sr_.recon;
      o.cls = core::classify_block(stream_.classify_series(), r.start, r.step,
                                   r.responsive, r.evidence_fraction,
                                   fc_.classifier, az_);
    }
    ++counts.classified;
    if (!o.cls.change_sensitive || !fc_.run_detection) return;
    Slot& s = slots_[n_slots_];
    {
      Scope span(log, "recon.stream");
      stream_.finalize_stats(s.sr);
    }
    s.index = i;
    store.set_len(i, s.sr.recon.len);
    counts.samples += s.sr.recon.len;
    if (++n_slots_ == kWidth) flush(store, out, log);
  }

  // Runs the queued slots: batched classification (single window) and
  // batched detection.
  void flush(core::SeriesStore& store, std::vector<core::BlockOutcome>& out,
             SpanLog* log) {
    if (n_slots_ == 0) return;
    if (!plan_.split) {
      Scope span(log, "core.classify");
      std::array<core::BatchClassifyJob, kWidth> jobs;
      for (std::size_t k = 0; k < n_slots_; ++k) {
        const Slot& s = slots_[k];
        const auto& r = s.sr.recon;
        jobs[k] = core::BatchClassifyJob{store.series(s.index), r.start,
                                         r.step, r.responsive,
                                         r.evidence_fraction,
                                         &out[s.index].cls};
      }
      core::classify_blocks_batch(
          std::span<core::BatchClassifyJob>(jobs.data(), n_slots_),
          fc_.classifier, baz_, az_);
      counts.classified += n_slots_;
    }
    if (fc_.run_detection) {
      Scope span(log, "core.detect");
      for (std::size_t k = 0; k < n_slots_; ++k) {
        const Slot& s = slots_[k];
        core::BlockOutcome& o = out[s.index];
        if (!o.cls.change_sensitive) continue;
        det_.enqueue(store.series(s.index), s.sr.recon.start, s.sr.recon.step,
                     &o.changes);
        counts.detect_samples += store.len(s.index);
      }
      det_.flush();
    }
    n_slots_ = 0;
  }

  PassCounts counts;

 private:
  struct Slot {
    std::size_t index = 0;
    recon::DegradedReconStats sr;
  };

  const core::FleetConfig& fc_;
  const Plan& plan_;
  probe::ProbeScratch scratch_;
  recon::BlockStream stream_;
  recon::DegradedReconStats classify_sr_;
  analysis::BlockAnalyzer az_;
  analysis::BatchAnalyzer baz_;
  core::BatchDetector det_;
  std::array<Slot, kWidth> slots_;
  std::size_t n_slots_ = 0;
};

// One worker's reusable state for the stage view.
class StageWorker {
 public:
  StageWorker(const core::FleetConfig& fc, const Plan& plan)
      : fc_(fc), oc_(plan.detect_oc) {
    specs_ = oc_.observers;
    if (oc_.additional_observations) specs_.push_back(probe::additional_observer());
    streams_.resize(specs_.size());
  }

  void block(const sim::BlockProfile& b, SpanLog* log) {
    if (b.eb_count == 0) return;
    const bool inject = !fc_.faults.empty();
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      probe::ProberConfig pc = oc_.prober;
      if (k >= oc_.observers.size()) pc.kind = probe::ProberKind::kAdditional;
      auto& s = streams_[k];
      {
        Scope span(log, "probe");
        probe::RoundProberState st;
        probe::round_prober_begin(b, specs_[k], oc_.window, pc, st);
        s.clear();
        probe::round_prober_resume(b, specs_[k], oc_.loss, oc_.window, pc,
                                   scratch_, st, oc_.window.end, s);
      }
      counts.probes += s.size();
      if (inject) {
        Scope span(log, "fault");
        fault::FaultCarry carry;
        const auto st = fault::apply_faults_chunk(fc_.faults, specs_[k].code,
                                                  oc_.window, s, 0, carry);
        counts.fault_input += st.input;
        counts.fault_kept += st.input - st.dropped - st.corrupted;
      }
      if (oc_.one_loss_repair) {
        Scope span(log, "recon.repair");
        counts.repairs += recon::one_loss_repair(s).repaired;
      }
    }
    {
      Scope span(log, "recon.merge");
      probe::merge_observations_into(streams_, merged_);
    }
    Scope span(log, "recon.reconstruct");
    const auto r = recon::reconstruct(merged_, b.eb_count, oc_.window, oc_.recon);
    counts.samples += r.counts.size();
  }

  PassCounts counts;

 private:
  const core::FleetConfig& fc_;
  const recon::BlockObservationConfig& oc_;
  std::vector<probe::ObserverSpec> specs_;
  probe::ProbeScratch scratch_;
  std::vector<probe::ObservationVec> streams_;
  probe::ObservationVec merged_;
};

// Runs `body(log)` on `threads` threads (inline for one), each under a
// root span, and rethrows the first worker exception.
template <typename Body>
void run_workers(unsigned threads, std::vector<SpanLog>* logs, Body&& body) {
  threads = std::max(1u, threads);
  if (logs != nullptr) {
    logs->assign(threads, SpanLog{});
  }
  std::exception_ptr error;
  std::mutex error_mu;
  auto run = [&](unsigned t) {
    SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
    try {
      Scope root(log, "worker");
      body(log);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  if (threads == 1) {
    run(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    try {
      for (unsigned t = 0; t < threads; ++t) pool.emplace_back(run, t);
    } catch (...) {
      for (auto& th : pool) th.join();
      throw;
    }
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);
}

void aggregate(std::span<const sim::BlockProfile> blocks,
               std::span<const core::BlockOutcome> out,
               core::ChangeAggregator& agg) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!out[i].cls.change_sensitive) continue;
    agg.add_block(blocks[i].cell(),
                  geo::countries()[blocks[i].country].continent,
                  out[i].changes);
  }
}

}  // namespace

PassCounts replay_production(const core::FleetConfig& fc, const Population& pop,
                             unsigned threads, std::vector<SpanLog>* logs,
                             core::FleetResult& out,
                             core::ChangeAggregator& agg) {
  const Plan plan = make_plan(fc);
  const std::size_t total = pop.size();
  out = core::FleetResult{};
  out.outcomes.resize(total);
  const auto window = plan.detect_oc.window;
  agg = core::ChangeAggregator(window.start, window.end);
  std::mutex mu;  // guards counts and agg
  PassCounts counts;
  std::atomic<std::size_t> next{0};

  if (pop.generator == nullptr) {
    core::SeriesStore store;
    store.reset(total, plan.stride, plan.start, plan.step);
    run_workers(threads, logs, [&](SpanLog* log) {
      ProductionWorker w(fc, plan);
      std::vector<std::size_t> mine;
      for (;;) {
        const std::size_t begin = next.fetch_add(kChunk);
        if (begin >= total) break;
        const std::size_t end = std::min(begin + kChunk, total);
        for (std::size_t i = begin; i < end; ++i) {
          w.block(i, pop.blocks[i], store, out.outcomes, log);
        }
        mine.push_back(begin);
      }
      w.flush(store, out.outcomes, log);
      Scope span(log, "geo.aggregate");
      core::ChangeAggregator local(window.start, window.end);
      for (const std::size_t begin : mine) {
        const std::size_t n = std::min(kChunk, total - begin);
        aggregate(pop.blocks.subspan(begin, n),
                  std::span<const core::BlockOutcome>(out.outcomes).subspan(begin, n),
                  local);
      }
      const std::lock_guard<std::mutex> lock(mu);
      agg.merge_from(local);
      counts.add(w.counts);
    });
  } else {
    const std::size_t shard = std::max<std::size_t>(1, pop.shard_size);
    const std::size_t n_shards = (total + shard - 1) / shard;
    run_workers(threads, logs, [&](SpanLog* log) {
      ProductionWorker w(fc, plan);
      sim::WorldSlice slice;
      core::SeriesStore store;
      std::vector<core::BlockOutcome> local_out;
      core::ChangeAggregator local(window.start, window.end);
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= n_shards) break;
        const std::size_t begin = k * shard;
        const std::size_t end = std::min(begin + shard, total);
        {
          Scope span(log, "sim.materialize");
          slice.materialize(*pop.generator, begin, end);
        }
        const auto blocks = slice.blocks();
        {
          Scope span(log, "core.store");
          store.reset(blocks.size(), plan.stride, plan.start, plan.step);
          local_out.assign(blocks.size(), core::BlockOutcome{});
        }
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          w.block(i, blocks[i], store, local_out, log);
        }
        w.flush(store, local_out, log);
        {
          Scope span(log, "geo.aggregate");
          aggregate(blocks, local_out, local);
        }
        Scope span(log, "core.store");
        for (std::size_t i = 0; i < local_out.size(); ++i) {
          out.outcomes[begin + i] = std::move(local_out[i]);
        }
      }
      slice.release();
      const std::lock_guard<std::mutex> lock(mu);
      agg.merge_from(local);
      counts.add(w.counts);
    });
  }
  out.funnel = core::FunnelCounts{};
  for (const auto& o : out.outcomes) out.funnel.add(o.cls);
  return counts;
}

PassCounts replay_stages(const core::FleetConfig& fc, const Population& pop,
                         unsigned threads, std::vector<SpanLog>* logs) {
  const Plan plan = make_plan(fc);
  const std::size_t total = pop.size();
  std::mutex mu;
  PassCounts counts;
  std::atomic<std::size_t> next{0};
  const bool sharded = pop.generator != nullptr;
  const std::size_t step =
      sharded ? std::max<std::size_t>(1, pop.shard_size) : kChunk;
  run_workers(threads, logs, [&](SpanLog* log) {
    StageWorker w(fc, plan);
    sim::WorldSlice slice;
    for (;;) {
      const std::size_t begin = next.fetch_add(step);
      if (begin >= total) break;
      const std::size_t end = std::min(begin + step, total);
      std::span<const sim::BlockProfile> blocks;
      if (sharded) {
        Scope span(log, "sim.materialize");
        slice.materialize(*pop.generator, begin, end);
        blocks = slice.blocks();
      } else {
        blocks = pop.blocks.subspan(begin, end - begin);
      }
      for (const auto& b : blocks) w.block(b, log);
    }
    const std::lock_guard<std::mutex> lock(mu);
    counts.add(w.counts);
  });
  return counts;
}

}  // namespace drivebench
