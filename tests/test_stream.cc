// Streaming-engine equivalence and edge cases: every resumable stage
// (prober, fault injection, repair, CUSUM), the per-block BlockStream,
// and the fleet-level epoch drive must finalize byte-identical to the
// per-stage batch pipeline, which is kept alive here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cusum.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/repair.h"
#include "recon/stream.h"
#include "sim/world.h"
#include "util/date.h"
#include "util/state_io.h"

namespace diurnal {
namespace {

using probe::ObservationVec;
using probe::ProbeWindow;

const sim::World& small_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 60;
    c.seed = 7;
    return c;
  }());
  return world;
}

// The pre-refactor per-stage pipeline (probe -> faults -> repair ->
// merge -> reconstruct), whole-window per stage: the ground truth the
// streaming pipeline must reproduce bit-for-bit.
recon::DegradedReconResult batch_oracle(
    const sim::BlockProfile& block, const recon::BlockObservationConfig& oc) {
  const std::size_t n =
      oc.observers.size() + (oc.additional_observations ? 1 : 0);
  std::vector<ObservationVec> streams(n);
  recon::DegradedReconResult out;
  out.observers.assign(n, {});
  probe::ProbeScratch scratch;
  const bool inject = oc.faults != nullptr && !oc.faults->empty();
  for (std::size_t i = 0; i < n; ++i) {
    const bool extra = i >= oc.observers.size();
    probe::ProberConfig pc = oc.prober;
    if (extra) pc.kind = probe::ProberKind::kAdditional;
    const probe::ObserverSpec spec =
        extra ? probe::additional_observer() : oc.observers[i];
    probe::probe_block_into(block, spec, oc.loss, oc.window, pc, scratch,
                            streams[i]);
    fault::StreamFaultStats stats;
    if (inject) {
      stats = fault::apply_faults(*oc.faults, spec.code, oc.window, streams[i]);
    }
    auto& si = out.observers[i];
    si.code = spec.code;
    si.observations = streams[i].size();
    si.faults = stats;
    if (!streams[i].empty()) {
      si.first_rel = streams[i].front().rel_time;
      si.last_rel = streams[i].back().rel_time;
    }
    if (oc.one_loss_repair) recon::one_loss_repair(streams[i]);
  }
  const auto merged = probe::merge_observations(std::move(streams));
  out.recon =
      recon::reconstruct(merged, block.eb_count, oc.window, oc.recon);
  return out;
}

void expect_recon_equal(const recon::ReconResult& got,
                        const recon::ReconResult& want) {
  ASSERT_EQ(got.counts.size(), want.counts.size());
  EXPECT_EQ(got.counts.start(), want.counts.start());
  EXPECT_EQ(got.counts.step(), want.counts.step());
  for (std::size_t i = 0; i < want.counts.size(); ++i) {
    ASSERT_EQ(got.counts[i], want.counts[i]) << "sample " << i;
  }
  EXPECT_EQ(got.responsive, want.responsive);
  EXPECT_EQ(got.mean_reply_rate, want.mean_reply_rate);
  EXPECT_EQ(got.observations, want.observations);
  EXPECT_EQ(got.eb_count, want.eb_count);
  EXPECT_EQ(got.observed_targets, want.observed_targets);
  EXPECT_EQ(got.max_active, want.max_active);
  EXPECT_EQ(got.evidence_fraction, want.evidence_fraction);
  EXPECT_EQ(got.max_gap_seconds, want.max_gap_seconds);
  ASSERT_EQ(got.gaps.size(), want.gaps.size());
  for (std::size_t i = 0; i < want.gaps.size(); ++i) {
    EXPECT_EQ(got.gaps[i].start, want.gaps[i].start);
    EXPECT_EQ(got.gaps[i].end, want.gaps[i].end);
  }
  ASSERT_EQ(got.fbs_spans_seconds.size(), want.fbs_spans_seconds.size());
  for (std::size_t i = 0; i < want.fbs_spans_seconds.size(); ++i) {
    EXPECT_EQ(got.fbs_spans_seconds[i], want.fbs_spans_seconds[i]);
  }
}

void expect_observers_equal(
    const std::vector<fault::ObserverStreamInfo>& got,
    const std::vector<fault::ObserverStreamInfo>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].code, want[i].code);
    EXPECT_EQ(got[i].observations, want[i].observations);
    EXPECT_EQ(got[i].first_rel, want[i].first_rel);
    EXPECT_EQ(got[i].last_rel, want[i].last_rel);
    EXPECT_EQ(got[i].faults.input, want[i].faults.input);
    EXPECT_EQ(got[i].faults.dropped, want[i].faults.dropped);
    EXPECT_EQ(got[i].faults.corrupted, want[i].faults.corrupted);
    EXPECT_EQ(got[i].faults.retimed, want[i].faults.retimed);
  }
}

recon::BlockObservationConfig week_config(const fault::FaultPlan* plan) {
  recon::BlockObservationConfig oc;
  const auto ds = core::dataset("2020w2-ejnw");
  oc.observers = ds.observers();
  oc.window = ds.window();
  oc.faults = plan;
  return oc;
}

const sim::BlockProfile& responsive_block(std::size_t skip = 0) {
  for (const auto& b : small_world().blocks()) {
    if (b.eb_count > 0 && skip-- == 0) return b;
  }
  throw std::runtime_error("no responsive block");
}

// ---------------------------------------------------------------------------
// Stage equivalences
// ---------------------------------------------------------------------------

TEST(StreamProber, ChunkedResumeMatchesBatch) {
  const auto oc = week_config(nullptr);
  const auto& block = responsive_block();
  // Chunk schedules: round-aligned, prime-offset, one giant chunk, and
  // a zero-width epoch in the middle.
  const std::vector<std::int64_t> steps{util::kRoundSeconds, 3601,
                                        86400 + 17, 1 << 30};
  for (const auto& spec : oc.observers) {
    probe::ProbeScratch scratch;
    ObservationVec batch;
    probe::probe_block_into(block, spec, oc.loss, oc.window, oc.prober,
                            scratch, batch);
    for (const std::int64_t step : steps) {
      ObservationVec streamed;
      probe::RoundProberState st;
      probe::round_prober_begin(block, spec, oc.window, oc.prober, st);
      for (util::SimTime t = oc.window.start; !st.done; t += step) {
        probe::round_prober_resume(block, spec, oc.loss, oc.window, oc.prober,
                                   scratch, st, t, streamed);
        // Zero-width epoch: resuming to the same bound adds nothing.
        const std::size_t before = streamed.size();
        probe::round_prober_resume(block, spec, oc.loss, oc.window, oc.prober,
                                   scratch, st, t, streamed);
        ASSERT_EQ(streamed.size(), before);
      }
      ASSERT_EQ(streamed.size(), batch.size()) << "step " << step;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(streamed[i].rel_time, batch[i].rel_time);
        ASSERT_EQ(streamed[i].addr, batch[i].addr);
        ASSERT_EQ(streamed[i].up, batch[i].up);
      }
    }
  }
}

TEST(StreamFaults, ChunkedApplyMatchesBatch) {
  const auto ds = core::dataset("2020w2-ejnw");
  const ProbeWindow w = ds.window();
  for (const char* name : {"dropout", "bursts", "truncate", "meltdown"}) {
    const auto plan = fault::scenario(name, w);
    const auto oc = week_config(&plan);
    const auto& block = responsive_block();
    for (const auto& spec : oc.observers) {
      probe::ProbeScratch scratch;
      ObservationVec batch;
      probe::probe_block_into(block, spec, oc.loss, w, oc.prober, scratch,
                              batch);
      const auto batch_stats = fault::apply_faults(plan, spec.code, w, batch);

      // Re-probe in chunks, injecting after each append: the streaming
      // composition.  Truncation state crosses chunks via the carry.
      ObservationVec chunked;
      probe::RoundProberState st;
      fault::FaultCarry carry;
      fault::StreamFaultStats stats;
      probe::round_prober_begin(block, spec, w, oc.prober, st);
      for (util::SimTime t = w.start; !st.done; t += 6 * 3600 + 13) {
        const std::size_t from = chunked.size();
        probe::round_prober_resume(block, spec, oc.loss, w, oc.prober, scratch,
                                   st, t, chunked);
        const auto s =
            fault::apply_faults_chunk(plan, spec.code, w, chunked, from, carry);
        stats.input += s.input;
        stats.dropped += s.dropped;
        stats.corrupted += s.corrupted;
        stats.retimed += s.retimed;
      }
      ASSERT_EQ(chunked.size(), batch.size()) << name << " " << spec.code;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(chunked[i].rel_time, batch[i].rel_time);
        ASSERT_EQ(chunked[i].addr, batch[i].addr);
        ASSERT_EQ(chunked[i].up, batch[i].up);
      }
      EXPECT_EQ(stats.input, batch_stats.input);
      EXPECT_EQ(stats.dropped, batch_stats.dropped);
      EXPECT_EQ(stats.corrupted, batch_stats.corrupted);
      EXPECT_EQ(stats.retimed, batch_stats.retimed);
    }
  }
}

TEST(StreamRepairTest, IncrementalMatchesBatch) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    ObservationVec stream;
    const int n = 40 + static_cast<int>(rng() % 200);
    std::uint32_t t = 0;
    for (int i = 0; i < n; ++i) {
      t += static_cast<std::uint32_t>(rng() % 900);
      stream.push_back({t, static_cast<std::uint8_t>(rng() % 6),
                        (rng() % 3) != 0});
    }
    ObservationVec batch = stream;
    recon::one_loss_repair(batch);

    ObservationVec inc = stream;
    recon::StreamRepair repair;
    repair.reset();
    std::size_t frontier = 0;
    // Ingest the same buffer repeatedly as it "grows" (simulated by
    // trimming): feed prefixes of increasing length.
    for (std::size_t upto = 0; upto <= inc.size();
         upto += 1 + rng() % 7) {
      ObservationVec window(inc.begin(),
                            inc.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(upto, inc.size())));
      recon::StreamRepair r2;  // fresh machine over the prefix
      r2.reset();
      const std::size_t f = r2.ingest(window, 0);
      ASSERT_LE(f, window.size());
      // Released prefix of the incremental pass must already match the
      // batch result (released observations are final).
      for (std::size_t i = 0; i < f; ++i) {
        ASSERT_EQ(window[i].up, batch[i].up) << "trial " << trial;
      }
    }
    // Full ingest equals batch everywhere after finish.
    frontier = repair.ingest(inc, 0);
    ASSERT_LE(frontier, inc.size());
    frontier = repair.finish();
    EXPECT_EQ(frontier, inc.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      ASSERT_EQ(inc[i].up, batch[i].up) << "trial " << trial;
    }
  }
}

TEST(StreamRepairTest, FinalSampleHeldAtEndOfStream) {
  // Last observation of the address is a loss candidate (prev up, now
  // down) still waiting for its rescan when the stream ends: the repair
  // window closes and the observation keeps its probed value, exactly
  // as the batch pass leaves it.
  ObservationVec stream{{0, 0, true}, {600, 0, false}};
  ObservationVec batch = stream;
  recon::one_loss_repair(batch);

  recon::StreamRepair repair;
  repair.reset();
  const std::size_t frontier = repair.ingest(stream, 0);
  EXPECT_EQ(frontier, 1u);  // the candidate at index 1 is held
  EXPECT_EQ(repair.finish(), 2u);
  EXPECT_FALSE(stream[1].up);
  EXPECT_EQ(stream[1].up, batch[1].up);
}

TEST(OnlineCusumTest, MatchesBatchOnRandomWalks) {
  std::mt19937_64 rng(2023);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 16 + rng() % 400;
    std::vector<double> x(n);
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 97 == 0) level += (rng() % 2 ? 2.0 : -2.0);
      x[i] = level + noise(rng);
    }
    const auto batch = analysis::cusum_detect(x);

    analysis::OnlineCusum online;
    online.begin();
    std::size_t confirmed_so_far = 0;
    for (const double v : x) {
      online.push(v);
      // The confirmed list is a stable prefix of the batch result.
      ASSERT_GE(online.confirmed().size(), confirmed_so_far);
      confirmed_so_far = online.confirmed().size();
      ASSERT_LE(confirmed_so_far, batch.changes.size());
    }
    const auto res = online.finish();
    ASSERT_EQ(res.changes.size(), batch.changes.size()) << "trial " << trial;
    for (std::size_t i = 0; i < batch.changes.size(); ++i) {
      EXPECT_EQ(res.changes[i].start, batch.changes[i].start);
      EXPECT_EQ(res.changes[i].alarm, batch.changes[i].alarm);
      EXPECT_EQ(res.changes[i].end, batch.changes[i].end);
      EXPECT_EQ(res.changes[i].direction, batch.changes[i].direction);
      EXPECT_EQ(res.changes[i].amplitude, batch.changes[i].amplitude);
    }
    ASSERT_EQ(res.g_pos.size(), batch.g_pos.size());
    for (std::size_t i = 0; i < batch.g_pos.size(); ++i) {
      ASSERT_EQ(res.g_pos[i], batch.g_pos[i]);
      ASSERT_EQ(res.g_neg[i], batch.g_neg[i]);
    }
  }
}

TEST(OnlineCusumTest, OpenExcursionResolvesAtFinish) {
  // A ramp that alarms but never decays: the batch scan dates the end
  // at the series' argmax; the online machine must hold the excursion
  // open across pushes and resolve it identically at finish().
  std::vector<double> x;
  for (int i = 0; i < 40; ++i) x.push_back(0.1 * i);
  const auto batch = analysis::cusum_detect(x);
  ASSERT_FALSE(batch.changes.empty());

  analysis::OnlineCusum online;
  online.begin();
  for (const double v : x) online.push(v);
  // Still growing: nothing confirmable before end-of-stream.
  EXPECT_TRUE(online.confirmed().empty());
  const auto res = online.finish();
  ASSERT_EQ(res.changes.size(), batch.changes.size());
  EXPECT_EQ(res.changes[0].end, batch.changes[0].end);
  EXPECT_EQ(res.changes[0].amplitude, batch.changes[0].amplitude);
}

// ---------------------------------------------------------------------------
// BlockStream
// ---------------------------------------------------------------------------

TEST(BlockStreamTest, EpochAdvanceMatchesBatchOracle) {
  const auto ds = core::dataset("2020w2-ejnw");
  const ProbeWindow w = ds.window();
  const std::vector<std::int64_t> epochs{
      util::kRoundSeconds,          // every round: boundary-aligned
      6 * util::kRoundSeconds - 1,  // off-round
      util::kSecondsPerDay,         // daily
  };
  for (const char* name : {"none", "dropout", "skew", "meltdown"}) {
    const auto plan = fault::scenario(name, w);
    const auto oc = week_config(&plan);
    for (std::size_t b = 0; b < 4; ++b) {
      const auto& block = responsive_block(b);
      const auto want = batch_oracle(block, oc);
      for (const std::int64_t step : epochs) {
        probe::ProbeScratch scratch;
        recon::BlockStream stream;
        stream.begin(block, oc, scratch);
        for (util::SimTime t = w.start; t < w.end; t += step) {
          stream.advance_to(t);
          stream.advance_to(t);  // zero-round epoch: must be a no-op
        }
        recon::DegradedReconResult got;
        stream.finalize(got);
        expect_recon_equal(got.recon, want.recon);
        expect_observers_equal(got.observers, want.observers);
      }
    }
  }
}

// Saves `stream` and restores the image into a fresh stream begun with
// the same arguments.
void save_restore(const recon::BlockStream& stream, recon::BlockStream& into,
                  const sim::BlockProfile& block,
                  const recon::BlockObservationConfig& oc,
                  probe::ProbeScratch& scratch, util::SimTime classify_end) {
  util::StateWriter w;
  w.begin_section(util::state_tag("STRM"));
  stream.save(w);
  w.end_section();
  into.begin(block, oc, scratch, classify_end);
  util::StateReader r(w.bytes());
  r.begin_section(util::state_tag("STRM"));
  into.restore(r);
  r.end_section();
}

// A classification end one second into a multi-probe round of the
// first observer at or after `after`: that round straddles it, so the
// merge can release observations past it before finalize_classify().
util::SimTime straddling_end(const sim::BlockProfile& block,
                             const recon::BlockObservationConfig& oc,
                             util::SimTime after) {
  ObservationVec obs;
  probe::ProbeScratch scratch;
  probe::probe_block_into(block, oc.observers[0], oc.loss, oc.window,
                          oc.prober, scratch, obs);
  for (std::size_t i = 0; i + 1 < obs.size(); ++i) {
    const util::SimTime t = oc.window.start + obs[i].rel_time;
    if (t >= after && obs[i + 1].rel_time == obs[i].rel_time + 2) return t + 1;
  }
  throw std::runtime_error("no multi-probe round");
}

// The fork under every fault plan the union mode admits (skew is
// excluded), with the classification end on and off the hourly sample
// grid and inside a straddling round, on two drive schedules: daily cuts with one landing on the
// classification boundary, and the batch drive's single
// advance_to(classify_end) before finalizing, where the merge pops
// week- and month-long buffers.  Each schedule is also saved and
// restored at two cuts: a day before the classification end, before
// any observation past it (the image of a stream that has not forked),
// and at the classification end, with the tail still pending (forked
// when the straddling round's observations were released).
TEST(BlockStreamTest, UnionForkMatchesDedicatedClassifyPass) {
  const auto detect_ds = core::dataset("2020m1-ejnw");
  const ProbeWindow dw = detect_ds.window();
  const util::SimTime week_end = dw.start + 7 * util::kSecondsPerDay;

  for (const char* name : {"none", "bursts", "dropout", "truncate"}) {
    const auto plan = fault::scenario(name, dw);
    recon::BlockObservationConfig detect_oc;
    detect_oc.observers = detect_ds.observers();
    detect_oc.window = dw;
    detect_oc.faults = &plan;

    for (std::size_t b = 0; b < 4; ++b) {
      const auto& block = responsive_block(b);
      const auto want_detect = batch_oracle(block, detect_oc);
      for (const util::SimTime classify_end :
           {week_end, week_end + 1800,
            straddling_end(block, detect_oc, week_end)}) {
        recon::BlockObservationConfig classify_oc = detect_oc;
        classify_oc.window = ProbeWindow{dw.start, classify_end};
        const auto want_classify = batch_oracle(block, classify_oc);

        for (const bool daily : {true, false}) {
          // Cut 0 runs uninterrupted.
          for (const util::SimTime cut :
               {util::SimTime{0}, classify_end - util::kSecondsPerDay,
                classify_end}) {
            SCOPED_TRACE(std::string(name) + " block " + std::to_string(b) +
                         " classify_end +" +
                         std::to_string(classify_end - dw.start) +
                         (daily ? " daily" : " batch") + " cut +" +
                         std::to_string(cut == 0 ? 0 : cut - dw.start));
            probe::ProbeScratch scratch;
            recon::BlockStream first;
            recon::BlockStream second;
            first.begin(block, detect_oc, scratch, classify_end);
            recon::BlockStream* stream = &first;
            if (daily) {
              for (util::SimTime t = dw.start; t < classify_end;
                   t += util::kSecondsPerDay) {
                if (cut != 0 && t >= cut) break;
                stream->advance_to(t);
              }
            }
            if (cut != 0) {
              first.advance_to(cut);
              save_restore(first, second, block, detect_oc, scratch,
                           classify_end);
              stream = &second;
              if (daily) {
                for (util::SimTime t = cut; t < classify_end;
                     t += util::kSecondsPerDay) {
                  stream->advance_to(t);
                }
              }
            }
            stream->advance_to(classify_end);
            recon::DegradedReconResult got_classify;
            stream->finalize_classify(got_classify);
            expect_recon_equal(got_classify.recon, want_classify.recon);
            expect_observers_equal(got_classify.observers,
                                   want_classify.observers);

            // The detection stream continues from the fork untouched.
            recon::DegradedReconResult got_detect;
            stream->finalize(got_detect);
            expect_recon_equal(got_detect.recon, want_detect.recon);
            expect_observers_equal(got_detect.observers,
                                   want_detect.observers);
          }
        }
      }
    }
  }
}

// Forking is exact: a classification-window machine forked from the
// detection-window machine equals one fed the same pushes itself, and
// the unforked image save_fork() writes equals the forked machine's
// save(), with the classification end on and off the sample grid.
TEST(BlockStreamTest, ReconForkEqualsDedicatedMachine) {
  const auto ds = core::dataset("2020m1-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();
  const auto& block = responsive_block();
  const auto merged = [&] {
    std::vector<ObservationVec> streams(oc.observers.size());
    probe::ProbeScratch scratch;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      probe::probe_block_into(block, oc.observers[i], oc.loss, oc.window,
                              oc.prober, scratch, streams[i]);
    }
    return probe::merge_observations(std::move(streams));
  }();
  const auto image = [](const recon::BlockReconState& s) {
    util::StateWriter w;
    w.begin_section(util::state_tag("RECN"));
    s.save(w);
    w.end_section();
    return w.take();
  };
  for (const std::int64_t classify_rel :
       {std::int64_t{7} * util::kSecondsPerDay,
        std::int64_t{7} * util::kSecondsPerDay + 1800,
        std::int64_t{7} * util::kSecondsPerDay + 1}) {
    SCOPED_TRACE(classify_rel);
    const ProbeWindow cw{oc.window.start, oc.window.start + classify_rel};
    recon::BlockReconState detect;
    recon::BlockReconState dedicated;
    recon::BlockReconState forked;
    detect.begin(block.eb_count, oc.window, oc.recon);
    dedicated.begin(block.eb_count, cw, oc.recon);
    forked.begin(block.eb_count, cw, oc.recon);
    std::size_t pushed = 0;
    for (const auto& o : merged) {
      if (o.rel_time > classify_rel) break;
      detect.push(o);
      dedicated.push(o);
      ++pushed;
    }
    ASSERT_GT(pushed, 0u);
    util::StateWriter unforked;
    unforked.begin_section(util::state_tag("RECN"));
    detect.save_fork(unforked, forked);
    unforked.end_section();
    forked.fork_from(detect);
    EXPECT_EQ(image(forked), image(dedicated));
    EXPECT_EQ(unforked.bytes(), image(dedicated));
    recon::ReconResult got;
    recon::ReconResult want;
    forked.finalize(got);
    dedicated.finalize(want);
    expect_recon_equal(got, want);
  }
}

// ---------------------------------------------------------------------------
// Merge and reconstruction kernels against their oracles
// ---------------------------------------------------------------------------

// One observer stream as the streaming merge sees it: everything buffered
// so far (never compacted), the merge and repair cursors, and the lower
// bound on what the stream has yet to produce.
struct RefSource {
  ObservationVec buf;
  std::size_t consumed = 0;
  std::size_t released = 0;
  std::int64_t watermark = probe::kExhausted;
};

// The per-run watermark merge the streaming pipeline used before the
// cut-once rewrite, kept as the oracle for probe::merge_cut +
// probe::merge_runs.  Pops in (rel_time, stream index) order whenever
// no stream can still produce one ordering before; the best stream pops
// its whole run of released observations that order before the
// runner-up's (bound, index), recomputing its bound after each run.
void reference_pump(std::vector<RefSource>& src, ObservationVec& out) {
  const auto lower_bound = [](const RefSource& s) -> std::int64_t {
    return s.consumed < s.buf.size() ? s.buf[s.consumed].rel_time
                                     : s.watermark;
  };
  const std::size_t n = src.size();
  if (n == 0) return;
  std::vector<std::int64_t> bounds(n);
  for (std::size_t i = 0; i < n; ++i) bounds[i] = lower_bound(src[i]);
  for (;;) {
    std::size_t best = 0;
    std::size_t next = n;
    for (std::size_t i = 1; i < n; ++i) {
      if (bounds[i] < bounds[best]) {
        next = best;
        best = i;
      } else if (next == n || bounds[i] < bounds[next]) {
        next = i;
      }
    }
    RefSource& s = src[best];
    if (s.consumed >= s.released) return;
    const std::int64_t limit =
        next == n ? std::numeric_limits<std::int64_t>::max() : bounds[next];
    const bool wins_ties = best < next;
    std::size_t last = s.consumed + 1;
    while (last != s.released) {
      const std::int64_t rel = s.buf[last].rel_time;
      if (rel > limit || (rel == limit && !wins_ties)) break;
      ++last;
    }
    out.insert(out.end(),
               s.buf.begin() + static_cast<std::ptrdiff_t>(s.consumed),
               s.buf.begin() + static_cast<std::ptrdiff_t>(last));
    s.consumed = last;
    bounds[best] = lower_bound(s);
  }
}

// The production merge over the same sources: one cut, then the run
// merge through a bounded chunk of `cap` observations, as
// recon::BlockStream drives it.  A guard slot past the chunk catches a
// merge that writes beyond its capacity.
void production_pump(std::vector<RefSource>& src, ObservationVec& out,
                     std::size_t cap) {
  std::vector<probe::MergeSource> sources;
  for (const RefSource& s : src) {
    sources.push_back(probe::MergeSource{s.buf.data() + s.consumed,
                                         s.buf.data() + s.released,
                                         s.buf.data() + s.buf.size(),
                                         s.watermark});
  }
  std::vector<probe::MergeHead> heads;
  probe::merge_cut(sources, heads);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i].consumed +=
        static_cast<std::size_t>(sources[i].released - sources[i].head);
  }
  constexpr probe::Observation kGuard{0xFFFFFFFFu, 0xAB, true};
  ObservationVec chunk(cap + 1);
  chunk[cap] = kGuard;
  std::size_t k = heads.size();
  while (k > 0) {
    const std::size_t got =
        probe::merge_runs(heads.data(), k, chunk.data(), cap);
    ASSERT_LE(got, cap);
    ASSERT_EQ(chunk[cap].rel_time, kGuard.rel_time) << "wrote past the chunk";
    ASSERT_EQ(chunk[cap].addr, kGuard.addr) << "wrote past the chunk";
    out.insert(out.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
}

bool same_observations(const ObservationVec& a, const ObservationVec& b) {
  const auto same = [](const probe::Observation& x,
                       const probe::Observation& y) {
    return x.rel_time == y.rel_time && x.addr == y.addr && x.up == y.up;
  };
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), same);
}

// Runs both merges on copies of `src`; they must pop the same sequence
// and leave the same cursors.  Continues with the oracle's state.
ObservationVec checked_pump(std::vector<RefSource>& src,
                            std::size_t cap = probe::kMergeChunk) {
  std::vector<RefSource> prod = src;
  ObservationVec want;
  ObservationVec got;
  reference_pump(src, want);
  production_pump(prod, got, cap);
  EXPECT_TRUE(same_observations(got, want))
      << "merged " << got.size() << " observations, oracle " << want.size();
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(prod[i].consumed, src[i].consumed) << "stream " << i;
  }
  return want;
}

std::vector<std::uint8_t> recon_image(const recon::BlockReconState& s) {
  util::StateWriter w;
  w.begin_section(util::state_tag("RECN"));
  s.save(w);
  w.end_section();
  return w.take();
}

// recon::BlockStream's detection pass rebuilt from the public stage
// APIs, merging through checked_pump() and reconstructing with one
// per-observation push at a time: the oracle for the stream's
// production merge and span reconstruction.
class ReferenceStream {
 public:
  void begin(const sim::BlockProfile& block,
             const recon::BlockObservationConfig& oc) {
    block_ = &block;
    oc_ = &oc;
    inject_ = oc.faults != nullptr && !oc.faults->empty();
    const std::size_t n =
        oc.observers.size() + (oc.additional_observations ? 1 : 0);
    lanes_.clear();
    lanes_.resize(n);
    sources_.clear();
    sources_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Lane& l = lanes_[i];
      const bool extra = i >= oc.observers.size();
      l.spec = extra ? probe::additional_observer() : oc.observers[i];
      l.prober = oc.prober;
      if (extra) l.prober.kind = probe::ProberKind::kAdditional;
      probe::round_prober_begin(block, l.spec, oc.window, l.prober, l.state);
      if (inject_) l.skew = fault::resolve_skew(*oc.faults, l.spec.code);
    }
    recon_.begin(block.eb_count, oc.window, oc.recon);
    merged_.clear();
  }

  // Ingests like BlockStream::advance_to and returns this pump's order.
  ObservationVec advance_to(util::SimTime until) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& l = lanes_[i];
      RefSource& s = sources_[i];
      if (!l.state.done) {
        const std::size_t old = s.buf.size();
        probe::round_prober_resume(*block_, l.spec, oc_->loss, oc_->window,
                                   l.prober, scratch_, l.state, until, s.buf);
        if (inject_) {
          fault::apply_faults_chunk(*oc_->faults, l.spec.code, oc_->window,
                                    s.buf, old, l.carry);
        }
      }
      s.released = oc_->one_loss_repair ? l.repair.ingest(s.buf, 0)
                                        : s.buf.size();
    }
    return pump();
  }

  // Drains like BlockStream::finalize.
  ObservationVec finish() {
    ObservationVec order = advance_to(oc_->window.end);
    if (oc_->one_loss_repair) {
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        sources_[i].released = lanes_[i].repair.finish();
      }
    }
    const ObservationVec tail = pump();
    order.insert(order.end(), tail.begin(), tail.end());
    return order;
  }

  const recon::BlockReconState& recon() const { return recon_; }
  recon::BlockReconState& recon() { return recon_; }
  // Everything popped so far, in merge order.
  const ObservationVec& merged() const { return merged_; }
  // Pumps that ended with an observation held by repair.
  std::size_t holds() const { return holds_; }

 private:
  struct Lane {
    probe::ObserverSpec spec{};
    probe::ProberConfig prober{};
    probe::RoundProberState state{};
    fault::FaultCarry carry{};
    fault::SkewResolution skew{};
    recon::StreamRepair repair;
  };

  ObservationVec pump() {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& l = lanes_[i];
      const std::int64_t next_rel = l.state.next_round - oc_->window.start;
      sources_[i].watermark =
          l.state.done ? probe::kExhausted
                       : std::max<std::int64_t>(0, l.skew.transform(next_rel));
    }
    const ObservationVec order = checked_pump(sources_);
    for (const probe::Observation& o : order) recon_.push(o);
    merged_.insert(merged_.end(), order.begin(), order.end());
    for (const RefSource& s : sources_) {
      if (s.released < s.buf.size()) {
        ++holds_;
        break;
      }
    }
    return order;
  }

  const sim::BlockProfile* block_ = nullptr;
  const recon::BlockObservationConfig* oc_ = nullptr;
  bool inject_ = false;
  probe::ProbeScratch scratch_;
  std::vector<Lane> lanes_;
  std::vector<RefSource> sources_;
  recon::BlockReconState recon_;
  ObservationVec merged_;
  std::size_t holds_ = 0;
};

void expect_stats_equal(const recon::ReconStats& got,
                        const recon::ReconStats& want) {
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.len, want.len);
  EXPECT_EQ(got.responsive, want.responsive);
  EXPECT_EQ(got.mean_reply_rate, want.mean_reply_rate);
  EXPECT_EQ(got.observations, want.observations);
  EXPECT_EQ(got.eb_count, want.eb_count);
  EXPECT_EQ(got.observed_targets, want.observed_targets);
  EXPECT_EQ(got.max_active, want.max_active);
  EXPECT_EQ(got.evidence_fraction, want.evidence_fraction);
  EXPECT_EQ(got.max_gap_seconds, want.max_gap_seconds);
  EXPECT_EQ(got.fbs_spans_seconds, want.fbs_spans_seconds);
  ASSERT_EQ(got.gaps.size(), want.gaps.size());
  for (std::size_t i = 0; i < want.gaps.size(); ++i) {
    EXPECT_EQ(got.gaps[i].start, want.gaps[i].start);
    EXPECT_EQ(got.gaps[i].end, want.gaps[i].end);
  }
}

// A random fault plan over the week dataset's observers: outages,
// truncation, burst loss and (in half the plans) clock skew with drift,
// which the fleet would run in its separate-pass mode.
fault::FaultPlan random_plan(std::mt19937_64& rng, ProbeWindow w) {
  const std::uint64_t span = static_cast<std::uint64_t>(w.end - w.start);
  const auto who = [&] { return "ejnw*"[rng() % 5]; };
  fault::FaultPlan plan;
  plan.seed = rng();
  for (auto n = rng() % 3; n > 0; --n) {
    fault::OutageSpec o;
    o.observer = who();
    o.kind = static_cast<fault::OutageKind>(rng() % 3);
    o.start = w.start + static_cast<util::SimTime>(rng() % span);
    o.end = o.start + 1 + static_cast<util::SimTime>(rng() % (span / 2));
    plan.outages.push_back(o);
  }
  for (auto n = rng() % 2; n > 0; --n) {
    fault::TruncationSpec tr;
    tr.observer = who();
    tr.prob = 0.1 + 0.8 * static_cast<double>(rng() % 1000) / 1000.0;
    plan.truncations.push_back(tr);
  }
  for (auto n = rng() % 3; n > 0; --n) {
    fault::BurstLossSpec b;
    b.observer = who();
    b.rate = 0.3 + 0.7 * static_cast<double>(rng() % 1000) / 1000.0;
    b.mean_interval = util::kSecondsPerHour +
                      static_cast<util::SimTime>(rng() % (8 * 3600));
    b.mean_duration = 60 + static_cast<util::SimTime>(rng() % 3600);
    plan.bursts.push_back(b);
  }
  if (rng() % 2 == 0) {
    fault::ClockSkewSpec sk;
    sk.observer = who();
    sk.skew_seconds = static_cast<std::int64_t>(rng() % 601) - 300;
    sk.drift_ppm = static_cast<double>(rng() % 1001) - 500.0;
    plan.skews.push_back(sk);
  }
  return plan;
}

// Random advance schedule: epochs of random length, some landing on a
// round edge or one second either side of it.
std::vector<util::SimTime> random_schedule(std::mt19937_64& rng,
                                           ProbeWindow w) {
  std::vector<util::SimTime> cuts;
  for (util::SimTime t = w.start; t < w.end;) {
    switch (rng() % 3) {
      case 0:
        t += 1 + static_cast<util::SimTime>(rng() % util::kSecondsPerDay);
        break;
      case 1:
        t += static_cast<util::SimTime>(rng() % 3600);
        break;
      default: {
        const util::SimTime edge =
            w.start + ((t - w.start) / util::kRoundSeconds +
                       1 + static_cast<util::SimTime>(rng() % 12)) *
                          util::kRoundSeconds;
        t = edge - 1 + static_cast<util::SimTime>(rng() % 3);
      }
    }
    cuts.push_back(std::min(t, w.end));
  }
  return cuts;
}

// Random plans (bursts, dropouts, truncation, skew), random advance
// chunkings on and around round edges, repair holds across advances and
// a save/restore mid-run: every pump of the production merge pops the
// oracle's sequence, BlockStream's reconstruction equals the oracle's
// per-observation one after every advance, and the finalized statistics
// and series are bitwise equal.
TEST(StreamMergeTest, CutMergeMatchesPerRunPumpOnRandomPlans) {
  std::mt19937_64 rng(0xC07);
  const auto ds = core::dataset("2020w2-ejnw");
  const ProbeWindow w = ds.window();
  std::size_t holds = 0;
  std::size_t skewed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto plan = random_plan(rng, w);
    skewed += plan.skews.empty() ? 0 : 1;
    auto oc = week_config(&plan);
    oc.additional_observations = rng() % 2 == 0;
    oc.one_loss_repair = rng() % 4 != 0;
    const auto& block = responsive_block(rng() % 8);
    const auto cuts = random_schedule(rng, w);
    const std::size_t restore_at = rng() % cuts.size();
    SCOPED_TRACE("trial " + std::to_string(trial));

    ReferenceStream ref;
    ref.begin(block, oc);
    probe::ProbeScratch scratch;
    recon::BlockStream first;
    recon::BlockStream second;
    first.begin(block, oc, scratch);
    recon::BlockStream* stream = &first;
    for (std::size_t e = 0; e < cuts.size(); ++e) {
      ref.advance_to(cuts[e]);
      stream->advance_to(cuts[e]);
      ASSERT_EQ(recon_image(stream->recon_state()), recon_image(ref.recon()))
          << "advance " << e;
      if (e == restore_at) {
        save_restore(first, second, block, oc, scratch, 0);
        stream = &second;
      }
    }
    ref.finish();
    recon::DegradedReconStats got;
    stream->finalize_stats(got);
    recon::ReconStats want;
    ref.recon().finalize_stats(want);
    expect_stats_equal(got.recon, want);
    const auto got_series = stream->series();
    const auto want_series = ref.recon().series_view();
    ASSERT_EQ(got_series.size(), want_series.size());
    EXPECT_TRUE(std::equal(got_series.begin(), got_series.end(),
                           want_series.begin()));
    holds += ref.holds();
  }
  EXPECT_GT(holds, 0u);
  EXPECT_GT(skewed, 0u);
}

// Synthetic sources with timestamps drawn from a narrow range: repeated
// timestamps within a stream, ties across streams at equal rel_time,
// held prefixes, watermarks equal to buffered times, exhausted streams,
// and pumps longer than one merge chunk: the production chunk, and small
// chunks that cut runs at every offset.
TEST(StreamMergeTest, TiesAndRepeatedTimestampsMatchPerRunPump) {
  std::mt19937_64 rng(0x7135);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng() % 6;
    const bool big = trial % 50 == 0;
    const std::size_t cap =
        big || trial % 2 == 0 ? probe::kMergeChunk : 1 + rng() % 16;
    std::vector<RefSource> src(n);
    std::vector<std::uint32_t> next(n, 0);
    std::vector<bool> done(n, false);
    for (int round = 0; round < 6; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        RefSource& s = src[i];
        if (!done[i]) {
          const std::size_t add = big ? 2000 + rng() % 3000 : rng() % 12;
          for (std::size_t j = 0; j < add; ++j) {
            next[i] += static_cast<std::uint32_t>(rng() % 3 == 0 ? 1 : 0);
            s.buf.push_back(probe::Observation{
                next[i], static_cast<std::uint8_t>(rng() % 256),
                rng() % 2 == 0});
          }
          done[i] = rng() % 8 == 0;
        }
        // Release some prefix (never revoked), or everything once done.
        s.released = done[i] ? s.buf.size()
                             : s.released + rng() % (s.buf.size() -
                                                     s.released + 1);
        // What the stream produces next orders at or after its last
        // buffered observation, sometimes at the same time.
        if (done[i]) {
          s.watermark = probe::kExhausted;
        } else {
          next[i] += static_cast<std::uint32_t>(rng() % 2);
          s.watermark = next[i];
        }
      }
      checked_pump(src, cap);
      if (HasFailure()) return;
    }
    // End of stream: everything released, nothing left to produce.
    for (RefSource& s : src) {
      s.released = s.buf.size();
      s.watermark = probe::kExhausted;
    }
    checked_pump(src, cap);
    for (const RefSource& s : src) ASSERT_EQ(s.consumed, s.buf.size());
  }
}

// Union-window mode with the classification fork landing strictly
// inside a full 4096-observation merge chunk: the advance before the
// classification end is placed so that the last pump merges at least a
// whole chunk, with the first observation past the classification end
// inside its first chunk.  Both results equal dedicated batch passes.
TEST(StreamMergeTest, UnionForkInsideAFullMergeChunk) {
  const auto ds = core::dataset("2020m1-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();
  const ProbeWindow w = oc.window;
  // Observations merged once advance_to(t) returns.
  const auto merged_by = [&](const sim::BlockProfile& block, util::SimTime t) {
    ReferenceStream ref;
    ref.begin(block, oc);
    ref.advance_to(t);
    return ref.merged().size();
  };
  bool tested = false;
  for (std::size_t b = 0; b < 6 && !tested; ++b) {
    const auto& block = responsive_block(b);
    util::SimTime after = w.start + 12 * util::kSecondsPerDay;
    for (int attempt = 0; attempt < 8 && !tested; ++attempt) {
      const util::SimTime classify_end = straddling_end(block, oc, after);
      after = classify_end + 3 * util::kRoundSeconds;
      const std::int64_t classify_rel = classify_end - w.start;
      ReferenceStream ref;
      ref.begin(block, oc);
      ref.advance_to(classify_end);
      const ObservationVec& all = ref.merged();
      // Merged by the classification end, and how many of those lie at
      // or before it; the last pump forks only if some lie past it.
      const std::size_t total = all.size();
      const auto before_end = static_cast<std::size_t>(
          std::partition_point(all.begin(), all.end(),
                               [&](const probe::Observation& o) {
                                 return o.rel_time <= classify_rel;
                               }) -
          all.begin());
      if (total == before_end || before_end < probe::kMergeChunk) continue;
      // The earliest advance whose merged count c leaves the fork inside
      // the next pump's first chunk: before_end - kMergeChunk < c.
      util::SimTime lo = w.start;
      util::SimTime hi = classify_end;
      while (lo < hi) {
        const util::SimTime mid = lo + (hi - lo) / 2;
        if (merged_by(block, mid) + probe::kMergeChunk > before_end) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const std::size_t c = merged_by(block, lo);
      if (c >= before_end || c + probe::kMergeChunk > total) continue;
      tested = true;
      SCOPED_TRACE("block " + std::to_string(b) + " classify_end +" +
                   std::to_string(classify_rel) + " advance +" +
                   std::to_string(lo - w.start));

      probe::ProbeScratch scratch;
      recon::BlockStream stream;
      stream.begin(block, oc, scratch, classify_end);
      stream.advance_to(lo);
      ASSERT_EQ(stream.health().observations, c);
      stream.advance_to(classify_end);
      ASSERT_EQ(stream.health().observations, total);

      recon::BlockObservationConfig classify_oc = oc;
      classify_oc.window = ProbeWindow{w.start, classify_end};
      recon::DegradedReconResult got_classify;
      stream.finalize_classify(got_classify);
      expect_recon_equal(got_classify.recon,
                         batch_oracle(block, classify_oc).recon);
      recon::DegradedReconResult got_detect;
      stream.finalize(got_detect);
      expect_recon_equal(got_detect.recon, batch_oracle(block, oc).recon);
    }
  }
  EXPECT_TRUE(tested);
}

// The reconstruction state machine written out per observation, as
// BlockReconState::push and finalize_stats were before the span kernel:
// the oracle for push_span().  Fills `series` and returns the statistics.
recon::ReconStats reference_reconstruct(const ObservationVec& obs, int eb,
                                        ProbeWindow w,
                                        const recon::ReconOptions& opt,
                                        std::vector<double>& series) {
  recon::ReconStats out;
  const std::int64_t duration = w.end - w.start;
  const std::int64_t step = opt.sample_step;
  const std::int64_t horizon = opt.stale_horizon;
  const auto n = static_cast<std::size_t>((duration + step - 1) / step);
  series.assign(n, 0.0);
  std::array<int, 256> state;
  state.fill(-1);
  std::array<std::uint32_t, 256> pass_epoch{};
  int active = 0;
  std::size_t positives = 0;
  std::size_t next = 0;
  std::int64_t last = std::numeric_limits<std::int64_t>::min() / 2;
  std::size_t fresh = 0;
  std::uint32_t pass = 1;
  int seen = 0;
  std::int64_t pass_start = 0;
  const auto emit = [&](std::int64_t until) {
    for (; next < n && static_cast<std::int64_t>(next) * step <= until;
         ++next) {
      series[next] = active;
      out.max_active = std::max(out.max_active, series[next]);
      if (static_cast<std::int64_t>(next) * step - last <= horizon) ++fresh;
    }
  };
  const auto gap = [&](std::int64_t up_to) {
    const std::int64_t from = std::max<std::int64_t>(last, 0);
    if (up_to - from > horizon) {
      out.gaps.push_back(recon::CoverageGap{w.start + from, w.start + up_to});
    }
    out.max_gap_seconds =
        std::max(out.max_gap_seconds, static_cast<double>(up_to - from));
  };
  for (const probe::Observation& o : obs) {
    const std::int64_t rel = o.rel_time;
    emit(rel - 1);
    gap(rel);
    last = rel;
    ++out.observations;
    if (o.addr >= eb) continue;
    const int prev = state[o.addr];
    const int now = o.up ? 1 : 0;
    if (prev == -1) ++out.observed_targets;
    active += now - (prev == 1 ? 1 : 0);
    positives += static_cast<std::size_t>(now);
    state[o.addr] = now;
    if (pass_epoch[o.addr] != pass) {
      pass_epoch[o.addr] = pass;
      if (++seen == eb) {
        out.fbs_spans_seconds.push_back(static_cast<double>(rel - pass_start));
        ++pass;
        seen = 0;
        pass_start = rel;
      }
    }
  }
  emit(duration);
  gap(duration);
  out.start = w.start;
  out.step = step;
  out.len = n;
  out.eb_count = eb;
  out.responsive = positives > 0;
  out.evidence_fraction =
      static_cast<double>(fresh) / static_cast<double>(n);
  out.mean_reply_rate = out.observations == 0
                            ? 0.0
                            : static_cast<double>(positives) /
                                  static_cast<double>(out.observations);
  return out;
}

// push_span() over random cut points equals one push() per observation,
// checked by image after every span, and its finalized statistics and
// series equal the per-observation oracle's:
// observations on and one second either side of sample-emission edges,
// repeated timestamps, gaps longer than the stale horizon, frequent
// cover completions (small E(b)), addresses outside E(b), and
// observations pacing past the window end.
TEST(ReconSpanTest, PushSpanMatchesPerObservationPush) {
  std::mt19937_64 rng(0x5BA7);
  const recon::ReconOptions opt;
  for (int trial = 0; trial < 60; ++trial) {
    const int eb = trial % 3 == 0 ? 256 : 1 + static_cast<int>(rng() % 6);
    const util::SimTime start = 1'000'000;
    const ProbeWindow w{start, start + 3 * util::kSecondsPerDay +
                                   static_cast<util::SimTime>(rng() % 7200)};
    ObservationVec obs;
    std::int64_t t = 0;
    while (t < w.end - w.start + 2 * 3600) {
      switch (rng() % 8) {
        case 0:  // on, or one second either side of, the next sample edge
          t = (t / opt.sample_step + 1) * opt.sample_step - 1 +
              static_cast<std::int64_t>(rng() % 3);
          break;
        case 1:  // a gap longer than the horizon
          t += opt.stale_horizon + 1 + static_cast<std::int64_t>(rng() % 7200);
          break;
        case 2:  // a repeated timestamp
          break;
        default:
          t += static_cast<std::int64_t>(rng() % 400);
      }
      obs.push_back(probe::Observation{
          static_cast<std::uint32_t>(t),
          static_cast<std::uint8_t>(rng() % static_cast<std::uint64_t>(
                                              eb + (eb < 256 ? 2 : 0))),
          rng() % 3 != 0});
    }
    recon::BlockReconState single;
    recon::BlockReconState spans;
    single.begin(eb, w, opt);
    spans.begin(eb, w, opt);
    for (std::size_t i = 0; i < obs.size();) {
      const std::size_t j =
          std::min(obs.size(), i + static_cast<std::size_t>(rng() % 200));
      for (std::size_t k = i; k < j; ++k) single.push(obs[k]);
      spans.push_span(obs.data() + i, obs.data() + j);
      ASSERT_EQ(recon_image(spans), recon_image(single))
          << "trial " << trial << " span [" << i << ", " << j << ")";
      i = j;
    }
    recon::ReconStats got;
    spans.finalize_stats(got);
    std::vector<double> want_series;
    const recon::ReconStats want =
        reference_reconstruct(obs, eb, w, opt, want_series);
    expect_stats_equal(got, want);
    EXPECT_FALSE(want.gaps.empty());
    if (eb < 256) {
      EXPECT_FALSE(want.fbs_spans_seconds.empty());
    }
    ASSERT_EQ(spans.series_view().size(), want_series.size());
    EXPECT_TRUE(std::equal(want_series.begin(), want_series.end(),
                           spans.series_view().begin()));
  }
}

// ---------------------------------------------------------------------------
// StreamingFleet
// ---------------------------------------------------------------------------

const sim::World& fleet_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 3;
    return c;
  }());
  return world;
}

TEST(StreamingFleetTest, EpochDriveMatchesBatch) {
  for (const char* name : {"none", "dropout"}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.faults = fault::scenario(name, fc.dataset.window());
    fc.threads = 2;
    const auto batch = core::run_fleet(fleet_world(), fc);
    const auto want = core::fleet_digest(batch);

    core::StreamingFleet fleet(fleet_world(), fc);
    std::size_t delivered = 0;
    for (util::SimTime t = fleet.window_start(); t < fleet.window_end();
         t += util::kSecondsPerDay) {
      delivered += fleet.advance_to(t).observations;
    }
    const auto rest = fleet.advance_to(fleet.window_end());
    delivered += rest.observations;
    const auto streamed = fleet.finalize();
    EXPECT_EQ(core::fleet_digest(streamed), want) << name;
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(streamed.funnel.routed, batch.funnel.routed);
  }
}

// The fused single pass and the incremental epoch drive against two
// dedicated passes, healthy and under the fault plans the union mode
// admits, at one and three threads.
TEST(StreamingFleetTest, FusedUnionWindowMatchesTwoPass) {
  for (const char* name : {"none", "bursts", "dropout", "truncate"}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020q1-ejnw");
    fc.classify_dataset = core::dataset("2020m1-ejnw");
    fc.faults = fault::scenario(name, fc.dataset.window());
    fc.threads = 1;
    fc.fuse_observation_windows = false;
    const auto want = core::fleet_digest(core::run_fleet(fleet_world(), fc));

    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(name) + " threads " + std::to_string(threads));
      fc.threads = threads;
      fc.fuse_observation_windows = true;
      EXPECT_EQ(core::fleet_digest(core::run_fleet(fleet_world(), fc)), want);

      // The incremental drive crosses the classification boundary
      // mid-run and must land on the same digest again.
      core::StreamingFleet fleet(fleet_world(), fc);
      bool complete_seen = false;
      for (util::SimTime t = fleet.window_start(); t <= fleet.window_end();
           t += 3 * util::kSecondsPerDay) {
        const auto rep = fleet.advance_to(t);
        if (rep.classification_complete && !complete_seen) {
          complete_seen = true;
          EXPECT_EQ(rep.funnel.routed,
                    static_cast<std::int64_t>(fleet_world().blocks().size()));
        }
      }
      EXPECT_TRUE(complete_seen);
      EXPECT_EQ(core::fleet_digest(fleet.finalize()), want);
    }
  }
}

// The split-mode ingest rule: on the epoch that crosses the
// classification end the verdict is recorded first, and only watched
// blocks ingest further rounds.  Pinned for kUnion (fused prefix
// window) and kSeparate (unfused, and forced by a skew plan), with one
// schedule cutting exactly at the classification end and one epoch
// straddling it.
TEST(StreamingFleetTest, SplitModeCrossingStopsUnwatchedBlocks) {
  using Row = core::StreamingFleet::BlockSnapshotRow;
  struct Case {
    const char* name;
    bool fuse;
    const char* faults;
    bool separate;
  };
  const util::SimTime cend = core::dataset("2020m1-ejnw").window().end;
  constexpr util::SimTime kDay = util::kSecondsPerDay;
  const auto& blocks = fleet_world().blocks();
  for (const Case& k : {Case{"union", true, "none", false},
                        Case{"separate", false, "none", true},
                        Case{"separate-skew", true, "skew", true}}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020q1-ejnw");
    fc.classify_dataset = core::dataset("2020m1-ejnw");
    fc.fuse_observation_windows = k.fuse;
    fc.faults = fault::scenario(k.faults, fc.dataset.window());
    fc.threads = 2;
    const auto want = core::fleet_digest(core::run_fleet(fleet_world(), fc));

    for (const bool exact : {true, false}) {
      SCOPED_TRACE(std::string(k.name) + (exact ? " exact" : " straddle"));
      core::StreamingFleet fleet(fleet_world(), fc);
      const std::vector<util::SimTime> cuts =
          exact ? std::vector<util::SimTime>{cend - 10 * kDay, cend,
                                             cend + 10 * kDay,
                                             fleet.window_end()}
                : std::vector<util::SimTime>{cend - 10 * kDay, cend + kDay,
                                             cend + 10 * kDay,
                                             fleet.window_end()};
      std::vector<Row> before, rows, crossed;
      std::vector<std::uint8_t> image;
      std::size_t resume_from = 0;
      for (std::size_t e = 0; e < cuts.size(); ++e) {
        fleet.extract_rows(before);
        const auto rep = fleet.advance_to(cuts[e]);
        fleet.extract_rows(rows);
        EXPECT_EQ(rep.classification_complete, cuts[e] >= cend);
        if (cuts[e] < cend) continue;
        if (crossed.empty()) {
          // The crossing epoch: every verdict lands, unwatched blocks
          // stop.  kSeparate classifies before ingesting the epoch, so
          // its unwatched blocks stop at the epoch's start.
          for (std::size_t i = 0; i < rows.size(); ++i) {
            ASSERT_TRUE(rows[i].classified) << "block " << i;
            if (rows[i].cls.change_sensitive) continue;
            EXPECT_FALSE(rows[i].active) << "block " << i;
            EXPECT_FALSE(rows[i].watched) << "block " << i;
            if (k.separate) {
              EXPECT_EQ(rows[i].delivered, before[i].delivered)
                  << "block " << i;
            }
          }
          crossed = rows;
          util::StateWriter w;
          fleet.save(w);
          image = w.bytes();
          resume_from = e + 1;
          continue;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (crossed[i].cls.change_sensitive) {
            EXPECT_TRUE(rows[i].active) << "block " << i;
            EXPECT_TRUE(rows[i].watched) << "block " << i;
          } else {
            EXPECT_FALSE(rows[i].active) << "block " << i;
            EXPECT_EQ(rows[i].delivered, crossed[i].delivered)
                << "block " << i;
          }
        }
      }
      ASSERT_FALSE(crossed.empty());
      // Watched blocks kept ingesting past the crossing.
      std::size_t watched = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!crossed[i].cls.change_sensitive || blocks[i].eb_count == 0) {
          continue;
        }
        ++watched;
        EXPECT_GT(rows[i].delivered, crossed[i].delivered) << "block " << i;
      }
      EXPECT_GT(watched, 0u);
      EXPECT_EQ(core::fleet_digest(fleet.finalize()), want);

      // Restored at the crossing cut, the rest of the schedule lands on
      // the same digest.
      core::StreamingFleet resumed(fleet_world(), fc);
      util::StateReader r(image);
      resumed.restore(r);
      for (std::size_t e = resume_from; e < cuts.size(); ++e) {
        resumed.advance_to(cuts[e]);
      }
      EXPECT_EQ(core::fleet_digest(resumed.finalize()), want);
    }
  }
}

}  // namespace
}  // namespace diurnal
