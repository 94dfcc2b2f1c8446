// Streaming-engine equivalence and edge cases: every resumable stage
// (prober, fault injection, repair, CUSUM), the per-block BlockStream,
// and the fleet-level epoch drive must finalize byte-identical to the
// per-stage batch pipeline, which is kept alive here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
