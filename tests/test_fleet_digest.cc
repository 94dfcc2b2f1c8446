// Fleet-digest determinism gate (tier-1): the full pipeline over the
// reference world must land on one golden digest regardless of thread
// count.  The digest hashes the funnel, every per-block verdict, and
// every detected change, so any nondeterminism — racy accumulation,
// thread-dependent draw, iteration-order dependence — or an unintended
// behavior change in probe/repair/merge/reconstruct/classify/detect
// shows up as a different hex string.  The golden value is shared with
// the bench-smoke CI gate (bench/common.cc).
//
// Suite size note: if a refactor drops registered tests, this gate may
// still pass while coverage silently shrank -- check
// tests/CMakeLists.txt and the ctest total.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/block_analyzer.h"

#include "core/digest.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "sim/world.h"
#include "util/date.h"
#include "validate/harness.h"
#include "validate/scenario.h"

namespace diurnal {
namespace {

// The bench_fleet reference configuration (BENCH_fleet.json provenance).
constexpr char kGoldenDigest[] = "f94c66488def6938";

const sim::World& golden_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 2000;
    c.seed = 1;
    return c;
  }());
  return world;
}

core::FleetConfig golden_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

TEST(FleetDigest, GoldenDigestSingleThread) {
  const auto result = core::run_fleet(golden_world(), golden_config(1));
  EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest);
}

TEST(FleetDigest, GoldenDigestEightThreads) {
  const auto result = core::run_fleet(golden_world(), golden_config(8));
  EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest);
}

TEST(FleetDigest, FaultPlanRunIsThreadCountInvariant) {
  // A seeded fault plan must not reintroduce thread-count dependence:
  // injection is a pure function of (plan seed, observer, time), so the
  // degraded fleet hashes identically at 1 and 8 workers.
  auto fc1 = golden_config(1);
  fc1.faults = fault::scenario("dropout", fc1.dataset.window());
  const auto d1 = core::fleet_digest(core::run_fleet(golden_world(), fc1));

  auto fc8 = golden_config(8);
  fc8.faults = fault::scenario("dropout", fc8.dataset.window());
  const auto d8 = core::fleet_digest(core::run_fleet(golden_world(), fc8));

  EXPECT_EQ(core::digest_hex(d1), core::digest_hex(d8));
  // And the degraded run must differ from the healthy golden run — the
  // digest actually sees the fault layer's effects.
  EXPECT_NE(core::digest_hex(d1), kGoldenDigest);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_cls(const core::BlockClassification& a,
              const core::BlockClassification& b) {
  const auto& ad = a.diurnal_detail;
  const auto& bd = b.diurnal_detail;
  const auto& as = a.swing_detail;
  const auto& bs = b.swing_detail;
  return a.responsive == b.responsive && a.diurnal == b.diurnal &&
         a.wide_swing == b.wide_swing &&
         a.change_sensitive == b.change_sensitive &&
         a.low_confidence == b.low_confidence &&
         bits_of(a.evidence_fraction) == bits_of(b.evidence_fraction) &&
         ad.diurnal == bd.diurnal &&
         bits_of(ad.power_ratio) == bits_of(bd.power_ratio) &&
         bits_of(ad.total_power) == bits_of(bd.total_power) &&
         bits_of(ad.diurnal_power) == bits_of(bd.diurnal_power) &&
         ad.segments == bd.segments &&
         ad.segments_diurnal == bd.segments_diurnal && as.wide == bs.wide &&
         as.wide_days == bs.wide_days && as.total_days == bs.total_days &&
         bits_of(as.max_daily_swing) == bits_of(bs.max_daily_swing) &&
         as.best_window_wide == bs.best_window_wide;
}

bool same_changes(const std::vector<core::DetectedChange>& a,
                  const std::vector<core::DetectedChange>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto& x = a[k];
    const auto& y = b[k];
    if (x.start != y.start || x.alarm != y.alarm || x.end != y.end ||
        x.direction != y.direction ||
        bits_of(x.amplitude) != bits_of(y.amplitude) ||
        bits_of(x.amplitude_addresses) != bits_of(y.amplitude_addresses) ||
        x.filtered_as_outage != y.filtered_as_outage ||
        x.filtered_small != y.filtered_small ||
        x.filtered_phase_only != y.filtered_phase_only ||
        x.low_evidence != y.low_evidence) {
      return false;
    }
  }
  return true;
}

// Scalar oracle for the engine's batched analysis: every block's
// outcome must equal the scalar classify_block + detect_changes +
// low-evidence annotation over the engine's own detection-window series
// (FleetResult::series), with the reconstruction statistics recomputed
// by an independent whole-window observation pass.
class ScalarOracle {
 public:
  explicit ScalarOracle(const core::FleetConfig& fc) : fc_(fc) {
    const auto oc = core::block_observation_config(fc, fc.dataset);
    probe::ProbeScratch scratch;
    for (const auto& block : golden_world().blocks()) {
      recon_.emplace_back();
      if (block.eb_count > 0) {
        recon::observe_and_reconstruct_degraded(block, oc, scratch,
                                                recon_.back());
      }
    }
  }

  void expect_matches(const core::FleetResult& got, const char* what,
                      bool want_low_evidence) const {
    const auto& blocks = golden_world().blocks();
    ASSERT_EQ(got.outcomes.size(), blocks.size()) << what;
    analysis::BlockAnalyzer az;
    std::vector<core::DetectedChange> changes;
    std::size_t mismatches = 0;
    std::size_t detected = 0;
    std::size_t low_evidence = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto& out = got.outcomes[i];
      core::BlockClassification cls;
      changes.clear();
      const auto series = got.series.series(i);
      if (blocks[i].eb_count > 0) {
        const recon::ReconResult& rr = recon_[i].recon;
        cls = core::classify_block(series, got.series.start(),
                                   got.series.step(), rr.responsive,
                                   rr.evidence_fraction, fc_.classifier, az);
        if (cls.change_sensitive) {
          core::detect_changes(series, got.series.start(), got.series.step(),
                               fc_.detector, az, changes);
          core::annotate_low_evidence(changes, rr.evidence_fraction, rr.gaps,
                                      fc_.classifier.min_evidence_fraction);
        }
        const auto& want = rr.counts.values();
        if (series.size() != want.size() ||
            !std::equal(series.begin(), series.end(), want.begin(),
                        [](double x, double y) {
                          return bits_of(x) == bits_of(y);
                        })) {
          ++mismatches;
          ADD_FAILURE() << what << ": block " << i << " series differs";
          continue;
        }
      }
      detected += changes.size();
      for (const auto& c : changes) low_evidence += c.low_evidence ? 1 : 0;
      if (!same_cls(out.cls, cls) || !same_changes(out.changes, changes)) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << what << ": block " << i
                        << " differs from the scalar oracle";
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << what;
    EXPECT_GT(detected, 0u) << what << ": the oracle saw no changes";
    if (want_low_evidence) {
      EXPECT_GT(low_evidence, 0u) << what << ": no change was annotated";
    }
  }

 private:
  core::FleetConfig fc_;
  std::vector<recon::DegradedReconResult> recon_;
};

core::FleetResult stream_in_two_epochs(const core::FleetConfig& fc) {
  core::StreamingFleet fleet(golden_world(), fc);
  fleet.advance_to(fleet.window_start() +
                   (fleet.window_end() - fleet.window_start()) / 2);
  fleet.advance_to(fleet.window_end());
  return fleet.finalize();
}

// The drives always run the batched SoA kernels, and the lanes a flush
// fills depend on how the dynamic chunk scheduler hands blocks to
// workers: the thread count changes which blocks share a batch and how
// wide each worker's ragged tail is.  Bit identity with the scalar
// kernels is pinned per block at several such widths.

TEST(FleetDigest, BatchWidthInvariantOnBatchDrive) {
  const ScalarOracle oracle(golden_config(1));
  for (const int threads : {1, 2, 5}) {
    const auto result = core::run_fleet(golden_world(), golden_config(threads));
    oracle.expect_matches(result, "batch drive", false);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest)
        << "threads " << threads;
  }
}

TEST(FleetDigest, BatchWidthInvariantOnStreamingDrive) {
  // The incremental drive flushes at finalize, a different grouping
  // than the batch drive; neither the blocks nor the digest may see it.
  const ScalarOracle oracle(golden_config(1));
  for (const int threads : {1, 5}) {
    const auto result = stream_in_two_epochs(golden_config(threads));
    oracle.expect_matches(result, "streaming drive", false);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest)
        << "threads " << threads;
  }
}

TEST(FleetDigest, BatchWidthInvariantUnderFaults) {
  // Dropout routes blocks through the NaN-gap kernels; a two-day
  // blackout of every observer on top leaves coverage gaps, so the
  // low-evidence annotation fires.  Both drives must match the oracle.
  for (const bool blackout : {false, true}) {
    const char* what = blackout ? "blackout" : "dropout";
    auto fc = golden_config(2);
    const auto w = fc.dataset.window();
    fc.faults = fault::scenario("dropout", w);
    if (blackout) {
      fc.faults.outages.push_back(fault::OutageSpec{
          fault::kAllObservers, fault::OutageKind::kHardDown,
          w.start + 14 * util::kSecondsPerDay,
          w.start + 16 * util::kSecondsPerDay});
    }
    const ScalarOracle oracle(fc);
    const auto batch = core::run_fleet(golden_world(), fc);
    oracle.expect_matches(batch, what, blackout);
    const auto streamed = stream_in_two_epochs(fc);
    oracle.expect_matches(streamed, what, blackout);
    EXPECT_EQ(core::fleet_digest(streamed), core::fleet_digest(batch))
        << what;
  }
}

TEST(FleetDigest, ValidationGoldenMixScenarioReproducesGoldenDigest) {
  // The validation catalog's golden_mix scenario is the same world and
  // pipeline configuration as this file's reference run: the accuracy
  // harness and the perf gate must stay anchored to one digest, so an
  // accuracy "improvement" that silently changes default pipeline
  // behavior fails here.
  const auto* s = validate::find_scenario("golden_mix");
  ASSERT_NE(s, nullptr);
  const auto run = validate::run_scenario(*s, validate::Drive::kBatch, 4);
  EXPECT_EQ(core::digest_hex(run.digest), kGoldenDigest);
  EXPECT_TRUE(validate::check_expectations(*s, run).empty());
}

}  // namespace
}  // namespace diurnal
