// Checkpoint/restore property tests: externalized state must be
// invisible in the output.
//
// The contract under test (util/state_io.h, core/checkpoint.h,
// DESIGN.md section 11): a run that snapshots its state and a fresh
// process that restores it finalize bitwise-identical to an
// uninterrupted run — same golden fleet digest — at every tested epoch
// boundary and shard boundary, across thread counts, with and without
// fault plans; and every corrupt, truncated, or foreign state image is
// rejected with a typed StateError (then recomputed), never silently
// misread.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cusum.h"
#include "core/aggregate.h"
#include "core/checkpoint.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/series_store.h"
#include "core/shard.h"
#include "core/snapshot_server.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "recon/stream.h"
#include "sim/world.h"
#include "util/date.h"
#include "util/mem.h"
#include "util/state_io.h"

namespace diurnal {
namespace {

using util::StateError;
using util::StateErrorKind;
using util::StateReader;
using util::StateWriter;

// Shared with tests/test_fleet_digest.cc and the bench-smoke CI gate.
constexpr char kGoldenDigest[] = "f94c66488def6938";

StateErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StateError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a StateError";
  return StateErrorKind::kIo;
}

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("diurnal_ckpt_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// state_io: framing, packing, corruption
// ---------------------------------------------------------------------------

TEST(StateIo, PrimitivesRoundTripInBothPackings) {
  for (const bool varint : {true, false}) {
    StateWriter w(varint);
    w.begin_section(util::state_tag("TST1"));
    w.u8(0x7f);
    w.u32(0);
    w.u32(0xdeadbeefu);
    w.u64(0xffffffffffffffffULL);
    w.i64(-1);
    w.i64(1234567890123LL);
    w.f64(-0.1);
    w.boolean(true);
    w.boolean(false);
    w.str("checkpoint");
    w.str("");
    w.end_section();
    w.begin_section(util::state_tag("TST2"));
    w.u64(42);
    w.end_section();

    StateReader r(w.bytes());
    EXPECT_EQ(r.version(), util::kStateFormatVersion);
    r.begin_section(util::state_tag("TST1"));
    EXPECT_EQ(r.u8(), 0x7f);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0xffffffffffffffffULL);
    EXPECT_EQ(r.i64(), -1);
    EXPECT_EQ(r.i64(), 1234567890123LL);
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "checkpoint");
    EXPECT_EQ(r.str(), "");
    r.end_section();
    EXPECT_TRUE(r.has_section());
    r.begin_section(util::state_tag("TST2"));
    EXPECT_EQ(r.u64(), 42u);
    r.end_section();
    EXPECT_FALSE(r.has_section());
  }
}

TEST(StateIo, F64SpanRoundTripsBitwiseOnBothPaths) {
  // Integral counts take the varint path, anything else the raw path;
  // both must round-trip the exact bit patterns.
  const std::vector<double> integral{0, 1, 254, 1e12, 4503599627370495.0};
  const std::vector<double> awkward{0.5, -0.0, -3.25, 1e300,
                                    std::nan("1"), 2.0};
  for (const auto& values : {integral, awkward}) {
    StateWriter w;
    w.begin_section(util::state_tag("SPAN"));
    w.f64_span(values);
    w.end_section();
    StateReader r(w.bytes());
    r.begin_section(util::state_tag("SPAN"));
    std::vector<double> got;
    r.f64_span(got);
    r.end_section();
    ASSERT_EQ(got.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, &values[i], 8);
      std::memcpy(&b, &got[i], 8);
      EXPECT_EQ(a, b) << "sample " << i;
    }
  }
}

TEST(StateIo, EveryCorruptionIsATypedError) {
  StateWriter w;
  w.begin_section(util::state_tag("BODY"));
  for (int i = 0; i < 64; ++i) w.u64(static_cast<std::uint64_t>(i) * 977);
  w.end_section();
  const std::vector<std::uint8_t> clean = w.bytes();
  const auto read_all = [](const std::vector<std::uint8_t>& image) {
    StateReader r(image);
    r.begin_section(util::state_tag("BODY"));
    for (int i = 0; i < 64; ++i) (void)r.u64();
    r.end_section();
  };
  read_all(clean);  // sanity: the clean image parses

  auto flipped = clean;
  flipped[flipped.size() - 3] ^= 0x40;  // payload byte
  EXPECT_EQ(kind_of([&] { read_all(flipped); }), StateErrorKind::kBadCrc);

  auto truncated = clean;
  truncated.resize(truncated.size() - 5);
  EXPECT_EQ(kind_of([&] { read_all(truncated); }),
            StateErrorKind::kTruncated);

  auto bad_magic = clean;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(kind_of([&] { read_all(bad_magic); }), StateErrorKind::kBadMagic);

  auto bad_endian = clean;  // sentinel bytes live right after the magic
  std::swap(bad_endian[8], bad_endian[11]);
  std::swap(bad_endian[9], bad_endian[10]);
  EXPECT_EQ(kind_of([&] { read_all(bad_endian); }),
            StateErrorKind::kBadEndian);

  auto bad_version = clean;  // version field follows the sentinel
  bad_version[12] ^= 0x08;
  EXPECT_EQ(kind_of([&] { read_all(bad_version); }),
            StateErrorKind::kBadVersion);

  EXPECT_EQ(kind_of([&] {
              StateReader r(clean);
              r.begin_section(util::state_tag("ELSE"));
            }),
            StateErrorKind::kBadSection);

  EXPECT_EQ(kind_of([&] {
              StateReader r(clean);
              r.begin_section(util::state_tag("BODY"));
              (void)r.u64();
              r.end_section();  // payload not fully consumed
            }),
            StateErrorKind::kBadSection);

  EXPECT_EQ(kind_of([&] { StateReader r(std::vector<std::uint8_t>{}); }),
            StateErrorKind::kTruncated);
}

TEST(StateIo, UnknownHeaderFlagBitsAreRejected) {
  // A future writer setting flag bits this reader does not understand
  // must be refused up front, not half-parsed.  Bit 0 is the varint
  // packing flag; the header flags field starts at offset 16.
  StateWriter w;
  w.begin_section(util::state_tag("FLAG"));
  w.u64(1);
  w.end_section();
  auto image = w.bytes();
  image[16] |= 0x02;
  EXPECT_EQ(kind_of([&] { StateReader r(image); }),
            StateErrorKind::kBadValue);
}

TEST(StateIo, SkipSectionValidatesFramingWithoutDecoding) {
  StateWriter w;
  w.begin_section(util::state_tag("SKP1"));
  w.str("a section this consumer does not understand");
  w.end_section();
  w.begin_section(util::state_tag("SKP2"));
  w.u64(99);
  w.end_section();
  StateReader r(w.bytes());
  EXPECT_EQ(r.next_tag(), util::state_tag("SKP1"));
  r.skip_section();  // unknown content skipped, CRC still enforced
  EXPECT_EQ(r.next_tag(), util::state_tag("SKP2"));
  r.begin_section(util::state_tag("SKP2"));
  EXPECT_EQ(r.u64(), 99u);
  r.end_section();
  EXPECT_FALSE(r.has_section());
}

TEST(StateIo, BitFlipFuzzEveryMutationIsATypedError) {
  // Randomized single-bit-flip fuzz over a real engine image: every
  // byte of a state image is covered by either header validation or a
  // section CRC, so whatever bit flips, walking the image must throw a
  // typed StateError — never crash, hang, or accept silently.
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 40;
    c.seed = 11;
    return c;
  }());
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020w1-ejnw");
  fc.threads = 1;
  core::StreamingFleet engine(world, fc);
  engine.advance_to(engine.window_start() + 4 * util::kSecondsPerDay);
  StateWriter w;
  engine.save(w);
  const std::vector<std::uint8_t> clean = w.bytes();
  ASSERT_GT(clean.size(), 64u);

  const auto parse = [](const std::vector<std::uint8_t>& image) {
    StateReader r(image);
    while (r.has_section()) r.skip_section();
  };
  parse(clean);  // sanity: the clean image walks

  std::mt19937_64 rng(0xD1U);
  std::uniform_int_distribution<std::size_t> pos(0, clean.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    auto mutated = clean;
    mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    try {
      parse(mutated);
    } catch (const StateError&) {
      ++rejected;
      continue;
    }
    // Any other exception type aborts the test run by itself.
    ADD_FAILURE() << "bit flip at trial " << trial
                  << " was silently accepted";
  }
  EXPECT_EQ(rejected, 1000u);

  // And the real consumer agrees: a mutated image never restores.
  std::size_t restore_rejected = 0;
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = clean;
    mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    core::StreamingFleet fresh(world, fc);
    try {
      StateReader r(mutated);
      fresh.restore(r);
    } catch (const StateError&) {
      ++restore_rejected;
    }
  }
  EXPECT_EQ(restore_rejected, 100u);
}

TEST(StateIo, TruncationFuzzEveryPrefixIsATypedError) {
  // Every strict prefix of a valid image must surface as kTruncated,
  // kBadCrc or kBadSection — never a crash and never a clean walk.
  StateWriter w;
  w.begin_section(util::state_tag("TRNC"));
  for (int i = 0; i < 256; ++i) w.u64(static_cast<std::uint64_t>(i) * 31);
  w.end_section();
  w.begin_section(util::state_tag("TAIL"));
  w.str("tail section");
  w.end_section();
  const std::vector<std::uint8_t> clean = w.bytes();

  std::mt19937_64 rng(0x7CU);
  std::uniform_int_distribution<std::size_t> cut(0, clean.size() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = clean;
    mutated.resize(cut(rng));
    // The one structurally valid prefix is the bare 20-byte header — an
    // empty image.  The reader cannot know sections were lost, but any
    // consumer asking for its expected section still gets kTruncated.
    bool walked_empty = false;
    try {
      StateReader r(mutated);
      while (r.has_section()) r.skip_section();
      walked_empty = true;
    } catch (const StateError& e) {
      EXPECT_TRUE(e.kind() == StateErrorKind::kTruncated ||
                  e.kind() == StateErrorKind::kBadCrc ||
                  e.kind() == StateErrorKind::kBadSection)
          << "cut " << mutated.size() << " gave kind "
          << static_cast<int>(e.kind());
    }
    if (walked_empty) {
      EXPECT_FALSE(StateReader(mutated).has_section())
          << "a section-bearing prefix walked cleanly at cut "
          << mutated.size();
      EXPECT_EQ(kind_of([&] {
                  StateReader r(mutated);
                  r.begin_section(util::state_tag("TRNC"));
                }),
                StateErrorKind::kTruncated);
    }
  }
}

TEST(StateIo, ConcurrentWritersToOneDirectoryNeverTearAFile) {
  // Regression for the fixed staging-name collision: concurrent
  // write_state_file calls into one directory (distinct paths, shared
  // prefix) must each land a complete, parseable image.
  const auto dir = temp_dir("concurrent_write");
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        StateWriter w;
        w.begin_section(util::state_tag("CONC"));
        w.u64(static_cast<std::uint64_t>(t));
        w.u64(static_cast<std::uint64_t>(round));
        w.end_section();
        util::write_state_file(
            (dir / ("writer-" + std::to_string(t) + ".ckpt")).string(),
            w.bytes());
      }
    });
  }
  for (auto& t : writers) t.join();
  for (int t = 0; t < kWriters; ++t) {
    const auto image = util::read_state_file(
        (dir / ("writer-" + std::to_string(t) + ".ckpt")).string());
    StateReader r(image);
    r.begin_section(util::state_tag("CONC"));
    EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(t));
    EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(kRounds - 1));
    r.end_section();
  }
  // No staging leftovers either.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".ckpt")
        << "staging file leaked: " << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(StateIo, AtomicFileWriteRoundTripsAndMissingFileIsIo) {
  const auto dir = temp_dir("stateio");
  const std::string path = (dir / "image.ckpt").string();
  StateWriter w;
  w.begin_section(util::state_tag("FILE"));
  w.str("payload");
  w.end_section();
  util::write_state_file(path, w.bytes());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed away
  const auto image = util::read_state_file(path);
  StateReader r(image);
  r.begin_section(util::state_tag("FILE"));
  EXPECT_EQ(r.str(), "payload");
  r.end_section();
  EXPECT_EQ(kind_of([&] {
              (void)util::read_state_file((dir / "absent.ckpt").string());
            }),
            StateErrorKind::kIo);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Layer round-trips: CUSUM, series store, aggregator
// ---------------------------------------------------------------------------

TEST(CusumCheckpoint, MidStreamRestoreMatchesUninterrupted) {
  // A drifting series with one planted level shift; cut the stream at
  // several points, including inside the post-alarm excursion scan.
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) {
    const double base = i < 200 ? 0.0 : -6.0;
    x.push_back(base + 0.8 * std::sin(i * 0.7) + 0.3 * std::cos(i * 1.3));
  }
  analysis::OnlineCusum whole;
  whole.begin({1.0, 0.001});
  for (const double v : x) whole.push(v);
  const auto want = whole.finish();

  for (const std::size_t cut : {std::size_t{1}, std::size_t{150},
                                std::size_t{201}, std::size_t{399}}) {
    analysis::OnlineCusum first;
    first.begin({1.0, 0.001});
    for (std::size_t i = 0; i < cut; ++i) first.push(x[i]);
    StateWriter w;
    w.begin_section(util::state_tag("CSUM"));
    first.save(w);
    w.end_section();

    analysis::OnlineCusum second;  // restore needs no begin()
    StateReader r(w.bytes());
    r.begin_section(util::state_tag("CSUM"));
    second.restore(r);
    r.end_section();
    for (std::size_t i = cut; i < x.size(); ++i) second.push(x[i]);
    const auto got = second.finish();

    ASSERT_EQ(got.changes.size(), want.changes.size()) << "cut " << cut;
    for (std::size_t i = 0; i < want.changes.size(); ++i) {
      EXPECT_EQ(got.changes[i].start, want.changes[i].start);
      EXPECT_EQ(got.changes[i].alarm, want.changes[i].alarm);
      EXPECT_EQ(got.changes[i].end, want.changes[i].end);
      EXPECT_EQ(got.changes[i].direction, want.changes[i].direction);
      EXPECT_EQ(got.changes[i].amplitude, want.changes[i].amplitude);
    }
    EXPECT_EQ(got.g_pos, want.g_pos) << "cut " << cut;
    EXPECT_EQ(got.g_neg, want.g_neg) << "cut " << cut;
  }
}

TEST(SeriesStoreCheckpoint, RoundTripsGeometryLengthsAndSamples) {
  core::SeriesStore store;
  store.reset(3, 8, 1234567, 3600);
  for (std::size_t i = 0; i < 3; ++i) {
    auto row = store.row(i);
    for (std::size_t j = 0; j < 2 * i + 1; ++j) {
      row[j] = static_cast<double>(i * 100 + j) + 0.25;
    }
    store.set_len(i, 2 * i + 1);
  }
  StateWriter w;
  w.begin_section(util::state_tag("STOR"));
  store.save(w);
  w.end_section();

  core::SeriesStore got;
  StateReader r(w.bytes());
  r.begin_section(util::state_tag("STOR"));
  got.restore(r);
  r.end_section();
  ASSERT_EQ(got.rows(), store.rows());
  EXPECT_EQ(got.stride(), store.stride());
  EXPECT_EQ(got.start(), store.start());
  EXPECT_EQ(got.step(), store.step());
  for (std::size_t i = 0; i < store.rows(); ++i) {
    ASSERT_EQ(got.len(i), store.len(i)) << "row " << i;
    const auto a = store.series(i);
    const auto b = got.series(i);
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j], b[j]) << "row " << i << " sample " << j;
    }
  }
}

TEST(AggregatorCheckpoint, RestoredAggregatorMergesLikeTheOriginal) {
  const util::SimTime day = util::kSecondsPerDay;
  core::ChangeAggregator agg(0, 10 * day);
  std::vector<core::DetectedChange> changes(2);
  changes[0].alarm = 3 * day + 100;
  changes[0].direction = analysis::ChangeDirection::kDown;
  changes[1].alarm = 7 * day;
  changes[1].direction = analysis::ChangeDirection::kUp;
  agg.add_block(geo::GridCell{10, -20}, geo::Continent::kEurope, changes);
  agg.add_block(geo::GridCell{10, -20}, geo::Continent::kEurope, {});
  agg.add_block(geo::GridCell{-3, 44}, geo::Continent::kAsia,
                {changes.begin(), changes.begin() + 1});

  StateWriter w;
  w.begin_section(util::state_tag("AGGR"));
  agg.save(w);
  w.end_section();
  core::ChangeAggregator got;  // default-constructed target
  StateReader r(w.bytes());
  r.begin_section(util::state_tag("AGGR"));
  got.restore(r);
  r.end_section();

  ASSERT_EQ(got.days(), agg.days());
  EXPECT_EQ(got.start(), agg.start());
  ASSERT_EQ(got.by_cell().size(), agg.by_cell().size());
  for (const auto& [cell, series] : agg.by_cell()) {
    const auto it = got.by_cell().find(cell);
    ASSERT_NE(it, got.by_cell().end());
    EXPECT_EQ(it->second.change_sensitive_blocks,
              series.change_sensitive_blocks);
    EXPECT_EQ(it->second.down, series.down);
    EXPECT_EQ(it->second.up, series.up);
  }
  // A restored aggregator must behave as a merge source exactly like
  // the original (the resume path folds restored shard aggregators).
  core::ChangeAggregator into_a(0, 10 * day);
  core::ChangeAggregator into_b(0, 10 * day);
  into_a.merge_from(agg);
  into_b.merge_from(got);
  EXPECT_EQ(into_a.continent(geo::Continent::kEurope).down,
            into_b.continent(geo::Continent::kEurope).down);
  EXPECT_EQ(into_a.by_cell().size(), into_b.by_cell().size());
}

// ---------------------------------------------------------------------------
// recon: BlockStream mid-window snapshot
// ---------------------------------------------------------------------------

const sim::World& recon_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 60;
    c.seed = 7;
    return c;
  }());
  return world;
}

const sim::BlockProfile& responsive_block(std::size_t skip) {
  for (const auto& b : recon_world().blocks()) {
    if (b.eb_count > 0 && skip-- == 0) return b;
  }
  throw std::runtime_error("no responsive block");
}

TEST(BlockStreamCheckpoint, MidWindowRestoreFinalizesIdentically) {
  const auto ds = core::dataset("2020w2-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();
  const auto span = oc.window.end - oc.window.start;
  for (const char* scenario : {"none", "dropout", "meltdown"}) {
    const auto plan = fault::scenario(scenario, oc.window);
    oc.faults = &plan;
    for (std::size_t b = 0; b < 3; ++b) {
      const auto& block = responsive_block(b);
      probe::ProbeScratch scratch;

      recon::BlockStream whole;
      whole.begin(block, oc, scratch);
      whole.advance_to(oc.window.end);
      recon::DegradedReconResult want;
      whole.finalize(want);

      for (const int eighth : {1, 4, 7}) {
        const util::SimTime cut = oc.window.start + span * eighth / 8;
        recon::BlockStream first;
        first.begin(block, oc, scratch);
        first.advance_to(cut);
        StateWriter w;
        w.begin_section(util::state_tag("STRM"));
        first.save(w);
        w.end_section();

        recon::BlockStream second;
        second.begin(block, oc, scratch);  // identical args, then restore
        StateReader r(w.bytes());
        r.begin_section(util::state_tag("STRM"));
        second.restore(r);
        r.end_section();
        second.advance_to(oc.window.end);
        recon::DegradedReconResult got;
        second.finalize(got);

        ASSERT_EQ(got.recon.counts.size(), want.recon.counts.size());
        for (std::size_t i = 0; i < want.recon.counts.size(); ++i) {
          ASSERT_EQ(got.recon.counts[i], want.recon.counts[i])
              << scenario << " block " << b << " cut " << eighth
              << "/8 sample " << i;
        }
        EXPECT_EQ(got.recon.evidence_fraction, want.recon.evidence_fraction);
        EXPECT_EQ(got.recon.max_gap_seconds, want.recon.max_gap_seconds);
        EXPECT_EQ(got.recon.observations, want.recon.observations);
        EXPECT_EQ(got.recon.max_active, want.recon.max_active);
        ASSERT_EQ(got.observers.size(), want.observers.size());
        for (std::size_t i = 0; i < want.observers.size(); ++i) {
          EXPECT_EQ(got.observers[i].observations,
                    want.observers[i].observations);
          EXPECT_EQ(got.observers[i].faults.dropped,
                    want.observers[i].faults.dropped);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// core: StreamingFleet epoch-boundary snapshots (the golden digest gate)
// ---------------------------------------------------------------------------

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

/// Advances to `cut`, snapshots, restores into a fresh engine (possibly
/// with a different thread count), finishes the window in daily epochs,
/// and returns the finalized digest.
std::string cut_and_resume_digest(const sim::World& world,
                                  const core::FleetConfig& save_cfg,
                                  const core::FleetConfig& resume_cfg,
                                  double cut_fraction) {
  core::StreamingFleet first(world, save_cfg);
  const auto span = first.window_end() - first.window_start();
  const util::SimTime cut =
      first.window_start() +
      static_cast<util::SimTime>(span * cut_fraction);
  // Reach the cut in a couple of epochs so the snapshot carries real
  // provisional-detector state, not just a first-epoch skeleton.
  first.advance_to(first.window_start() + span / 10);
  first.advance_to(cut);
  StateWriter w;
  first.save(w);

  core::StreamingFleet second(world, resume_cfg);
  StateReader r(w.bytes());
  second.restore(r);
  EXPECT_EQ(second.clock(), cut);
  for (util::SimTime t = second.clock() + util::kSecondsPerDay;;
       t += util::kSecondsPerDay) {
    const auto bounded = std::min(t, second.window_end());
    second.advance_to(bounded);
    if (bounded == second.window_end()) break;
  }
  return core::digest_hex(core::fleet_digest(second.finalize()));
}

TEST(FleetCheckpoint, GoldenDigestSurvivesEveryCutAndThreadHop) {
  // Cut points early (nothing screened), mid-window (watch + provisional
  // CUSUM state live), and late (trailing STL windows stretched), saved
  // and restored across thread counts both ways.
  for (const double cut : {0.25, 0.55, 0.9}) {
    EXPECT_EQ(cut_and_resume_digest(golden_world(), golden_config(1),
                                    golden_config(8), cut),
              kGoldenDigest)
        << "cut " << cut << " save@1 resume@8";
    EXPECT_EQ(cut_and_resume_digest(golden_world(), golden_config(8),
                                    golden_config(1), cut),
              kGoldenDigest)
        << "cut " << cut << " save@8 resume@1";
  }
}

TEST(FleetCheckpoint, SnapshotBeforeFirstAdvanceIsAValidCheckpoint) {
  core::StreamingFleet first(golden_world(), golden_config(4));
  StateWriter w;
  first.save(w);  // no cells yet
  core::StreamingFleet second(golden_world(), golden_config(4));
  StateReader r(w.bytes());
  second.restore(r);
  EXPECT_EQ(second.clock(), second.window_start());
  EXPECT_EQ(core::digest_hex(core::fleet_digest(second.run_to_completion())),
            kGoldenDigest);
}

// The engine and the server copy their config: both built from a
// temporary golden_config(...), which is gone before they run, reach the
// golden digest.  (With a borrowed config, the observation configs'
// fault-plan pointer dangles; an ASan build catches the read.)
TEST(FleetCheckpoint, EngineAndServerBuiltFromTemporaryConfig) {
  core::StreamingFleet engine(golden_world(), golden_config(2));
  engine.advance_to(engine.window_start() + util::kSecondsPerDay);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(engine.finalize())),
            kGoldenDigest);

  core::SnapshotServer server(golden_world(), golden_config(2));
  server.start();
  server.feed_all();
  EXPECT_EQ(core::digest_hex(core::fleet_digest(server.drain())),
            kGoldenDigest);
}

TEST(FleetCheckpoint, FaultPlanRunRestoresBitIdentically) {
  auto fc = golden_config(2);
  fc.faults = fault::scenario("dropout", fc.dataset.window());
  const auto want = core::digest_hex(
      core::fleet_digest(core::run_fleet(golden_world(), fc)));
  auto resume_fc = fc;
  resume_fc.threads = 8;
  EXPECT_EQ(cut_and_resume_digest(golden_world(), fc, resume_fc, 0.5), want);
}

TEST(FleetCheckpoint, SplitWindowModesRestoreAroundTheClassifyBoundary) {
  // kUnion (classification forked from the detection pass) and
  // kSeparate (dedicated classification pass): cut once before the
  // classification boundary (forked recon / verdict pending in the
  // snapshot) and once after (mid-run verdicts in the snapshot).
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 3;
    return c;
  }());
  for (const bool fuse : {true, false}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.classify_dataset = core::dataset("2020w1-ejnw");  // 1-week prefix
    fc.fuse_observation_windows = fuse;
    fc.threads = 2;
    const auto want =
        core::digest_hex(core::fleet_digest(core::run_fleet(world, fc)));
    for (const double cut : {0.15, 0.6}) {  // boundary sits at 0.25
      EXPECT_EQ(cut_and_resume_digest(world, fc, fc, cut), want)
          << (fuse ? "kUnion" : "kSeparate") << " cut " << cut;
    }
  }
}

TEST(FleetCheckpoint, ForeignSnapshotIsRejected) {
  core::StreamingFleet engine(golden_world(), golden_config(2));
  engine.advance_to(engine.window_start() + 3 * util::kSecondsPerDay);
  StateWriter w;
  engine.save(w);

  // Different dataset: window mismatch.
  auto other = golden_config(2);
  other.dataset = core::dataset("2020w2-ejnw");
  core::StreamingFleet wrong_window(golden_world(), other);
  EXPECT_EQ(kind_of([&] {
              StateReader r(w.bytes());
              wrong_window.restore(r);
            }),
            StateErrorKind::kBadValue);

  // Same config, different world size: cell-count mismatch.
  static const sim::World small([] {
    sim::WorldConfig c;
    c.num_blocks = 100;
    c.seed = 1;
    return c;
  }());
  core::StreamingFleet wrong_world(small, golden_config(2));
  EXPECT_EQ(kind_of([&] {
              StateReader r(w.bytes());
              wrong_world.restore(r);
            }),
            StateErrorKind::kBadValue);
}

// ---------------------------------------------------------------------------
// shard: kill-mid-run resume from the manifest
// ---------------------------------------------------------------------------

sim::WorldConfig shard_world_config() {
  sim::WorldConfig wc;
  wc.num_blocks = 500;
  wc.seed = 97;
  return wc;
}

core::FleetConfig shard_fleet_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

void expect_same_aggregate(const core::ChangeAggregator& a,
                           const core::ChangeAggregator& b) {
  ASSERT_EQ(a.days(), b.days());
  ASSERT_EQ(a.by_cell().size(), b.by_cell().size());
  for (const auto& [cell, series] : a.by_cell()) {
    const auto it = b.by_cell().find(cell);
    ASSERT_NE(it, b.by_cell().end());
    EXPECT_EQ(series.change_sensitive_blocks,
              it->second.change_sensitive_blocks);
    EXPECT_EQ(series.down, it->second.down);
    EXPECT_EQ(series.up, it->second.up);
  }
  for (std::size_t c = 0; c < a.by_continent().size(); ++c) {
    EXPECT_EQ(a.by_continent()[c].down, b.by_continent()[c].down);
    EXPECT_EQ(a.by_continent()[c].up, b.by_continent()[c].up);
    EXPECT_EQ(a.by_continent()[c].change_sensitive_blocks,
              b.by_continent()[c].change_sensitive_blocks);
  }
}

TEST(ShardCheckpoint, KillMidRunThenResumeMatchesUninterrupted) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const sim::World world(wc);
  const auto ref = core::run_fleet(world, fc);
  const auto ref_digest = core::digest_hex(core::fleet_digest(ref));
  const auto ref_agg = core::aggregate_changes(world, ref, fc);

  const auto dir = temp_dir("kill_resume");
  core::ShardConfig sc;
  sc.shard_size = 64;  // 8 shards over ~504 blocks
  sc.checkpoint_dir = dir.string();

  // "Kill" after 3 shards: the capped run records exactly 3 checkpoint
  // files and a manifest, then stops.
  auto capped = sc;
  capped.max_shards = 3;
  const auto partial = core::run_sharded_fleet(wc, fc, capped);
  EXPECT_EQ(partial.stats.completed_shards, 3u);
  EXPECT_EQ(partial.stats.resumed_shards, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir / "manifest.ckpt"));

  // Resume in a "fresh process" (new manager, new scheduler): the three
  // recorded shards load, the rest compute, and the merged result is
  // bitwise what an uninterrupted run produces.
  auto resumed = sc;
  resumed.resume = true;
  const auto full = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(full.stats.resumed_shards, 3u);
  EXPECT_EQ(full.stats.completed_shards, full.stats.shards - 3u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(full.fleet)), ref_digest);
  expect_same_aggregate(ref_agg, full.aggregate);

  // Resuming a finished run computes nothing and still matches.
  const auto again = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(again.stats.resumed_shards, again.stats.shards);
  EXPECT_EQ(again.stats.completed_shards, 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(again.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, CorruptShardFileIsRecomputedNotTrusted) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto ref_digest = core::digest_hex(
      core::fleet_digest(core::run_fleet(sim::World(wc), fc)));

  const auto dir = temp_dir("corrupt_shard");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  const auto first = core::run_sharded_fleet(wc, fc, sc);
  const std::size_t n_shards = first.stats.shards;

  // Flip one payload byte in one shard file and truncate another: both
  // must be rejected (kBadCrc / kTruncated under the hood) and simply
  // recomputed.
  {
    auto image = util::read_state_file((dir / "shard-1.ckpt").string());
    image[image.size() / 2] ^= 0xff;
    util::write_state_file((dir / "shard-1.ckpt").string(), image);
    auto short_image =
        util::read_state_file((dir / "shard-2.ckpt").string());
    short_image.resize(short_image.size() / 2);
    util::write_state_file((dir / "shard-2.ckpt").string(), short_image);
  }
  auto resumed = sc;
  resumed.resume = true;
  const auto full = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(full.stats.resumed_shards, n_shards - 2);
  EXPECT_EQ(full.stats.completed_shards, 2u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(full.fleet)), ref_digest);

  // A mangled manifest degrades to a fresh (but still correct) run.
  {
    auto image = util::read_state_file((dir / "manifest.ckpt").string());
    image.resize(10);
    util::write_state_file((dir / "manifest.ckpt").string(), image);
  }
  const auto fresh = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(fresh.stats.resumed_shards, 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(fresh.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, FinalizeManifestWriteIsIdempotent) {
  // Regression: when manifest_every fires on the FINAL shard, the
  // run-end flush used to rewrite the manifest a second time — a window
  // where a concurrently starting --resume could read a mid-rename
  // manifest.  flush_manifest() with nothing new must now be a no-op.
  const auto dir = temp_dir("finalize_idempotent");
  core::FleetResult fleet;
  fleet.outcomes.resize(8);
  fleet.degradation.blocks.resize(8);
  const core::ChangeAggregator agg;

  {
    // manifest_every=1: the 4th record_shard already persisted shard 3;
    // the finalize flush has nothing to add.
    core::CheckpointManager mgr(dir.string(), 0x5eedULL, 8, 2, 1);
    for (std::size_t k = 0; k < 4; ++k) {
      mgr.record_shard(k, 2 * k, 2 * k + 2, fleet, agg, false);
    }
    EXPECT_EQ(mgr.manifest_writes(), 4u);
    mgr.flush_manifest();
    mgr.flush_manifest();  // and the no-op itself is repeatable
    EXPECT_EQ(mgr.manifest_writes(), 4u);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    // manifest_every=3 over 4 shards: one batched write mid-run, one
    // real flush for the unpersisted tail, then nothing.
    core::CheckpointManager mgr(dir.string(), 0x5eedULL, 8, 2, 3);
    for (std::size_t k = 0; k < 4; ++k) {
      mgr.record_shard(k, 2 * k, 2 * k + 2, fleet, agg, false);
    }
    EXPECT_EQ(mgr.manifest_writes(), 1u);
    mgr.flush_manifest();
    EXPECT_EQ(mgr.manifest_writes(), 2u);
    mgr.flush_manifest();
    EXPECT_EQ(mgr.manifest_writes(), 2u);
    EXPECT_EQ(mgr.load_manifest(), (std::vector<std::size_t>{0, 1, 2, 3}));
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, ForeignFingerprintCheckpointsAreIgnored) {
  const auto dir = temp_dir("foreign");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  sc.resume = true;

  const auto wc_a = shard_world_config();
  const auto fc = shard_fleet_config(2);
  (void)core::run_sharded_fleet(wc_a, fc, sc);

  auto wc_b = wc_a;
  wc_b.seed = 98;  // different world: nothing may be resumed
  const auto ref_digest = core::digest_hex(
      core::fleet_digest(core::run_fleet(sim::World(wc_b), fc)));
  const auto got = core::run_sharded_fleet(wc_b, fc, sc);
  EXPECT_EQ(got.stats.resumed_shards, 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(got.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, RetainedSeriesSurviveTheResumeBitwise) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const sim::World world(wc);
  const auto ref = core::run_fleet(world, fc);

  const auto dir = temp_dir("series");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.retain_series = true;
  sc.checkpoint_dir = dir.string();
  auto capped = sc;
  capped.max_shards = 4;
  (void)core::run_sharded_fleet(wc, fc, capped);
  auto resumed = sc;
  resumed.resume = true;
  const auto full = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(full.stats.resumed_shards, 4u);
  ASSERT_EQ(full.fleet.series.rows(), ref.series.rows());
  for (std::size_t i = 0; i < ref.series.rows(); ++i) {
    const auto a = ref.series.series(i);
    const auto b = full.fleet.series.series(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "row " << i << " sample " << j;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, FingerprintSeparatesConfigsButNotExecutionShape) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto base = core::checkpoint_fingerprint(wc, fc, 64);

  auto threads = fc;
  threads.threads = 8;  // execution shape: digest-invariant, same print
  EXPECT_EQ(core::checkpoint_fingerprint(wc, threads, 64), base);

  auto other_world = wc;
  other_world.seed = 98;
  EXPECT_NE(core::checkpoint_fingerprint(other_world, fc, 64), base);
  auto other_ds = fc;
  other_ds.dataset = core::dataset("2020w2-ejnw");
  EXPECT_NE(core::checkpoint_fingerprint(wc, other_ds, 64), base);
  auto faulted = fc;
  faulted.faults = fault::scenario("dropout", fc.dataset.window());
  EXPECT_NE(core::checkpoint_fingerprint(wc, faulted, 64), base);
  EXPECT_NE(core::checkpoint_fingerprint(wc, fc, 32), base);
}

TEST(ShardCheckpoint, FingerprintCoversCalendarAndLayerContent) {
  // A foreign checkpoint whose world has the same number of planted
  // events — but a different date, adoption rate, or ramp width — is a
  // different experiment and must not be resumable.  Same for the
  // country-layer stack and the new detector toggles.
  auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  // The shard config's calendar is empty; plant one event so content
  // mutations have something to vary.
  sim::Event planted;
  planted.kind = sim::EventKind::kWorkFromHome;
  planted.name = "fingerprint-probe";
  planted.scope.country_code = "US";
  planted.start = util::time_of(2020, 2, 1);
  planted.end = util::time_of(2020, 7, 1);
  wc.calendar.push_back(std::move(planted));
  const auto base = core::checkpoint_fingerprint(wc, fc, 64);

  auto shifted = wc;
  shifted.calendar[0].start += util::kSecondsPerDay;
  EXPECT_NE(core::checkpoint_fingerprint(shifted, fc, 64), base);

  auto ramped = wc;
  ramped.calendar[0].ramp_days = 10;
  EXPECT_NE(core::checkpoint_fingerprint(ramped, fc, 64), base);

  auto adopted = wc;
  adopted.calendar[0].adoption += 0.05;
  EXPECT_NE(core::checkpoint_fingerprint(adopted, fc, 64), base);

  auto layered = wc;
  sim::CountryLayerOverride o;
  o.code = "US";
  o.cgnat_trend_per_year = 1.0;
  layered.country_layers.push_back(std::move(o));
  EXPECT_NE(core::checkpoint_fingerprint(layered, fc, 64), base);

  auto dst = wc;
  sim::CountryLayerOverride d;
  d.code = "US";
  d.dst = geo::DstPolicy::kNorthern;
  dst.country_layers.push_back(std::move(d));
  EXPECT_NE(core::checkpoint_fingerprint(dst, fc, 64), base);
  EXPECT_NE(core::checkpoint_fingerprint(dst, fc, 64),
            core::checkpoint_fingerprint(layered, fc, 64));

  auto phase = fc;
  phase.detector.phase_shift_filter = true;
  EXPECT_NE(core::checkpoint_fingerprint(wc, phase, 64), base);
}

// ---------------------------------------------------------------------------
// util: peak-RSS reset probe (containers without writable clear_refs)
// ---------------------------------------------------------------------------

TEST(MemCheckpoint, PeakResetProbeIsStableAndHonest) {
  // The probe must be deterministic within a process, and when it
  // reports support, an immediate reset must actually pull VmHWM down
  // to (near) current RSS rather than silently no-oping.
  const bool supported = util::peak_reset_supported();
  EXPECT_EQ(util::peak_reset_supported(), supported);
  if (supported) {
    ASSERT_TRUE(util::reset_peak_rss());
    const auto m = util::read_memory_usage();
    ASSERT_TRUE(m.valid);
    EXPECT_LE(m.peak_rss_kb, m.rss_kb + 4096u);
  } else {
    EXPECT_FALSE(util::reset_peak_rss());
  }
}

}  // namespace
}  // namespace diurnal
