// Tests for the observer fault-injection layer and the degraded-mode
// pipeline: plan construction, stream injection, coverage accounting,
// low-confidence annotation, and the fleet-level guarantees (empty plan
// is a no-op; seeded plans are deterministic across thread counts; a
// single-observer dropout is never misread as a WFH onset).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/datasets.h"
#include "core/pipeline.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "recon/block_recon.h"
#include "recon/reconstruct.h"
#include "sim/world.h"
#include "util/rng.h"

namespace diurnal::fault {
namespace {

using probe::Observation;
using probe::ObservationVec;
using probe::ProbeWindow;
using util::kRoundSeconds;
using util::kSecondsPerDay;
using util::kSecondsPerHour;
using util::SimTime;
using util::time_of;

// One observation per round over the window, alternating addresses,
// all positive.
ObservationVec dense_stream(ProbeWindow w) {
  ObservationVec v;
  const auto span = static_cast<std::uint32_t>(w.end - w.start);
  for (std::uint32_t rel = 0; rel < span;
       rel += static_cast<std::uint32_t>(kRoundSeconds)) {
    v.push_back(Observation{rel, static_cast<std::uint8_t>(rel / 660 % 4),
                            true});
  }
  return v;
}

TEST(FaultPlan, ScenarioRegistry) {
  const auto& names = scenario_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "none");
  const ProbeWindow w{0, 28 * kSecondsPerDay};
  for (const auto& n : names) {
    const auto plan = scenario(n, w);
    EXPECT_EQ(plan.empty(), n == "none") << n;
  }
  EXPECT_THROW(scenario("nope", w), std::invalid_argument);
}

TEST(FaultPlan, SingleObserverDropout) {
  const auto plan = FaultPlan::single_observer_dropout('e', 100, 200);
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].observer, 'e');
  EXPECT_EQ(plan.outages[0].kind, OutageKind::kHardDown);
  EXPECT_TRUE(observer_dark_at(plan, 'e', 150));
  EXPECT_FALSE(observer_dark_at(plan, 'e', 99));
  EXPECT_FALSE(observer_dark_at(plan, 'e', 200));
  EXPECT_FALSE(observer_dark_at(plan, 'w', 150));
}

TEST(Inject, EmptyPlanIsNoOp) {
  const ProbeWindow w{0, kSecondsPerDay};
  auto stream = dense_stream(w);
  const auto reference = stream;
  const auto st = apply_faults(FaultPlan{}, 'e', w, stream);
  EXPECT_EQ(st.input, reference.size());
  EXPECT_FALSE(st.touched());
  ASSERT_EQ(stream.size(), reference.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].rel_time, reference[i].rel_time);
    EXPECT_EQ(stream[i].addr, reference[i].addr);
    EXPECT_EQ(stream[i].up, reference[i].up);
  }
}

TEST(Inject, HardDownDropsOnlyDarkWindow) {
  const ProbeWindow w{1000, 1000 + kSecondsPerDay};
  const SimTime dark_start = w.start + 6 * kSecondsPerHour;
  const SimTime dark_end = w.start + 10 * kSecondsPerHour;
  auto plan = FaultPlan::single_observer_dropout('e', dark_start, dark_end);

  auto stream = dense_stream(w);
  const std::size_t before = stream.size();
  const auto st = apply_faults(plan, 'e', w, stream);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_EQ(stream.size() + st.dropped, before);
  for (const auto& o : stream) {
    const SimTime t = w.start + o.rel_time;
    EXPECT_TRUE(t < dark_start || t >= dark_end);
  }

  // A different observer is untouched.
  auto other = dense_stream(w);
  EXPECT_FALSE(apply_faults(plan, 'w', w, other).touched());
  EXPECT_EQ(other.size(), before);

  // The wildcard matches every observer.
  plan.outages[0].observer = kAllObservers;
  auto any = dense_stream(w);
  EXPECT_GT(apply_faults(plan, 'w', w, any).dropped, 0u);
}

TEST(Inject, FlappingIsIrregularAndDeterministic) {
  const ProbeWindow w{0, 7 * kSecondsPerDay};
  FaultPlan plan;
  OutageSpec o;
  o.observer = 'j';
  o.kind = OutageKind::kFlapping;
  o.start = w.start;
  o.end = w.end;
  o.flap_down_fraction = 0.5;
  plan.outages.push_back(o);

  auto a = dense_stream(w);
  auto b = dense_stream(w);
  const auto st_a = apply_faults(plan, 'j', w, a);
  const auto st_b = apply_faults(plan, 'j', w, b);
  // Roughly half the slots are dark (binomial over ~84 slots).
  EXPECT_GT(st_a.dropped, st_a.input / 5);
  EXPECT_LT(st_a.dropped, st_a.input * 4 / 5);
  // Same plan, same stream -> bit-identical outcome.
  EXPECT_EQ(st_a.dropped, st_b.dropped);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rel_time, b[i].rel_time);
  }
  // A different plan seed flaps a different pattern.
  FaultPlan reseeded = plan;
  reseeded.seed ^= 0x5EEDULL;
  auto c = dense_stream(w);
  apply_faults(reseeded, 'j', w, c);
  EXPECT_NE(a.size(), c.size());
}

TEST(Inject, ScheduledRebootIsPeriodic) {
  const ProbeWindow w{0, 3 * kSecondsPerDay};
  FaultPlan plan;
  OutageSpec o;
  o.observer = kAllObservers;
  o.kind = OutageKind::kScheduledReboot;
  o.start = 0;
  o.end = w.end;
  o.reboot_interval = kSecondsPerDay;
  o.reboot_duration = 30 * 60;
  plan.outages.push_back(o);

  auto stream = dense_stream(w);
  apply_faults(plan, 'n', w, stream);
  for (const auto& obs : stream) {
    EXPECT_GE(static_cast<SimTime>(obs.rel_time) % kSecondsPerDay, 30 * 60);
  }
  // Exactly the first ~30 minutes of each day vanish: 3 days x 3 rounds
  // per 30-minute reboot (rounds at 0, 660, 1320 fall inside).
  EXPECT_TRUE(observer_dark_at(plan, 'n', kSecondsPerDay));
  EXPECT_FALSE(observer_dark_at(plan, 'n', kSecondsPerDay + 31 * 60));
}

TEST(Inject, SkewShiftsAndDriftStaysMonotone) {
  const ProbeWindow w{0, kSecondsPerDay};
  FaultPlan plan;
  plan.skews.push_back(ClockSkewSpec{'n', 90, 0.0});

  auto stream = dense_stream(w);
  const auto original = stream;
  const auto st = apply_faults(plan, 'n', w, stream);
  EXPECT_EQ(st.retimed, stream.size());
  // +90s shift; the last round (rel 86400-660+90 < 86400) survives, so
  // nothing is dropped and every timestamp moves by exactly the skew.
  ASSERT_EQ(stream.size(), original.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].rel_time, original[i].rel_time + 90);
  }

  // Drift: large positive drift pushes the tail out of the window but
  // keeps the survivors ordered.
  FaultPlan drift;
  drift.skews.push_back(ClockSkewSpec{'n', 0, 50'000.0});  // +5%
  auto drifted = dense_stream(w);
  const auto st2 = apply_faults(drift, 'n', w, drifted);
  EXPECT_GT(st2.dropped, 0u);
  EXPECT_TRUE(std::is_sorted(
      drifted.begin(), drifted.end(),
      [](const Observation& a, const Observation& b) {
        return a.rel_time < b.rel_time;
      }));
}

TEST(Inject, BurstLossFlipsOnlyPositives) {
  const ProbeWindow w{0, kSecondsPerDay};
  FaultPlan plan;
  BurstLossSpec b;
  b.rate = 1.0;
  b.mean_interval = 2 * kSecondsPerHour;
  b.mean_duration = 30 * 60;
  plan.bursts.push_back(b);

  auto stream = dense_stream(w);
  const std::size_t before = stream.size();
  const auto st = apply_faults(plan, 'w', w, stream);
  EXPECT_GT(st.corrupted, 0u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(stream.size(), before);  // corruption never deletes
  std::size_t down = 0;
  for (const auto& o : stream) down += o.up ? 0 : 1;
  EXPECT_EQ(down, st.corrupted);
  // Every corrupted observation sits inside an active burst.
  for (const auto& o : stream) {
    if (!o.up) {
      EXPECT_TRUE(burst_active(plan.seed, 0, b,
                               w.start + static_cast<SimTime>(o.rel_time)));
    }
  }
}

// The injector's deterministic uniform in [0,1) from a derived seed.
double hash_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c = 0) {
  return static_cast<double>(util::derive_seed(seed, a, b, c) >> 11) *
         0x1.0p-53;
}

bool in_window(SimTime t, SimTime start, SimTime end) {
  return start == end || (t >= start && t < end);
}

enum class Fate : std::uint8_t { kKept, kCorrupted, kDropped };

// Per-observation reference injector: the single loop apply_faults_chunk
// ran before it was split into stages, with burst_active — the reference
// definition of the burst schedule — asked per observation in place of
// the interval memo.  Appends each input observation's fate to `fates`
// (an observation corrupted and then retimed out of the window is
// dropped, and counts in both stats).
StreamFaultStats reference_apply_chunk(const FaultPlan& plan, char observer,
                                       ProbeWindow window,
                                       ObservationVec& stream,
                                       std::size_t from, FaultCarry& carry,
                                       std::vector<Fate>* fates = nullptr) {
  StreamFaultStats st;
  st.input = stream.size() - from;
  if (plan.empty() || st.input == 0) {
    if (fates) fates->insert(fates->end(), st.input, Fate::kKept);
    return st;
  }

  // Resolve per-observer state once per chunk.
  bool any_outage = false;
  for (const auto& o : plan.outages) {
    any_outage |= o.observer == kAllObservers || o.observer == observer;
  }
  const SkewResolution skew_res = resolve_skew(plan, observer);
  const std::int64_t skew = skew_res.skew_seconds;
  const double drift_ppm = skew_res.drift_ppm;
  const bool retime = skew_res.retimes();
  double trunc_prob = 0.0;

  const std::int64_t span = window.end - window.start;
  const auto obs_salt = static_cast<std::uint64_t>(observer);
  const auto fate = [fates](Fate f) {
    if (fates) fates->push_back(f);
  };

  Observation* w = stream.data() + from;
  std::int64_t trunc_round = carry.trunc_round;
  bool trunc_fired = carry.trunc_fired;
  bool trunc_kept_first = carry.trunc_kept_first;
  for (auto it = stream.begin() + static_cast<std::ptrdiff_t>(from);
       it != stream.end(); ++it) {
    const Observation& obs = *it;
    const SimTime t = window.start + static_cast<SimTime>(obs.rel_time);

    if (any_outage && observer_dark_at(plan, observer, t)) {
      ++st.dropped;
      fate(Fate::kDropped);
      continue;
    }

    if (!plan.truncations.empty()) {
      const std::int64_t round = t / kRoundSeconds;
      if (round != trunc_round) {
        trunc_round = round;
        trunc_kept_first = false;
        trunc_prob = 0.0;
        for (const auto& tr : plan.truncations) {
          if (tr.observer != kAllObservers && tr.observer != observer) continue;
          if (!in_window(t, tr.start, tr.end)) continue;
          trunc_prob = std::max(trunc_prob, tr.prob);
        }
        trunc_fired =
            trunc_prob > 0.0 &&
            hash_uniform(plan.seed ^ 0x79C7ULL, obs_salt,
                         static_cast<std::uint64_t>(round)) < trunc_prob;
      }
      if (trunc_fired) {
        if (trunc_kept_first) {
          ++st.dropped;
          fate(Fate::kDropped);
          continue;
        }
        trunc_kept_first = true;
      }
    }

    Observation out = obs;
    if (out.up) {
      for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
        const auto& b = plan.bursts[i];
        if (b.observer != kAllObservers && b.observer != observer) continue;
        if (!burst_active(plan.seed, i, b, t)) continue;
        if (hash_uniform(plan.seed ^ 0x10D7ULL, obs_salt,
                         static_cast<std::uint64_t>(t), obs.addr) < b.rate) {
          out.up = false;
          ++st.corrupted;
          break;
        }
      }
    }

    if (retime) {
      const auto rel = static_cast<std::int64_t>(obs.rel_time) + skew +
                       static_cast<std::int64_t>(
                           drift_ppm * 1e-6 *
                           static_cast<double>(obs.rel_time));
      if (rel < 0 || rel >= span) {
        ++st.dropped;
        fate(Fate::kDropped);
        continue;
      }
      out.rel_time = static_cast<std::uint32_t>(rel);
      ++st.retimed;
    }
    fate(out.up == obs.up ? Fate::kKept : Fate::kCorrupted);
    *w++ = out;
  }
  stream.resize(static_cast<std::size_t>(w - stream.data()));
  carry.trunc_round = trunc_round;
  carry.trunc_fired = trunc_fired;
  carry.trunc_kept_first = trunc_kept_first;
  return st;
}

void expect_same_injection(const ObservationVec& got,
                           const StreamFaultStats& got_st,
                           const ObservationVec& want,
                           const StreamFaultStats& want_st, int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].rel_time, want[i].rel_time) << "trial " << trial;
    ASSERT_EQ(got[i].addr, want[i].addr) << "trial " << trial;
    ASSERT_EQ(got[i].up, want[i].up)
        << "trial " << trial << " observation " << i;
  }
  EXPECT_EQ(got_st.input, want_st.input) << "trial " << trial;
  EXPECT_EQ(got_st.dropped, want_st.dropped) << "trial " << trial;
  EXPECT_EQ(got_st.corrupted, want_st.corrupted) << "trial " << trial;
  EXPECT_EQ(got_st.retimed, want_st.retimed) << "trial " << trial;
}

// The injector resolves each burst interval once and reuses it for the
// interval's observations.  Seeded random plans check that memo against
// the per-observation reference (burst_active per observation), with
// chunks cut on interval boundaries and one second either side of them.
TEST(Inject, BurstMemoMatchesPerObservationReference) {
  std::mt19937_64 rng(0xB0B5);
  const char observer = 'n';
  const SimTime span = 3 * kSecondsPerDay;
  std::size_t corrupted = 0;
  std::size_t whole_interval_specs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // Window starts sit off every interval grid; every fourth trial
    // starts before time zero, where truncating division folds the
    // intervals on either side of zero together.
    SimTime start =
        20 * kSecondsPerDay + 1 + static_cast<SimTime>(rng() % 7777);
    if (trial % 4 == 3) {
      start = -kSecondsPerDay - static_cast<SimTime>(rng() % 7777);
    }
    const ProbeWindow w{start, start + span};

    FaultPlan plan;
    plan.seed = rng();
    const int n_specs = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < n_specs; ++k) {
      BurstLossSpec b;
      const auto who = rng() % 4;
      b.observer = who == 0 ? 'j' : (who == 1 ? observer : kAllObservers);
      b.rate = 0.3 + 0.7 * static_cast<double>(rng() % 1000) / 1000.0;
      b.mean_interval =
          kSecondsPerHour + static_cast<SimTime>(rng() % (9 * kSecondsPerHour));
      const auto jitter = static_cast<SimTime>(rng() % b.mean_interval);
      switch (rng() % 3) {
        case 0:
          // From twice the interval on, every burst fills its interval
          // (slack <= 0).
          b.mean_duration = 2 * b.mean_interval + jitter;
          ++whole_interval_specs;
          break;
        case 1:
          // Between one and two intervals, some bursts fill theirs and
          // the next one may not.
          b.mean_duration = b.mean_interval + 1 + jitter;
          ++whole_interval_specs;
          break;
        default:
          b.mean_duration = 60 + jitter / 2;
      }
      if (rng() % 2 == 0) {
        // An active window whose ends fall mid-interval.
        b.start = w.start + static_cast<SimTime>(rng() % (span / 2));
        b.end = b.start + 1 + static_cast<SimTime>(rng() % span);
      }
      plan.bursts.push_back(b);
    }

    // Interval boundaries of every spec inside the window, relative.
    std::vector<SimTime> edges;
    for (const auto& b : plan.bursts) {
      SimTime first = w.start / b.mean_interval * b.mean_interval;
      if (first < w.start) first += b.mean_interval;
      for (SimTime e = first; e < w.end; e += b.mean_interval) {
        edges.push_back(e - w.start);
      }
    }

    // Dense random stream (repeated timestamps included) plus an
    // observation on and either side of every boundary.
    std::vector<std::uint32_t> rels;
    for (SimTime rel = 0; rel < span; rel += static_cast<SimTime>(rng() % 90)) {
      rels.push_back(static_cast<std::uint32_t>(rel));
    }
    for (const SimTime e : edges) {
      for (SimTime d = -1; d <= 1; ++d) {
        if (e + d >= 0 && e + d < span) {
          rels.push_back(static_cast<std::uint32_t>(e + d));
        }
      }
    }
    std::sort(rels.begin(), rels.end());
    ObservationVec stream;
    for (const std::uint32_t rel : rels) {
      const auto addr = static_cast<std::uint8_t>(rng() % 16);
      stream.push_back(Observation{rel, addr, rng() % 10 < 7});
    }

    ObservationVec want = stream;
    FaultCarry want_carry;
    const StreamFaultStats want_st =
        reference_apply_chunk(plan, observer, w, want, 0, want_carry);
    corrupted += want_st.corrupted;

    ObservationVec whole = stream;
    const StreamFaultStats whole_st = apply_faults(plan, observer, w, whole);
    expect_same_injection(whole, whole_st, want, want_st, trial);

    // Chunks cut on each boundary and one second either side of it.
    std::vector<std::size_t> cuts;
    for (const SimTime e : edges) {
      for (SimTime d = -1; d <= 1; ++d) {
        const auto at = std::lower_bound(rels.begin(), rels.end(), e + d);
        cuts.push_back(static_cast<std::size_t>(at - rels.begin()));
      }
    }
    cuts.push_back(stream.size());
    std::sort(cuts.begin(), cuts.end());
    ObservationVec chunked;
    FaultCarry carry;
    StreamFaultStats st;
    std::size_t taken = 0;
    for (const std::size_t cut : cuts) {
      const std::size_t from = chunked.size();
      chunked.insert(chunked.end(),
                     stream.begin() + static_cast<std::ptrdiff_t>(taken),
                     stream.begin() + static_cast<std::ptrdiff_t>(cut));
      taken = cut;
      const auto s =
          apply_faults_chunk(plan, observer, w, chunked, from, carry);
      st.input += s.input;
      st.dropped += s.dropped;
      st.corrupted += s.corrupted;
      st.retimed += s.retimed;
    }
    expect_same_injection(chunked, st, want, want_st, trial);
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(whole_interval_specs, 0u);
}

// Production fates, read off the kept stream: an input observation is
// kept when the next kept observation is it (address and retimed time),
// corrupted when that one lost its reply, dropped otherwise.  The
// streams below give every observation within 16 positions of another a
// different address, so the match is unambiguous.
void append_fates(const ObservationVec& input, const ObservationVec& kept,
                  std::size_t kept_from, const SkewResolution& skew,
                  std::vector<Fate>& fates) {
  std::size_t j = kept_from;
  for (const Observation& o : input) {
    const std::int64_t rel =
        skew.retimes() ? skew.transform(o.rel_time) : o.rel_time;
    if (j < kept.size() && kept[j].rel_time == rel && kept[j].addr == o.addr) {
      fates.push_back(kept[j].up == o.up ? Fate::kKept : Fate::kCorrupted);
      ++j;
    } else {
      fates.push_back(Fate::kDropped);
    }
  }
  EXPECT_EQ(j, kept.size()) << "kept observations with no input";
}

void add_stats(StreamFaultStats& acc, const StreamFaultStats& s) {
  acc.input += s.input;
  acc.dropped += s.dropped;
  acc.corrupted += s.corrupted;
  acc.retimed += s.retimed;
}

// Every second in [w.start - 1, w.end] where some schedule the injector
// reads for `observer` changes: the probing round, darkness, each
// burst spec's activity and interval, each truncation window.
std::vector<SimTime> fault_edges(const FaultPlan& plan, char observer,
                                 ProbeWindow w) {
  std::vector<SimTime> edges;
  std::vector<std::int64_t> prev;
  std::vector<std::int64_t> sig;
  for (SimTime t = w.start - 1; t <= w.end; ++t) {
    sig.clear();
    sig.push_back(t / kRoundSeconds);
    sig.push_back(observer_dark_at(plan, observer, t) ? 1 : 0);
    for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
      const auto& b = plan.bursts[i];
      if (b.observer != kAllObservers && b.observer != observer) continue;
      sig.push_back(burst_active(plan.seed, i, b, t) ? 1 : 0);
      sig.push_back(b.mean_interval > 0 ? t / b.mean_interval : 0);
    }
    for (const auto& tr : plan.truncations) {
      sig.push_back(in_window(t, tr.start, tr.end) ? 1 : 0);
    }
    if (!prev.empty() && sig != prev) edges.push_back(t - w.start);
    std::swap(prev, sig);
  }
  return edges;
}

// A random plan mixing every fault kind: the three outage kinds,
// truncations, skews and multi-spec bursts, each for `observer`, for
// another observer or for all of them.
FaultPlan random_plan(std::mt19937_64& rng, char observer, ProbeWindow w) {
  const SimTime span = w.end - w.start;
  const auto who = [&] {
    const auto k = rng() % 3;
    return k == 0 ? 'j' : (k == 1 ? observer : kAllObservers);
  };
  const auto sub_window = [&](SimTime& start, SimTime& end) {
    const auto n = static_cast<std::uint64_t>(span);
    start = w.start + static_cast<SimTime>(rng() % n);
    end = start + 1 + static_cast<SimTime>(rng() % n);
  };
  FaultPlan plan;
  plan.seed = rng();
  for (auto n = rng() % 3; n > 0; --n) {
    OutageSpec o;
    o.observer = who();
    o.kind = static_cast<OutageKind>(rng() % 3);
    sub_window(o.start, o.end);
    o.flap_period = 600 + static_cast<SimTime>(rng() % (4 * kSecondsPerHour));
    o.flap_down_fraction = static_cast<double>(rng() % 100) / 100.0;
    o.reboot_interval =
        kSecondsPerHour + static_cast<SimTime>(rng() % kSecondsPerDay);
    o.reboot_duration =
        1 + static_cast<SimTime>(rng() % static_cast<std::uint64_t>(
                                             o.reboot_interval));
    plan.outages.push_back(o);
  }
  for (auto n = rng() % 3; n > 0; --n) {
    TruncationSpec tr;
    tr.observer = who();
    tr.prob = 0.1 + 0.9 * static_cast<double>(rng() % 1000) / 1000.0;
    if (rng() % 2 == 0) sub_window(tr.start, tr.end);
    plan.truncations.push_back(tr);
  }
  for (auto n = rng() % 3; n > 0; --n) {
    ClockSkewSpec sk;
    sk.observer = who();
    sk.skew_seconds = static_cast<std::int64_t>(rng() % 601) - 300;
    sk.drift_ppm = static_cast<double>(rng() % 1001) - 500.0;
    plan.skews.push_back(sk);
  }
  for (auto n = rng() % 4; n > 0; --n) {
    BurstLossSpec b;
    b.observer = who();
    b.rate = 0.3 + 0.7 * static_cast<double>(rng() % 1000) / 1000.0;
    b.mean_interval =
        kSecondsPerHour + static_cast<SimTime>(rng() % (9 * kSecondsPerHour));
    b.mean_duration = rng() % 4 == 0
                          ? b.mean_interval + 1 +
                                static_cast<SimTime>(rng() % b.mean_interval)
                          : 60 + static_cast<SimTime>(rng() % b.mean_interval);
    if (rng() % 2 == 0) sub_window(b.start, b.end);
    plan.bursts.push_back(b);
  }
  return plan;
}

// The staged injector against the per-observation reference: on every
// named scenario for every observer and on seeded random mixes of all
// fault kinds, over streams with repeated timestamps, whole and in
// chunks cut on every round, outage, burst and window edge and one
// second either side.  The kept stream, every fate and all four stats
// must agree.
TEST(Inject, StagedMatchesPerObservationReference) {
  std::mt19937_64 rng(0x57A6ED);
  const SimTime span = 2 * kSecondsPerDay;
  struct Case {
    std::string name;
    FaultPlan plan;
    char observer;
    ProbeWindow w;
  };
  std::vector<Case> cases;
  const auto random_window = [&](int k) {
    // Off every grid; every fourth window starts before time zero.
    SimTime start =
        20 * kSecondsPerDay + 1 + static_cast<SimTime>(rng() % 7777);
    if (k % 4 == 3) {
      start = -kSecondsPerDay - static_cast<SimTime>(rng() % 7777);
    }
    return ProbeWindow{start, start + span};
  };
  int k = 0;
  for (const auto& name : scenario_names()) {
    for (const char observer : {'e', 'j', 'n', 'w', 'x'}) {
      const ProbeWindow w = random_window(k++);
      cases.push_back({name, scenario(name, w), observer, w});
    }
  }
  for (int trial = 0; trial < 40; ++trial) {
    const ProbeWindow w = random_window(k++);
    cases.push_back({"random " + std::to_string(trial),
                     random_plan(rng, 'n', w), 'n', w});
  }

  std::size_t fates_seen[3] = {0, 0, 0};
  std::size_t corrupted_then_dropped = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + " observer " + std::string(1, c.observer));
    const auto edges = fault_edges(c.plan, c.observer, c.w);

    // Dense random times (repeats included) plus one observation on and
    // either side of every edge; addresses cycle so that nearby
    // observations never share one.
    std::vector<std::uint32_t> rels;
    for (SimTime rel = 0; rel < span; rel += static_cast<SimTime>(rng() % 90)) {
      rels.push_back(static_cast<std::uint32_t>(rel));
    }
    for (const SimTime e : edges) {
      for (SimTime d = -1; d <= 1; ++d) {
        if (e + d >= 0 && e + d < span) {
          rels.push_back(static_cast<std::uint32_t>(e + d));
        }
      }
    }
    std::sort(rels.begin(), rels.end());
    ObservationVec stream;
    for (std::size_t i = 0; i < rels.size(); ++i) {
      stream.push_back(Observation{rels[i], static_cast<std::uint8_t>(i % 16),
                                   rng() % 10 < 7});
    }
    const SkewResolution skew = resolve_skew(c.plan, c.observer);

    // Whole stream, then chunks cut around every edge.
    std::vector<std::size_t> cuts;
    for (const SimTime e : edges) {
      for (SimTime d = -1; d <= 1; ++d) {
        const auto at = std::lower_bound(rels.begin(), rels.end(), e + d);
        cuts.push_back(static_cast<std::size_t>(at - rels.begin()));
      }
    }
    cuts.push_back(stream.size());
    std::sort(cuts.begin(), cuts.end());
    const std::vector<std::size_t> whole{stream.size()};
    for (const bool chunked : {false, true}) {
      SCOPED_TRACE(chunked ? "chunked" : "whole");
      ObservationVec want;
      ObservationVec got;
      std::vector<Fate> want_fates;
      std::vector<Fate> got_fates;
      StreamFaultStats want_st;
      StreamFaultStats got_st;
      FaultCarry want_carry;
      FaultCarry got_carry;
      std::size_t taken = 0;
      for (const std::size_t cut : chunked ? cuts : whole) {
        const auto first = stream.begin() + static_cast<std::ptrdiff_t>(taken);
        const auto last = stream.begin() + static_cast<std::ptrdiff_t>(cut);
        taken = cut;
        const ObservationVec chunk(first, last);
        const std::size_t want_from = want.size();
        want.insert(want.end(), first, last);
        add_stats(want_st,
                  reference_apply_chunk(c.plan, c.observer, c.w, want,
                                        want_from, want_carry, &want_fates));
        const std::size_t got_from = got.size();
        got.insert(got.end(), first, last);
        add_stats(got_st, apply_faults_chunk(c.plan, c.observer, c.w, got,
                                             got_from, got_carry));
        append_fates(chunk, got, got_from, skew, got_fates);
      }
      ASSERT_EQ(got_fates.size(), want_fates.size());
      for (std::size_t i = 0; i < want_fates.size(); ++i) {
        ASSERT_EQ(got_fates[i], want_fates[i]) << "observation " << i;
      }
      expect_same_injection(got, got_st, want, want_st, 0);
      if (!chunked) {
        for (const Fate f : want_fates) ++fates_seen[static_cast<int>(f)];
        const std::size_t flips = static_cast<std::size_t>(
            std::count(want_fates.begin(), want_fates.end(), Fate::kCorrupted));
        corrupted_then_dropped += want_st.corrupted - flips;
      }
    }
  }
  // Non-vacuous: every fate occurs, and so does a corrupted observation
  // that retiming then drops.
  EXPECT_GT(fates_seen[0], 0u);
  EXPECT_GT(fates_seen[1], 0u);
  EXPECT_GT(fates_seen[2], 0u);
  EXPECT_GT(corrupted_then_dropped, 0u);
}

TEST(Inject, TruncationKeepsFirstProbeOfRound) {
  const ProbeWindow w{0, kSecondsPerDay};
  // Three observations per round.
  ObservationVec stream;
  for (std::uint32_t rel = 0; rel < kSecondsPerDay;
       rel += static_cast<std::uint32_t>(kRoundSeconds)) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      stream.push_back(
          Observation{rel + j * 10, static_cast<std::uint8_t>(j), true});
    }
  }
  FaultPlan plan;
  plan.truncations.push_back(TruncationSpec{kAllObservers, 1.0, 0, 0});
  const std::size_t rounds = stream.size() / 3;
  apply_faults(plan, 'g', w, stream);
  // prob=1: every round is cut to its first probe.
  ASSERT_EQ(stream.size(), rounds);
  for (const auto& o : stream) {
    EXPECT_EQ(o.addr, 0);
    EXPECT_EQ(static_cast<SimTime>(o.rel_time) % kRoundSeconds, 0);
  }
}

// --------------------------------------------------------------------
// Reconstruction coverage tracking.
// --------------------------------------------------------------------

TEST(Coverage, GapsAndEvidenceFraction) {
  // Observations every hour for day 1, silence for day 2, back on day 3.
  ObservationVec obs;
  auto add_day = [&](SimTime day) {
    for (SimTime h = 0; h < 24; ++h) {
      obs.push_back(Observation{
          static_cast<std::uint32_t>(day * kSecondsPerDay + h * kSecondsPerHour),
          0, true});
    }
  };
  add_day(0);
  add_day(2);
  const ProbeWindow w{0, 3 * kSecondsPerDay};
  const auto r = recon::reconstruct(obs, 4, w, {});
  // The silent day exceeds the 6h staleness horizon.
  EXPECT_LE(r.evidence_fraction, 0.75);
  EXPECT_GT(r.evidence_fraction, 0.5);
  EXPECT_GE(r.max_gap_seconds, static_cast<double>(kSecondsPerDay));
  ASSERT_FALSE(r.gaps.empty());
  EXPECT_LE(r.gaps[0].start, kSecondsPerDay);
  EXPECT_GE(r.gaps[0].end, 2 * kSecondsPerDay);
}

TEST(Coverage, HealthyStreamHasFullEvidence) {
  const ProbeWindow w{0, 2 * kSecondsPerDay};
  const auto r = recon::reconstruct(dense_stream(w), 4, w, {});
  EXPECT_GT(r.evidence_fraction, 0.95);
  EXPECT_TRUE(r.gaps.empty());
  EXPECT_LT(r.max_gap_seconds, 2.0 * kSecondsPerHour);
}

TEST(Degradation, SummarizeBlockCountsLiveAndPartial) {
  const ProbeWindow w{0, 28 * kSecondsPerDay};
  std::vector<ObserverStreamInfo> streams(3);
  streams[0] = {'e', 1000, 0,
                static_cast<std::uint32_t>(28 * kSecondsPerDay - 700),
                StreamFaultStats{}};
  // Started 5 days late -> partial.
  streams[1] = {'j', 800, static_cast<std::uint32_t>(5 * kSecondsPerDay),
                static_cast<std::uint32_t>(28 * kSecondsPerDay - 700),
                StreamFaultStats{}};
  // Vanished: delivered nothing.
  streams[2] = {'n', 0, 0, 0, StreamFaultStats{}};
  streams[2].faults.dropped = 1000;

  const auto d = summarize_block(streams, 3, w, 0.8, 3600.0, 0.5);
  EXPECT_EQ(d.configured_observers, 3);
  EXPECT_EQ(d.live_observers, 2);
  EXPECT_EQ(d.partial_observers, 1);
  EXPECT_EQ(d.dropped_observations, 1000u);
  EXPECT_FALSE(d.low_confidence);
  EXPECT_TRUE(d.degraded());

  const auto low = summarize_block(streams, 3, w, 0.3, 3600.0, 0.5);
  EXPECT_TRUE(low.low_confidence);
}

// --------------------------------------------------------------------
// Degraded pipeline: merge tolerance and annotation.
// --------------------------------------------------------------------

sim::World& fault_world() {
  static sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 11;
    return c;
  }());
  return world;
}

core::FleetConfig month_config() {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 1;
  return fc;
}

bool same_outcomes(const core::FleetResult& a, const core::FleetResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (x.cls.responsive != y.cls.responsive ||
        x.cls.change_sensitive != y.cls.change_sensitive ||
        x.cls.low_confidence != y.cls.low_confidence ||
        x.changes.size() != y.changes.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.changes.size(); ++k) {
      if (x.changes[k].start != y.changes[k].start ||
          x.changes[k].alarm != y.changes[k].alarm ||
          x.changes[k].amplitude != y.changes[k].amplitude ||
          x.changes[k].low_evidence != y.changes[k].low_evidence) {
        return false;
      }
    }
  }
  return true;
}

TEST(DegradedFleet, EmptyPlanReportsHealthy) {
  const auto fleet = core::run_fleet(fault_world(), month_config());
  const auto& d = fleet.degradation;
  EXPECT_GT(d.probed_blocks, 0);
  EXPECT_EQ(d.degraded_blocks, 0);
  EXPECT_EQ(d.low_confidence_blocks, 0);
  EXPECT_EQ(d.blocks_missing_observers, 0);
  EXPECT_GT(d.mean_evidence_fraction, 0.95);
  EXPECT_EQ(fleet.funnel.low_confidence, 0);
  for (const auto& out : fleet.outcomes) {
    for (const auto& ch : out.changes) EXPECT_FALSE(ch.low_evidence);
  }
}

TEST(DegradedFleet, SeededPlanDeterministicAcrossThreads) {
  auto fc = month_config();
  fc.faults = fault::scenario("meltdown", fc.dataset.window());
  fc.threads = 1;
  const auto one = core::run_fleet(fault_world(), fc);
  fc.threads = 4;
  const auto four = core::run_fleet(fault_world(), fc);
  EXPECT_TRUE(same_outcomes(one, four));
  EXPECT_EQ(one.degradation.degraded_blocks, four.degradation.degraded_blocks);
  EXPECT_EQ(one.degradation.low_confidence_blocks,
            four.degradation.low_confidence_blocks);
}

TEST(DegradedFleet, MergeToleratesDroppedObserver) {
  // Observer e dark for the middle of the month: with three healthy
  // observers still probing every round, coverage barely moves (the
  // section 2.7 merge is the redundancy) and no verdict loses confidence.
  auto fc = month_config();
  const auto w = fc.dataset.window();
  fc.faults = FaultPlan::single_observer_dropout(
      'e', w.start + 7 * kSecondsPerDay, w.start + 21 * kSecondsPerDay);
  const auto fleet = core::run_fleet(fault_world(), fc);
  EXPECT_GT(fleet.degradation.degraded_blocks, 0);
  EXPECT_EQ(fleet.degradation.low_confidence_blocks, 0);
  EXPECT_GT(fleet.degradation.mean_evidence_fraction, 0.95);
  EXPECT_GT(fleet.funnel.responsive, 0);
}

TEST(DegradedFleet, WholeFleetOutageLosesConfidenceNotCorrectness) {
  // Every observer dark for 18 of 28 days: evidence collapses and the
  // pipeline must say so on every responsive block.
  auto fc = month_config();
  const auto w = fc.dataset.window();
  fc.faults = FaultPlan::single_observer_dropout(
      kAllObservers, w.start + 7 * kSecondsPerDay,
      w.start + 25 * kSecondsPerDay);
  const auto fleet = core::run_fleet(fault_world(), fc);
  EXPECT_GT(fleet.degradation.low_confidence_blocks, 0);
  EXPECT_LT(fleet.degradation.mean_evidence_fraction, 0.5);
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    const auto& out = fleet.outcomes[i];
    if (!out.cls.responsive) continue;
    EXPECT_TRUE(out.cls.low_confidence);
    EXPECT_TRUE(fleet.degradation.blocks[i].low_confidence);
  }
  EXPECT_EQ(fleet.funnel.low_confidence,
            fleet.degradation.low_confidence_blocks);
}

// The acceptance property: a single-observer fleet losing its only
// observer mid-window must never report the outage as a trustworthy
// activity change.  The down/up pair a dropout paints into the
// reconstruction either gets filtered as an outage pair, or — when it
// survives the filters — carries the low_evidence annotation, so WFH
// validation (which skips low-evidence changes) cannot mistake it for
// an onset.
TEST(DegradedFleet, DropoutNeverMisreadAsWfhOnset) {
  sim::WorldConfig wc;
  wc.num_blocks = 150;
  wc.seed = 23;
  wc.quiet_calendar = true;  // no real events: any change is an artifact
  wc.include_special_blocks = false;
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-w");  // one observer only
  fc.threads = 2;
  const auto w = fc.dataset.window();
  const SimTime dark_start = w.start + 10 * kSecondsPerDay;
  const SimTime dark_end = w.start + 17 * kSecondsPerDay;
  fc.faults = FaultPlan::single_observer_dropout('w', dark_start, dark_end);

  const auto fleet = core::run_fleet(world, fc);
  // The fault must actually bite: the only observer went dark for a
  // quarter of the window, so gaps exist fleet-wide.
  EXPECT_GT(fleet.degradation.degraded_blocks, 0);
  EXPECT_LT(fleet.degradation.mean_evidence_fraction, 0.85);

  int counted_near_dropout = 0;
  for (const auto& out : fleet.outcomes) {
    for (const auto& ch : out.changes) {
      const bool overlaps_dark =
          ch.start - kSecondsPerDay < dark_end &&
          ch.end + kSecondsPerDay > dark_start;
      if (!overlaps_dark) continue;
      ++counted_near_dropout;
      if (ch.counted()) {
        EXPECT_TRUE(ch.low_evidence)
            << "dropout artifact reported as trustworthy change at "
            << util::to_string_time(ch.start);
      }
    }
  }
  // Not vacuous: the dropout does paint excursions into some blocks.
  EXPECT_GT(counted_near_dropout, 0);
}

}  // namespace
}  // namespace diurnal::fault
