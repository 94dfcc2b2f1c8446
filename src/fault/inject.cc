#include "fault/inject.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace diurnal::fault {

using util::SimTime;

namespace {

// Deterministic uniform in [0,1) from a derived seed.
inline double hash_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c = 0) noexcept {
  return static_cast<double>(util::derive_seed(seed, a, b, c) >> 11) *
         0x1.0p-53;
}

inline bool in_window(SimTime t, SimTime start, SimTime end) noexcept {
  return start == end || (t >= start && t < end);
}

bool outage_dark_at(std::uint64_t seed, std::size_t spec_index,
                    const OutageSpec& o, char observer, SimTime t) {
  if (o.observer != kAllObservers && o.observer != observer) return false;
  if (t < o.start || t >= o.end) return false;
  switch (o.kind) {
    case OutageKind::kHardDown:
      return true;
    case OutageKind::kFlapping: {
      if (o.flap_period <= 0) return true;
      const auto slot = static_cast<std::uint64_t>((t - o.start) / o.flap_period);
      return hash_uniform(seed ^ 0xF1A9ULL, spec_index,
                          static_cast<std::uint64_t>(observer), slot) <
             o.flap_down_fraction;
    }
    case OutageKind::kScheduledReboot:
      if (o.reboot_interval <= 0) return true;
      return (t - o.start) % o.reboot_interval < o.reboot_duration;
  }
  return false;
}

// Interval k's burst under one spec: one seeded burst per interval of
// the timeline, its duration mean_duration * [0.5, 1.5) and its start
// offset uniform over the interval's slack, so bursts land irregularly
// but reproducibly.  `always` when the burst fills the whole interval.
struct BurstDraw {
  SimTime offset = 0;
  SimTime duration = 0;
  bool always = false;
};

BurstDraw burst_draw(std::uint64_t seed, std::size_t spec_index,
                     const BurstLossSpec& spec, std::uint64_t k) {
  const std::uint64_t h = util::derive_seed(seed ^ 0xB0B5ULL, spec_index, k);
  const double u_off = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double u_dur =
      static_cast<double>(util::mix64(h) >> 11) * 0x1.0p-53;
  BurstDraw d;
  d.duration = static_cast<SimTime>(
      static_cast<double>(spec.mean_duration) * (0.5 + u_dur));
  const SimTime slack = spec.mean_interval - d.duration;
  d.always = slack <= 0;
  if (!d.always) {
    d.offset = static_cast<SimTime>(u_off * static_cast<double>(slack));
  }
  return d;
}

// One spec's burst schedule memoized over the interval that holds the
// last time asked about: for in-window t in [lo, hi), burst_active(t)
// is on <= t < off.  The default is empty, so the first lookup
// resolves.  Bursts change once per mean_interval (hours) while
// observations arrive every few seconds, so the injector resolves each
// interval once instead of hashing per observation.
struct BurstWindow {
  SimTime lo = 1;
  SimTime hi = 0;
  SimTime on = 0;
  SimTime off = 0;
};

BurstWindow resolve_burst_window(std::uint64_t seed, std::size_t spec_index,
                                 const BurstLossSpec& spec, SimTime t) {
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  if (spec.mean_interval <= 0) return BurstWindow{kMin, kMax, 0, 0};
  if (t < 0) {
    // Truncating division folds negative times into intervals that
    // straddle zero; resolve just this second from the definition.
    const bool on = burst_active(seed, spec_index, spec, t);
    return BurstWindow{t, t + 1, t, on ? t + 1 : t};
  }
  const SimTime k = t / spec.mean_interval;
  const SimTime lo = k * spec.mean_interval;
  const SimTime hi = lo + spec.mean_interval;
  const auto index = static_cast<std::uint64_t>(k);
  const BurstDraw d = burst_draw(seed, spec_index, spec, index);
  if (d.always) return BurstWindow{lo, hi, lo, hi};
  return BurstWindow{lo, hi, lo + d.offset, lo + d.offset + d.duration};
}

}  // namespace

bool observer_dark_at(const FaultPlan& plan, char observer, SimTime t) {
  for (std::size_t i = 0; i < plan.outages.size(); ++i) {
    if (outage_dark_at(plan.seed, i, plan.outages[i], observer, t)) return true;
  }
  return false;
}

bool burst_active(std::uint64_t seed, std::size_t spec_index,
                  const BurstLossSpec& spec, SimTime t) {
  if (!in_window(t, spec.start, spec.end)) return false;
  if (spec.mean_interval <= 0) return false;
  const auto k = static_cast<std::uint64_t>(t / spec.mean_interval);
  const BurstDraw d = burst_draw(seed, spec_index, spec, k);
  if (d.always) return true;
  const SimTime into = t % spec.mean_interval;
  return into >= d.offset && into < d.offset + d.duration;
}

SkewResolution resolve_skew(const FaultPlan& plan, char observer) {
  SkewResolution r;
  for (const auto& s : plan.skews) {
    if (s.observer != kAllObservers && s.observer != observer) continue;
    r.skew_seconds += s.skew_seconds;
    r.drift_ppm += s.drift_ppm;
  }
  return r;
}

StreamFaultStats apply_faults(const FaultPlan& plan, char observer,
                              probe::ProbeWindow window,
                              probe::ObservationVec& stream) {
  FaultCarry carry;
  return apply_faults_chunk(plan, observer, window, stream, 0, carry);
}

StreamFaultStats apply_faults_chunk(const FaultPlan& plan, char observer,
                                    probe::ProbeWindow window,
                                    probe::ObservationVec& stream,
                                    std::size_t from, FaultCarry& carry) {
  StreamFaultStats st;
  st.input = stream.size() - from;
  if (plan.empty() || st.input == 0) return st;

  const auto matches = [observer](char who) {
    return who == kAllObservers || who == observer;
  };
  const auto obs_salt = static_cast<std::uint64_t>(observer);

  // Stage 1: drops (dark windows, truncated round tails), compacting.
  bool any_outage = false;
  for (const auto& o : plan.outages) any_outage |= matches(o.observer);
  bool any_truncation = false;
  for (const auto& tr : plan.truncations) {
    any_truncation |= matches(tr.observer);
  }
  if (any_outage || any_truncation) {
    probe::Observation* w = stream.data() + from;
    double trunc_prob = 0.0;
    for (auto it = stream.begin() + static_cast<std::ptrdiff_t>(from);
         it != stream.end(); ++it) {
      const SimTime t = window.start + static_cast<SimTime>(it->rel_time);
      if (any_outage && observer_dark_at(plan, observer, t)) {
        ++st.dropped;
        continue;
      }
      if (any_truncation) {
        const std::int64_t round = t / util::kRoundSeconds;
        if (round != carry.trunc_round) {
          carry.trunc_round = round;
          carry.trunc_kept_first = false;
          trunc_prob = 0.0;
          for (const auto& tr : plan.truncations) {
            if (!matches(tr.observer) || !in_window(t, tr.start, tr.end)) {
              continue;
            }
            trunc_prob = std::max(trunc_prob, tr.prob);
          }
          carry.trunc_fired =
              trunc_prob > 0.0 &&
              hash_uniform(plan.seed ^ 0x79C7ULL, obs_salt,
                           static_cast<std::uint64_t>(round)) < trunc_prob;
        }
        if (carry.trunc_fired) {
          if (carry.trunc_kept_first) {
            ++st.dropped;
            continue;
          }
          carry.trunc_kept_first = true;
        }
      }
      *w++ = *it;
    }
    stream.resize(static_cast<std::size_t>(w - stream.data()));
  }

  // Stage 2: burst loss on the survivors, at their original times.  The
  // stage visits an observation only while some spec is on at its
  // second; otherwise it jumps to the first observation at or after the
  // earliest time any spec can turn on — its window start, or the next
  // burst start of its memoized schedule.  The jump needs a time-ordered
  // chunk.  Chunk-local memo: rebuilt per call, never part of the
  // carried state.
  struct SpecBursts {
    std::size_t index;
    BurstWindow memo;
  };
  thread_local std::vector<SpecBursts> bursts;
  bursts.clear();
  for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
    const auto& b = plan.bursts[i];
    if (matches(b.observer) && b.mean_interval > 0) {
      bursts.push_back(SpecBursts{i, BurstWindow{}});
    }
  }
  if (!bursts.empty()) {
    probe::Observation* p = stream.data() + from;
    probe::Observation* const end = stream.data() + stream.size();
    assert(std::is_sorted(p, end,
                          [](const probe::Observation& a,
                             const probe::Observation& b) {
                            return a.rel_time < b.rel_time;
                          }));
    while (p != end) {
      const SimTime t = window.start + static_cast<SimTime>(p->rel_time);
      bool active = false;
      SimTime quiet = std::numeric_limits<SimTime>::max();
      for (SpecBursts& sb : bursts) {
        const auto& b = plan.bursts[sb.index];
        if (!in_window(t, b.start, b.end)) {
          if (t < b.start) quiet = std::min(quiet, b.start);
          continue;
        }
        BurstWindow& m = sb.memo;
        if (t < m.lo || t >= m.hi) {
          m = resolve_burst_window(plan.seed, sb.index, b, t);
        }
        // Past this interval's burst, the next interval's is the
        // earliest this spec can turn on again.
        if (t >= m.off) m = resolve_burst_window(plan.seed, sb.index, b, m.hi);
        if (t < m.on) {
          quiet = std::min(quiet, m.on);
          continue;
        }
        active = true;
        // The first active spec whose draw falls below its rate flips a
        // positive reply; later specs see a non-reply.
        if (p->up && hash_uniform(plan.seed ^ 0x10D7ULL, obs_salt,
                                  static_cast<std::uint64_t>(t),
                                  p->addr) < b.rate) {
          p->up = false;
          ++st.corrupted;
        }
      }
      if (active) {
        // Another observation may share this second: visit it too.
        ++p;
        continue;
      }
      const SimTime quiet_rel = quiet == std::numeric_limits<SimTime>::max()
                                    ? quiet
                                    : quiet - window.start;
      p = std::partition_point(p + 1, end,
                               [quiet_rel](const probe::Observation& o) {
                                 return static_cast<SimTime>(o.rel_time) <
                                        quiet_rel;
                               });
    }
  }

  // Stage 3: skew/drift retiming; observations pushed outside the
  // window are dropped.
  const SkewResolution skew = resolve_skew(plan, observer);
  if (skew.retimes()) {
    const std::int64_t span = window.end - window.start;
    probe::Observation* w = stream.data() + from;
    for (auto it = stream.begin() + static_cast<std::ptrdiff_t>(from);
         it != stream.end(); ++it) {
      const std::int64_t rel = skew.transform(it->rel_time);
      if (rel < 0 || rel >= span) {
        ++st.dropped;
        continue;
      }
      *w = *it;
      w->rel_time = static_cast<std::uint32_t>(rel);
      ++w;
      ++st.retimed;
    }
    stream.resize(static_cast<std::size_t>(w - stream.data()));
  }
  return st;
}

}  // namespace diurnal::fault
