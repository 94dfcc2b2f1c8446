#include "probe/prober.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/rng.h"

namespace diurnal::probe {

using util::SimTime;

int quarter_index(SimTime t) noexcept {
  const util::Date d = util::date_of(t);
  return (d.year - 2019) * 4 + (d.month - 1) / 3;
}

SimTime next_quarter_start(SimTime t) noexcept {
  const util::Date d = util::date_of(t);
  int qmonth = ((d.month - 1) / 3) * 3 + 1 + 3;
  int year = d.year;
  if (qmonth > 12) {
    qmonth -= 12;
    ++year;
  }
  return util::time_of(year, qmonth, 1);
}

int additional_probes_per_round(int eb_count) noexcept {
  // |E(b)| addresses in 6 hours of 11-minute rounds; at most one probe
  // per 88 seconds (8 per round).
  const double per_round = static_cast<double>(eb_count) /
                           (6.0 * 60.0 / 11.0);
  return std::clamp(static_cast<int>(std::ceil(per_round)), 1, 8);
}

namespace {

// Per-quarter pseudorandom target permutation, shared by all observers.
// The shuffle seed doubles as the scratch cache key: every observer of a
// fleet asks for the same (block, quarter) permutation back-to-back, so
// all but the first request skip the Fisher-Yates pass.
void build_order(const sim::BlockProfile& block, std::uint64_t order_seed,
                 int quarter, ProbeScratch& scratch) {
  const std::uint64_t key = util::derive_seed(
      order_seed, block.id.id(), static_cast<std::uint64_t>(quarter));
  std::vector<std::uint8_t>& order = scratch.order;
  const int n = block.eb_count;
  // The size check guards against two blocks sharing an id (and hence a
  // key) with different target counts — scratch outlives any one block.
  if (scratch.order_key == key &&
      order.size() == 2 * static_cast<std::size_t>(n)) {
    return;
  }
  scratch.order_key = key;
  // The permutation is stored twice back to back so round loops can read
  // ord[cursor + j] for any cursor < n and j < n without a per-probe
  // wrap test; the cursor wraps once per round instead.
  order.resize(2 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  util::Xoshiro256 rng(key);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  std::copy_n(order.begin(), n, order.begin() + n);
}

// Deterministic per-probe uniform in [0,1).
inline double probe_uniform(std::uint64_t seed, std::uint32_t block,
                            std::uint64_t t, std::uint32_t addr,
                            std::uint32_t salt) noexcept {
  const std::uint64_t h = util::derive_seed(
      seed, (static_cast<std::uint64_t>(block) << 9) | addr, t, salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// One 8-byte store per observation instead of three field stores.  The
// layout assumptions are asserted; on a big-endian target this would
// need the fallback aggregate store, but the repo only targets
// little-endian platforms.
inline void store_observation(Observation* p, std::uint32_t rel_time,
                              std::uint8_t addr, bool up) noexcept {
  static_assert(sizeof(Observation) == 8);
  static_assert(offsetof(Observation, rel_time) == 0);
  static_assert(offsetof(Observation, addr) == 4);
  static_assert(offsetof(Observation, up) == 5);
  static_assert(std::endian::native == std::endian::little);
  const std::uint64_t bits = static_cast<std::uint64_t>(rel_time) |
                             (static_cast<std::uint64_t>(addr) << 32) |
                             (static_cast<std::uint64_t>(up) << 40);
  __builtin_memcpy(p, &bits, sizeof(bits));
}

}  // namespace

ProbeScratch& ProbeScratch::local() {
  thread_local ProbeScratch scratch;
  return scratch;
}

void round_prober_begin(const sim::BlockProfile& block,
                        const ObserverSpec& observer, ProbeWindow window,
                        const ProberConfig& config, RoundProberState& state) {
  state = RoundProberState{};
  const int eb = block.eb_count;
  if (eb <= 0 || window.end <= window.start) {
    state.done = true;
    return;
  }
  state.next_round = window.start + observer.phase;
  if (state.next_round >= window.end) {
    state.done = true;
    return;
  }
  // Each observer starts independently: its cursor begins at a
  // deterministic offset in the shared order.
  state.cursor =
      util::derive_seed(config.order_seed, block.id.id(),
                        static_cast<std::uint64_t>(observer.code)) %
      static_cast<std::size_t>(eb);
}

void round_prober_resume(const sim::BlockProfile& block,
                         const ObserverSpec& observer, const LossModel& loss,
                         ProbeWindow window, const ProberConfig& config,
                         ProbeScratch& scratch, RoundProberState& state,
                         util::SimTime until, ObservationVec& out) {
  if (state.done) return;
  const int eb = block.eb_count;
  const SimTime limit = std::min(until, window.end);
  if (state.next_round >= limit) {
    if (until >= window.end) state.done = true;
    return;
  }

  std::vector<std::uint8_t>& order = scratch.order;
  int quarter = quarter_index(state.next_round);
  build_order(block, config.order_seed, quarter, scratch);
  SimTime quarter_end = next_quarter_start(state.next_round);

  std::size_t cursor = state.cursor;

  // Everything that is constant over the window is hoisted out of the
  // round loop: the observer salt and fault stream, whether this path is
  // congested (so un-congested paths pay a flat loss rate with no
  // per-probe lookup), and the activity cursor bound to this block.
  const std::uint32_t block_id = block.id.id();
  const std::uint32_t obs_salt = static_cast<std::uint32_t>(observer.code);
  const std::uint64_t fault_seed = config.loss_seed ^ 0xFA17ULL;
  // Fault-window bounds as locals (healthy observers collapse to an
  // always-false first compare): the observation stores below are
  // may-alias writes, so reading them through `observer` would reload
  // both members on every probe.
  const bool can_fault = observer.fault_end > observer.fault_start;
  const SimTime fault_lo =
      can_fault ? observer.fault_start : std::numeric_limits<SimTime>::max();
  const SimTime fault_hi = can_fault ? observer.fault_end : 0;
  const bool congested = loss.path_congested(observer, block);
  const double flat_loss = loss.config().base_loss;
  sim::ActivityCursor& activity = scratch.cursor;
  activity.bind(block);

  // The per-probe loss draw is derive_seed(seed, (block<<9)|addr, t, salt)
  // = mix64(mix64(mix64(seed ^ a) ^ t) ^ salt); stage one depends only on
  // the address, so it runs once per address instead of once per probe.
  std::vector<std::uint64_t>& loss_h1 = scratch.loss_h1;
  loss_h1.resize(static_cast<std::size_t>(eb));
  const std::uint64_t a_base = static_cast<std::uint64_t>(block_id) << 9;
  for (int a = 0; a < eb; ++a) {
    loss_h1[static_cast<std::size_t>(a)] = util::mix64(
        config.loss_seed ^ (a_base | static_cast<std::uint64_t>(a)));
  }
  // On an un-congested path the loss rate is the flat base rate, so the
  // acceptance test reduces to one integer compare:
  //   (double)(h>>11) * 2^-53 < p  <=>  (h>>11) < ceil(p * 2^53)
  // (both scalings by 2^53 are exact, so the boundary is preserved).
  const std::uint64_t flat_thr =
      flat_loss > 0.0
          ? static_cast<std::uint64_t>(std::ceil(flat_loss * 0x1.0p53))
          : 0;
  // Congested paths vary only with the destination-local hour, so the 24
  // acceptance thresholds are tabulated per pass (indexed by UTC hour,
  // with the timezone folded in) and the probe loop never calls back
  // into the loss model.
  std::array<std::uint64_t, 24> cong_thr{};
  if (congested) {
    for (int hour_utc = 0; hour_utc < 24; ++hour_utc) {
      const int local =
          ((hour_utc + block.tz_offset_hours) % 24 + 24) % 24;
      cong_thr[static_cast<std::size_t>(hour_utc)] =
          static_cast<std::uint64_t>(
              std::ceil(loss.congested_loss_at_hour(local) * 0x1.0p53));
    }
  }

  // One probe: activity, loss draw, fault flip.  Shared by the
  // kind-specialized round loops below so each loop body stays small;
  // recording is left to the caller so the fixed-budget loop can write
  // through a bare pointer (a push_back in the loop is a
  // potentially-allocating call, which forces the cursor's cached state
  // back to memory on every probe).  Quarter re-shuffles rewrite `order`
  // in place (its size is eb for the whole pass), so the raw pointer
  // stays valid.
  const std::uint8_t* const ord = order.data();
  const std::uint64_t* const lh1 = loss_h1.data();
  const auto n_targets = static_cast<std::size_t>(eb);
  const SimTime rel_base = window.start;
  // Register-resident activity snapshot: for the dominant block states
  // the per-probe activity lookup is a load and a shift off `fv.row`,
  // with no cursor-member reloads (the observation stores below are
  // may-alias writes, so the compiler cannot keep those members in
  // registers on its own).  Re-snapshots at window boundaries only.
  sim::ActivityCursor::FastView fv{nullptr, 0,
                                   std::numeric_limits<SimTime>::min(),
                                   std::numeric_limits<SimTime>::min()};
  auto probe_up = [&](SimTime probe_time,
                      std::uint8_t addr) __attribute__((always_inline)) -> bool {
    if (probe_time >= fv.until) [[unlikely]] {
      fv = activity.fast_view(probe_time);
    }
    bool up = fv.row != nullptr
                  ? ((fv.row[addr] >> fv.hour) & 1u) != 0
                  : activity.active(addr, probe_time);
    if (up) {
      const std::uint64_t h = util::mix64(
          util::mix64(lh1[addr] ^ static_cast<std::uint64_t>(probe_time)) ^
          obs_salt);
      if (!congested) {
        if ((h >> 11) < flat_thr) up = false;  // probe or reply lost
      } else {
        std::int64_t sec = probe_time % util::kSecondsPerDay;
        if (sec < 0) sec += util::kSecondsPerDay;
        if ((h >> 11) < cong_thr[static_cast<std::size_t>(sec / 3600)]) {
          up = false;
        }
      }
    }
    if (probe_time >= fault_lo && probe_time < fault_hi &&
        probe_uniform(fault_seed, block_id,
                      static_cast<std::uint64_t>(probe_time), addr,
                      obs_salt) < config.fault_flip_prob) [[unlikely]] {
      up = !up;  // hardware fault corrupts the result
    }
    return up;
  };
  auto quarter_tick = [&](SimTime t) {
    if (t >= quarter_end) {
      quarter = quarter_index(t);
      build_order(block, config.order_seed, quarter, scratch);
      quarter_end = next_quarter_start(t);
    }
  };

  if (config.kind == ProberKind::kTrinocular) {
    // Trinocular's adaptive rate (sections 2.2/3.1): while the block is
    // believed up, a round sends only a couple of probes (a non-reply
    // from one address of a partly-used block is weak evidence, so
    // probing stops at the first positive); only when positives stop
    // arriving for several rounds does the prober escalate toward its
    // 16-probe budget to decide whether the block went down.  This is
    // what makes full scans of large blocks take hours (the 256-round
    // worst case of section 3.1).
    const int confirm_budget = std::min(eb, config.max_probes_per_round);
    int rounds_since_positive = state.rounds_since_positive;
    // The output size is adaptive, but bounded by confirm_budget probes
    // per round, so sizing the buffer to the exact worst case up front
    // removes every capacity check from the round loop (a push_back per
    // probe is a potentially-allocating call, which spills the cursor's
    // cached state on every probe).  The worst case is modest — at most
    // 16 observations of 8 bytes per 11-minute round — and the storage
    // is scratch reused across the fleet.  The true size is set once at
    // the end.
    const std::size_t old_size = out.size();
    const auto n_rounds = static_cast<std::size_t>(
        (limit - 1 - state.next_round) / util::kRoundSeconds + 1);
    out.resize(old_size + n_rounds * static_cast<std::size_t>(confirm_budget));
    Observation* const base = out.data() + old_size;
    Observation* w = base;
    // The probe order is fixed within a calendar quarter, so the round
    // loop runs in per-quarter chunks with the re-shuffle check hoisted
    // to the chunk boundary instead of tested every round.
    SimTime t = state.next_round;
    while (t < limit) {
      quarter_tick(t);
      const SimTime chunk_end = std::min(limit, quarter_end);
      while (t < chunk_end) {
        if (rounds_since_positive == 0 && eb >= 2) [[likely]] {
          // Confidently-up rounds (budget 2), the steady state for most
          // responsive blocks.  When the cursor exposes a whole-block
          // mask row, everything loop-invariant over the row's validity
          // window is hoisted once — row pointer, hour shift, the loss
          // threshold (the UTC hour is constant inside a local-hour
          // window, so flat and congested paths collapse to one integer
          // compare), and whether the observer's fault window overlaps —
          // and the rounds run with no per-probe cursor or window
          // checks.  The round itself stays branchy: the second probe
          // only goes out after a first non-reply, because replies are
          // regime-correlated (day vs night) and predict well, so
          // speculating the second probe costs more than the occasional
          // mispredict it would hide.
          if (t >= fv.until) [[unlikely]] fv = activity.fast_view(t);
          if (fv.row != nullptr && t + 2 < fv.until) [[likely]] {
            // The row and the block state it encodes hold until
            // fv.stable_until (at most the next local midnight), so the
            // fast loop spans the whole stable window and advances the
            // hour shift privately at hour boundaries; the cursor
            // re-syncs itself from scratch at the next fast_view call.
            const SimTime day_end = std::min(chunk_end, fv.stable_until - 2);
            // Order-permuted row for this (day row, probe order): one
            // sequential u32 per probe replaces the dependent
            // order[cursor] -> row[addr] load chain, and the address
            // rides along in the top byte.  Built once per block-day and
            // reused across the fleet's observer passes (they share both
            // the row and the order).
            constexpr std::size_t kProwSlots = 256;
            const std::size_t stride = 2 * n_targets;
            if (scratch.prow_stride != stride) {
              scratch.prow_stride = stride;
              scratch.prow.resize(kProwSlots * stride);
              scratch.prow_rkey.assign(kProwSlots, ~std::uint64_t{0});
              scratch.prow_okey.assign(kProwSlots, ~std::uint64_t{0});
            }
            const std::size_t slot = (fv.row_key >> 32) & (kProwSlots - 1);
            std::uint32_t* const prow = scratch.prow.data() + slot * stride;
            if (scratch.prow_rkey[slot] != fv.row_key ||
                scratch.prow_okey[slot] != scratch.order_key) {
              scratch.prow_rkey[slot] = fv.row_key;
              scratch.prow_okey[slot] = scratch.order_key;
              for (std::size_t i = 0; i < stride; ++i) {
                const std::uint32_t a = ord[i];
                prow[i] = fv.row[a] | (a << 24);
              }
            }
            int hour = fv.hour;
            SimTime hour_end = fv.until;
            std::int64_t sec0 = t % util::kSecondsPerDay;
            if (sec0 < 0) sec0 += util::kSecondsPerDay;
            std::size_t uhour = static_cast<std::size_t>(sec0 / 3600);
            std::uint64_t thr = congested ? cong_thr[uhour] : flat_thr;
            const bool chunk_faulty = fault_lo < day_end + 2 && fault_hi > t;
            auto fast_probe = [&](SimTime probe_time, std::uint32_t entry,
                                  int h, std::uint64_t th) __attribute__((
                always_inline)) -> bool {
              const std::uint32_t addr = entry >> 24;
              bool up = ((entry >> h) & 1u) != 0;
              if (up) {
                const std::uint64_t hash = util::mix64(
                    util::mix64(lh1[addr] ^
                                static_cast<std::uint64_t>(probe_time)) ^
                    obs_salt);
                if ((hash >> 11) < th) up = false;  // probe or reply lost
              }
              if (chunk_faulty) [[unlikely]] {
                if (probe_time >= fault_lo && probe_time < fault_hi &&
                    probe_uniform(fault_seed, block_id,
                                  static_cast<std::uint64_t>(probe_time), addr,
                                  obs_salt) < config.fault_flip_prob) {
                  up = !up;  // hardware fault corrupts the result
                }
              }
              return up;
            };
            bool went_negative = false;
            while (true) {
              // Rounds whose probes stay inside the current hour.
              const SimTime hend = std::min(day_end, hour_end - 2);
              while (t < hend) {
                const std::uint32_t e0 = prow[cursor];
                const bool up0 = fast_probe(t, e0, hour, thr);
                store_observation(w++, static_cast<std::uint32_t>(t - rel_base),
                                  static_cast<std::uint8_t>(e0 >> 24), up0);
                if (up0) [[likely]] {
                  if (++cursor == n_targets) cursor = 0;
                  t += util::kRoundSeconds;
                  continue;
                }
                const std::uint32_t e1 = prow[cursor + 1];
                const bool up1 = fast_probe(t + 2, e1, hour, thr);
                store_observation(w++,
                                  static_cast<std::uint32_t>(t + 2 - rel_base),
                                  static_cast<std::uint8_t>(e1 >> 24), up1);
                cursor += 2;
                if (cursor >= n_targets) cursor -= n_targets;
                t += util::kRoundSeconds;
                if (!up1) {
                  went_negative = true;
                  break;
                }
              }
              if (went_negative || t >= day_end) break;
              if (t >= hour_end) {
                // Hour tick: only the shift and the congestion threshold
                // move (hour_end stays absolute-hour aligned — it is only
                // stable-clamped when day_end already cut the loop short).
                ++hour;
                hour_end += 3600;
                if (congested) {
                  uhour = uhour + 1 == 24 ? 0 : uhour + 1;
                  thr = cong_thr[uhour];
                }
                continue;
              }
              // Straddling round: the first probe is in this hour but a
              // second would cross the boundary (t in [hour_end-2,
              // hour_end), at most one round per hour).
              const std::uint32_t e0 = prow[cursor];
              const bool up0 = fast_probe(t, e0, hour, thr);
              store_observation(w++, static_cast<std::uint32_t>(t - rel_base),
                                static_cast<std::uint8_t>(e0 >> 24), up0);
              if (up0) {
                if (++cursor == n_targets) cursor = 0;
              } else {
                const std::size_t uh1 = uhour + 1 == 24 ? 0 : uhour + 1;
                const std::uint64_t th1 = congested ? cong_thr[uh1] : flat_thr;
                const std::uint32_t e1 = prow[cursor + 1];
                const bool up1 = fast_probe(t + 2, e1, hour + 1, th1);
                store_observation(w++,
                                  static_cast<std::uint32_t>(t + 2 - rel_base),
                                  static_cast<std::uint8_t>(e1 >> 24), up1);
                cursor += 2;
                if (cursor >= n_targets) cursor -= n_targets;
                if (!up1) went_negative = true;
              }
              t += util::kRoundSeconds;
              if (went_negative) break;
            }
            if (went_negative) rounds_since_positive = 1;
            continue;
          }
          // Window tail (a probe would cross the row's validity edge) or
          // a block state with no whole-block mask row: one steady round
          // through the general probe path.
          const std::uint8_t addr0 = ord[cursor];
          const bool up0 = probe_up(t, addr0);
          store_observation(w++, static_cast<std::uint32_t>(t - rel_base),
                            addr0, up0);
          if (up0) [[likely]] {
            if (++cursor == n_targets) cursor = 0;
            t += util::kRoundSeconds;
            continue;
          }
          const std::uint8_t addr1 = ord[cursor + 1];
          const bool up1 = probe_up(t + 2, addr1);
          store_observation(w++, static_cast<std::uint32_t>(t + 2 - rel_base),
                            addr1, up1);
          rounds_since_positive = up1 ? 0 : 1;
          cursor += 2;
          if (cursor >= n_targets) cursor -= n_targets;
          t += util::kRoundSeconds;
          continue;
        }
        const int belief_budget = rounds_since_positive == 0
                                      ? 2  // block confidently up (eb == 1)
                                      : rounds_since_positive <= 3
                                            ? 4  // getting suspicious
                                            : confirm_budget;  // confirm outage
        const int budget = belief_budget < eb ? belief_budget : eb;
        bool round_positive = false;
        int j = 0;
        for (; j < budget; ++j) {
          const std::uint8_t addr = ord[cursor + static_cast<std::size_t>(j)];
          const SimTime probe_time = t + 2 * j;  // probes pace through the round
          const bool up = probe_up(probe_time, addr);
          store_observation(w++,
                            static_cast<std::uint32_t>(probe_time - rel_base),
                            addr, up);
          if (up) {
            round_positive = true;
            ++j;
            break;
          }
        }
        cursor += static_cast<std::size_t>(j);
        if (cursor >= n_targets) cursor -= n_targets;
        rounds_since_positive = round_positive ? 0 : rounds_since_positive + 1;
        t += util::kRoundSeconds;
      }
    }
    out.resize(old_size + static_cast<std::size_t>(w - base));
    state.rounds_since_positive = rounds_since_positive;
    state.next_round = t;
  } else {
    // Survey and additional-observations probers: fixed budget, never
    // stopping on a positive reply.  Every round fires exactly
    // fixed_budget probes, so the output size is known up front; the
    // pre-sized buffer is filled through a bare pointer, keeping the
    // inner loop free of any out-of-line call.
    int fixed_budget = eb;
    if (config.kind == ProberKind::kAdditional) {
      fixed_budget = std::min(eb, additional_probes_per_round(eb));
    }
    const std::size_t old_size = out.size();
    const auto n_rounds = static_cast<std::size_t>(
        (limit - 1 - state.next_round) / util::kRoundSeconds + 1);
    out.resize(old_size + n_rounds * static_cast<std::size_t>(fixed_budget));
    Observation* w = out.data() + old_size;
    SimTime t = state.next_round;
    for (; t < limit; t += util::kRoundSeconds) {
      quarter_tick(t);
      for (int j = 0; j < fixed_budget; ++j) {
        const std::uint8_t addr = ord[cursor + static_cast<std::size_t>(j)];
        const SimTime probe_time = t + 2 * j;
        store_observation(w++, static_cast<std::uint32_t>(probe_time - rel_base),
                          addr, probe_up(probe_time, addr));
      }
      cursor += static_cast<std::size_t>(fixed_budget);
      if (cursor >= n_targets) cursor -= n_targets;
    }
    state.next_round = t;
  }
  state.cursor = cursor;
  if (until >= window.end) state.done = true;
}

void probe_block_into(const sim::BlockProfile& block,
                      const ObserverSpec& observer, const LossModel& loss,
                      ProbeWindow window, const ProberConfig& config,
                      ProbeScratch& scratch, ObservationVec& out) {
  out.clear();
  RoundProberState state;
  round_prober_begin(block, observer, window, config, state);
  round_prober_resume(block, observer, loss, window, config, scratch, state,
                      window.end, out);
}

ObservationVec probe_block(const sim::BlockProfile& block,
                           const ObserverSpec& observer, const LossModel& loss,
                           ProbeWindow window, const ProberConfig& config) {
  ObservationVec out;
  probe_block_into(block, observer, loss, window, config,
                   ProbeScratch::local(), out);
  return out;
}

std::size_t merge_runs(MergeHead* heads, std::size_t& k, Observation* out,
                       std::size_t cap) {
  Observation* const begin = out;
  Observation* const stop = out + cap;
  if (k > 1 && cap > 0) {
    // The heads in merge order, as a ring keyed by (head time, stream
    // index).  Observers probe in rounds at fixed phase offsets, so the
    // leader's next head usually orders after every other head: popping
    // the front and appending the leader at the back is then one
    // comparison, where a scan for the leader costs k.
    struct Entry {
      std::uint64_t key;  ///< head rel_time << 32 | stream index
      const Observation* it;
      const Observation* end;
    };
    Entry stack_ring[16];
    std::vector<Entry> heap_ring;
    Entry* ring = stack_ring;
    if (k > std::size(stack_ring)) {
      heap_ring.resize(k);
      ring = heap_ring.data();
    }
    const auto key = [](const Observation* it, std::uint64_t index) {
      return std::uint64_t{it->rel_time} << 32 | index;
    };
    for (std::size_t i = 0; i < k; ++i) {
      ring[i] = Entry{key(heads[i].it, i), heads[i].it, heads[i].end};
    }
    std::sort(ring, ring + k,
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    const std::size_t slots = k;
    std::size_t front = 0;
    std::size_t m = k;  // live entries: ring[front], ring[front + 1], ...
    const auto at = [&](std::size_t r) -> Entry& {
      const std::size_t j = front + r;
      return ring[j < slots ? j : j - slots];
    };
    while (m > 1 && out != stop) {
      Entry e = ring[front];
      const std::uint64_t next = at(1).key;
      const std::uint64_t index = e.key & 0xffffffffU;
      // The leader's run: everything ordering before the runner-up.
      const Observation* run_stop = e.end;
      if (run_stop - e.it > stop - out) run_stop = e.it + (stop - out);
      do {
        *out++ = *e.it++;
      } while (e.it != run_stop && key(e.it, index) < next);
      front = front + 1 < slots ? front + 1 : 0;
      --m;
      if (e.it == e.end) continue;
      e.key = key(e.it, index);
      // Insert from the back; the common case stops at once.
      std::size_t r = m;
      while (r > 0 && at(r - 1).key > e.key) {
        at(r) = at(r - 1);
        --r;
      }
      at(r) = e;
      ++m;
    }
    // Hand the live heads back in stream order.
    std::rotate(ring, ring + front, ring + slots);
    std::sort(ring, ring + m, [](const Entry& a, const Entry& b) {
      return (a.key & 0xffffffffU) < (b.key & 0xffffffffU);
    });
    for (std::size_t i = 0; i < m; ++i) {
      heads[i] = MergeHead{ring[i].it, ring[i].end};
    }
    k = m;
  }
  if (k == 1 && out != stop) {
    MergeHead& h = heads[0];
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(h.end - h.it),
        static_cast<std::size_t>(stop - out));
    out = std::copy_n(h.it, n, out);
    h.it += n;
    if (h.it == h.end) k = 0;
  }
  return static_cast<std::size_t>(out - begin);
}

void merge_cut(std::span<MergeSource> sources, std::vector<MergeHead>& heads) {
  const std::size_t n = sources.size();
  std::int64_t cut = kExhausted;
  std::size_t cut_source = n;
  for (std::size_t i = 0; i < n; ++i) {
    const MergeSource& s = sources[i];
    const std::int64_t key =
        s.released != s.end ? s.released->rel_time : s.watermark;
    if (key < cut) {
      cut = key;
      cut_source = i;
    }
  }
  heads.clear();
  for (std::size_t i = 0; i < n; ++i) {
    MergeSource& s = sources[i];
    if (cut_source != n) {
      const std::int64_t bound = i <= cut_source ? cut : cut - 1;
      s.released = std::partition_point(
          s.head, s.released, [bound](const Observation& o) {
            return static_cast<std::int64_t>(o.rel_time) <= bound;
          });
    }
    if (s.head != s.released) heads.push_back(MergeHead{s.head, s.released});
  }
}

void merge_observations_into(const std::vector<ObservationVec>& streams,
                             ObservationVec& out) {
  MergeHead stack_heads[16];
  std::vector<MergeHead> heap_heads;
  MergeHead* heads = stack_heads;
  if (streams.size() > std::size(stack_heads)) {
    heap_heads.resize(streams.size());
    heads = heap_heads.data();
  }
  std::size_t k = 0;
  std::size_t total = 0;
  for (const auto& s : streams) {
    if (s.empty()) continue;
    heads[k++] = MergeHead{s.data(), s.data() + s.size()};
    total += s.size();
  }
  out.resize(total);
  merge_runs(heads, k, out.data(), total);
}

ObservationVec merge_observations(std::vector<ObservationVec> streams) {
  ObservationVec out;
  merge_observations_into(streams, out);
  return out;
}

}  // namespace diurnal::probe
