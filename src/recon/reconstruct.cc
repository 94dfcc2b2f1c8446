#include "recon/reconstruct.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

#include "analysis/stats.h"

namespace diurnal::recon {

double ReconResult::fbs_median_seconds() const {
  return analysis::median(fbs_spans_seconds);
}

double ReconResult::fbs_quantile_seconds(double q) const {
  return analysis::quantile(fbs_spans_seconds, q);
}

void BlockReconState::begin(int eb_count, probe::ProbeWindow window,
                            const ReconOptions& opt) {
  opt_ = opt;
  window_ = window;
  eb_count_ = eb_count;
  duration_ = window.end - window.start;
  degenerate_ = duration_ <= 0 || eb_count <= 0;
  n_samples_ =
      degenerate_ ? 0
                  : static_cast<std::size_t>(
                        (duration_ + opt.sample_step - 1) / opt.sample_step);
  samples_.assign(n_samples_, 0.0);
  bound_ = {};
  // Per-address state: -1 unknown, 0 down, 1 up.
  state_.fill(-1);
  active_ = 0;
  observed_ = 0;
  positives_ = 0;
  next_sample_ = 0;
  // Effective-coverage tracking: a sample is fresh when some observation
  // (reply or not — coverage is about measurement, not activity) landed
  // within the trailing stale_horizon; observation-free spans longer
  // than the horizon are recorded as gaps.
  last_obs_rel_ = std::numeric_limits<std::int64_t>::min() / 2;
  fresh_samples_ = 0;
  max_active_ = 0.0;
  max_gap_seconds_ = 0.0;
  gaps_.clear();
  // Full-cover tracking: pass_epoch_[a] is the cover pass that last
  // touched address a; when a pass has touched all of E(b), its
  // duration is one full-block-scan span and the next pass begins.
  pass_epoch_.fill(0);
  pass_ = 1;
  pass_seen_ = 0;
  pass_start_ = 0;
  fbs_spans_.clear();
  observations_ = 0;
}

void BlockReconState::push_span(const probe::Observation* first,
                                const probe::Observation* last) {
  if (degenerate_ || first == last) return;
  // The machine's scalar fields live in locals for the span: a store
  // into state_ (a char type) may alias any member, so the compiler
  // would otherwise reload and store every field around each
  // observation.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  double* const dst = bound_.empty() ? samples_.data() : bound_.data();
  const std::int64_t step = opt_.sample_step;
  const std::int64_t horizon = opt_.stale_horizon;
  const std::size_t n_samples = n_samples_;
  const auto eb = static_cast<std::size_t>(eb_count_);
  std::size_t next_sample = next_sample_;
  // A push at rel emits every sample k with k * step < rel, so emission
  // runs only when an observation passes the next sample's time.
  std::int64_t next_emit =
      next_sample < n_samples ? static_cast<std::int64_t>(next_sample) * step
                              : kNever;
  std::int64_t last_rel = last_obs_rel_;
  std::size_t fresh = fresh_samples_;
  double max_active = max_active_;
  // The longest gap stays an integer and is folded into the double once:
  // int -> double conversion is monotone, so this is exact.
  std::int64_t max_gap = std::numeric_limits<std::int64_t>::min();
  int active = active_;
  int observed = observed_;
  std::size_t positives = positives_;
  std::uint32_t pass = pass_;
  int pass_seen = pass_seen_;
  for (const probe::Observation* o = first; o != last; ++o) {
    const std::int64_t rel = o->rel_time;
    while (rel > next_emit) {
      dst[next_sample] = static_cast<double>(active);
      max_active = std::max(max_active, dst[next_sample]);
      fresh += static_cast<std::size_t>(
          static_cast<std::int64_t>(next_sample) * step - last_rel <= horizon);
      ++next_sample;
      next_emit = next_sample < n_samples
                      ? static_cast<std::int64_t>(next_sample) * step
                      : kNever;
    }
    const std::int64_t from = std::max<std::int64_t>(last_rel, 0);
    if (rel - from > horizon) {
      gaps_.push_back(CoverageGap{window_.start + from, window_.start + rel});
    }
    max_gap = std::max(max_gap, rel - from);
    last_rel = rel;
    const std::size_t a = o->addr;
    if (a >= eb) continue;
    // Arithmetic on the up/down bit and the cover epoch instead of
    // branches: both are random per observation, so branches on them
    // mispredict.  Only a cover completion branches.
    const std::int8_t prev = state_[a];
    const int now = o->up ? 1 : 0;
    observed += static_cast<int>(prev == -1);
    active += now - static_cast<int>(prev == 1);
    positives += static_cast<std::size_t>(now);
    state_[a] = static_cast<std::int8_t>(now);
    pass_seen += static_cast<int>(pass_epoch_[a] != pass);
    pass_epoch_[a] = pass;
    if (pass_seen == eb_count_) {
      fbs_spans_.push_back(static_cast<double>(rel - pass_start_));
      ++pass;
      pass_seen = 0;
      pass_start_ = rel;
    }
  }
  next_sample_ = next_sample;
  last_obs_rel_ = last_rel;
  fresh_samples_ = fresh;
  max_active_ = max_active;
  max_gap_seconds_ = std::max(max_gap_seconds_, static_cast<double>(max_gap));
  active_ = active;
  observed_ = observed;
  positives_ = positives;
  pass_ = pass;
  pass_seen_ = pass_seen;
  observations_ += static_cast<std::size_t>(last - first);
}

void BlockReconState::finalize(ReconResult& out) {
  out = ReconResult{};
  out.eb_count = eb_count_;
  if (degenerate_) {
    out.counts = util::TimeSeries(
        window_.start, std::max<std::int64_t>(opt_.sample_step, 1), {});
    return;
  }
  emit_until(duration_);
  note_gap(duration_);
  out.evidence_fraction =
      n_samples_ == 0 ? 0.0
                      : static_cast<double>(fresh_samples_) /
                            static_cast<double>(n_samples_);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.max_gap_seconds = max_gap_seconds_;
  out.gaps = std::move(gaps_);
  out.fbs_spans_seconds = std::move(fbs_spans_);
  if (bound_.empty()) {
    out.counts =
        util::TimeSeries(window_.start, opt_.sample_step, std::move(samples_));
  } else {
    // Bound output stays in the external buffer; the legacy result gets
    // a copy so both views agree.
    out.counts = util::TimeSeries(
        window_.start, opt_.sample_step,
        std::vector<double>(bound_.begin(), bound_.begin() + n_samples_));
  }
}

void BlockReconState::finalize_stats(ReconStats& out) {
  out.eb_count = eb_count_;
  out.start = window_.start;
  out.step = std::max<std::int64_t>(opt_.sample_step, 1);
  out.len = 0;
  out.responsive = false;
  out.mean_reply_rate = 0.0;
  out.observations = 0;
  out.observed_targets = 0;
  out.max_active = 0.0;
  out.evidence_fraction = 0.0;
  out.max_gap_seconds = 0.0;
  out.gaps.clear();
  out.fbs_spans_seconds.clear();
  if (degenerate_) return;
  emit_until(duration_);
  note_gap(duration_);
  out.step = opt_.sample_step;
  out.len = n_samples_;
  out.evidence_fraction =
      n_samples_ == 0 ? 0.0
                      : static_cast<double>(fresh_samples_) /
                            static_cast<double>(n_samples_);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.max_gap_seconds = max_gap_seconds_;
  // Swap instead of copy: `out` keeps the data, the state inherits the
  // old capacity for the next begin().
  std::swap(out.gaps, gaps_);
  std::swap(out.fbs_spans_seconds, fbs_spans_);
}

void BlockReconState::snapshot_stats(ReconStats& out) const {
  out.eb_count = eb_count_;
  out.start = window_.start;
  out.step = std::max<std::int64_t>(opt_.sample_step, 1);
  out.len = 0;
  out.responsive = false;
  out.mean_reply_rate = 0.0;
  out.observations = 0;
  out.observed_targets = 0;
  out.max_active = 0.0;
  out.evidence_fraction = 0.0;
  out.max_gap_seconds = 0.0;
  out.gaps.clear();
  out.fbs_spans_seconds.clear();
  if (degenerate_) return;
  // Replays what finalize() would compute on a copy truncated to the
  // emitted-sample prefix (snapshot() semantics): emit_until() is a
  // no-op on the truncated copy, so only the trailing note_gap() and
  // the evidence denominator change.
  const std::size_t len = next_sample_;
  const std::int64_t duration =
      static_cast<std::int64_t>(len) * opt_.sample_step;
  out.step = opt_.sample_step;
  out.len = len;
  out.evidence_fraction = len == 0 ? 0.0
                                   : static_cast<double>(fresh_samples_) /
                                         static_cast<double>(len);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.fbs_spans_seconds.assign(fbs_spans_.begin(), fbs_spans_.end());
  out.gaps.assign(gaps_.begin(), gaps_.end());
  const std::int64_t from = std::max<std::int64_t>(last_obs_rel_, 0);
  if (duration - from > opt_.stale_horizon) {
    out.gaps.push_back(
        CoverageGap{window_.start + from, window_.start + duration});
  }
  out.max_gap_seconds =
      std::max(max_gap_seconds_, static_cast<double>(duration - from));
}

void BlockReconState::snapshot(ReconResult& out) const {
  BlockReconState copy = *this;
  copy.n_samples_ = copy.next_sample_;
  copy.duration_ = static_cast<std::int64_t>(copy.next_sample_) *
                   copy.opt_.sample_step;
  copy.samples_.resize(copy.n_samples_);
  copy.finalize(out);
}

void BlockReconState::fork_from(const BlockReconState& src) {
  assert(src.eb_count_ == eb_count_ && src.window_.start == window_.start &&
         src.opt_.sample_step == opt_.sample_step &&
         src.next_sample_ <= n_samples_);
  // Every field save() writes after the geometry checks, in its order.
  state_ = src.state_;
  active_ = src.active_;
  observed_ = src.observed_;
  positives_ = src.positives_;
  next_sample_ = src.next_sample_;
  last_obs_rel_ = src.last_obs_rel_;
  fresh_samples_ = src.fresh_samples_;
  max_active_ = src.max_active_;
  max_gap_seconds_ = src.max_gap_seconds_;
  gaps_.assign(src.gaps_.begin(), src.gaps_.end());
  pass_epoch_ = src.pass_epoch_;
  pass_ = src.pass_;
  pass_seen_ = src.pass_seen_;
  pass_start_ = src.pass_start_;
  fbs_spans_.assign(src.fbs_spans_.begin(), src.fbs_spans_.end());
  observations_ = src.observations_;
  std::copy_n(src.series_view().data(), next_sample_,
              bound_.empty() ? samples_.data() : bound_.data());
}

void BlockReconState::save_fork(util::StateWriter& w,
                                const BlockReconState& into) const {
  assert(into.eb_count_ == eb_count_ && into.window_.start == window_.start &&
         into.opt_.sample_step == opt_.sample_step &&
         next_sample_ <= into.n_samples_);
  // Arguments-derived fields travel only as restore-time checks.
  w.i64(eb_count_);
  w.u64(into.n_samples_);
  for (const std::int8_t s : state_) w.u8(static_cast<std::uint8_t>(s));
  w.i64(active_);
  w.i64(observed_);
  w.u64(positives_);
  w.u64(next_sample_);
  w.i64(last_obs_rel_);
  w.u64(fresh_samples_);
  w.f64(max_active_);
  w.f64(max_gap_seconds_);
  w.u64(gaps_.size());
  for (const CoverageGap& g : gaps_) {
    w.i64(g.start);
    w.i64(g.end);
  }
  for (const std::uint32_t p : pass_epoch_) w.u32(p);
  w.u32(pass_);
  w.i64(pass_seen_);
  w.i64(pass_start_);
  w.f64_span(fbs_spans_);
  w.u64(observations_);
  // The emitted-sample prefix is part of the state: a restored machine
  // must read back exactly the samples the saved one had written,
  // whether they live in the owned buffer or a bound store row.
  w.f64_span(series_view().first(next_sample_));
}

void BlockReconState::restore(util::StateReader& r) {
  if (r.i64() != eb_count_ || r.u64() != n_samples_) {
    throw util::StateError(util::StateErrorKind::kBadValue,
                           "recon state was saved for a different block");
  }
  for (std::int8_t& s : state_) s = static_cast<std::int8_t>(r.u8());
  active_ = static_cast<int>(r.i64());
  observed_ = static_cast<int>(r.i64());
  positives_ = r.u64();
  next_sample_ = r.u64();
  if (next_sample_ > n_samples_) {
    throw util::StateError(util::StateErrorKind::kBadValue,
                           "emitted prefix exceeds the sample capacity");
  }
  last_obs_rel_ = r.i64();
  fresh_samples_ = r.u64();
  max_active_ = r.f64();
  max_gap_seconds_ = r.f64();
  const std::uint64_t n_gaps = r.u64();
  gaps_.clear();
  for (std::uint64_t i = 0; i < n_gaps; ++i) {
    CoverageGap g;
    g.start = r.i64();
    g.end = r.i64();
    gaps_.push_back(g);
  }
  for (std::uint32_t& p : pass_epoch_) p = r.u32();
  pass_ = r.u32();
  pass_seen_ = static_cast<int>(r.i64());
  pass_start_ = r.i64();
  r.f64_span(fbs_spans_);
  observations_ = r.u64();
  double* const dst = bound_.empty() ? samples_.data() : bound_.data();
  r.f64_span_into(std::span<double>(dst, next_sample_));
}

ReconResult reconstruct(const probe::ObservationVec& merged, int eb_count,
                        probe::ProbeWindow window, const ReconOptions& opt) {
  BlockReconState state;
  state.begin(eb_count, window, opt);
  state.push_span(merged.data(), merged.data() + merged.size());
  ReconResult res;
  state.finalize(res);
  return res;
}

}  // namespace diurnal::recon
