// Incremental address reconstruction (paper section 2.3, Figure 2).
//
// Observations arrive incrementally; each address holds its last
// observed state until rescanned.  The reconstructor emits a regularly
// sampled active-address count series, tracks full-block-scan (FBS)
// spans for section 3.1's refresh-rate analysis, and reports reply-rate
// statistics used by the loss study in section 3.3.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "probe/prober.h"
#include "util/state_io.h"
#include "util/timeseries.h"

namespace diurnal::recon {

struct ReconOptions {
  /// Output sampling interval for the count series (the fleet uses
  /// hourly; single-block case studies use per-round).
  std::int64_t sample_step = 3600;
  /// Effective-coverage horizon (paper section 2.8: the additional
  /// observer guarantees a 6-hour full-block refresh).  A sample with no
  /// observation in the trailing horizon is stale; spans with no
  /// observations longer than this are recorded as coverage gaps.
  std::int64_t stale_horizon = 6 * util::kSecondsPerHour;
};

/// A span of the window with no observations at all (absolute times):
/// the reconstruction holds stale state throughout, so anything inferred
/// from it rests on no fresh evidence.
struct CoverageGap {
  util::SimTime start = 0;
  util::SimTime end = 0;
};

struct ReconResult {
  util::TimeSeries counts;           ///< active-address estimate over time
  bool responsive = false;           ///< any positive reply in the window
  double mean_reply_rate = 0.0;      ///< positive / total observations
  std::size_t observations = 0;
  int eb_count = 0;
  int observed_targets = 0;          ///< distinct addresses ever observed
  double max_active = 0.0;

  /// Full-block-scan spans: the durations of successive complete covers
  /// of E(b) (each span is the time the merged observers took to touch
  /// every target once).  This is the quantity of Figure 3.
  std::vector<double> fbs_spans_seconds;

  /// Effective coverage (degraded-mode accounting): fraction of count
  /// samples with an observation inside the staleness horizon, the
  /// longest observation-free span, and every observation-free span
  /// longer than the horizon.  A healthy merged fleet probes every
  /// round, so evidence_fraction sits at ~1 with no gaps; when observers
  /// go dark the gaps say exactly which stretches of the series are
  /// held-over state rather than measurement.
  double evidence_fraction = 0.0;
  double max_gap_seconds = 0.0;
  std::vector<CoverageGap> gaps;

  double fbs_median_seconds() const;
  double fbs_quantile_seconds(double q) const;
};

/// ReconResult minus the sample storage: every statistic of a
/// reconstruction plus the (start, step, len) geometry of its series.
/// Used with externally bound sample storage (core::SeriesStore rows),
/// where the series lives in the store and only the numbers travel.
/// Reusable across blocks — gaps/fbs capacity is recycled.
struct ReconStats {
  util::SimTime start = 0;   ///< series start time
  std::int64_t step = 1;     ///< series sampling step (>= 1)
  std::size_t len = 0;       ///< samples in the series
  bool responsive = false;
  double mean_reply_rate = 0.0;
  std::size_t observations = 0;
  int eb_count = 0;
  int observed_targets = 0;
  double max_active = 0.0;
  std::vector<double> fbs_spans_seconds;
  double evidence_fraction = 0.0;
  double max_gap_seconds = 0.0;
  std::vector<CoverageGap> gaps;
};

/// Resumable reconstruction state machine: the whole-window
/// reconstruct() loop carved into begin / push / finalize so the
/// streaming pipeline can feed merged observations as they clear the
/// repair lookahead and still finalize to the byte-identical
/// ReconResult.  Sample emission is an idempotent prefix — a sample is
/// written the moment the stream passes it, never revised — so the
/// emitted prefix of samples() is stable regardless of how the pushes
/// were chunked.  Copyable by design (value members only).
class BlockReconState {
 public:
  /// Re-initializes for one block, reusing the sample buffer.
  void begin(int eb_count, probe::ProbeWindow window,
             const ReconOptions& opt = {});

  /// Redirects sample emission into an external buffer (a
  /// core::SeriesStore row).  Call immediately after begin(); `out`
  /// must outlive the state and hold at least emitted-capacity()
  /// samples (the store's stride is sized for the window).  The bound
  /// prefix is zero-filled here, matching begin()'s own buffer.
  void bind_output(std::span<double> out) {
    bound_ = out;
    std::fill_n(bound_.begin(), n_samples_, 0.0);
  }

  /// The full sample buffer for this block (owned or bound).  Only the
  /// emitted() prefix is meaningful mid-stream; after finalize_stats()
  /// the whole view is.
  std::span<const double> series_view() const noexcept {
    return bound_.empty() ? std::span<const double>(samples_)
                          : std::span<const double>(bound_.data(), n_samples_);
  }

  /// Feeds the next merged observation (rel_time non-decreasing).
  /// Observations pacing past the window end are tolerated, exactly as
  /// in the batch pass.
  void push(const probe::Observation& obs) { push_span(&obs, &obs + 1); }

  /// Feeds [first, last) in order: the reconstruction kernel.  Exactly
  /// a push() of each observation in turn, for any split of a stream
  /// into spans.
  void push_span(const probe::Observation* first,
                 const probe::Observation* last);

  /// Emits the trailing samples and gap, and moves the result out.
  /// The state is spent afterwards; call begin() to reuse it.
  void finalize(ReconResult& out);

  /// Finalizes a copy truncated to the emitted-sample prefix: the
  /// result's series ends at the last emitted sample and the evidence
  /// denominator matches, so mid-stream consumers (the streaming
  /// engine's provisional screens) see honest statistics instead of a
  /// flat extrapolation to the window end.  The state itself is
  /// untouched.
  void snapshot(ReconResult& out) const;

  /// finalize() without materializing the series: emits the trailing
  /// samples into the owned/bound buffer and fills `out` with the
  /// statistics only (recycling its gaps/fbs capacity).  The series
  /// itself stays where it was written — read it via series_view() or
  /// the bound store row.  The state is spent afterwards.
  void finalize_stats(ReconStats& out);

  /// snapshot() without the series copy: statistics truncated to the
  /// emitted-sample prefix, computed exactly as a truncated finalize
  /// would.  The state is untouched; the emitted prefix of
  /// series_view() is the matching series.
  void snapshot_stats(ReconStats& out) const;

  /// Serializes every mutable field plus the emitted-sample prefix.
  /// Everything begin() derives from its arguments (window geometry,
  /// options, sample capacity) is *not* written — the restore contract
  /// is: call begin() (and bind_output(), if the original was bound)
  /// with identical arguments, then restore().  Checked fields
  /// (eb_count, sample count) guard against restoring into a state
  /// begun with different arguments.
  void save(util::StateWriter& w) const { save_fork(w, *this); }
  /// The image `into` would save() after into.fork_from(*this): this
  /// machine's state under `into`'s checked sample count.  Same
  /// preconditions as fork_from().
  void save_fork(util::StateWriter& w, const BlockReconState& into) const;
  /// Overwrites the mutable state from `r`; the emitted prefix lands in
  /// the current destination (bound row or owned buffer).  After this,
  /// the machine continues exactly where the saved one stopped: pushes,
  /// snapshots and finalize are bitwise-identical to an uninterrupted
  /// run.  Throws util::StateError and leaves the state unusable (call
  /// begin() again) on a corrupt or mismatched image.
  void restore(util::StateReader& r);

  /// Continues from `src`: copies every mutable field and the emitted
  /// sample prefix into this machine's own geometry and buffer.  Exact
  /// when both were begun for the same block and options over windows
  /// with the same start, and `src` has emitted no sample at or beyond
  /// this machine's sample count — true while every push had rel_time
  /// <= this machine's window duration, since a push at rel only emits
  /// samples k with k * sample_step < rel.  BlockStream's union-window
  /// mode feeds one machine until the stream passes the classification
  /// end and forks the classification machine from it there.
  void fork_from(const BlockReconState& src);

  /// Number of samples emitted so far (the stable prefix of samples()).
  std::size_t emitted() const noexcept { return next_sample_; }
  const std::vector<double>& samples() const noexcept { return samples_; }
  std::size_t observations() const noexcept { return observations_; }

  /// Heap bytes held beyond sizeof(*this) — the per-worker residency
  /// accounting the shard scheduler and bench_shard report.
  std::size_t memory_bytes() const noexcept {
    return samples_.capacity() * sizeof(double) +
           gaps_.capacity() * sizeof(CoverageGap) +
           fbs_spans_.capacity() * sizeof(double);
  }

 private:
  void emit_until(std::int64_t rel_time) {
    double* const dst = bound_.empty() ? samples_.data() : bound_.data();
    while (next_sample_ < n_samples_ &&
           static_cast<std::int64_t>(next_sample_) * opt_.sample_step <=
               rel_time) {
      dst[next_sample_] = static_cast<double>(active_);
      max_active_ = std::max(max_active_, dst[next_sample_]);
      if (static_cast<std::int64_t>(next_sample_) * opt_.sample_step -
              last_obs_rel_ <=
          opt_.stale_horizon) {
        ++fresh_samples_;
      }
      ++next_sample_;
    }
  }
  void note_gap(std::int64_t up_to) {
    const std::int64_t from = std::max<std::int64_t>(last_obs_rel_, 0);
    if (up_to - from > opt_.stale_horizon) {
      gaps_.push_back(
          CoverageGap{window_.start + from, window_.start + up_to});
    }
    max_gap_seconds_ =
        std::max(max_gap_seconds_, static_cast<double>(up_to - from));
  }

  ReconOptions opt_{};
  probe::ProbeWindow window_{};
  int eb_count_ = 0;
  bool degenerate_ = true;
  std::int64_t duration_ = 0;
  std::size_t n_samples_ = 0;
  std::vector<double> samples_;
  std::span<double> bound_{};  ///< external output, empty = use samples_
  std::array<std::int8_t, 256> state_{};
  int active_ = 0;
  int observed_ = 0;
  std::size_t positives_ = 0;
  std::size_t next_sample_ = 0;
  std::int64_t last_obs_rel_ = std::numeric_limits<std::int64_t>::min() / 2;
  std::size_t fresh_samples_ = 0;
  double max_active_ = 0.0;
  double max_gap_seconds_ = 0.0;
  std::vector<CoverageGap> gaps_;
  std::array<std::uint32_t, 256> pass_epoch_{};
  std::uint32_t pass_ = 1;
  int pass_seen_ = 0;
  std::int64_t pass_start_ = 0;
  std::vector<double> fbs_spans_;
  std::size_t observations_ = 0;
};

/// Reconstructs a block's activity from a merged, time-ordered
/// observation stream.  One full pass of the BlockReconState machine.
ReconResult reconstruct(const probe::ObservationVec& merged, int eb_count,
                        probe::ProbeWindow window, const ReconOptions& opt = {});

}  // namespace diurnal::recon
