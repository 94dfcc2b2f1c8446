#include "recon/stream.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace diurnal::recon {

using util::SimTime;

void BlockStream::begin(const sim::BlockProfile& block,
                        const BlockObservationConfig& config,
                        probe::ProbeScratch& scratch, SimTime classify_end) {
  block_ = &block;
  config_ = &config;
  scratch_ = &scratch;
  inject_ = config.faults != nullptr && !config.faults->empty();
  classify_end_ = classify_end;
  classify_pending_ = classify_end != 0;
  fork_pending_ = classify_pending_;
  assert(!classify_pending_ ||
         (classify_end > config.window.start &&
          classify_end <= config.window.end &&
          (!inject_ || config.faults->skews.empty())));
  delivered_ = 0;

  const std::size_t n =
      config.observers.size() + (config.additional_observations ? 1 : 0);
  streams_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Stream& s = streams_[i];
    const bool extra = i >= config.observers.size();
    s.spec = extra ? probe::additional_observer() : config.observers[i];
    s.code = s.spec.code;
    s.prober = config.prober;
    if (extra) s.prober.kind = probe::ProberKind::kAdditional;
    probe::round_prober_begin(block, s.spec, config.window, s.prober, s.state);
    s.carry = fault::FaultCarry{};
    s.stats = fault::StreamFaultStats{};
    s.skew = inject_ ? fault::resolve_skew(*config.faults, s.code)
                     : fault::SkewResolution{};
    s.repair.reset();
    s.buf.clear();
    s.base = 0;
    s.released = 0;
    s.consumed = 0;
    s.delivered = 0;
    s.first_rel = 0;
    s.last_rel = 0;
  }
  recon_.begin(block.eb_count, config.window, config.recon);
  if (classify_pending_) {
    classify_recon_.begin(
        block.eb_count,
        probe::ProbeWindow{config.window.start, classify_end}, config.recon);
  }
}

void BlockStream::advance_to(SimTime until) {
  assert(!classify_pending_ || until <= classify_end_);
  for (Stream& s : streams_) {
    if (s.state.done) continue;
    const std::size_t old = s.buf.size();
    probe::round_prober_resume(*block_, s.spec, config_->loss, config_->window,
                               s.prober, *scratch_, s.state, until, s.buf);
    if (inject_) {
      const auto st = fault::apply_faults_chunk(*config_->faults, s.code,
                                                config_->window, s.buf, old,
                                                s.carry);
      s.stats.input += st.input;
      s.stats.dropped += st.dropped;
      s.stats.corrupted += st.corrupted;
      s.stats.retimed += st.retimed;
    }
    if (s.buf.size() > old) {
      if (s.delivered == 0) s.first_rel = s.buf[old].rel_time;
      s.last_rel = s.buf.back().rel_time;
      const std::size_t got = s.buf.size() - old;
      s.delivered += got;
      delivered_ += got;
    }
    if (config_->one_loss_repair) {
      s.released = s.repair.ingest(s.buf, s.base);
    } else {
      s.released = s.base + s.buf.size();
    }
  }
  pump();
  // Compact consumed prefixes so the incremental mode's steady-state
  // footprint is the pending lookahead, not the whole window.  The
  // threshold trades memmove amortization against footprint: a fleet
  // holds one stream per (block, observer), so the consumed slack is
  // what dominates resident size in epoch-driven runs.
  for (Stream& s : streams_) {
    const std::size_t done = s.consumed - s.base;
    if (done > 512) {
      s.buf.erase(s.buf.begin(),
                  s.buf.begin() + static_cast<std::ptrdiff_t>(done));
      s.base = s.consumed;
    }
  }
}

std::int64_t BlockStream::lower_bound(const Stream& s) const noexcept {
  // Anything the stream may yet yield orders at or after: its first
  // unconsumed buffered observation (timestamp already final even while
  // its value is held by repair), else its prober's next round start
  // through the skew transform, else +inf once exhausted and drained.
  if (s.consumed < s.base + s.buf.size()) {
    return s.buf[s.consumed - s.base].rel_time;
  }
  if (!s.state.done) {
    return std::max<std::int64_t>(
        0, s.skew.transform(s.state.next_round - config_->window.start));
  }
  return std::numeric_limits<std::int64_t>::max();
}

void BlockStream::pump() {
  // Pops observations in the batch merge's total order (rel_time,
  // stream index) whenever no stream can still produce one ordering
  // before them.  Only the popped stream's bound moves while pumping,
  // so the others' bounds are computed once per call, and the best
  // stream pops its whole run of released observations that order
  // before the runner-up's (bound, index) — equal times go to the
  // lower stream index, as in the batch merge.
  const std::size_t n = streams_.size();
  if (n == 0) return;
  bounds_.resize(n);
  for (std::size_t i = 0; i < n; ++i) bounds_[i] = lower_bound(streams_[i]);
  for (;;) {
    std::size_t best = 0;
    std::size_t next = n;  // runner-up; n when there is none
    for (std::size_t i = 1; i < n; ++i) {
      if (bounds_[i] < bounds_[best]) {
        next = best;
        best = i;
      } else if (next == n || bounds_[i] < bounds_[next]) {
        next = i;
      }
    }
    Stream& s = streams_[best];
    // A watermark, an exhausted stream or a head held by repair blocks
    // every later observation.
    if (s.consumed >= s.released) return;
    const std::int64_t limit =
        next == n ? std::numeric_limits<std::int64_t>::max() : bounds_[next];
    const bool wins_ties = best < next;
    const probe::Observation* const first =
        s.buf.data() + (s.consumed - s.base);
    const probe::Observation* const stop = s.buf.data() + (s.released - s.base);
    const probe::Observation* last = first + 1;
    while (last != stop) {
      const std::int64_t rel = last->rel_time;
      if (rel > limit || (rel == limit && !wins_ties)) break;
      ++last;
    }
    // Before the fork, observations up to the classification end go to
    // recon_ alone; the first one past it forks classify_recon_.
    const probe::Observation* split = first;
    if (fork_pending_) {
      const std::int64_t classify_rel = classify_end_ - config_->window.start;
      split = std::partition_point(
          first, last, [classify_rel](const probe::Observation& o) {
            return static_cast<std::int64_t>(o.rel_time) <= classify_rel;
          });
      for (const probe::Observation* o = first; o != split; ++o) {
        recon_.push(*o);
      }
      if (split != last) fork_classify();
    }
    for (const probe::Observation* o = split; o != last; ++o) recon_.push(*o);
    if (classify_pending_ && !fork_pending_) {
      for (const probe::Observation* o = split; o != last; ++o) {
        classify_recon_.push(*o);
      }
    }
    s.consumed += static_cast<std::size_t>(last - first);
    bounds_[best] = lower_bound(s);
  }
}

void BlockStream::fork_classify() {
  classify_recon_.fork_from(recon_);
  fork_pending_ = false;
}

void BlockStream::fill_observers(
    std::vector<fault::ObserverStreamInfo>& out) const {
  out.assign(streams_.size(), {});
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Stream& s = streams_[i];
    auto& si = out[i];
    si.code = s.code;
    si.observations = s.delivered;
    si.faults = s.stats;
    if (s.delivered > 0) {
      si.first_rel = s.first_rel;
      si.last_rel = s.last_rel;
    }
  }
}

void BlockStream::drain_classify_tail() {
  // Every ingested round starts before classify_end, so each stream's
  // buffered tail already holds its final classification-window values:
  // a repair flip needs a rescan, and any rescan inside the
  // classification window has been ingested and applied.  Draining the
  // tails in merge order is therefore exactly the batch end-of-stream.
  std::vector<std::size_t> cursor(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    cursor[i] = streams_[i].consumed;
  }
  for (;;) {
    std::size_t best = streams_.size();
    std::uint32_t best_rel = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      if (cursor[i] >= s.base + s.buf.size()) continue;
      const std::uint32_t rel = s.buf[cursor[i] - s.base].rel_time;
      if (best == streams_.size() || rel < best_rel) {
        best = i;
        best_rel = rel;
      }
    }
    if (best == streams_.size()) break;
    const Stream& s = streams_[best];
    classify_recon_.push(s.buf[cursor[best] - s.base]);
    ++cursor[best];
  }
}

void BlockStream::finalize_classify(DegradedReconResult& out) {
  assert(classify_pending_);
  if (fork_pending_) fork_classify();
  drain_classify_tail();
  classify_recon_.finalize(out.recon);
  fill_observers(out.observers);
  classify_pending_ = false;
}

void BlockStream::finalize_classify_stats(DegradedReconStats& out) {
  assert(classify_pending_);
  if (fork_pending_) fork_classify();
  drain_classify_tail();
  classify_recon_.finalize_stats(out.recon);
  fill_observers(out.observers);
  classify_pending_ = false;
}

void BlockStream::finalize(DegradedReconResult& out) {
  advance_to(config_->window.end);
  if (config_->one_loss_repair) {
    for (Stream& s : streams_) s.released = s.repair.finish();
  }
  pump();
  recon_.finalize(out.recon);
  fill_observers(out.observers);
}

void BlockStream::finalize_stats(DegradedReconStats& out) {
  advance_to(config_->window.end);
  if (config_->one_loss_repair) {
    for (Stream& s : streams_) s.released = s.repair.finish();
  }
  pump();
  recon_.finalize_stats(out.recon);
  fill_observers(out.observers);
}

void BlockStream::save(util::StateWriter& w) const {
  w.boolean(classify_pending_);
  w.u64(delivered_);
  w.u64(streams_.size());
  for (const Stream& s : streams_) {
    w.i64(s.state.next_round);
    w.u64(s.state.cursor);
    w.i64(s.state.rounds_since_positive);
    w.boolean(s.state.done);
    w.i64(s.carry.trunc_round);
    w.boolean(s.carry.trunc_fired);
    w.boolean(s.carry.trunc_kept_first);
    w.u64(s.stats.input);
    w.u64(s.stats.dropped);
    w.u64(s.stats.corrupted);
    w.u64(s.stats.retimed);
    s.repair.save(w);
    // The pending buffer: timestamps are non-decreasing, so they
    // delta-encode to ~1 varint byte each.
    w.u64(s.buf.size());
    std::uint32_t prev_rel = 0;
    for (const probe::Observation& obs : s.buf) {
      w.u32(obs.rel_time - prev_rel);
      prev_rel = obs.rel_time;
      w.u8(obs.addr);
      w.boolean(obs.up);
    }
    w.u64(s.base);
    w.u64(s.released);
    w.u64(s.consumed);
    w.u64(s.delivered);
    w.u32(s.first_rel);
    w.u32(s.last_rel);
  }
  recon_.save(w);
  if (fork_pending_) {
    recon_.save_fork(w, classify_recon_);
  } else if (classify_pending_) {
    classify_recon_.save(w);
  }
}

void BlockStream::restore(util::StateReader& r) {
  const bool saved_classify_pending = r.boolean();
  // begin() ran in the same mode (classify_end decides); the saved pass
  // may additionally have retired its classification fork already.
  if (saved_classify_pending && !classify_pending_) {
    throw util::StateError(util::StateErrorKind::kBadValue,
                           "stream state was saved in union-window mode");
  }
  delivered_ = r.u64();
  if (r.u64() != streams_.size()) {
    throw util::StateError(util::StateErrorKind::kBadValue,
                           "stream state was saved with a different "
                           "observer set");
  }
  for (Stream& s : streams_) {
    s.state.next_round = r.i64();
    s.state.cursor = r.u64();
    s.state.rounds_since_positive = static_cast<int>(r.i64());
    s.state.done = r.boolean();
    s.carry.trunc_round = r.i64();
    s.carry.trunc_fired = r.boolean();
    s.carry.trunc_kept_first = r.boolean();
    s.stats.input = r.u64();
    s.stats.dropped = r.u64();
    s.stats.corrupted = r.u64();
    s.stats.retimed = r.u64();
    s.repair.restore(r);
    const std::uint64_t n = r.u64();
    s.buf.clear();
    std::uint32_t prev_rel = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      probe::Observation obs;
      obs.rel_time = prev_rel + r.u32();
      prev_rel = obs.rel_time;
      obs.addr = r.u8();
      obs.up = r.boolean();
      s.buf.push_back(obs);
    }
    s.base = r.u64();
    s.released = r.u64();
    s.consumed = r.u64();
    s.delivered = r.u64();
    s.first_rel = r.u32();
    s.last_rel = r.u32();
    if (s.consumed < s.base || s.released < s.base ||
        s.consumed > s.base + s.buf.size() ||
        s.released > s.base + s.buf.size()) {
      throw util::StateError(util::StateErrorKind::kBadValue,
                             "stream cursors outside the buffered range");
    }
  }
  recon_.restore(r);
  if (saved_classify_pending) {
    classify_recon_.restore(r);
  } else {
    classify_pending_ = false;
  }
  fork_pending_ = false;
}

std::size_t BlockStream::memory_bytes() const noexcept {
  std::size_t bytes = streams_.capacity() * sizeof(Stream) +
                      bounds_.capacity() * sizeof(std::int64_t);
  for (const auto& s : streams_) {
    bytes += s.buf.capacity() * sizeof(probe::Observation);
  }
  return bytes + recon_.memory_bytes() + classify_recon_.memory_bytes();
}

}  // namespace diurnal::recon
