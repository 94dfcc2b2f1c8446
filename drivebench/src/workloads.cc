#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "core/snapshot_server.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "replay.h"
#include "sim/world.h"
#include "sim/world_slice.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/state_io.h"

namespace drivebench {

using namespace diurnal;
namespace fs = std::filesystem;

namespace {

// setup_s is the median of at least this many samples (see SetupSamples).
constexpr std::size_t kSetupReps = 15;
constexpr double kSetupSampleS = 0.01;
constexpr int kGoldenBlocks = 2000;  // + 4 special blocks = 2004
constexpr int kSplitBlocks = 10000;
// Cold passes in child processes (see ColdPasses).  fleet-golden's take
// about 0.3s, so it affords 8 of them, shard-split's take about 4s, so it
// affords 3.
constexpr int kGoldenColdChildren = 8;
constexpr int kSplitColdChildren = 3;
constexpr std::size_t kShardSize = 1024;
constexpr std::int64_t kServeEpoch = 6 * 3600;
constexpr unsigned kServeThreads = 2;
// Open-loop queries per second.  No measured deployment or cited source
// gives a query volume, so this is an assumption: the lowest round rate
// that puts the 9 queries that cover every query kind (see `query`) into
// the shortest publish intervals seen on the 4-vCPU reference host
// (about 33ms at the 1st percentile).
constexpr double kQueryRate = 300.0;
constexpr unsigned kQueryKinds = 5;

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

sim::WorldConfig world_config(const Options& o, int default_blocks) {
  sim::WorldConfig wc;
  wc.num_blocks = o.blocks > 0 ? o.blocks : default_blocks;
  wc.seed = o.seed;
  return wc;
}

bool pinned_world(const Options& o) {
  return o.seed == 1 && o.blocks == 0;
}

core::FleetConfig golden_config(unsigned threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = static_cast<int>(threads);
  return fc;
}

// The paper's section 3.4 split: classify on 2020m1, detect on 2020h1,
// with correlated burst loss on every observer (a plan without clock
// skew, so the two windows share one observation pass).
core::FleetConfig split_config(unsigned threads) {
  core::FleetConfig fc;
  fc.classify_dataset = core::dataset("2020m1-ejnw");
  fc.dataset = core::dataset("2020h1-ejnw");
  fc.faults = fault::scenario("bursts", fc.dataset.window());
  fc.threads = static_cast<int>(threads);
  return fc;
}

/// Samples of a workload's set-up time.  A sample repeats the set-up for
/// kSetupSampleS and reports the mean, because one set-up takes
/// microseconds (shard-split) to about a millisecond.  The reference
/// host's speed moves by a quarter from one second to the next, so
/// samples taken in one burst would time one moment of the host: a third
/// are taken before the timed phase, one between passes when one is due,
/// and the rest after it.
class SetupSamples {
 public:
  explicit SetupSamples(std::function<void()> build) : build_(std::move(build)) {
    while (t_.size() < kSetupReps / 3) take();
  }
  void take() {
    const double t0 = now_s();
    int n = 0;
    double dt = 0.0;
    do {
      build_();
      ++n;
    } while ((dt = now_s() - t0) < kSetupSampleS);
    t_.push_back(dt / n);
    last_ = now_s();
  }
  /// Takes a sample when `every` seconds have passed since the last one.
  void take_if_due(double every) {
    if (now_s() - last_ >= every) take();
  }
  /// The median, after topping the samples up to kSetupReps.
  double median() {
    while (t_.size() < kSetupReps) take();
    return drivebench::median(t_);
  }

 private:
  std::function<void()> build_;
  std::vector<double> t_;
  double last_ = 0.0;
};

/// First passes in fresh processes: forked children that have done the
/// set-up.  A first pass is one sample per process, so more processes
/// make the cold figure a median, and the children are spread evenly over
/// the timed phase, so that one moment of the host does not decide it.
class ColdPasses {
 public:
  /// `pass` runs in each of `n` children; the digest each reports joins
  /// `log`, vouching for `ops` operations.
  ColdPasses(int n, std::function<ChildPass()> pass, DigestLog& log,
             std::int64_t ops)
      : n_(n), pass_(std::move(pass)), log_(log), ops_(ops) {}
  /// Runs the children due `elapsed` seconds into a phase of `seconds`:
  /// child i is due at i * seconds / n.
  void run_due(double elapsed, double seconds) {
    while (static_cast<int>(wall_.size()) < n_ &&
           elapsed >= seconds * static_cast<double>(wall_.size()) / n_) {
      const ChildPass c = run_in_children(1, pass_).front();
      wall_.push_back(c.wall_s);
      log_.add(c.digest, ops_);
    }
  }
  double median_wall() const { return median(wall_); }

 private:
  int n_;
  std::function<ChildPass()> pass_;
  DigestLog& log_;
  std::int64_t ops_;
  std::vector<double> wall_;
};

/// Thrown by a pass that Options::fail_pass asks to fail.
[[noreturn]] void injected_failure() {
  throw std::runtime_error("injected pass failure (--fail-pass)");
}

std::size_t dir_bytes(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += static_cast<std::size_t>(e.file_size(ec));
  }
  return n;
}

/// A fresh, empty directory under the work dir; removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& work_dir, const std::string& tag)
      : path_(fs::path(work_dir) /
              (tag + "-" + std::to_string(static_cast<long>(::getpid())))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Metric sets.  Every workload reports every metric of a set, so a run's
// output always has the same names and units.
// ---------------------------------------------------------------------------

struct EndToEnd {
  double setup_s = 0.0;
  double units = 0.0;             ///< blocks per pass
  std::vector<double> warm_wall;  ///< per warm pass
  std::vector<double> warm_cpu;
  double cold_wall_s = 0.0;
  std::vector<double> epoch_s;  ///< publish intervals (passes for batch)
  double peak_rss_mb = 0.0;
  std::int64_t ops = 0, ops_failed = 0;
};

/// What one timed pass reports.
struct PassOut {
  Timed t;
  std::uint64_t digest = 0;
  std::int64_t ops = 1;  ///< operations the digest vouches for
};

/// The untraced timed phase shared by the drives: passes run here (at
/// least two, all warm) while `cold` runs its children between them.
/// The phase ends by `seconds`: a pass starts only when one of the median
/// length so far still ends in time.  `pass(fail)` runs one pass and
/// throws when `fail` is set, which happens for the in-process pass
/// numbered `fail_pass`.  A pass that throws is reported on stderr and
/// counts as `ops_per_pass` failed operations.  Peak RSS is taken per
/// pass and reported as the median when the kernel lets the high-water
/// mark be reset, else as the process peak.  Set-up samples are taken
/// between passes, outside their timing.
template <typename Pass>
void timed_phase(double seconds, ColdPasses& cold, int fail_pass,
                 std::int64_t ops_per_pass, SetupSamples& setup,
                 DigestLog& digests, EndToEnd& e, Pass&& pass) {
  const double t0 = now_s();
  std::vector<double> rss, step;
  const bool per_pass_rss = util::peak_reset_supported();
  for (int n = 0; n < 2 || now_s() - t0 + median(step) <= seconds; ++n) {
    const double s0 = now_s();
    cold.run_due(s0 - t0, seconds);
    if (n > 0) setup.take_if_due(seconds / kSetupReps);
    if (per_pass_rss) util::reset_peak_rss();
    PassOut p;
    try {
      p = pass(n == fail_pass);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "pass failed: %s\n", ex.what());
      digests.threw += ops_per_pass;
      step.push_back(now_s() - s0);
      continue;
    }
    step.push_back(now_s() - s0);
    digests.add(p.digest, p.ops);
    rss.push_back(peak_rss_mb());
    std::fprintf(stderr, "pass %d: wall %.3fs cpu %.3fs\n", n, p.t.wall_s,
                 p.t.cpu_s);
    e.warm_wall.push_back(p.t.wall_s);
    e.warm_cpu.push_back(p.t.cpu_s);
  }
  cold.run_due(seconds, seconds);
  e.setup_s = setup.median();
  e.cold_wall_s = cold.median_wall();
  e.peak_rss_mb = per_pass_rss ? median(rss) : peak_rss_mb();
  e.ops = digests.total();
}

void emit(Result& r, const EndToEnd& e) {
  const double wall = median(e.warm_wall);
  const double cpu = median(e.warm_cpu);
  r.add("setup_s", e.setup_s, "s");
  r.add("blocks_per_s", wall > 0 ? e.units / wall : 0.0, "1/s");
  r.add("blocks_per_cpu_s", cpu > 0 ? e.units / cpu : 0.0, "1/s");
  r.add("cold_wall_s", e.cold_wall_s, "s");
  r.add("peak_rss_mb", e.peak_rss_mb, "MiB");
  r.add("epoch_p50_ms", 1e3 * quantile(e.epoch_s, 0.5), "ms");
  r.add("epoch_p90_ms", 1e3 * quantile(e.epoch_s, 0.9), "ms");
  r.add("ok_frac",
        e.ops > 0 ? 1.0 - static_cast<double>(e.ops_failed) /
                              static_cast<double>(e.ops)
                  : 0.0,
        "frac");
  r.attempted = e.ops;
  r.failed = e.ops_failed;
  r.correct = r.failed == 0;
}

struct Layers {
  TraceSummary prod, stage;  ///< medians per name over traced passes
  PassCounts prod_counts, stage_counts;
  double sim_build_s = 0.0;
  double peak_resident_bytes = 0.0, ckpt_bytes = 0.0;
  double advance_ms_p50 = 0.0, save_ms_p50 = 0.0, image_bytes = 0.0;
  double rows_ms_p50 = 0.0, snapshot_bytes = 0.0, feed_waits = 0.0;
  double query_us_p50 = 0.0, query_us_p99 = 0.0, queries = 0.0;
  double gen_late_ms_max = 0.0;
  double coverage = 0.0, overhead_frac = 0.0;
  double warmup_s = 0.0, parallelism = 0.0;
};

void emit(Result& r, const Layers& l) {
  const double probe_s = l.stage.self("probe");
  const double fault_s = l.stage.self("fault");
  const double stage_sum = probe_s + fault_s + l.stage.self("recon.repair") +
                           l.stage.self("recon.merge") +
                           l.stage.self("recon.reconstruct");
  const double stream_s = l.prod.self("recon.stream");
  const auto& pc = l.prod_counts;
  const auto& sc = l.stage_counts;
  r.add("probe.busy_s", probe_s, "s");
  r.add("probe.probes", static_cast<double>(sc.probes), "count");
  r.add("probe.probes_per_s",
        probe_s > 0 ? static_cast<double>(sc.probes) / probe_s : 0.0, "1/s");
  r.add("recon.stream_s", stream_s, "s");
  r.add("recon.repair_s", l.stage.self("recon.repair"), "s");
  r.add("recon.repairs", static_cast<double>(sc.repairs), "count");
  r.add("recon.merge_s", l.stage.self("recon.merge"), "s");
  r.add("recon.reconstruct_s", l.stage.self("recon.reconstruct"), "s");
  r.add("recon.samples", static_cast<double>(pc.samples), "count");
  r.add("fault.busy_s", fault_s, "s");
  r.add("fault.obs_kept_frac",
        sc.fault_input > 0 ? static_cast<double>(sc.fault_kept) /
                                 static_cast<double>(sc.fault_input)
                           : 1.0,
        "frac");
  r.add("core.classify_s", l.prod.self("core.classify"), "s");
  r.add("core.classified", static_cast<double>(pc.classified), "count");
  r.add("core.detect_s", l.prod.self("core.detect"), "s");
  r.add("core.detect_samples", static_cast<double>(pc.detect_samples), "count");
  r.add("sim.build_s", l.sim_build_s, "s");
  r.add("sim.materialize_s", l.prod.self("sim.materialize"), "s");
  r.add("shard.peak_resident_bytes", l.peak_resident_bytes, "B");
  r.add("util.ckpt_bytes", l.ckpt_bytes, "B");
  r.add("core.advance_ms_p50", l.advance_ms_p50, "ms");
  r.add("util.save_ms_p50", l.save_ms_p50, "ms");
  r.add("util.image_bytes", l.image_bytes, "B");
  r.add("snapshot.rows_ms_p50", l.rows_ms_p50, "ms");
  r.add("snapshot.bytes", l.snapshot_bytes, "B");
  r.add("snapshot.feed_waits", l.feed_waits, "count");
  r.add("snapshot.query_us_p50", l.query_us_p50, "us");
  r.add("snapshot.query_us_p99", l.query_us_p99, "us");
  r.add("snapshot.queries", l.queries, "count");
  r.add("snapshot.gen_late_ms_max", l.gen_late_ms_max, "ms");
  r.add("geo.aggregate_s", l.prod.self("geo.aggregate"), "s");
  r.add("trace.coverage", l.coverage, "frac");
  r.add("trace.overhead_frac", l.overhead_frac, "frac");
  r.add("trace.path_gap", stream_s > 0 ? stage_sum / stream_s : 0.0, "frac");
  r.add("host.warmup_s", l.warmup_s, "s");
  r.add("host.parallelism", l.parallelism, "x");
}

/// Per-name medians over several traced passes.
TraceSummary median_summary(const std::vector<TraceSummary>& runs) {
  TraceSummary m;
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> root, covered;
  for (const auto& s : runs) {
    for (const auto& [name, v] : s.self_s) by_name[name].push_back(v);
    root.push_back(s.root_s);
    covered.push_back(s.covered_s);
  }
  for (auto& [name, v] : by_name) m.self_s[name] = median(v);
  m.root_s = median(root);
  m.covered_s = median(covered);
  return m;
}

// ---------------------------------------------------------------------------
// Traced replays shared by every workload.
// ---------------------------------------------------------------------------

struct ReplayTrace {
  std::vector<TraceSummary> prod, stage;
  std::vector<double> on_wall, off_wall;
  PassCounts prod_counts, stage_counts;
  std::vector<SpanLog> prod_logs, stage_logs;  ///< last traced pass
};

/// One round: production order with spans off and on (alternating which
/// runs first, so neither side always gets the warmer caches), then, in
/// the first round only, the stage view (its whole-window calls make it
/// the slowest pass).  The production outcomes join `digests`.
void replay_round(const core::FleetConfig& fc, const Population& pop,
                  unsigned threads, ReplayTrace& t, DigestLog& digests) {
  core::FleetResult res;
  core::ChangeAggregator agg;
  const bool on_first = t.on_wall.size() % 2 == 1;
  for (int k = 0; k < 2; ++k) {
    const bool on = (k == 0) == on_first;
    const double t0 = now_s();
    const PassCounts c = replay_production(
        fc, pop, threads, on ? &t.prod_logs : nullptr, res, agg);
    (on ? t.on_wall : t.off_wall).push_back(now_s() - t0);
    digests.add(core::fleet_digest(res), 1);
    if (on) t.prod_counts = c;
  }
  TraceSummary s;
  s.add(t.prod_logs);
  t.prod.push_back(s);
  if (!t.stage.empty()) return;

  t.stage_counts = replay_stages(fc, pop, threads, &t.stage_logs);
  TraceSummary ss;
  ss.add(t.stage_logs);
  t.stage.push_back(ss);
}

/// Replays rounds until `end` (a now_s() time): a round starts only when
/// one of the median length so far still ends in time; at least one runs.
void replay_until(double end, const core::FleetConfig& fc, const Population& pop,
                  unsigned threads, ReplayTrace& t, DigestLog& digests) {
  std::vector<double> round_s;
  do {
    const double r0 = now_s();
    replay_round(fc, pop, threads, t, digests);
    round_s.push_back(now_s() - r0);
  } while (now_s() + median(round_s) <= end);
}

void finish_trace(const ReplayTrace& t, Layers& l,
                  const std::vector<SpanLog>* extra) {
  l.prod = median_summary(t.prod);
  l.stage = median_summary(t.stage);
  l.prod_counts = t.prod_counts;
  l.stage_counts = t.stage_counts;
  TraceSummary all;
  all.add(t.prod_logs);
  all.add(t.stage_logs);
  if (extra != nullptr) all.add(*extra);
  l.coverage = all.coverage();
  const double off = median(t.off_wall);
  l.overhead_frac = off > 0 ? median(t.on_wall) / off - 1.0 : 0.0;
}

void dump_spans(const Options& o, const ReplayTrace& t,
                const std::vector<SpanLog>* extra) {
  std::vector<const std::vector<SpanLog>*> groups{&t.prod_logs, &t.stage_logs};
  if (extra != nullptr) groups.push_back(extra);
  const std::string path = o.work_dir + "/trace-" + o.workload + ".csv";
  if (!write_spans_csv(path, groups)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Serve layers
// ---------------------------------------------------------------------------

struct ServePass {
  std::uint64_t digest = 0;
  std::vector<double> snapshot_bytes;
  std::vector<double> query_us;  ///< from due time to answer
  std::int64_t queries = 0, queries_failed = 0;
  double late_max_s = 0.0;  ///< worst generator lateness
  core::ServeStats stats;
};

/// One query against a pinned snapshot; false when the answer is
/// missing or inconsistent with the served world.
bool answer(const core::EpochSnapshot& snap, const sim::BlockProfile& b,
            std::size_t n_blocks, unsigned kind, std::uint64_t& sink) {
  switch (kind) {
    case 0: {
      const auto* row = snap.block(b.id);
      if (row == nullptr) return false;
      sink += row->delivered;
      return true;
    }
    case 1: {
      const auto tr = snap.trend(b.id);
      if (!tr.empty()) sink += static_cast<std::uint64_t>(tr.back());
      return snap.block(b.id) != nullptr;
    }
    case 2:
      sink += snap.alarms_for(b.id).size();
      return snap.block(b.id) != nullptr;
    case 3: {
      const auto* cs = snap.cell(b.cell());
      if (cs == nullptr) return false;
      sink += static_cast<std::uint64_t>(cs->alarms_down);
      return true;
    }
    default:
      sink += snap.scorecard().blocks_classified;
      return snap.scorecard().blocks == n_blocks;
  }
}

core::ServeConfig serve_config() {
  core::ServeConfig cfg;
  cfg.epoch_duration = kServeEpoch;
  cfg.feed_capacity = 4;
  return cfg;
}

/// One served run from construction to drain, with the query thread.
ServePass serve_pass(const sim::World& world, const core::FleetConfig& fc,
                     std::uint64_t query_seed) {
  ServePass p;
  const auto& blocks = world.blocks();
  core::SnapshotServer server(world, fc, serve_config());
  std::atomic<bool> stop{false};

  // Records the size of each epoch snapshot as it becomes visible
  // (blocked, not busy).  After stop() the registry hands back its last
  // snapshot at once, so the loop also ends on `stop`.
  auto watch = [&] {
    std::size_t last = ~std::size_t{0};
    for (std::uint64_t v = 1;; ++v) {
      const auto snap = server.wait_for_epoch(v);
      if (snap == nullptr || snap->final_epoch()) break;
      if (snap->epoch_index() == last) {
        if (stop.load()) break;
        continue;
      }
      last = snap->epoch_index();
      p.snapshot_bytes.push_back(static_cast<double>(snap->bytes()));
    }
  };
  // Paced open loop: query k is due at start + k / rate, whether or not
  // earlier queries were answered; latency counts from the due time.
  // Each run of kQueryKinds queries asks every kind once, in an order
  // shuffled from the seed, so any 2 * kQueryKinds - 1 consecutive
  // queries cover every kind; the block is drawn from the seed too.
  auto query = [&] {
    if (server.wait_for_epoch(1) == nullptr) return;
    util::Xoshiro256 rng(query_seed);
    std::array<unsigned, kQueryKinds> kinds{};
    for (unsigned i = 0; i < kQueryKinds; ++i) kinds[i] = i;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::int64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(k) /
                                                    kQueryRate));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) break;
      const auto began = Clock::now();
      p.late_max_s = std::max(
          p.late_max_s, std::chrono::duration<double>(began - due).count());
      const std::size_t slot = static_cast<std::size_t>(k) % kQueryKinds;
      if (slot == 0) {
        for (std::size_t i = kQueryKinds - 1; i > 0; --i) {
          std::swap(kinds[i], kinds[rng() % (i + 1)]);
        }
      }
      const auto& b = blocks[rng() % blocks.size()];
      const auto snap = server.snapshot();
      const bool ok =
          snap != nullptr && answer(*snap, b, blocks.size(), kinds[slot], sink);
      p.query_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due).count());
      ++p.queries;
      if (!ok) ++p.queries_failed;
    }
    if (sink == 0x5eed) std::fputs("", stderr);  // keep the answers live
  };

  std::thread watcher, querier;
  auto join_all = [&] {
    stop.store(true);
    if (watcher.joinable()) watcher.join();
    if (querier.joinable()) querier.join();
  };
  core::FleetResult res;
  try {
    watcher = std::thread(watch);
    querier = std::thread(query);
    server.start();
    server.feed_all();
    res = server.drain();
  } catch (...) {
    server.stop();
    join_all();
    throw;
  }
  join_all();
  p.digest = core::fleet_digest(res);
  p.stats = server.stats();
  return p;
}

/// The serve layers, measured in fleet-golden's traced run on the same
/// world: one served run with the query thread gives the snapshot.*
/// numbers, then a bare StreamingFleet advanced 6 hours at a time times
/// advance_to, save and extract_rows on their own.  Both drained digests
/// join `digests`.  Returns the queries that failed.
std::int64_t serve_layers(const sim::World& world, std::uint64_t query_seed,
                          Layers& l, SpanLog* log, DigestLog& digests) {
  const auto fc = golden_config(kServeThreads);
  const ServePass p = serve_pass(world, fc, query_seed);
  digests.add(p.digest, 1);
  l.snapshot_bytes = median(p.snapshot_bytes);
  l.feed_waits = static_cast<double>(p.stats.feed_waits);
  l.query_us_p50 = quantile(p.query_us, 0.5);
  l.query_us_p99 = quantile(p.query_us, 0.99);
  l.queries = static_cast<double>(p.queries);
  l.gen_late_ms_max = 1e3 * p.late_max_s;

  // The engine epoch by epoch, each publish step timed on its own.
  core::StreamingFleet eng(world.blocks(), fc);
  std::vector<core::StreamingFleet::BlockSnapshotRow> rows;
  std::vector<double> adv, save, extract, image;
  for (util::SimTime t = eng.window_start() + kServeEpoch;; t += kServeEpoch) {
    const util::SimTime tick = std::min(t, eng.window_end());
    Scope root(log, "epoch");
    const double a0 = now_s();
    {
      Scope span(log, "core.advance");
      eng.advance_to(tick);
    }
    const double a1 = now_s();
    {
      Scope span(log, "util.save");
      util::StateWriter w;
      eng.save(w);
      image.push_back(static_cast<double>(w.bytes().size()));
    }
    const double a2 = now_s();
    {
      Scope span(log, "snapshot.rows");
      eng.extract_rows(rows);
    }
    adv.push_back(a1 - a0);
    save.push_back(a2 - a1);
    extract.push_back(now_s() - a2);
    if (tick >= eng.window_end()) break;
  }
  {
    Scope root(log, "drain");
    Scope span(log, "core.finalize");
    digests.add(core::fleet_digest(eng.finalize()), 1);
  }
  l.advance_ms_p50 = 1e3 * median(adv);
  l.save_ms_p50 = 1e3 * median(save);
  l.rows_ms_p50 = 1e3 * median(extract);
  l.image_bytes = median(image);
  return p.queries_failed;
}

// ---------------------------------------------------------------------------
// fleet-golden
// ---------------------------------------------------------------------------

Result fleet_golden(const Options& o) {
  const unsigned threads = nproc();
  const auto wc = world_config(o, kGoldenBlocks);
  const auto fc = golden_config(threads);
  const WarmUp warm = warm_up_host(threads);
  const sim::World world(wc);
  SetupSamples setup([&] { const sim::World w(wc); });
  EndToEnd e;
  e.units = static_cast<double>(world.blocks().size());
  Result r;
  DigestLog digests;

  if (!o.trace) {
    auto pass = [&](bool fail) {
      const Stopwatch sw;
      const auto res = core::run_fleet(world, fc);
      if (fail) injected_failure();
      return PassOut{sw.stop(), core::fleet_digest(res), 1};
    };
    ColdPasses cold(kGoldenColdChildren, [&] {
      const PassOut p = pass(false);
      return ChildPass{p.t.wall_s, p.digest};
    }, digests, 1);
    timed_phase(o.seconds, cold, o.fail_pass, 1, setup, digests, e, pass);
    e.epoch_s = e.warm_wall;
    // batch == sharded on any world without a pinned digest.
    auto sharded = [&] {
      core::ShardConfig sc;
      sc.shard_size = kShardSize;
      return core::fleet_digest(core::run_sharded_fleet(wc, fc, sc).fleet);
    };
    e.ops_failed = digests.failed(pinned_world(o) ? kGoldenDigest : sharded());
    emit(r, e);
    return r;
  }

  Layers l;
  l.sim_build_s = setup.median();
  l.warmup_s = warm.seconds;
  l.parallelism = warm.parallelism;
  const double t0 = now_s();
  std::vector<SpanLog> epoch_logs(1);
  r.failed = serve_layers(world, util::derive_seed(o.seed, 0x5e57e, 6), l,
                          &epoch_logs[0], digests);
  ReplayTrace t;
  const Population pop{world.blocks(), nullptr, 0};
  replay_until(t0 + o.seconds, fc, pop, threads, t, digests);
  const std::uint64_t expected =
      pinned_world(o) ? kGoldenDigest
                      : core::fleet_digest(core::run_fleet(world, fc));
  finish_trace(t, l, &epoch_logs);
  dump_spans(o, t, &epoch_logs);
  r.attempted = digests.total() + static_cast<std::int64_t>(l.queries);
  r.failed += digests.failed(expected);
  r.correct = r.failed == 0;
  emit(r, l);
  return r;
}

// ---------------------------------------------------------------------------
// shard-split
// ---------------------------------------------------------------------------

Result shard_split(const Options& o) {
  const unsigned threads = nproc();
  const auto wc = world_config(o, kSplitBlocks);
  const WarmUp warm = warm_up_host(threads);
  // What run_sharded_fleet needs before its first shard: the block
  // generator, the configuration with its fault plan, and the work
  // directory.  The blocks themselves are materialized inside each pass.
  const sim::BlockGenerator gen(wc);
  const core::FleetConfig fc = split_config(threads);
  fs::create_directories(o.work_dir);
  SetupSamples setup([&] {
    const sim::BlockGenerator g(wc);
    const core::FleetConfig c = split_config(threads);
    fs::create_directories(o.work_dir);
  });
  EndToEnd e;
  const std::size_t total = gen.total_blocks();
  e.units = static_cast<double>(total);
  core::ShardConfig sc;
  sc.shard_size = kShardSize;
  // One resident shard at a time with nproc threads inside it: shards
  // finish within a block chunk of each other, where concurrent shard
  // workers leave threads idle while the last shards of a pass run.
  sc.max_resident = 1;
  const std::int64_t n_shards =
      static_cast<std::int64_t>((total + kShardSize - 1) / kShardSize);
  Result r;
  DigestLog digests;

  // One sharded pass into a fresh checkpoint directory; the directory
  // is created and removed outside the timed region.
  auto sharded_pass = [&](core::ShardStats* stats, std::size_t* ckpt_bytes,
                          bool fail) {
    TempDir dir(o.work_dir, "ckpt");
    auto shard_cfg = sc;
    shard_cfg.checkpoint_dir = dir.path().string();
    const Stopwatch sw;
    const auto res = core::run_sharded_fleet(gen, fc, shard_cfg);
    const Timed t = sw.stop();
    if (fail) injected_failure();
    if (stats != nullptr) *stats = res.stats;
    if (ckpt_bytes != nullptr) *ckpt_bytes = dir_bytes(dir.path());
    return PassOut{t, core::fleet_digest(res.fleet),
                   static_cast<std::int64_t>(res.stats.completed_shards)};
  };
  // sharded == batch on any world without a pinned digest.
  auto expected = [&] {
    if (pinned_world(o)) return kShardSplitDigest;
    const sim::World world(wc);
    return core::fleet_digest(core::run_fleet(world, fc));
  };

  if (!o.trace) {
    ColdPasses cold(kSplitColdChildren, [&] {
      const PassOut p = sharded_pass(nullptr, nullptr, false);
      return ChildPass{p.t.wall_s, p.digest};
    }, digests, n_shards);
    timed_phase(o.seconds, cold, o.fail_pass, n_shards, setup, digests, e,
                [&](bool fail) { return sharded_pass(nullptr, nullptr, fail); });
    e.epoch_s = e.warm_wall;
    e.ops_failed = digests.failed(expected());
    emit(r, e);
    return r;
  }

  Layers l;
  l.sim_build_s = setup.median();
  l.warmup_s = warm.seconds;
  l.parallelism = warm.parallelism;
  const double t0 = now_s();
  core::ShardStats stats;
  std::size_t ckpt_bytes = 0;
  const PassOut first = sharded_pass(&stats, &ckpt_bytes, false);
  digests.add(first.digest, 1);
  l.peak_resident_bytes = static_cast<double>(stats.peak_resident_bytes);
  l.ckpt_bytes = static_cast<double>(ckpt_bytes);
  ReplayTrace t;
  const Population pop{{}, &gen, kShardSize};
  replay_until(t0 + o.seconds, fc, pop, threads, t, digests);
  finish_trace(t, l, nullptr);
  dump_spans(o, t, nullptr);
  r.attempted = digests.total();
  r.failed = digests.failed(expected());
  r.correct = r.failed == 0;
  emit(r, l);
  return r;
}

}  // namespace

Result run_workload(const Options& opt) {
  if (opt.workload == "fleet-golden") return fleet_golden(opt);
  if (opt.workload == "shard-split") return shard_split(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace drivebench
