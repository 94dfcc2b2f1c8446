// Measurement plumbing shared by the drivebench workloads: clocks and
// process accounting, host warm-up, in-memory span tracing with
// self-time arithmetic, digest gates, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace drivebench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// CPU seconds charged to the whole process (every thread).
double process_cpu_s();

/// Peak resident set (VmHWM) of this process in MiB; 0 when /proc is
/// unavailable.
double peak_rss_mb();

/// Wall and process-CPU seconds of one timed phase.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Starts a wall+CPU stopwatch; stop() returns the elapsed pair.
class Stopwatch {
 public:
  Stopwatch() : wall0_(now_s()), cpu0_(process_cpu_s()) {}
  Timed stop() const { return {now_s() - wall0_, process_cpu_s() - cpu0_}; }

 private:
  double wall0_;
  double cpu0_;
};

/// Outcome of spinning the host until threads really run in parallel.
struct WarmUp {
  double seconds = 0.0;      ///< time spent warming up
  double parallelism = 0.0;  ///< last measured speed-up of the parallel spin
};

/// Spins `threads` threads (plus a one-thread reference spin) until the
/// parallel spin runs at least 0.8 * threads times the one-thread rate,
/// or `max_seconds` pass.  On a VM that has idled, the hypervisor can
/// run every vCPU of the guest on one physical core for about a second;
/// a timed phase started then measures the host, not the program.
WarmUp warm_up_host(unsigned threads, double max_seconds = 15.0);

/// What a pass run in a child process reports back.
struct ChildPass {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
};

/// Runs `pass` in `n` forked child processes, one after another, and
/// returns what each reported.  A child has done the parent's set-up but
/// none of its passes, so its pass is the first one of a fresh process.
/// Call only while this process runs no other thread.  Throws
/// std::runtime_error when a child fails.
std::vector<ChildPass> run_in_children(int n, const std::function<ChildPass()>& pass);

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty vector.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One traced interval.  `parent` indexes the enclosing span of the same
/// thread log (-1 for a root).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children.
std::vector<double> self_times(std::span<const Span> spans);

/// Spans recorded by one thread.  Not thread-safe: one log per thread.
class SpanLog {
 public:
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null log makes it a no-op (the spans-off pass).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Per-name self time over a set of thread logs.
struct TraceSummary {
  std::map<std::string, double> self_s;  ///< by span name, non-root spans
  double root_s = 0.0;     ///< summed duration of root spans (traced time)
  double covered_s = 0.0;  ///< summed self time of non-root spans

  /// Share of traced time attributed to a named layer span.
  double coverage() const { return root_s > 0.0 ? covered_s / root_s : 0.0; }
  double self(const std::string& name) const;
  void add(const std::vector<SpanLog>& logs);
};

/// Writes every span as CSV (log,name,start,end,parent) to `path`,
/// creating parent directories.  Returns false when the file cannot be
/// written.
bool write_spans_csv(const std::string& path,
                     const std::vector<const std::vector<SpanLog>*>& groups);

// ---------------------------------------------------------------------------
// Correctness.
// ---------------------------------------------------------------------------

/// The golden fleet digest of the 2004-block seed-1 world on 2020m1-ejnw.
inline constexpr std::uint64_t kGoldenDigest = 0xf94c66488def6938ULL;
/// The shard-split workload's digest at seed 1 and its default size.
inline constexpr std::uint64_t kShardSplitDigest = 0x981a8dccb506d1e5ULL;

/// Digests a run produced, each vouching for a number of operations
/// (passes, shards or epochs).
struct DigestLog {
  std::vector<std::uint64_t> got;
  std::vector<std::int64_t> weight;
  std::int64_t threw = 0;  ///< operations of passes that threw

  void add(std::uint64_t d, std::int64_t w) {
    got.push_back(d);
    weight.push_back(w);
  }
  /// Operations the digests vouch for.
  std::int64_t total() const;
  /// Operations whose digest differs from `expected`, plus those of
  /// passes that threw (each mismatch is also reported on stderr).
  /// `expected` is the pinned digest when the run uses the pinned world
  /// (seed 1 at the default size), otherwise the digest another drive
  /// produced on the same world.
  std::int64_t failed(std::uint64_t expected) const;
};

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result: every metric by name and unit, plus the
/// correctness verdict and the attempted/failed operation counts.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// One JSON object on one line (the last line of stdout).
  std::string json() const;
};

}  // namespace drivebench
