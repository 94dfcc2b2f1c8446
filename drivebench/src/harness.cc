#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "util/mem.h"

namespace drivebench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  const auto m = diurnal::util::read_memory_usage();
  return m.valid ? static_cast<double>(m.peak_rss_kb) / 1024.0 : 0.0;
}

namespace {

// A fixed amount of register-only work; the result is consumed so the
// loop cannot be folded away.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_spin_sink{0};

}  // namespace

WarmUp warm_up_host(unsigned threads, double max_seconds) {
  WarmUp w;
  const double t0 = now_s();
  threads = std::max(1u, threads);
  // Calibrate one spin to about 20ms of one-thread work.
  std::uint64_t iters = 1 << 20;
  for (;;) {
    const double s0 = now_s();
    g_spin_sink += spin(iters, 7);
    const double dt = now_s() - s0;
    if (dt >= 0.005 || iters >= (1ULL << 34)) {
      iters = static_cast<std::uint64_t>(static_cast<double>(iters) *
                                         (0.02 / std::max(dt, 1e-6)));
      iters = std::max<std::uint64_t>(iters, 1 << 16);
      break;
    }
    iters *= 4;
  }
  const double target = 0.8 * static_cast<double>(threads);
  int good = 0;
  while (now_s() - t0 < max_seconds) {
    const double s0 = now_s();
    g_spin_sink += spin(iters, 11);
    const double one = now_s() - s0;
    const double p0 = now_s();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    try {
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([iters, t] { g_spin_sink += spin(iters, 13 + t); });
      }
    } catch (...) {
      for (auto& th : pool) th.join();
      throw;
    }
    for (auto& th : pool) th.join();
    const double par = now_s() - p0;
    w.parallelism = static_cast<double>(threads) * one / std::max(par, 1e-9);
    // Two consecutive good rounds: one can be a lucky slice.
    good = w.parallelism >= target ? good + 1 : 0;
    if (good >= 2) break;
  }
  w.seconds = now_s() - t0;
  return w;
}

std::vector<ChildPass> run_in_children(int n, const std::function<ChildPass()>& pass) {
  std::vector<ChildPass> out;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      ::close(fds[0]);
      int code = 3;
      try {
        const ChildPass p = pass();
        code = ::write(fds[1], &p, sizeof p) == sizeof p ? 0 : 4;
      } catch (...) {
      }
      ::_exit(code);  // no atexit handlers or stdio flushes of the parent's state
    }
    ::close(fds[1]);
    ChildPass p;
    std::size_t got = 0;
    while (got < sizeof p) {
      const ssize_t r =
          ::read(fds[0], reinterpret_cast<char*>(&p) + got, sizeof p - got);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != sizeof p || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("cold pass in a child process failed");
    }
    out.push_back(p);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---------------------------------------------------------------------------

std::vector<double> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> out(spans.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const double a = std::max(s.start, spans[c].start);
      const double b = std::min(s.end, spans[c].end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    out[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

std::int32_t SpanLog::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double TraceSummary::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

void TraceSummary::add(const std::vector<SpanLog>& logs) {
  for (const SpanLog& log : logs) {
    const auto& spans = log.spans();
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) {
        root_s += spans[i].end - spans[i].start;
      } else {
        self_s[spans[i].name] += self[i];
        covered_s += self[i];
      }
    }
  }
}

bool write_spans_csv(const std::string& path,
                     const std::vector<const std::vector<SpanLog>*>& groups) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream f(path);
  if (!f) return false;
  f << "log,name,start,end,parent\n";
  char buf[256];
  std::size_t log_id = 0;
  for (const auto* group : groups) {
    for (const SpanLog& log : *group) {
      for (const Span& s : log.spans()) {
        std::snprintf(buf, sizeof buf, "%zu,%s,%.9f,%.9f,%d\n", log_id, s.name,
                      s.start, s.end, s.parent);
        f << buf;
      }
      ++log_id;
    }
  }
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------

std::int64_t DigestLog::total() const {
  std::int64_t n = threw;
  for (const std::int64_t w : weight) n += w;
  return n;
}

std::int64_t DigestLog::failed(std::uint64_t expected) const {
  std::int64_t n = threw;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == expected) continue;
    std::fprintf(stderr, "digest %016llx, expected %016llx\n",
                 static_cast<unsigned long long>(got[i]),
                 static_cast<unsigned long long>(expected));
    n += weight[i];
  }
  return n;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a non-finite value is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace drivebench
