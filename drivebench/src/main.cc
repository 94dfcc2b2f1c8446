// drivebench: one command per workload of the diurnal pipeline.
//
//   drivebench --workload <fleet-golden|shard-split> --seed <n>
//              --seconds <s> --trace <0|1> [--blocks <n>] [--work-dir <dir>]
//              [--fail-pass <n>]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}.  --trace 0 reports the end-to-end metrics of an untraced run,
// --trace 1 the per-layer metrics of a traced run.  --fail-pass makes one
// untraced pass throw, to test the failure path.  Exits 1 when an output
// fails its digest gate or a pass throws, 2 on bad arguments or an error.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "drivebench: %s\nusage: drivebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--blocks <n>] [--work-dir <dir>] "
               "[--fail-pass <n>]\n",
               msg);
  return 2;
}

bool parse_int(const std::string& s, long long lo, long long hi, long long& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  drivebench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_int(value, 0, (1LL << 62), v)) return usage("bad --seed");
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!parse_int(value, 1, 3600, v)) return usage("bad --seconds");
      opt.seconds = static_cast<double>(v);
    } else if (flag == "--trace") {
      if (!parse_int(value, 0, 1, v)) return usage("bad --trace");
      opt.trace = v == 1;
    } else if (flag == "--blocks") {
      if (!parse_int(value, 1, 10'000'000, v)) return usage("bad --blocks");
      opt.blocks = static_cast<int>(v);
    } else if (flag == "--fail-pass") {
      if (!parse_int(value, 0, 1'000'000, v)) return usage("bad --fail-pass");
      opt.fail_pass = static_cast<int>(v);
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    const drivebench::Result r = drivebench::run_workload(opt);
    std::printf("%s\n", r.json().c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drivebench: %s\n", e.what());
    return 2;
  }
}
