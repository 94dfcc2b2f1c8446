// diurnal_serve — the always-on observatory demo over a synthetic
// world:
//
//   diurnal_serve [--blocks N] [--seed S] [--dataset D] [--fault SC]
//                 [--epoch DUR] [--readers R] [--feed-capacity C]
//                 [--threads T] [--no-image]
//                 [--checkpoint-dir DIR] [--resume] [--stop-after K]
//
// Runs core::SnapshotServer: a single writer ingests the world epoch by
// epoch (--epoch=1d, 6h, ...) and publishes an immutable snapshot per
// epoch while --readers threads concurrently answer a rotating mix of
// block/trend/alarm/gridcell/scorecard queries against their pinned
// snapshot.  Each epoch prints the scorecard line an analyst would
// watch; on completion the feed drains, the engine finalizes (bit-
// identical to the batch drive) and the funnel, fleet digest and
// reader latency distribution are reported.
//
// Shutdown semantics: SIGINT (or --stop-after K epochs) stops the
// writer in place; with --checkpoint-dir the latest snapshot's engine
// image is persisted (plus a fingerprint sidecar) and a later --resume
// continues the run from that epoch, finalizing to the same digest as
// an uninterrupted run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/snapshot_server.h"
#include "fault/fault_plan.h"
#include "sim/world.h"
#include "util/date.h"
#include "util/state_io.h"

#include "args.h"

using namespace diurnal;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Args {
  int blocks = 2000;
  std::uint64_t seed = 1;
  std::string dataset = "2020m1-ejnw";
  std::optional<std::string> fault_scenario;
  std::int64_t epoch = util::kSecondsPerDay;
  int readers = 4;
  std::size_t feed_capacity = 4;
  int threads = 0;
  bool keep_image = true;
  std::optional<std::string> checkpoint_dir;
  bool resume = false;
  std::size_t stop_after = 0;  ///< 0 = run to the window end
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: diurnal_serve [--blocks N] [--seed S] [--dataset D]\n"
      "                     [--fault SCENARIO] [--epoch DUR] [--readers R]\n"
      "                     [--feed-capacity C] [--threads T] [--no-image]\n"
      "                     [--checkpoint-dir DIR] [--resume]\n"
      "                     [--stop-after K]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--blocks") a.blocks = tools::int_flag(flag, value(), 1);
    else if (flag == "--seed")
      a.seed = tools::int_flag<std::uint64_t>(flag, value());
    else if (flag == "--dataset") a.dataset = value();
    else if (flag == "--fault") a.fault_scenario = value();
    else if (flag == "--epoch") a.epoch = tools::duration_flag(flag, value());
    else if (flag == "--readers") a.readers = tools::int_flag(flag, value(), 0);
    else if (flag == "--feed-capacity")
      a.feed_capacity = tools::int_flag<std::size_t>(flag, value(), 1);
    else if (flag == "--threads") a.threads = tools::int_flag(flag, value(), 0);
    else if (flag == "--no-image") a.keep_image = false;
    else if (flag == "--checkpoint-dir") a.checkpoint_dir = value();
    else if (flag == "--resume") a.resume = true;
    else if (flag == "--stop-after")
      a.stop_after = tools::int_flag<std::size_t>(flag, value());
    else usage();
  }
  return a;
}

std::string image_path(const std::string& dir) { return dir + "/serve.ckpt"; }
std::string fprint_path(const std::string& dir) { return dir + "/serve.fp"; }

/// Persists the fingerprint sidecar guarding a serve checkpoint.
void write_fingerprint(const std::string& dir, std::uint64_t fp) {
  util::StateWriter w;
  w.begin_section(util::state_tag("SRVF"));
  w.u64(fp);
  w.end_section();
  util::write_state_file(fprint_path(dir), w.bytes());
}

std::uint64_t read_fingerprint(const std::string& dir) {
  const auto image = util::read_state_file(fprint_path(dir));
  util::StateReader r(image);
  r.begin_section(util::state_tag("SRVF"));
  const std::uint64_t fp = r.u64();
  r.end_section();
  return fp;
}

double quantile_us(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  sim::WorldConfig wc;
  wc.num_blocks = a.blocks;
  wc.seed = a.seed;
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset(a.dataset);
  if (a.fault_scenario) {
    fc.faults = fault::scenario(*a.fault_scenario, fc.dataset.window());
  }
  if (a.threads > 0) fc.threads = a.threads;

  core::ServeConfig sc;
  sc.epoch_duration = a.epoch;
  sc.feed_capacity = a.feed_capacity;
  sc.keep_image = a.keep_image || a.checkpoint_dir.has_value();

  const std::uint64_t fp = core::checkpoint_fingerprint(wc, fc, 0);
  core::SnapshotServer server(world, fc, sc);

  if (a.resume && a.checkpoint_dir) {
    try {
      if (read_fingerprint(*a.checkpoint_dir) != fp) {
        throw util::StateError(
            util::StateErrorKind::kBadValue,
            "serve checkpoint was written under a different configuration");
      }
      const auto image = util::read_state_file(image_path(*a.checkpoint_dir));
      util::StateReader r(image);
      server.restore(r);
      std::printf("resumed serve checkpoint (%s)\n",
                  image_path(*a.checkpoint_dir).c_str());
    } catch (const util::StateError& e) {
      std::fprintf(stderr, "cannot resume %s (%s); starting fresh\n",
                   image_path(*a.checkpoint_dir).c_str(), e.what());
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Reader pool: each thread pins the current snapshot and cycles
  // through the query mix, recording per-query latency.
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(a.readers));
  std::vector<std::thread> readers;
  const auto& blocks = world.blocks();
  for (int t = 0; t < a.readers; ++t) {
    readers.emplace_back([&, t] {
      auto& lat = latencies[static_cast<std::size_t>(t)];
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (t + 1);
      std::uint64_t sink = 0;
      while (!done.load(std::memory_order_relaxed)) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const auto& b = blocks[rng % blocks.size()];
        const auto q0 = Clock::now();
        const auto snap = server.snapshot();
        if (snap == nullptr) {
          std::this_thread::yield();
          continue;
        }
        switch (rng % 5) {
          case 0: {
            const auto* row = snap->block(b.id);
            if (row != nullptr) sink += row->delivered;
            break;
          }
          case 1: {
            const auto tr = snap->trend(b.id);
            if (!tr.empty()) sink += static_cast<std::uint64_t>(tr.back());
            break;
          }
          case 2:
            sink += snap->alarms_for(b.id).size();
            break;
          case 3: {
            const auto* cs = snap->cell(b.cell());
            if (cs != nullptr) {
              sink += static_cast<std::uint64_t>(cs->alarms_up);
            }
            break;
          }
          default:
            sink += snap->scorecard().blocks_classified;
            break;
        }
        lat.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - q0)
                .count());
      }
      if (sink == 0xFFFFFFFFFFFFFFFFULL) std::puts("");
    });
  }

  // Resume-aware ticker origin: epochs already ingested by a restored
  // image must not be re-fed.  Read before start() — afterwards the
  // writer owns the engine clock.
  std::uint64_t published = static_cast<std::uint64_t>(
      (server.clock() - server.window_start()) / a.epoch);
  server.start();

  // Ingest ticker: feed one epoch, wait for its snapshot, print the
  // scorecard line an analyst would watch.
  bool interrupted = false;
  for (;;) {
    if (g_stop.load() || (a.stop_after > 0 && published >= a.stop_after)) {
      interrupted = g_stop.load();
      break;
    }
    const auto snap_before = server.stats().epochs_published;
    const util::SimTime tick = std::min<util::SimTime>(
        server.window_start() +
            static_cast<std::int64_t>(published + 1) * a.epoch,
        server.window_end());
    if (!server.feed(tick)) break;
    const auto snap = server.wait_for_epoch(snap_before + 1);
    ++published;
    if (snap != nullptr) {
      const auto& s = snap->scorecard();
      std::printf(
          "epoch %3zu  %s  %9zu obs  %5zu watched  %4zu alarms  %s%.1f MB\n",
          s.epoch_index, util::to_string(util::date_of(s.clock)).c_str(),
          s.observations_total, s.blocks_watched,
          s.alarms_down + s.alarms_up,
          s.classification_complete ? "[cls final]  " : "",
          static_cast<double>(snap->bytes()) * 1e-6);
    }
    if (tick >= server.window_end()) break;
  }

  if ((interrupted || (a.stop_after > 0 && published >= a.stop_after)) &&
      a.checkpoint_dir) {
    // Stop in place and persist the snapshot currency.
    server.stop();
    const auto snap = server.snapshot();
    if (snap != nullptr && !snap->image().empty()) {
      std::error_code ec;
      std::filesystem::create_directories(*a.checkpoint_dir, ec);
      util::write_state_file(image_path(*a.checkpoint_dir), snap->image());
      write_fingerprint(*a.checkpoint_dir, fp);
      std::printf("checkpointed epoch %zu to %s (resume with --resume)\n",
                  snap->epoch_index(),
                  image_path(*a.checkpoint_dir).c_str());
    }
    done.store(true);
    for (auto& r : readers) r.join();
    return 0;
  }

  const auto fleet = server.drain();
  done.store(true);
  for (auto& r : readers) r.join();

  // A completed run must not be resumed from a stale image.
  if (a.checkpoint_dir) {
    std::remove(image_path(*a.checkpoint_dir).c_str());
    std::remove(fprint_path(*a.checkpoint_dir).c_str());
  }

  const core::ServeStats stats = server.stats();
  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  std::printf(
      "\nfinalized: %llu epochs, %llu observations, %llu backpressure "
      "waits\n",
      static_cast<unsigned long long>(stats.epochs_published),
      static_cast<unsigned long long>(stats.observations),
      static_cast<unsigned long long>(stats.feed_waits));
  const auto& f = fleet.funnel;
  std::printf(
      "funnel: %lld routed -> %lld responsive -> %lld diurnal -> "
      "%lld wide-swing -> %lld change-sensitive\n",
      static_cast<long long>(f.routed), static_cast<long long>(f.responsive),
      static_cast<long long>(f.diurnal),
      static_cast<long long>(f.wide_swing),
      static_cast<long long>(f.change_sensitive));
  if (a.readers > 0) {
    std::printf("queries: %zu from %d readers | p50 %.1fus p99 %.1fus\n",
                all.size(), a.readers, quantile_us(all, 0.5),
                quantile_us(all, 0.99));
  }
  std::printf("fleet digest %s\n",
              core::digest_hex(core::fleet_digest(fleet)).c_str());
  return 0;
}
