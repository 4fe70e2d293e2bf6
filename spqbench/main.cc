// spqbench: the repository's end-to-end and per-layer benchmark.
//
//   spqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's dataset and query stream from the seed, drives
// the engine through its public API phase by phase (set-up, closed loop,
// batches, front door open loop, checkpoint/reopen, reads under writes),
// checks the answers, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, including
// the traced windows' span table. A line before it records the seed and
// the host facts. Exits non-zero on a usage error or a wrong answer.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/simd.h"
#include "spqbench.h"

#ifndef SPQBENCH_BUILD_TYPE
#define SPQBENCH_BUILD_TYPE "unknown"
#endif

namespace spqbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload;
}

/// Host CPU time stolen from this machine (hypervisor steal) and total
/// CPU time, in clock ticks since boot, from /proc/stat.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double value = 0.0, total = 0.0, steal = 0.0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  spq::Logger::SetMinLevel(spq::LogLevel::kError);
  // Open-loop requests sleep until their due time; the kernel's default
  // 50 us timer slack would add up to that much to every latency measured
  // from it. Threads started later inherit the setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::printf("{\"spqbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"avx2\": %s}}\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), __VERSION__,
              SPQBENCH_BUILD_TYPE,
              spq::simd::Avx2Available() ? "true" : "false");

  const auto ticks_before = StealAndTotalTicks();
  RunContext ctx;
  ctx.workload = w;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  auto data = MakeDataset(*w);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset: %s\n", data.status().ToString().c_str());
    return 1;
  }
  ctx.dataset = *std::move(data);
  ctx.stream = MakeQueryStream(*w, ctx.dataset, args.seed, 256);
  ctx.max_radius = kStoreRadiusCells * ctx.dataset.bounds.width() / kGridSize;
  ctx.options = MakeEngineOptions(
      static_cast<uint32_t>(w->overload_requests + kMaxBatch));
  std::printf("# %s: %zu data objects, %zu features, %zu-query stream\n",
              w->name, ctx.dataset.data.size(), ctx.dataset.features.size(),
              ctx.stream.size());

  // The serving engine and the churn engine (whose store is untouched
  // until RunMaterialize); more set-up trials run inside the rounds.
  auto engines = RunSetup(ctx, 2, 2);
  if (ctx.failed == 0) {
    const spq::core::SpqEngine& engine = *engines[0];
    spq::core::SpqEngine& churn = *engines[1];
    RunReference(ctx, engine);
    RunMaterialize(ctx, churn);
    // Memory of the serving state: the dataset plus two engines with
    // every cell materialized. Read here, before the timed phases, whose
    // short-lived DFS copies and snapshot generations leave a high-water
    // mark that depends on allocator timing rather than on the engine.
    ctx.end_to_end.Add("peak_rss_mb", PeakRssMb(), "MB");
    // Each round's time is shared out among the timed phases; a phase
    // also has a floor of samples for its tail percentile, so a slow
    // workload can run longer than --seconds.
    const double round_s = args.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      RunSetup(ctx, 2, 0);
      RunClosedLoop(ctx, engine, 0.25 * round_s);
      RunBatches(ctx, engine, 0.08 * round_s);
      RunDoor(ctx, engine, 0.3 * round_s);
      RunDurability(ctx, engine);
      RunMixed(ctx, churn, 0.15 * round_s);
    }
    RunStorageProbe(ctx);
    CheckChurned(ctx, churn);
    if (args.trace) RunTraced(ctx, engine, churn);
  }

  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the run: a run with a high share measured a slower host.
  const auto ticks_after = StealAndTotalTicks();
  const double ticks = ticks_after.second - ticks_before.second;
  ctx.notes.push_back(
      "steal_frac " +
      std::to_string(ticks > 0 ? (ticks_after.first - ticks_before.first) / ticks
                               : 0.0));
  for (const std::string& note : ctx.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : ctx.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const bool correct = ctx.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              (args.trace ? ctx.per_layer : ctx.end_to_end).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace spqbench

int main(int argc, char** argv) {
  spqbench::Args args;
  if (!spqbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: spqbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return spqbench::Run(args);
}
