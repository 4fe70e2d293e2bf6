// The measured phases of one spqbench run. Every phase drives the engine
// through its public API only, times each call from outside, reads the
// counters the API returns, and checks every answer it can against the
// reference answers (RunContext::reference). Checks that need an oracle
// or a second engine run outside the timed loops.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "spq/cell_store.h"
#include "spq/sequential.h"
#include "spq/serving.h"
#include "spqbench.h"

namespace spqbench {

using spq::Status;
using spq::StatusOr;
using spq::Stopwatch;
using spq::core::ResultEntry;
using spq::core::SpqEngine;
using spq::core::SpqResult;
using spq::core::SpqRunInfo;

// ---- shared helpers ---------------------------------------------------------

double Report::Value(const std::string& name) const {
  const Metric& m = metrics_.at(name);
  return Percentile(m.samples, m.quantile);
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[512];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(),
                  Percentile(m.samples, m.quantile), m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void RunContext::Count(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

bool SameEntries(const std::vector<ResultEntry>& a,
                 const std::vector<ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

double Percentile(std::vector<double> samples, double q) {
  return spq::metrics::PercentileOfSamples(std::move(samples), q);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

Clock::time_point DueAt(Clock::time_point t0, std::size_t i, double rate) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(i) / rate));
}

namespace {

double CpuMillis(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + t.tv_nsec / 1e6;
}

}  // namespace

double ProcessCpuMillis() { return CpuMillis(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMillis() { return CpuMillis(CLOCK_THREAD_CPUTIME_ID); }

double MillisSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

std::unique_ptr<spq::dfs::MiniDfs> MakeDfs(uint64_t seed) {
  spq::dfs::DfsOptions options;
  options.num_datanodes = 8;
  options.replication = 3;
  options.seed = seed;
  return std::make_unique<spq::dfs::MiniDfs>(options);
}

namespace {

constexpr const char* kStoreName = "store";

/// The SPQ counters the engine promises bit-identical on every path.
bool SameSpqCounters(const SpqRunInfo& a, const SpqRunInfo& b) {
  return a.features_kept == b.features_kept &&
         a.features_pruned == b.features_pruned &&
         a.feature_duplicates == b.feature_duplicates &&
         a.features_examined == b.features_examined &&
         a.pairs_tested == b.pairs_tested &&
         a.early_terminations == b.early_terminations &&
         a.reduce_groups == b.reduce_groups;
}

/// Registry histogram difference `after - before` (count, sum and buckets
/// are exact; max is the later snapshot's, used only as the estimator's
/// cap).
spq::metrics::HistogramSnapshot HistogramDelta(
    const spq::metrics::RegistrySnapshot& before,
    const spq::metrics::RegistrySnapshot& after, const std::string& name) {
  spq::metrics::HistogramSnapshot a = before.HistogramValue(name);
  spq::metrics::HistogramSnapshot d = after.HistogramValue(name);
  d.count -= a.count;
  d.sum -= a.sum;
  for (int i = 0; i < spq::metrics::HistogramSnapshot::kNumBuckets; ++i) {
    d.buckets[i] -= a.buckets[i];
  }
  return d;
}

double CounterDelta(const spq::metrics::RegistrySnapshot& before,
                    const spq::metrics::RegistrySnapshot& after,
                    const std::string& name) {
  return static_cast<double>(after.CounterValue(name) -
                             before.CounterValue(name));
}

spq::metrics::RegistrySnapshot Registry() {
  return spq::metrics::MetricsRegistry::Global().Snapshot();
}

/// Seeded sample of `count` distinct stream indices.
std::vector<std::size_t> SampleIndices(const RunContext& ctx,
                                       std::size_t count, uint64_t salt) {
  std::vector<std::size_t> all(ctx.stream.size());
  std::iota(all.begin(), all.end(), 0);
  spq::Rng rng(ctx.seed ^ salt);
  for (std::size_t i = 0; i < count && i < all.size(); ++i) {
    std::swap(all[i], all[i + rng.NextUint64(all.size() - i)]);
  }
  all.resize(std::min(count, all.size()));
  return all;
}

void Note(RunContext& ctx, const std::string& text) {
  ctx.notes.push_back(text);
}

}  // namespace

// ---- set-up -------------------------------------------------------------------

std::vector<std::unique_ptr<SpqEngine>> RunSetup(RunContext& ctx, int trials,
                                                  std::size_t keep) {
  std::vector<std::unique_ptr<SpqEngine>> kept;
  for (int t = 0; t < trials; ++t) {
    const double cpu_start_ms = ProcessCpuMillis();
    Stopwatch setup;
    auto engine = std::make_unique<SpqEngine>(ctx.dataset, ctx.options);
    Stopwatch build;
    const Status st = engine->BuildStore(ctx.max_radius);
    ctx.per_layer.Add("engine.build_store_ms", build.ElapsedMillis(), "ms");
    ctx.per_layer.Add("engine.setup_wall_s", setup.ElapsedSeconds(), "s");
    ctx.end_to_end.Add("setup_s", (ProcessCpuMillis() - cpu_start_ms) / 1e3,
                       "s");
    ctx.Count(st.ok(), "BuildStore: " + st.ToString());
    if (kept.size() < keep) kept.push_back(std::move(engine));
  }
  return kept;
}

// ---- reference answers and oracle checks ------------------------------------

void RunReference(RunContext& ctx, const SpqEngine& engine) {
  const spq::core::Algorithm algo = ctx.workload->algo;
  std::vector<SpqRunInfo> warm_info(ctx.stream.size());
  std::vector<double> warm_ms;
  ctx.reference.assign(ctx.stream.size(), {});
  for (std::size_t i = 0; i < ctx.stream.size(); ++i) {
    Stopwatch watch;
    auto r = engine.Query(ctx.stream[i], algo);
    warm_ms.push_back(watch.ElapsedMillis());
    const bool ok = r.ok() && r->info.warm_path && !r->info.cold_fallback;
    ctx.Count(ok, "reference warm query " + std::to_string(i));
    if (!ok) continue;
    ctx.reference[i] = r->entries;
    warm_info[i] = r->info;
  }
  Note(ctx, "reference pass (first touch of every cell): warm p50 " +
                std::to_string(Median(warm_ms)) + " ms");
  // A seeded sample against the sequential oracle, and warm against cold
  // (results and SPQ counters bit-identical).
  for (std::size_t i : SampleIndices(ctx, 3, 0x0dac1e)) {
    auto oracle = spq::core::SequentialGridSpq(ctx.dataset, ctx.stream[i],
                                               kGridSize);
    ctx.Count(oracle.ok() && SameEntries(*oracle, ctx.reference[i]),
              "warm answer differs from SequentialGridSpq, query " +
                  std::to_string(i));
    auto cold = engine.Execute(ctx.stream[i], algo);
    ctx.Count(cold.ok() && SameEntries(cold->entries, ctx.reference[i]) &&
                  SameSpqCounters(cold->info, warm_info[i]),
              "cold Execute differs from warm Query, query " +
                  std::to_string(i));
  }
}

// ---- cell materialization -----------------------------------------------------

void RunMaterialize(RunContext& ctx, const SpqEngine& churn) {
  const spq::core::CellStore* store = churn.store();
  uint64_t cells = 0;
  Stopwatch watch;
  for (spq::geo::CellId c = 0; c < store->num_cells(); ++c) {
    if (store->cell_record_count(c) == 0) continue;
    ctx.Count(store->Serve(c).ok(), "Serve of fresh cell " + std::to_string(c));
    ++cells;
  }
  ctx.per_layer.Add("cell_store.materialize_us_per_cell",
                    watch.ElapsedSeconds() * 1e6 /
                        static_cast<double>(std::max<uint64_t>(1, cells)),
                    "us");
}

// ---- closed loop --------------------------------------------------------------

/// Samples per round that give a run's pooled p95 at least 10 samples
/// beyond it.
constexpr std::size_t kMinP95SamplesPerRound = (200 + kRounds - 1) / kRounds;

void RunClosedLoop(RunContext& ctx, const SpqEngine& engine, double budget_s) {
  constexpr std::size_t kMinSamples = kMinP95SamplesPerRound;
  const Workload& w = *ctx.workload;
  Report& L = ctx.per_layer;
  std::vector<double> lat_ms;
  std::vector<double> cpu_samples;
  Stopwatch phase;
  while (lat_ms.size() < kMinSamples || phase.ElapsedSeconds() < budget_s) {
    const std::size_t i = ctx.next_query++;
    const double cpu_start_ms = ProcessCpuMillis();
    Stopwatch watch;
    auto r = w.cold_query_path ? engine.Execute(ctx.Query(i), w.algo)
                               : engine.Query(ctx.Query(i), w.algo);
    const double wall_ms = watch.ElapsedMillis();
    const double cpu_ms = ProcessCpuMillis() - cpu_start_ms;
    const bool on_path =
        r.ok() && (w.cold_query_path
                       ? !r->info.warm_path
                       : r->info.warm_path && !r->info.cold_fallback);
    const bool ok = on_path && SameEntries(r->entries, ctx.Expected(i));
    ctx.Count(ok, "closed-loop query, stream position " + std::to_string(i));
    if (!ok) continue;
    lat_ms.push_back(wall_ms);
    cpu_samples.push_back(cpu_ms);
    ctx.end_to_end.Add("query_cpu_ms", cpu_ms, "ms");
    L.Add("engine.query_p50_ms", wall_ms, "ms");
    L.Add("engine.query_p95_ms", wall_ms, "ms", 0.95);

    const SpqRunInfo& info = r->info;
    const spq::mapreduce::JobStats& job = info.job;
    const double scanned =
        static_cast<double>(info.features_kept + info.features_pruned);
    const double groups = static_cast<double>(info.reduce_groups);
    L.Add("engine.overhead_ms", wall_ms - job.total_seconds * 1e3, "ms");
    L.Add("mapreduce.map_ms", job.map_seconds * 1e3, "ms");
    L.Add("mapreduce.reduce_ms", job.reduce_seconds * 1e3, "ms");
    L.Add("mapreduce.shuffle_ms",
          (job.total_seconds - job.map_seconds - job.reduce_seconds) * 1e3,
          "ms");
    L.Add("mapreduce.shuffle_bytes", static_cast<double>(job.shuffle_bytes),
          "bytes");
    L.Add("mapreduce.map_output_records",
          static_cast<double>(job.map_output_records), "count");
    L.Add("mapreduce.reduce_skew", job.ReduceSkew(), "ratio");
    L.Add("mapreduce.reduce_straggler_ratio", job.ReduceStragglerRatio(),
          "ratio");
    L.Add("mapreduce.tasks_per_job",
          static_cast<double>(job.map_task_seconds.size() +
                              job.reduce_task_seconds.size()),
          "count");
    L.Add("mapreduce.task_retries",
          static_cast<double>(job.map_task_failures + job.reduce_task_failures),
          "count");
    L.Add("map.features_scanned", scanned, "count");
    L.Add("map.keep_ratio", scanned > 0 ? info.features_kept / scanned : 0.0,
          "ratio");
    L.Add("map.ns_per_feature_scanned",
          scanned > 0 ? job.map_seconds * 1e9 / scanned : 0.0, "ns");
    L.Add("map.duplication_factor", info.MeasuredDuplicationFactor(),
          "ratio");
    L.Add("reduce.groups", groups, "count");
    L.Add("reduce.pairs_tested", static_cast<double>(info.pairs_tested),
          "count");
    L.Add("reduce.ns_per_group",
          groups > 0 ? job.reduce_seconds * 1e9 / groups : 0.0, "ns");
    L.Add("reduce.cells_pruned_frac",
          info.signature_checks > 0 ? static_cast<double>(info.cells_pruned) /
                                          info.signature_checks
                                    : 0.0,
          "ratio");
    L.Add("reduce.examination_ratio", info.FeatureExaminationRatio(),
          "ratio");
  }
  Note(ctx, "closed loop: " + std::to_string(lat_ms.size()) +
                " queries, wall p50 " + std::to_string(Median(lat_ms)) +
                " ms, cpu p50 " + std::to_string(Median(cpu_samples)) + " ms");
}

// ---- fixed-size batches -------------------------------------------------------

void RunBatches(RunContext& ctx, const SpqEngine& engine, double budget_s) {
  constexpr std::size_t kMinBatches = 2;
  const Workload& w = *ctx.workload;
  std::size_t done = 0;
  Stopwatch phase;
  while (done < kMinBatches || phase.ElapsedSeconds() < budget_s) {
    const std::size_t first = ctx.next_batch++ * kBatchSize;
    std::vector<spq::core::Query> batch;
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      batch.push_back(ctx.Query(first + j));
    }
    const double cpu_start_ms = ProcessCpuMillis();
    Stopwatch watch;
    auto r = w.cold_query_path ? engine.ExecuteBatch(batch, w.algo)
                               : engine.QueryBatch(batch, w.algo);
    const double ms = watch.ElapsedMillis();
    const double cpu_ms = ProcessCpuMillis() - cpu_start_ms;
    bool ok = r.ok() && r->per_query.size() == kBatchSize &&
              r->warm_path == !w.cold_query_path;
    for (std::size_t j = 0; ok && j < kBatchSize; ++j) {
      ok = SameEntries(r->per_query[j], ctx.Expected(first + j));
    }
    ctx.Count(ok, "batch at stream position " + std::to_string(first));
    ++done;
    if (!ok) continue;
    ctx.end_to_end.Add("batch_cpu_ms_per_query", cpu_ms / kBatchSize, "ms");
    ctx.per_layer.Add("engine.batch_ms_per_query", ms / kBatchSize, "ms");
  }
}

// ---- front door, open loop ----------------------------------------------------

namespace {

struct OpenLoopRun {
  std::vector<double> latency_ms;  ///< completion minus due time
  std::vector<double> lag_ms;      ///< submission minus due time
  double makespan_s = 0.0;         ///< first due time to last completion
  double cpu_ms = 0.0;             ///< process CPU time of the whole offer
  spq::core::ServingStats stats;
};

/// Offers `n` stream queries to a fresh door at a fixed `rate`, one
/// submitter (this thread) and one in-order harvester. The door has one
/// executor, which finishes batches FIFO, so harvesting in submission
/// order stamps each completion no earlier than the batch that served it
/// and later only by the harvester's own wake-up.
OpenLoopRun OfferToDoor(RunContext& ctx, const SpqEngine& engine, double rate,
                        std::size_t n) {
  OpenLoopRun out;
  const double cpu_start_ms = ProcessCpuMillis();
  spq::core::SpqFrontDoor door(engine);
  std::vector<std::future<StatusOr<SpqResult>>> futures(n);
  std::vector<uint8_t> ok(n, 0);
  std::vector<double> latency(n, 0.0);
  std::atomic<std::size_t> submitted{0};
  const std::size_t first = ctx.next_query;
  ctx.next_query += n;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::thread harvester([&]() {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t s = submitted.load(std::memory_order_acquire); s <= i;
           s = submitted.load(std::memory_order_acquire)) {
        submitted.wait(s, std::memory_order_acquire);
      }
      auto r = futures[i].get();
      latency[i] = MillisSince(DueAt(t0, i, rate));
      ok[i] = r.ok() && r->info.warm_path &&
              SameEntries(r->entries, ctx.Expected(first + i));
    }
  });
  out.lag_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point due = DueAt(t0, i, rate);
    std::this_thread::sleep_until(due);
    out.lag_ms.push_back(MillisSince(due));
    futures[i] = door.Submit(ctx.Query(first + i), ctx.workload->algo);
    submitted.store(i + 1, std::memory_order_release);
    submitted.notify_one();
  }
  harvester.join();
  out.makespan_s = std::chrono::duration<double>(Clock::now() - t0).count();
  door.Shutdown();
  out.cpu_ms = ProcessCpuMillis() - cpu_start_ms;
  out.stats = door.stats();
  for (std::size_t i = 0; i < n; ++i) {
    ctx.Count(ok[i] != 0, "door request " + std::to_string(first + i));
    if (ok[i] != 0) out.latency_ms.push_back(latency[i]);
  }
  return out;
}

}  // namespace

void RunDoor(RunContext& ctx, const SpqEngine& engine, double budget_s) {
  const Workload& w = *ctx.workload;
  const std::size_t n = std::max<std::size_t>(
      kMinP95SamplesPerRound,
      static_cast<std::size_t>(w.door_rate_qps * budget_s));
  const auto before = Registry();
  const OpenLoopRun nominal = OfferToDoor(ctx, engine, w.door_rate_qps, n);
  const auto after = Registry();
  ctx.end_to_end.Add(
      "door_cpu_ms_per_query",
      nominal.cpu_ms / std::max<std::size_t>(1, nominal.latency_ms.size()),
      "ms");
  for (const double ms : nominal.latency_ms) {
    ctx.per_layer.Add("serving.door_p50_ms", ms, "ms");
    ctx.per_layer.Add("serving.door_p95_ms", ms, "ms", 0.95);
  }
  ctx.per_layer.Add(
      "serving.queue_wait_p50_ms",
      HistogramDelta(before, after, "spq.serving.queue_wait_ns")
              .Percentile(0.5) / 1e6,
      "ms");
  for (const double ms : nominal.lag_ms) {
    ctx.per_layer.Add("serving.generator_lag_p99_ms", ms, "ms", 0.99);
  }

  // Overload: the whole burst fits the admission queue (sized from
  // overload_requests at engine construction), so a refusal is a fault.
  const std::size_t n_over = w.overload_requests;
  const OpenLoopRun over =
      OfferToDoor(ctx, engine, w.door_overload_qps, n_over);
  const double completed = static_cast<double>(over.latency_ms.size());
  ctx.end_to_end.Add("door_q_per_cpu_s", completed / (over.cpu_ms / 1e3),
                     "q/cpu-s");
  ctx.per_layer.Add("serving.door_capacity_qps", completed / over.makespan_s,
                    "q/s");
  const spq::core::ServingStats& s = over.stats;
  ctx.per_layer.Add("serving.batch_size_mean",
                    s.batches > 0 ? static_cast<double>(s.admitted) / s.batches
                                  : 0.0,
                    "count");
  ctx.per_layer.Add(
      "serving.coalesced_frac",
      s.admitted > 0 ? static_cast<double>(s.coalesced) / s.admitted : 0.0,
      "ratio");
  Note(ctx, "door: " + std::to_string(n) + " requests at " +
                std::to_string(w.door_rate_qps) + " q/s, " +
                std::to_string(n_over) + " at " +
                std::to_string(w.door_overload_qps) + " q/s, refused " +
                std::to_string(nominal.stats.rejected + s.rejected));
}

// ---- checkpoint and reopen ----------------------------------------------------

namespace {

/// Runs `fn` on a thread of its own. The durability calls are
/// single-threaded and their speed depends on the core they land on; a
/// fresh thread per trial lets the scheduler spread a run's trials over
/// the cores instead of pinning all of them to the main thread's.
template <typename Fn>
void OnFreshThread(Fn fn) {
  std::thread(fn).join();
}

}  // namespace

void RunDurability(RunContext& ctx, const SpqEngine& engine) {
  constexpr int kCheckpoints = 5;
  constexpr int kReopens = 5;
  Report& L = ctx.per_layer;

  // Each checkpoint goes to an empty DFS so every trial writes the same.
  auto before = Registry();
  for (int t = 0; t < kCheckpoints; ++t) {
    ctx.dfs = MakeDfs(ctx.seed + t);
    OnFreshThread([&] {
      const double cpu_start_ms = ProcessCpuMillis();
      Stopwatch watch;
      auto epoch = engine.CheckpointStore(*ctx.dfs, kStoreName);
      L.Add("cell_store.checkpoint_ms", watch.ElapsedMillis(), "ms");
      ctx.end_to_end.Add("checkpoint_cpu_ms",
                         ProcessCpuMillis() - cpu_start_ms, "ms");
      ctx.Count(epoch.ok(), "CheckpointStore: " + epoch.status().ToString());
    });
  }
  auto after = Registry();
  L.Add("wal.append_us",
        HistogramDelta(before, after, "spq.wal.append_ns").Mean() / 1e3, "us");

  // Reopen trials: a fresh engine per trial, OpenStore, then the next
  // stream query, checked against the built store's answer.
  before = Registry();
  for (int t = 0; t < kReopens; ++t) {
    SpqEngine reopened(ctx.dataset, ctx.options);
    const std::size_t i = ctx.next_query++;
    OnFreshThread([&] {
      const double cpu_start_ms = ProcessCpuMillis();
      Stopwatch open_watch;
      const Status st = reopened.OpenStore(*ctx.dfs, kStoreName);
      const double open_ms = open_watch.ElapsedMillis();
      ctx.Count(st.ok(), "OpenStore: " + st.ToString());
      if (!st.ok()) return;
      Stopwatch query_watch;
      auto r = reopened.Query(ctx.Query(i), ctx.workload->algo);
      const double first_ms = query_watch.ElapsedMillis();
      const double cpu_ms = ProcessCpuMillis() - cpu_start_ms;
      const bool ok = r.ok() && r->info.warm_path &&
                      SameEntries(r->entries, ctx.Expected(i));
      ctx.Count(ok, "first query after reopen, stream position " +
                        std::to_string(i));
      ctx.end_to_end.Add("recovery_cpu_ms", cpu_ms, "ms");
      L.Add("cell_store.recovery_ms", open_ms + first_ms, "ms");
      L.Add("cell_store.open_ms", open_ms, "ms");
      L.Add("cell_store.cells_restored_first_query",
            static_cast<double>(reopened.store()->cells_restored()), "count");
    });
  }
  after = Registry();
  L.Add("wal.replay_ms",
        HistogramDelta(before, after, "spq.wal.replay_ns").Mean() / 1e6, "ms");
}

void RunStorageProbe(RunContext& ctx) {
  Report& L = ctx.per_layer;
  spq::dfs::MiniDfs& dfs = *ctx.dfs;
  // The checkpoint as the DFS holds it: logical bytes per file, physical
  // bytes over all replicas, and raw read/write bandwidth of its files.
  uint64_t logical = 0;
  std::vector<std::vector<uint8_t>> contents;
  Stopwatch read_watch;
  for (const std::string& f : dfs.ListFiles()) {
    auto bytes = dfs.ReadFile(f);
    ctx.Count(bytes.ok(), "ReadFile " + f);
    if (!bytes.ok()) continue;
    logical += bytes->size();
    contents.push_back(*std::move(bytes));
  }
  const double read_s = read_watch.ElapsedSeconds();
  uint64_t physical = 0;
  for (uint32_t n = 0; n < dfs.num_datanodes(); ++n) {
    physical += dfs.datanode(n).stored_bytes();
  }
  {
    auto copy = MakeDfs(ctx.seed);
    Stopwatch write_watch;
    for (std::size_t i = 0; i < contents.size(); ++i) {
      const Status st =
          copy->WriteFile("copy/" + std::to_string(i), contents[i]);
      ctx.Count(st.ok(), "WriteFile: " + st.ToString());
    }
    L.Add("dfs.write_mb_s", logical / 1e6 / write_watch.ElapsedSeconds(),
          "MB/s");
  }
  contents.clear();
  L.Add("cell_store.checkpoint_mb", logical / 1e6, "MB");
  L.Add("dfs.read_mb_s", logical / 1e6 / read_s, "MB/s");
  L.Add("dfs.bytes_written_per_user_byte",
        static_cast<double>(physical) /
            static_cast<double>(std::max<uint64_t>(1, logical)),
        "ratio");

  // Restore cost per cell: reopen and touch every cell.
  SpqEngine reopened(ctx.dataset, ctx.options);
  const Status st = reopened.OpenStore(dfs, kStoreName);
  ctx.Count(st.ok(), "OpenStore: " + st.ToString());
  if (!st.ok()) return;
  const spq::core::CellStore* store = reopened.store();
  Stopwatch watch;
  for (spq::geo::CellId c = 0; c < store->num_cells(); ++c) {
    ctx.Count(store->Serve(c).ok(),
              "Serve of reopened cell " + std::to_string(c));
  }
  L.Add("cell_store.restore_us_per_cell",
        watch.ElapsedSeconds() * 1e6 /
            static_cast<double>(std::max<uint64_t>(1, store->cells_restored())),
        "us");
  ctx.Count(store->cells_rebuilt() == 0, "reopened store rebuilt a cell");
}

// ---- reads under writes -------------------------------------------------------

namespace {

/// Mutation pairs per round: the round's time share at kMutateRate, and
/// enough that the run's pooled p99 has 10 samples beyond it.
std::size_t PairsPerRound(double budget_s) {
  return std::max<std::size_t>(
      (500 + kRounds - 1) / kRounds,
      static_cast<std::size_t>(kMutateRate * budget_s / 2));
}

}  // namespace

void RunMixed(RunContext& ctx, SpqEngine& churn, double budget_s) {
  const Workload& w = *ctx.workload;
  const spq::core::Dataset& data = ctx.dataset;
  ChurnPlan& plan = ctx.churn;
  if (plan.victims.empty()) {
    // Victims: distinct existing data objects; inserts: fresh ids at
    // uniform positions. Pair 0 is the untimed first mutation.
    const std::size_t total = 1 + kRounds * PairsPerRound(budget_s);
    spq::Rng rng(ctx.seed ^ 0x3a7e);
    std::vector<std::size_t> order(data.data.size());
    std::iota(order.begin(), order.end(), 0);
    spq::core::ObjectId next_id = 0;
    for (const auto& d : data.data) next_id = std::max(next_id, d.id + 1);
    for (std::size_t i = 0; i < total; ++i) {
      std::swap(order[i], order[i + rng.NextUint64(order.size() - i)]);
      plan.victims.push_back(order[i]);
      spq::core::DataObject o;
      o.id = next_id + i;
      o.pos = {rng.NextDouble(data.bounds.min_x, data.bounds.max_x),
               rng.NextDouble(data.bounds.min_y, data.bounds.max_y)};
      plan.inserts.push_back(o);
    }
    // The first mutation builds the engine's id locator, a one-off cost:
    // it is timed as engine.first_mutation_ms and kept out of mutate_*.
    Stopwatch first;
    Status st = churn.Delete(data.data[plan.victims[0]].id);
    ctx.per_layer.Add("engine.first_mutation_ms", first.ElapsedMillis(), "ms");
    ctx.Count(st.ok(), "first Delete: " + st.ToString());
    st = churn.Insert(plan.inserts[0]);
    ctx.Count(st.ok(), "first Insert: " + st.ToString());
    plan.pairs_applied = 1;
  }
  const std::size_t base = plan.pairs_applied;
  const std::size_t n_mut =
      2 * std::min(plan.victims.size() - base, PairsPerRound(budget_s));

  const auto before = Registry();
  std::vector<double> mutate_us(n_mut, 0.0);
  std::vector<double> service_us(n_mut, 0.0);
  std::vector<double> cpu_us(n_mut, 0.0);
  double writer_cpu_ms = 0.0;
  const double cpu_start_ms = ProcessCpuMillis();
  std::vector<uint8_t> mutate_ok(n_mut, 0);
  std::atomic<bool> writing{true};
  std::vector<std::vector<double>> reader_ms(kReaders);
  std::vector<uint64_t> reader_bad(kReaders, 0);
  const std::size_t first_read = ctx.next_query;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  // Readers are closed loop: reader rd sends every kReaders-th query of
  // one stream, waits for the answer, then thinks for a seeded exponential
  // time of the workload's mean, while the writer runs. Random think times
  // keep the readers from falling into step and queueing for the engine's
  // one task slot together.
  std::vector<std::thread> readers;
  for (std::size_t rd = 0; rd < kReaders; ++rd) {
    readers.emplace_back([&, rd]() {
      spq::Rng rng(ctx.seed ^ (0x7ead + rd + kReaders * base));
      const auto think = [&] {
        return std::chrono::duration<double, std::milli>(
            -w.reader_think_ms * std::log(1.0 - rng.NextDouble()));
      };
      std::this_thread::sleep_until(t0);
      std::this_thread::sleep_for(think());
      for (std::size_t i = rd; writing.load(std::memory_order_relaxed);
           i += kReaders) {
        Stopwatch watch;
        auto r = churn.Query(ctx.Query(first_read + i), w.algo);
        const double ms = watch.ElapsedMillis();
        if (!r.ok() || !r->info.warm_path) {
          ++reader_bad[rd];
        } else {
          reader_ms[rd].push_back(ms);
        }
        std::this_thread::sleep_for(think());
      }
    });
  }
  // Insert and Delete run on the calling thread, so the writer's own CPU
  // clock times each one.
  std::thread writer([&]() {
    const double writer_start_ms = ThreadCpuMillis();
    for (std::size_t j = 0; j < n_mut; ++j) {
      const Clock::time_point due = DueAt(t0, j, kMutateRate);
      std::this_thread::sleep_until(due);
      const std::size_t pair = base + j / 2;
      const double cpu_ms = ThreadCpuMillis();
      const Clock::time_point start = Clock::now();
      const Status s = j % 2 == 0
                           ? churn.Delete(data.data[plan.victims[pair]].id)
                           : churn.Insert(plan.inserts[pair]);
      const Clock::time_point end = Clock::now();
      cpu_us[j] = (ThreadCpuMillis() - cpu_ms) * 1e3;
      mutate_us[j] =
          std::chrono::duration<double, std::micro>(end - due).count();
      service_us[j] =
          std::chrono::duration<double, std::micro>(end - start).count();
      mutate_ok[j] = s.ok();
    }
    writing.store(false, std::memory_order_relaxed);
    writer_cpu_ms = ThreadCpuMillis() - writer_start_ms;
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  // Everything but the writer: the readers and the engine's task slot.
  const double read_cpu_ms =
      ProcessCpuMillis() - cpu_start_ms - writer_cpu_ms;
  const auto after = Registry();
  plan.pairs_applied += n_mut / 2;

  std::vector<double> ok_us;
  for (std::size_t j = 0; j < n_mut; ++j) {
    ctx.Count(mutate_ok[j] != 0, "mutation " + std::to_string(base * 2 + j));
    if (mutate_ok[j] == 0) continue;
    ok_us.push_back(mutate_us[j]);
    ctx.end_to_end.Add("mutate_cpu_us", cpu_us[j], "us");
    ctx.per_layer.Add("engine.mutate_p50_us", mutate_us[j], "us");
    ctx.per_layer.Add("engine.mutate_p99_us", mutate_us[j], "us", 0.99);
    ctx.per_layer.Add("engine.mutate_service_us", service_us[j], "us");
  }
  // Reads under writes see a moving store: checked for status and path
  // here, and for exact answers by CheckChurned after the rounds.
  std::vector<double> reads;
  for (std::size_t rd = 0; rd < kReaders; ++rd) {
    ctx.attempted += reader_ms[rd].size();
    for (uint64_t i = 0; i < reader_bad[rd]; ++i) {
      ctx.Count(false, "read under writes failed");
    }
    reads.insert(reads.end(), reader_ms[rd].begin(), reader_ms[rd].end());
  }
  for (const double ms : reads) {
    ctx.per_layer.Add("engine.churn_query_p50_ms", ms, "ms");
  }
  if (!reads.empty()) {
    ctx.end_to_end.Add("churn_query_cpu_ms", read_cpu_ms / reads.size(), "ms");
  }
  ctx.next_query += reads.size() + kReaders;
  for (const char* name : {"publishes", "delta_folds", "cells_compacted"}) {
    ctx.per_layer.Add(
        std::string("cell_store.") + name,
        CounterDelta(before, after, std::string("spq.store.") + name),
        "count");
  }
  Note(ctx, "mixed: " + std::to_string(ok_us.size()) + " mutations at " +
                std::to_string(kMutateRate) + "/s, " +
                std::to_string(reads.size()) + " reads, think time " +
                std::to_string(w.reader_think_ms) + " ms");
}

void CheckChurned(RunContext& ctx, const SpqEngine& churn) {
  // The churned store must answer exactly like a fresh build over the
  // logically-equivalent dataset: survivors in original order, inserts
  // appended (cell_store.h invariant M2).
  const spq::core::Dataset& data = ctx.dataset;
  const ChurnPlan& plan = ctx.churn;
  spq::core::Dataset logical;
  logical.bounds = data.bounds;
  logical.features = data.features;
  std::vector<uint8_t> deleted(data.data.size(), 0);
  for (std::size_t i = 0; i < plan.pairs_applied; ++i) {
    deleted[plan.victims[i]] = 1;
  }
  for (std::size_t i = 0; i < data.data.size(); ++i) {
    if (deleted[i] == 0) logical.data.push_back(data.data[i]);
  }
  logical.data.insert(logical.data.end(), plan.inserts.begin(),
                      plan.inserts.begin() + plan.pairs_applied);
  SpqEngine rebuilt(std::move(logical), ctx.options);
  const Status st = rebuilt.BuildStore(ctx.max_radius);
  ctx.Count(st.ok(), "BuildStore over the churned dataset: " + st.ToString());
  for (std::size_t i : SampleIndices(ctx, 4, 0xc4a2)) {
    auto a = churn.Query(ctx.stream[i], ctx.workload->algo);
    auto b = rebuilt.Query(ctx.stream[i], ctx.workload->algo);
    ctx.Count(a.ok() && b.ok() && SameEntries(a->entries, b->entries) &&
                  SameSpqCounters(a->info, b->info),
              "churned store differs from a fresh build, query " +
                  std::to_string(i));
  }
}

}  // namespace spqbench
