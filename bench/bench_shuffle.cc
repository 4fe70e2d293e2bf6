// A/B benchmark of the shuffle pipeline: the retained legacy path
// (comparison stable_sort + Codec encode/decode + std::function merge)
// against the sort-free cell-bucketed path (per-cell bucketing, uint64
// order-key sort, flat-arena segments, zero-copy views).
//
// Part 1 is a shuffle-dominated pass-through job (mapper emits pre-keyed
// records, reducer drains its groups) on a uniform and a clustered cell
// distribution — it isolates the map-output sort, segment layout and k-way
// merge, the code this PR rewrote. Part 2 runs the full engine per
// algorithm for an end-to-end view. Results go to stdout and to
// BENCH_shuffle.json (machine-readable, for cross-PR perf tracking).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "mapreduce/runtime.h"
#include "spq/engine.h"
#include "spq/shuffle_types.h"

namespace spq {
namespace {

using core::CellKey;
using core::ShuffleObject;
using mapreduce::ShuffleMode;

struct PreKeyed {
  CellKey key;
  ShuffleObject obj;
};

/// Pass-through mapper: the emission keys are precomputed, so the job's
/// cost is the shuffle itself.
class PassThroughMapper final
    : public mapreduce::Mapper<PreKeyed, CellKey, ShuffleObject> {
 public:
  void Map(const PreKeyed& in,
           mapreduce::MapContext<CellKey, ShuffleObject>& ctx) override {
    ctx.Emit(in.key, in.obj);
  }
};

/// Drains every group, touching each record's keyword span so the merge
/// and decode cannot be optimized away. Serves both shuffle paths.
class DrainReducer final
    : public mapreduce::Reducer<CellKey, ShuffleObject, uint64_t>,
      public mapreduce::FlatReducer<CellKey, ShuffleObject, uint64_t> {
 public:
  void Reduce(const CellKey&,
              mapreduce::GroupValues<CellKey, ShuffleObject>& values,
              mapreduce::ReduceContext<uint64_t>& ctx) override {
    uint64_t checksum = 0;
    while (values.Next()) {
      const ShuffleObject& x = values.value();
      checksum += x.id;
      if (!x.keywords.empty()) checksum += x.keywords.back();
    }
    ctx.Emit(checksum);
  }
  void Reduce(const CellKey&,
              mapreduce::FlatGroupCursor<CellKey, ShuffleObject>& values,
              mapreduce::ReduceContext<uint64_t>& ctx) override {
    uint64_t checksum = 0;
    while (values.Next()) {
      const core::ShuffleObjectView x = values.value();
      checksum += x.id;
      if (x.num_keywords > 0) checksum += x.keywords[x.num_keywords - 1];
    }
    ctx.Emit(checksum);
  }
};

mapreduce::JobSpec<PreKeyed, CellKey, ShuffleObject, uint64_t>
PassThroughSpec() {
  mapreduce::JobSpec<PreKeyed, CellKey, ShuffleObject, uint64_t> spec;
  spec.mapper_factory = [] { return std::make_unique<PassThroughMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<DrainReducer>(); };
  spec.partitioner = core::CellPartitioner;
  spec.sort_less = core::CellKeySortLess;
  spec.group_equal = core::CellKeyGroupEqual;
  spec.flat_reducer_factory = [] { return std::make_unique<DrainReducer>(); };
  return spec;
}

/// `clustered` draws cells from a few hot spots (the paper's CL dataset
/// shape: some reduce partitions get most of the traffic); uniform spreads
/// them evenly over the 50x50 grid.
std::vector<PreKeyed> MakeRecords(std::size_t n, bool clustered,
                                  uint64_t seed) {
  Rng rng(seed);
  const uint32_t num_cells = 50 * 50;
  std::vector<uint32_t> hot_cells;
  for (int i = 0; i < 8; ++i) hot_cells.push_back(rng.NextUint32(num_cells));
  std::vector<PreKeyed> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PreKeyed r;
    if (clustered && rng.NextUint32(100) < 80) {
      r.key.cell = hot_cells[rng.NextUint32(8)];
    } else {
      r.key.cell = rng.NextUint32(num_cells);
    }
    const bool is_feature = rng.NextUint32(100) < 60;
    r.obj.kind = is_feature ? ShuffleObject::kFeature : ShuffleObject::kData;
    r.obj.id = i;
    r.obj.pos = {rng.NextDouble(), rng.NextDouble()};
    if (is_feature) {
      r.key.order = -rng.NextDouble();  // eSPQsco-like secondary key
      std::vector<text::TermId> kw(8);
      for (auto& t : kw) t = rng.NextUint32(10'000);
      std::sort(kw.begin(), kw.end());
      kw.erase(std::unique(kw.begin(), kw.end()), kw.end());
      r.obj.keywords = std::move(kw);
    } else {
      r.key.order = core::kDataOrderScore;
    }
    records.push_back(std::move(r));
  }
  return records;
}

struct AbResult {
  std::string name;
  double legacy_rps = 0.0;
  double bucketed_rps = 0.0;
  uint64_t records = 0;
  double speedup() const { return bucketed_rps / legacy_rps; }
};

double MeasureRps(const std::vector<PreKeyed>& input, ShuffleMode mode) {
  mapreduce::JobConfig config;
  config.num_map_tasks = 8;
  config.num_reduce_tasks = 32;
  config.num_workers = 4;
  config.job_name = "bench_shuffle";
  config.shuffle_mode = mode;
  const auto spec = PassThroughSpec();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    auto result = mapreduce::RunJob(spec, config, input);
    const double secs = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    best = std::max(best,
                    static_cast<double>(result->stats.map_output_records) /
                        secs);
  }
  return best;
}

struct EndToEndResult {
  std::string algo;
  double legacy_seconds = 0.0;
  double bucketed_seconds = 0.0;
};

}  // namespace
}  // namespace spq

int main() {
  using namespace spq;
  Logger::SetMinLevel(LogLevel::kWarn);

  std::printf("==== Shuffle A/B: legacy comparison sort vs. cell-bucketed "
              "flat arena ====\n\n");

  // ---- Part 1: shuffle-dominated pass-through job --------------------------
  constexpr std::size_t kNumRecords = 400'000;
  std::vector<AbResult> ab_results;
  for (const bool clustered : {false, true}) {
    AbResult ab;
    ab.name = clustered ? "clustered" : "uniform";
    ab.records = kNumRecords;
    const auto input = MakeRecords(kNumRecords, clustered, 2017);
    ab.legacy_rps = MeasureRps(input, ShuffleMode::kLegacySort);
    ab.bucketed_rps = MeasureRps(input, ShuffleMode::kCellBucketed);
    std::printf("%-10s %12llu recs   legacy %10.0f rec/s   bucketed %10.0f "
                "rec/s   speedup %.2fx\n",
                ab.name.c_str(),
                static_cast<unsigned long long>(ab.records), ab.legacy_rps,
                ab.bucketed_rps, ab.speedup());
    ab_results.push_back(ab);
  }

  // ---- Part 2: end-to-end engine runs per algorithm ------------------------
  std::printf("\n==== End-to-end Execute() per algorithm (Flickr-like, "
              "200k objects) ====\n\n");
  auto dataset = datagen::MakeRealLikeDataset(datagen::FlickrLikeSpec(200'000));
  if (!dataset.ok()) return 1;

  datagen::WorkloadSpec wspec;
  wspec.num_keywords = 5;
  wspec.radius = datagen::RadiusFromCellFraction(0.10, 1.0, 50);
  wspec.k = 10;
  wspec.term_zipf = 1.0;
  wspec.vocab_size = 34'716;
  wspec.seed = 2017;
  const auto query = datagen::MakeQuery(wspec, 0);

  // One engine per mode (the dataset copy + flatten is expensive and not
  // part of the measurement); all algorithms share it.
  core::EngineOptions legacy_options;
  legacy_options.grid_size = 50;
  legacy_options.shuffle_mode = ShuffleMode::kLegacySort;
  core::SpqEngine legacy_engine(*dataset, legacy_options);
  core::EngineOptions bucketed_options = legacy_options;
  bucketed_options.shuffle_mode = ShuffleMode::kCellBucketed;
  core::SpqEngine bucketed_engine(*dataset, bucketed_options);

  std::vector<EndToEndResult> e2e;
  for (core::Algorithm algo :
       {core::Algorithm::kPSPQ, core::Algorithm::kESPQLen,
        core::Algorithm::kESPQSco}) {
    EndToEndResult row;
    row.algo = core::AlgorithmName(algo);
    for (const core::SpqEngine* engine : {&legacy_engine, &bucketed_engine}) {
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        auto result = engine->Execute(query, algo);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        best = std::min(best, result->info.job.total_seconds);
      }
      if (engine == &legacy_engine) {
        row.legacy_seconds = best;
      } else {
        row.bucketed_seconds = best;
      }
    }
    std::printf("%-9s legacy %8.4fs   bucketed %8.4fs   speedup %.2fx\n",
                row.algo.c_str(), row.legacy_seconds, row.bucketed_seconds,
                row.legacy_seconds / row.bucketed_seconds);
    e2e.push_back(row);
  }

  // ---- Machine-readable output for cross-PR perf tracking ------------------
  std::ofstream json("BENCH_shuffle.json");
  json << "{\n  \"benchmark\": \"shuffle_ab\",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < ab_results.size(); ++i) {
    const AbResult& ab = ab_results[i];
    json << "    {\"name\": \"" << ab.name << "\", \"records\": "
         << ab.records << ", \"legacy_records_per_sec\": "
         << static_cast<uint64_t>(ab.legacy_rps)
         << ", \"bucketed_records_per_sec\": "
         << static_cast<uint64_t>(ab.bucketed_rps) << ", \"speedup\": "
         << ab.speedup() << "}" << (i + 1 < ab_results.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    json << "    {\"algorithm\": \"" << e2e[i].algo
         << "\", \"legacy_seconds\": " << e2e[i].legacy_seconds
         << ", \"bucketed_seconds\": " << e2e[i].bucketed_seconds << "}"
         << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nWrote BENCH_shuffle.json\n");

  // The tentpole's acceptance bar: >= 1.5x records/sec on both workloads.
  bool ok = true;
  for (const AbResult& ab : ab_results) ok = ok && ab.speedup() >= 1.5;
  std::printf("acceptance (>=1.5x on uniform and clustered): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
