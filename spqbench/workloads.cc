// Workload definitions of spqbench. Each follows one of the paper's
// Section 7 datasets (UN, CL, and the FL-like surrogate) with queries that
// use the paper's "random" keyword selection. Why each one is here is
// recorded in BENCHMARK.json; spqbench/README.md maps every per-layer
// metric to the end-to-end metric and workload it should move.

#include <algorithm>
#include <thread>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spqbench.h"

namespace spqbench {
namespace {

using spq::core::Algorithm;

constexpr Workload kWorkloads[] = {
    // Reduce-heavy: every query forms all 2,500 groups.
    {"warm_uniform", Workload::Data::kUniform, 400'000, 10'000, 5, 0.4,
     Algorithm::kESPQSco, /*cold_query_path=*/false, 50.0, 20000.0, 300,
     40.0},
    // Map-heavy with skewed cells: each query scans 100k features to keep
    // a few dozen.
    {"warm_flickr", Workload::Data::kFlickr, 200'000, 0, 2, 0.4,
     Algorithm::kESPQLen, /*cold_query_path=*/false, 50.0, 20000.0, 500,
     40.0},
    // The paper's own model: the dataset-side map, Lemma-1 duplication,
    // shuffle and skewed reducers run per query.
    {"cold_clustered", Workload::Data::kClustered, 200'000, 0, 5, 0.2,
     Algorithm::kPSPQ, /*cold_query_path=*/true, 20.0, 20000.0, 100, 100.0},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

spq::StatusOr<spq::core::Dataset> MakeDataset(const Workload& w) {
  // One fixed dataset per workload: where the clusters and hotspots of
  // CL and FL land moves the cost of every phase by more than the bounds,
  // so the run seed varies only what is sent to the engine.
  constexpr uint64_t seed = 2017;
  spq::StatusOr<spq::core::Dataset> data =
      spq::Status::InvalidArgument("unknown dataset family");
  switch (w.data) {
    case Workload::Data::kUniform: {
      spq::datagen::UniformSpec spec;
      spec.num_objects = w.num_objects;
      spec.seed = seed;
      spec.vocab_size = 1'000;
      spec.min_keywords = 4;
      spec.max_keywords = 24;
      data = spq::datagen::MakeUniformDataset(spec);
      break;
    }
    case Workload::Data::kFlickr:
      data = spq::datagen::MakeRealLikeDataset(
          spq::datagen::FlickrLikeSpec(w.num_objects, seed));
      break;
    case Workload::Data::kClustered: {
      spq::datagen::ClusteredSpec spec;
      spec.num_objects = w.num_objects;
      spec.seed = seed;
      spec.vocab_size = 1'000;
      spec.min_keywords = 4;
      spec.max_keywords = 24;
      spec.num_clusters = 16;
      data = spq::datagen::MakeClusteredDataset(spec);
      break;
    }
  }
  if (data.ok() && w.max_features > 0 &&
      data->features.size() > w.max_features) {
    data->features.resize(w.max_features);
  }
  return data;
}

std::vector<spq::core::Query> MakeQueryStream(const Workload& w,
                                              const spq::core::Dataset& data,
                                              uint64_t seed,
                                              std::size_t count) {
  spq::datagen::WorkloadSpec spec;
  spec.num_keywords = w.query_keywords;
  spec.radius = spq::datagen::RadiusFromCellFraction(
      w.radius_cells, data.bounds.width(), kGridSize);
  spec.k = kTopK;
  spec.selection = spq::datagen::KeywordSelection::kUniformRandom;
  spec.vocab_size =
      w.data == Workload::Data::kFlickr
          ? spq::datagen::FlickrLikeSpec(w.num_objects).vocab_size
          : 1'000;
  spec.seed = seed ^ 0x5157'4245'4e43'4855ULL;
  return spq::datagen::MakeQueries(spec, count);
}

spq::core::EngineOptions MakeEngineOptions(uint32_t queue_capacity) {
  spq::core::EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = kWorkers;
  options.num_reduce_tasks =
      8 * std::max(1u, std::thread::hardware_concurrency());
  options.serving.max_batch = kMaxBatch;
  options.serving.num_executors = 1;
  options.serving.queue_capacity = queue_capacity;
  return options;
}

}  // namespace spqbench
