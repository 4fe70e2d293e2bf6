// A/B pins for this PR's two knobs:
//
//  - EngineOptions::kernel_mode: the batched (SIMD) distance kernel vs the
//    historical one-candidate-at-a-time scalar loop. Must be bit-identical
//    in results AND in every SPQ counter, including reduce.pairs_tested
//    (the batched path replicates the scalar loop's counting exactly —
//    speculative lane evaluations past eSPQsco's stop point are not
//    counted).
//  - EngineOptions::signature_prefilter: the keyword-signature screens
//    (map-side per-feature, warm-serving per-cell). Pure screening: only
//    reduce.cells_pruned / reduce.signature_checks may differ from the
//    off-state; everything else must be bit-identical, including the
//    counter footprint of skipped warm groups.
//
// Plus direct lane-for-lane tests pinning the AVX2 kernel backend against
// the portable reference on adversarial inputs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "common/simd.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/cell_store.h"
#include "spq/engine.h"

namespace spq::core {
namespace {

using mapreduce::ShuffleMode;

// ---------------------------------------------------------------- kernel

TEST(DistanceKernelTest, MatchesScalarReferenceLaneForLane) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  // Unaligned lengths around the 4-lane width, plus larger buffers.
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 256u}) {
    std::vector<double> xs(n), ys(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = coord(rng);
      ys[i] = coord(rng);
    }
    const double qx = coord(rng), qy = coord(rng);
    for (double r2 : {0.0, 1e-12, 0.25, 4.0, 64.0}) {
      std::vector<uint8_t> got(n, 0xCD), want(n, 0xAB);
      simd::DistanceWithinMask(xs.data(), ys.data(), n, qx, qy, r2,
                               got.data());
      simd::DistanceWithinMaskScalar(xs.data(), ys.data(), n, qx, qy, r2,
                                     want.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(want[i], got[i]) << "n=" << n << " r2=" << r2 << " i=" << i;
      }
    }
  }
}

TEST(DistanceKernelTest, ExactBoundaryIsInside) {
  // d2 == r2 must report 1 (the scalar `<=`): candidate at distance 3-4-5.
  const double xs[] = {3.0, 3.0, 3.0, 3.0, 3.0};
  const double ys[] = {4.0, 4.0, 4.0, 4.0, 4.0};
  uint8_t out[5];
  simd::DistanceWithinMask(xs, ys, 5, 0.0, 0.0, 25.0, out);
  for (uint8_t o : out) EXPECT_EQ(1, o);
  simd::DistanceWithinMask(xs, ys, 5, 0.0, 0.0,
                           std::nextafter(25.0, 0.0), out);
  for (uint8_t o : out) EXPECT_EQ(0, o);
}

TEST(DistanceKernelTest, NanAndSignedZeroMatchScalarSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double xs[] = {nan, 0.0, -0.0, 1.0, nan};
  const double ys[] = {0.0, nan, -0.0, 1.0, nan};
  uint8_t got[5], want[5];
  simd::DistanceWithinMask(xs, ys, 5, -0.0, 0.0, 10.0, got);
  simd::DistanceWithinMaskScalar(xs, ys, 5, -0.0, 0.0, 10.0, want);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(want[i], got[i]) << i;
  // NaN never satisfies <= — lanes 0, 1 and 4 must be outside.
  EXPECT_EQ(0, got[0]);
  EXPECT_EQ(0, got[1]);
  EXPECT_EQ(0, got[4]);
  EXPECT_EQ(1, got[2]);  // -0.0 vs -0.0: distance 0
}

TEST(DistanceKernelTest, KernelNameReflectsMode) {
  EXPECT_STREQ("scalar", simd::KernelName(simd::KernelMode::kScalar));
  const char* auto_name = simd::KernelName(simd::KernelMode::kAuto);
  if (simd::Avx2Available()) {
    EXPECT_STREQ("avx2", auto_name);
  } else {
    EXPECT_STREQ("scalar", auto_name);
  }
}

// ---------------------------------------------------------- engine matrix

constexpr uint32_t kGridSize = 7;

Dataset MakeDataset(uint64_t seed) {
  datagen::ClusteredSpec spec;
  spec.num_objects = 2'500;
  spec.seed = seed;
  spec.vocab_size = 120;
  spec.min_keywords = 2;
  spec.max_keywords = 16;
  spec.num_clusters = 5;
  auto dataset = datagen::MakeClusteredDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

Query MakeTestQuery(uint64_t seed, uint32_t num_keywords, double radius) {
  datagen::WorkloadSpec spec;
  spec.num_keywords = num_keywords;
  spec.radius = radius;
  spec.k = 5;
  spec.vocab_size = 120;
  spec.seed = seed;
  Query q = datagen::MakeQuery(spec, 0);
  q.radius = radius;
  return q;
}

void ExpectSameRun(const SpqResult& base, const SpqResult& var,
                   const std::string& label) {
  ASSERT_EQ(base.entries.size(), var.entries.size()) << label;
  for (std::size_t i = 0; i < base.entries.size(); ++i) {
    EXPECT_EQ(base.entries[i].id, var.entries[i].id) << label << " @" << i;
    EXPECT_EQ(base.entries[i].score, var.entries[i].score)
        << label << " @" << i;
  }
  const SpqRunInfo& a = base.info;
  const SpqRunInfo& b = var.info;
  EXPECT_EQ(a.features_kept, b.features_kept) << label;
  EXPECT_EQ(a.features_pruned, b.features_pruned) << label;
  EXPECT_EQ(a.feature_duplicates, b.feature_duplicates) << label;
  EXPECT_EQ(a.features_examined, b.features_examined) << label;
  EXPECT_EQ(a.pairs_tested, b.pairs_tested) << label;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << label;
  EXPECT_EQ(a.reduce_groups, b.reduce_groups) << label;
  // cells_pruned / signature_checks deliberately NOT compared: they are
  // the knob's own bookkeeping and legitimately differ across variants.
}

/// The "faults"-labeled ctest entries set SPQ_TEST_FAULTS: the suite then
/// runs under injected task + storage faults with a generous retry budget
/// — kernel/signature equivalence must survive the retry machinery too.
void ApplyEnvFaults(EngineOptions& options) {
  const char* env = std::getenv("SPQ_TEST_FAULTS");
  if (env == nullptr || *env == '\0' || *env == '0') return;
  options.faults.map_failure_prob = 0.15;
  options.faults.reduce_failure_prob = 0.15;
  options.faults.storage_fault_prob = 0.05;
  options.faults.seed = 1307;
  options.max_task_attempts = 50;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(KernelEquivalenceTest, VariantsMatchScalarNoSigBaseline) {
  const auto [algo, spill] = GetParam();

  EngineOptions base_options;
  base_options.grid_size = kGridSize;
  base_options.num_workers = 4;
  base_options.num_map_tasks = 5;
  base_options.num_reduce_tasks = 6;  // < cells: multi-cell partitions
  base_options.kernel_mode = simd::KernelMode::kScalar;
  base_options.signature_prefilter = false;
  std::string spill_dir;
  if (spill) {
    std::string unique =
        "spq_kernel_equivalence-" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "-" + std::to_string(static_cast<int>(::getpid()));
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
    spill_dir = (std::filesystem::temp_directory_path() / unique).string();
    base_options.spill_dir = spill_dir;
  }
  ApplyEnvFaults(base_options);

  const double cell_edge = 1.0 / kGridSize;
  const double max_radius = 0.6 * cell_edge;
  const Dataset dataset = MakeDataset(73);

  struct Variant {
    simd::KernelMode kernel;
    bool signature;
    const char* name;
  };
  const Variant variants[] = {
      {simd::KernelMode::kAuto, false, "auto_nosig"},
      {simd::KernelMode::kScalar, true, "scalar_sig"},
      {simd::KernelMode::kAuto, true, "auto_sig"},
  };

  for (const bool prefilter : {true, false}) {
    base_options.keyword_prefilter = prefilter;
    SpqEngine base_engine(dataset, base_options);
    ASSERT_TRUE(base_engine.BuildStore(max_radius).ok());
    const Query query =
        MakeTestQuery(500 + (prefilter ? 1 : 0), 3, 0.8 * max_radius);
    auto base_cold = base_engine.Execute(query, algo);
    auto base_warm = base_engine.Query(query, algo);
    ASSERT_TRUE(base_cold.ok()) << base_cold.status().ToString();
    ASSERT_TRUE(base_warm.ok()) << base_warm.status().ToString();
    EXPECT_EQ(0u, base_cold->info.signature_checks);
    EXPECT_EQ(0u, base_warm->info.cells_pruned);

    for (const Variant& v : variants) {
      EngineOptions options = base_options;
      options.kernel_mode = v.kernel;
      options.signature_prefilter = v.signature;
      SpqEngine engine(dataset, options);
      ASSERT_TRUE(engine.BuildStore(max_radius).ok());
      const std::string label = std::string(v.name) +
                                (prefilter ? " prefilter" : " ablation");
      auto cold = engine.Execute(query, algo);
      auto warm = engine.Query(query, algo);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ExpectSameRun(*base_cold, *cold, label + " cold");
      ExpectSameRun(*base_warm, *warm, label + " warm");
      EXPECT_TRUE(warm->info.warm_path) << label;
    }
  }
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      name += std::get<1>(info.param) ? "_spill" : "_mem";
      return name;
    });

TEST(KernelEquivalenceTest, BatchVariantsMatchBaseline) {
  const Dataset dataset = MakeDataset(91);
  const double max_radius = 0.6 / kGridSize;
  std::vector<Query> queries;
  for (uint32_t i = 0; i < 3; ++i) {
    Query q = MakeTestQuery(800 + i, 1 + i, (0.3 + 0.3 * i) * max_radius);
    q.k = 3 + i;
    queries.push_back(q);
  }

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    SpqBatchResult base;
    bool have_base = false;
    for (const bool sig : {false, true}) {
      for (simd::KernelMode kernel :
           {simd::KernelMode::kScalar, simd::KernelMode::kAuto}) {
        EngineOptions options;
        options.grid_size = kGridSize;
        options.num_workers = 4;
        options.num_reduce_tasks = 6;
        options.kernel_mode = kernel;
        options.signature_prefilter = sig;
        ApplyEnvFaults(options);
        SpqEngine engine(dataset, options);
        ASSERT_TRUE(engine.BuildStore(max_radius).ok());
        auto cold = engine.ExecuteBatch(queries, algo);
        auto warm = engine.QueryBatch(queries, algo);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        for (const auto* run : {&*cold, &*warm}) {
          if (!have_base) {
            base = *run;
            have_base = true;
            continue;
          }
          ASSERT_EQ(base.per_query.size(), run->per_query.size());
          for (std::size_t q = 0; q < base.per_query.size(); ++q) {
            const auto& be = base.per_query[q];
            const auto& re = run->per_query[q];
            ASSERT_EQ(be.size(), re.size()) << "query " << q;
            for (std::size_t i = 0; i < be.size(); ++i) {
              EXPECT_EQ(be[i].id, re[i].id) << "query " << q << " @" << i;
              EXPECT_EQ(be[i].score, re[i].score)
                  << "query " << q << " @" << i;
            }
          }
          for (counter::Id id :
               {counter::kPairsTested, counter::kFeaturesExamined,
                counter::kEarlyTerminations, counter::kGroups}) {
            const char* c = counter::Name(id);
            EXPECT_EQ(base.job.counters.Get(c), run->job.counters.Get(c))
                << AlgorithmName(algo) << " " << c;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- cell-summary pruning

/// A hand-built dataset with spatially disjoint vocabularies: data objects
/// everywhere, left-half features talk about terms 0-9, right-half about
/// terms 100-109. A right-half query with the keyword prefilter DISABLED
/// (the reduce-side analogue of Algorithm 1 line 9 — with the prefilter
/// on, groups that would prune never form) must skip left-half cells via
/// their summaries, with results and legacy counters untouched.
TEST(KernelEquivalenceTest, CellSummarySkipsKeywordDisjointCells) {
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.01, 0.99);
  for (ObjectId i = 0; i < 600; ++i) {
    dataset.data.push_back({i, {unit(rng), unit(rng)}});
  }
  std::uniform_int_distribution<text::TermId> left_term(0, 9);
  std::uniform_int_distribution<text::TermId> right_term(100, 109);
  for (ObjectId i = 0; i < 400; ++i) {
    const double x = unit(rng), y = unit(rng);
    const bool left = x < 0.5;
    std::vector<text::TermId> terms;
    for (int t = 0; t < 4; ++t) {
      terms.push_back(left ? left_term(rng) : right_term(rng));
    }
    dataset.features.push_back(
        {1000 + i, {x, y}, text::KeywordSet(std::move(terms))});
  }

  Query query;
  query.k = 5;
  query.radius = 0.05;
  query.keywords = text::KeywordSet{100, 101, 102};

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    EngineOptions options;
    options.grid_size = 8;
    options.num_workers = 2;
    options.keyword_prefilter = false;  // ablation: groups form everywhere
    options.signature_prefilter = false;
    SpqEngine off_engine(dataset, options);
    ASSERT_TRUE(off_engine.BuildStore(query.radius).ok());
    auto off = off_engine.Query(query, algo);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    EXPECT_EQ(0u, off->info.cells_pruned);
    EXPECT_EQ(0u, off->info.signature_checks);

    options.signature_prefilter = true;
    SpqEngine on_engine(dataset, options);
    ASSERT_TRUE(on_engine.BuildStore(query.radius).ok());
    auto on = on_engine.Query(query, algo);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    // The left half's cells carry only terms 0-9: their groups must prune.
    EXPECT_GT(on->info.cells_pruned, 0u) << AlgorithmName(algo);
    EXPECT_GT(on->info.signature_checks, on->info.cells_pruned)
        << AlgorithmName(algo);
    ExpectSameRun(*off, *on, "summary-skip " + AlgorithmName(algo));
  }
}

}  // namespace
}  // namespace spq::core
