// Differential test of top-k admission under score ties: on datasets built
// so that many data objects share the k-th best score, pSPQ and eSPQlen
// must return exactly BruteForceSpq's answer (score desc, id asc) on every
// serving path — cold Execute, cold ExecuteBatch, warm Query and warm
// QueryBatch. A full top-k list must still admit a feature scoring exactly
// τ, because an object reaching τ with a smaller id than the k-th entry
// displaces it; eSPQlen's Lemma-2 stop must not fire while a feature can
// still tie τ. (eSPQsco's Lemma-3 stop has a tie case of its own, which
// this suite does not cover.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "spq/engine.h"
#include "spq/sequential.h"

namespace spq::core {
namespace {

constexpr double kSide = 100.0;
constexpr double kMaxRadius = 9.0;

/// Few distinct scores, many objects per score: four terms, features carry
/// random non-empty subsets, and the query asks for {0, 1}, so every score
/// is one of 1/4, 1/3, 1/2, 2/3 or 1. Data ids are a random permutation, so
/// the id tie-break is uncorrelated with the order records reach reducers.
Dataset MakeTieDataset(uint64_t seed) {
  Rng rng(seed);
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, kSide, kSide};
  std::vector<ObjectId> ids(700);
  std::iota(ids.begin(), ids.end(), ObjectId{1});
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextUint64(i)]);
  }
  for (ObjectId id : ids) {
    dataset.data.push_back(
        {id, {rng.NextDouble(0.0, kSide), rng.NextDouble(0.0, kSide)}});
  }
  for (ObjectId f = 0; f < 250; ++f) {
    std::vector<text::TermId> terms;
    while (terms.empty()) {
      for (text::TermId t = 0; t < 4; ++t) {
        if (rng.NextBool(0.4)) terms.push_back(t);
      }
    }
    dataset.features.push_back(
        {10'000 + f,
         {rng.NextDouble(0.0, kSide), rng.NextDouble(0.0, kSide)},
         text::KeywordSet(std::move(terms))});
  }
  return dataset;
}

std::vector<Query> MakeTieQueries(uint64_t seed) {
  Rng rng(seed ^ 0x7469657351ull);
  std::vector<Query> queries;
  for (uint32_t k : {1u, 2u, 3u, 5u, 8u, 13u}) {
    Query q;
    q.k = k;
    q.radius = rng.NextDouble(2.0, kMaxRadius);
    q.keywords = text::KeywordSet({0, 1});
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameEntries(const std::vector<ResultEntry>& expected,
                       const std::vector<ResultEntry>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << label << " @" << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " @" << i;
  }
}

class TieDifferentialTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TieDifferentialTest, MatchesBruteForceOnEveryPath) {
  const Algorithm algo = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EngineOptions options;
    options.grid_size = 6;
    options.num_workers = 2;
    options.num_map_tasks = 3;
    options.num_reduce_tasks = 5;
    SpqEngine engine(MakeTieDataset(seed), options);
    ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());
    const std::vector<Query> queries = MakeTieQueries(seed);

    std::vector<std::vector<ResultEntry>> expected;
    for (const Query& q : queries) {
      expected.push_back(BruteForceSpq(engine.dataset(), q));
    }
    auto cold_batch = engine.ExecuteBatch(queries, algo);
    auto warm_batch = engine.QueryBatch(queries, algo);
    ASSERT_TRUE(cold_batch.ok()) << cold_batch.status().ToString();
    ASSERT_TRUE(warm_batch.ok()) << warm_batch.status().ToString();
    ASSERT_TRUE(warm_batch->warm_path);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string label = AlgorithmName(algo) + " seed " +
                                std::to_string(seed) + " k " +
                                std::to_string(queries[i].k);
      auto cold = engine.Execute(queries[i], algo);
      auto warm = engine.Query(queries[i], algo);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(warm->info.warm_path) << label;
      ExpectSameEntries(expected[i], cold->entries, label + " cold");
      ExpectSameEntries(expected[i], warm->entries, label + " warm");
      ExpectSameEntries(expected[i], cold_batch->per_query[i],
                        label + " cold batch");
      ExpectSameEntries(expected[i], warm_batch->per_query[i],
                        label + " warm batch");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TieDifferentialTest,
                         ::testing::Values(Algorithm::kPSPQ,
                                           Algorithm::kESPQLen),
                         [](const auto& info) {
                           return AlgorithmName(info.param);
                         });

}  // namespace
}  // namespace spq::core
