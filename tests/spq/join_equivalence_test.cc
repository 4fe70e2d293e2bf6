// Property tests for the reduce-side join (JoinMode::kAuto, which scans or
// walks a grid index per cell and query): across all three algorithms,
// both shuffle pipelines, single-query and batched execution and
// spill/no-spill, it must return results bit-identical to the paper's
// linear scan (JoinMode::kLinearScan) — same ids, same scores, and
// identical counters for everything the join strategy must not change
// (features examined, early terminations, groups, shuffle volume). The
// only permitted difference is `reduce.pairs_tested`, which counts the
// distance evaluations actually performed: the quantity the index exists
// to shrink, so the tests assert indexed <= linear, and strictly below on
// at least one configuration per algorithm, which proves the matrix
// reaches the index branch as well as the scan.
//
// Workloads deliberately include the shapes the index must not get wrong:
// coarse grids (many objects per cell), one cell dense enough for the
// index beside sparse cells that scan, r = a/2 (the duplication-regime
// boundary), r close to a (nearly every feature duplicated), and cells
// holding features but zero data objects.
//
// The same file pins the keyword-signature screens
// (EngineOptions::signature_prefilter) against the unscreened path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/engine.h"
#include "spq/reduce_core.h"
#include "text/keyword_set.h"

namespace spq::core {
namespace {

using mapreduce::ShuffleMode;

/// The "faults"-labeled ctest entries set SPQ_TEST_FAULTS: the suite then
/// runs under injected task + storage faults with a generous retry budget
/// — join and signature equivalence must survive the retry machinery too.
void ApplyEnvFaults(EngineOptions& options) {
  const char* env = std::getenv("SPQ_TEST_FAULTS");
  if (env == nullptr || *env == '\0' || *env == '0') return;
  options.faults.map_failure_prob = 0.15;
  options.faults.reduce_failure_prob = 0.15;
  options.faults.storage_fault_prob = 0.05;
  options.faults.seed = 1307;
  options.max_task_attempts = 50;
}

/// Uniform features everywhere; data objects either uniform too, or
/// confined to the left half of the space (`data_gap`), so roughly half
/// the grid's cells receive feature-only reduce groups — the 0-data
/// degenerate shape. `dense_rows` more data objects crowd the square
/// [0.02, 0.22]², inside the first cell of a 4x4 grid: enough rows for the
/// join rule to pick the grid index there at small radii.
Dataset MakeJoinDataset(uint64_t seed, bool data_gap,
                        uint32_t dense_rows = 1'200) {
  Rng rng(seed);
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  for (uint32_t i = 0; i < 1'500; ++i) {
    DataObject p;
    p.id = i;
    p.pos = {data_gap ? rng.NextDouble() * 0.5 : rng.NextDouble(),
             rng.NextDouble()};
    dataset.data.push_back(p);
  }
  for (uint32_t i = 0; i < dense_rows; ++i) {
    DataObject p;
    p.id = 1'500 + i;
    p.pos = {0.02 + 0.2 * rng.NextDouble(), 0.02 + 0.2 * rng.NextDouble()};
    dataset.data.push_back(p);
  }
  for (uint32_t i = 0; i < 1'500; ++i) {
    FeatureObject f;
    f.id = 100'000 + i;
    f.pos = {rng.NextDouble(), rng.NextDouble()};
    std::vector<text::TermId> terms;
    const uint32_t n = 2 + rng.NextUint32(6);
    for (uint32_t t = 0; t < n; ++t) terms.push_back(rng.NextUint32(50));
    f.keywords = text::KeywordSet(std::move(terms));
    dataset.features.push_back(f);
  }
  return dataset;
}

Query MakeJoinQuery(uint64_t seed, double radius) {
  Rng rng(seed);
  Query q;
  q.k = 5 + rng.NextUint32(10);
  q.radius = radius;
  q.keywords = text::KeywordSet(
      {rng.NextUint32(50), rng.NextUint32(50), rng.NextUint32(50)});
  return q;
}

void ExpectEquivalent(const SpqResult& linear, const SpqResult& indexed,
                      const std::string& label) {
  ASSERT_EQ(linear.entries.size(), indexed.entries.size()) << label;
  for (std::size_t i = 0; i < linear.entries.size(); ++i) {
    EXPECT_EQ(linear.entries[i].id, indexed.entries[i].id)
        << label << " @" << i;
    // Bit-identical, not approximately equal: the index may only change
    // which pairs get a distance test, never any score computation.
    EXPECT_EQ(linear.entries[i].score, indexed.entries[i].score)
        << label << " @" << i;
  }
  const SpqRunInfo& a = linear.info;
  const SpqRunInfo& b = indexed.info;
  EXPECT_EQ(a.features_kept, b.features_kept) << label;
  EXPECT_EQ(a.features_pruned, b.features_pruned) << label;
  EXPECT_EQ(a.feature_duplicates, b.feature_duplicates) << label;
  EXPECT_EQ(a.features_examined, b.features_examined) << label;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << label;
  EXPECT_EQ(a.reduce_groups, b.reduce_groups) << label;
  EXPECT_EQ(a.job.map_output_records, b.job.map_output_records) << label;
  EXPECT_EQ(a.job.reduce_input_records, b.job.reduce_input_records) << label;
  // The one legitimate difference: the indexed join performs at most as
  // many distance evaluations as the full scan.
  EXPECT_LE(b.pairs_tested, a.pairs_tested) << label;
}

class JoinEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, ShuffleMode, bool>> {};

TEST_P(JoinEquivalenceTest, GridIndexMatchesLinearScan) {
  const auto [algo, shuffle_mode, spill] = GetParam();

  EngineOptions base;
  // Coarse grid: 4x4 cells over 4200 objects puts ~200 objects in most
  // reduce groups and ~1,300 data objects in the dense one — the workload
  // whose |O_i|·|F_i| blowup the index attacks, and big enough that
  // probe/bucket edge cases get exercised.
  base.grid_size = 4;
  base.num_workers = 4;
  // >= FlatMergeStream::kLoserTreeMinFanIn map tasks, so the flat runs
  // also cover the loser-tree merge end to end.
  base.num_map_tasks = 9;
  base.num_reduce_tasks = 7;  // fewer reducers than cells
  base.shuffle_mode = shuffle_mode;
  std::string spill_dir;
  if (spill) {
    std::string unique =
        "spq_join_equivalence-" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "-" + std::to_string(static_cast<int>(::getpid()));
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
    spill_dir = (std::filesystem::temp_directory_path() / unique).string();
    base.spill_dir = spill_dir;
  }
  ApplyEnvFaults(base);

  EngineOptions linear_options = base;
  linear_options.join_mode = JoinMode::kLinearScan;
  EngineOptions indexed_options = base;
  indexed_options.join_mode = JoinMode::kAuto;

  const double cell_edge = 1.0 / base.grid_size;
  bool index_saved_pairs = false;
  for (uint64_t seed : {21ull, 22ull}) {
    for (const bool data_gap : {false, true}) {
      const Dataset dataset = MakeJoinDataset(seed, data_gap);
      SpqEngine linear_engine(dataset, linear_options);
      SpqEngine indexed_engine(dataset, indexed_options);
      // r = 0.05a (the dense cell's probes cover a small part of it: the
      // index's win case), r = 0.1a (small, but the dense cell scans),
      // r = a/2 (the paper's duplication-regime boundary) and r = 0.95a
      // (nearly every feature duplicated into neighbor cells).
      for (const double radius : {0.05 * cell_edge, 0.1 * cell_edge,
                                  0.5 * cell_edge, 0.95 * cell_edge}) {
        const Query query = MakeJoinQuery(seed * 31 + radius * 100, radius);
        auto linear = linear_engine.Execute(query, algo);
        auto indexed = indexed_engine.Execute(query, algo);
        ASSERT_TRUE(linear.ok()) << linear.status().ToString();
        ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
        ExpectEquivalent(*linear, *indexed,
                         "seed=" + std::to_string(seed) +
                             " gap=" + std::to_string(data_gap) +
                             " r=" + std::to_string(radius));
        index_saved_pairs = index_saved_pairs ||
                            indexed->info.pairs_tested <
                                linear->info.pairs_tested;
      }
    }
  }
  EXPECT_TRUE(index_saved_pairs)
      << "no configuration reached the index branch";
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Values(ShuffleMode::kCellBucketed,
                                         ShuffleMode::kLegacySort),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      name += std::get<1>(info.param) == ShuffleMode::kCellBucketed
                  ? "_bucketed"
                  : "_legacy";
      name += std::get<2>(info.param) ? "_spill" : "_mem";
      return name;
    });

TEST(JoinEquivalenceTest, BatchGridIndexMatchesLinearScan) {
  const Dataset dataset = MakeJoinDataset(91, /*data_gap=*/true);
  const double cell_edge = 1.0 / 4;
  std::vector<Query> queries;
  // The first radius sends the dense cell to the index, the rest scan.
  const double radii[] = {0.05, 0.5, 0.7, 0.9};
  for (uint32_t i = 0; i < 4; ++i) {
    Query q = MakeJoinQuery(700 + i, radii[i] * cell_edge);
    q.k = 3 + i;
    queries.push_back(q);
  }

  EngineOptions base;
  base.grid_size = 4;
  base.num_workers = 4;
  base.num_map_tasks = 9;
  base.num_reduce_tasks = 5;
  ApplyEnvFaults(base);

  for (const ShuffleMode shuffle_mode :
       {ShuffleMode::kCellBucketed, ShuffleMode::kLegacySort}) {
    for (const bool spill : {false, true}) {
      EngineOptions linear_options = base;
      linear_options.shuffle_mode = shuffle_mode;
      linear_options.join_mode = JoinMode::kLinearScan;
      EngineOptions indexed_options = linear_options;
      indexed_options.join_mode = JoinMode::kAuto;
      std::string spill_dir;
      if (spill) {
        spill_dir = (std::filesystem::temp_directory_path() /
                     ("spq_join_equivalence_batch-" +
                      std::to_string(static_cast<int>(::getpid()))))
                        .string();
        linear_options.spill_dir = spill_dir;
        indexed_options.spill_dir = spill_dir;
      }
      SpqEngine linear_engine(dataset, linear_options);
      SpqEngine indexed_engine(dataset, indexed_options);
      for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                             Algorithm::kESPQSco}) {
        auto linear = linear_engine.ExecuteBatch(queries, algo);
        auto indexed = indexed_engine.ExecuteBatch(queries, algo);
        ASSERT_TRUE(linear.ok()) << linear.status().ToString();
        ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
        ASSERT_EQ(linear->per_query.size(), indexed->per_query.size());
        for (std::size_t q = 0; q < linear->per_query.size(); ++q) {
          const auto& le = linear->per_query[q];
          const auto& ie = indexed->per_query[q];
          ASSERT_EQ(le.size(), ie.size()) << "query " << q;
          for (std::size_t i = 0; i < le.size(); ++i) {
            EXPECT_EQ(le[i].id, ie[i].id) << "query " << q << " @" << i;
            EXPECT_EQ(le[i].score, ie[i].score)
                << "query " << q << " @" << i;
          }
        }
        EXPECT_EQ(linear->job.map_output_records,
                  indexed->job.map_output_records);
        EXPECT_EQ(linear->job.reduce_input_records,
                  indexed->job.reduce_input_records);
        const char* pairs = counter::Name(counter::kPairsTested);
        EXPECT_LT(indexed->job.counters.Get(pairs),
                  linear->job.counters.Get(pairs))
            << AlgorithmName(algo);
        for (counter::Id id :
             {counter::kFeaturesExamined, counter::kEarlyTerminations}) {
          EXPECT_EQ(indexed->job.counters.Get(counter::Name(id)),
                    linear->job.counters.Get(counter::Name(id)))
              << counter::Name(id);
        }
      }
      if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
    }
  }
}

// The indexed join must actually skip work on dense cells, not merely
// tie the scan — otherwise picking it would be pure overhead.
TEST(JoinEquivalenceTest, GridIndexTestsStrictlyFewerPairsOnCoarseGrid) {
  // One cell holds 20,000 of the 21,500 data objects, so its pairs
  // dominate the scan's total.
  const Dataset dataset =
      MakeJoinDataset(5, /*data_gap=*/false, /*dense_rows=*/20'000);
  EngineOptions linear_options;
  linear_options.grid_size = 4;
  linear_options.num_workers = 4;
  linear_options.join_mode = JoinMode::kLinearScan;
  EngineOptions indexed_options = linear_options;
  indexed_options.join_mode = JoinMode::kAuto;
  SpqEngine linear_engine(dataset, linear_options);
  SpqEngine indexed_engine(dataset, indexed_options);
  // A realistic coarse-grid shape: query radius well below the (large)
  // cell edge, so each probe's r-disk covers a small fraction of the cell.
  const Query query = MakeJoinQuery(17, 0.05 * (1.0 / 4));
  auto linear = linear_engine.Execute(query, Algorithm::kPSPQ);
  auto indexed = indexed_engine.Execute(query, Algorithm::kPSPQ);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_LT(indexed->info.pairs_tested, linear->info.pairs_tested / 2)
      << "expected the r-disk probe to skip most of the dense cell";
}

// ---------------------------------------------------------------------------
// CellGridIndex unit tests: the probe must be a superset of the exact
// r-disk under any bucket geometry, and SortedCandidates must come back
// ascending and duplicate-free (eSPQsco's report order depends on it).
// ---------------------------------------------------------------------------

TEST(CellGridIndexTest, CandidatesCoverDiskAndVisitOnce) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.NextUint32(300);
    std::vector<geo::Point> positions;
    positions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back({rng.NextDouble(), rng.NextDouble() * 0.3});
    }
    reduce_core::CellGridIndex index;
    index.Build(positions);
    for (int probe = 0; probe < 30; ++probe) {
      // Probe points wander outside the data bounding box, as duplicated
      // features do.
      const geo::Point p{rng.NextDouble(-0.3, 1.3), rng.NextDouble(-0.3, 1.3)};
      const double r = rng.NextDouble() * 0.4;
      const double r2 = r * r;
      std::vector<uint32_t> sorted;
      index.SortedCandidates(p, r, &sorted);
      for (std::size_t i = 1; i < sorted.size(); ++i) {
        ASSERT_LT(sorted[i - 1], sorted[i]) << "not ascending/unique";
      }
      std::vector<bool> is_candidate(n, false);
      for (uint32_t i : sorted) {
        ASSERT_LT(i, n);
        is_candidate[i] = true;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (geo::Distance2(positions[i], p) <= r2) {
          EXPECT_TRUE(is_candidate[i])
              << "in-disk point " << i << " missing from probe";
        }
      }
    }
  }
}

TEST(CellGridIndexTest, DegenerateGeometries) {
  reduce_core::CellGridIndex index;

  // Empty build: probes yield nothing.
  index.Build({});
  std::vector<uint32_t> out{7};
  index.SortedCandidates({0.5, 0.5}, 1.0, &out);
  EXPECT_TRUE(out.empty());

  // All positions identical (zero-area bounding box).
  std::vector<geo::Point> same(5, geo::Point{0.25, 0.75});
  index.Build(same);
  index.SortedCandidates({0.25, 0.75}, 0.0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  index.SortedCandidates({0.9, 0.9}, 0.01, &out);
  // Bucket-granular: one bucket, so everything is a candidate even though
  // nothing is in range — the exact distance test belongs to the caller.
  EXPECT_EQ(out.size(), 5u);

  // r = 0: the probe still finds the exact point.
  std::vector<geo::Point> line;
  for (int i = 0; i < 64; ++i) {
    line.push_back({static_cast<double>(i) / 64.0, 0.5});
  }
  index.Build(line);
  index.SortedCandidates({10.0 / 64.0, 0.5}, 0.0, &out);
  bool found = false;
  for (uint32_t i : out) found = found || i == 10;
  EXPECT_TRUE(found);
}

// Incremental append (the replacement for the stale-rebuild path):
// interleaved Sync/probe rounds must behave exactly like an index built
// fresh over the full position set — probes cover the r-disk, visit each
// index once, and SortedCandidates stays ascending — across pending-list
// sizes below and far above the fold threshold, with appended points both
// inside and outside the originally built bounding box.
TEST(CellGridIndexTest, InterleavedAppendAndProbeMatchesFreshBuild) {
  Rng rng(2017);
  for (int round = 0; round < 15; ++round) {
    std::vector<geo::Point> positions;
    const std::size_t initial = 1 + rng.NextUint32(120);
    for (std::size_t i = 0; i < initial; ++i) {
      positions.push_back({rng.NextDouble(), rng.NextDouble()});
    }
    reduce_core::CellGridIndex incremental;
    incremental.Sync(positions);  // initial build

    for (int step = 0; step < 8; ++step) {
      // Append a batch: sometimes tiny (stays pending), sometimes large
      // (forces a fold), sometimes outside the built bounding box (lands
      // clamped in a boundary bucket).
      const std::size_t batch = 1 + rng.NextUint32(step % 3 == 2 ? 60 : 6);
      for (std::size_t i = 0; i < batch; ++i) {
        const double spread = step % 2 == 0 ? 1.0 : 1.6;
        positions.push_back({rng.NextDouble() * spread - 0.3 * (spread - 1.0),
                             rng.NextDouble() * spread});
      }
      incremental.Sync(positions);
      ASSERT_EQ(incremental.built_size(), positions.size());

      reduce_core::CellGridIndex fresh;
      fresh.Build(positions);

      for (int probe = 0; probe < 10; ++probe) {
        const geo::Point p{rng.NextDouble(-0.3, 1.3),
                           rng.NextDouble(-0.3, 1.3)};
        const double r = rng.NextDouble() * 0.3;
        const double r2 = r * r;
        std::vector<uint32_t> got;
        incremental.SortedCandidates(p, r, &got);
        for (std::size_t i = 1; i < got.size(); ++i) {
          ASSERT_LT(got[i - 1], got[i]) << "not ascending/unique";
        }
        std::vector<bool> is_candidate(positions.size(), false);
        for (uint32_t i : got) {
          ASSERT_LT(i, positions.size());
          is_candidate[i] = true;
        }
        // Correctness: the probe is a superset of the exact r-disk.
        for (std::size_t i = 0; i < positions.size(); ++i) {
          if (geo::Distance2(positions[i], p) <= r2) {
            EXPECT_TRUE(is_candidate[i])
                << "in-disk point " << i << " missing after append";
          }
        }
        // ForEachCandidate agrees with SortedCandidates (same set, each
        // visited exactly once).
        std::vector<uint32_t> walked;
        incremental.ForEachCandidate(p, r,
                                     [&](uint32_t i) { walked.push_back(i); });
        std::sort(walked.begin(), walked.end());
        EXPECT_EQ(walked, got);
      }
    }

    // A Sync over a shrunk vector falls back to a rebuild.
    positions.resize(positions.size() / 2);
    incremental.Sync(positions);
    EXPECT_EQ(incremental.built_size(), positions.size());
    std::vector<uint32_t> out;
    incremental.SortedCandidates({0.5, 0.5}, 2.0, &out);
    EXPECT_EQ(out.size(), positions.size());
  }
}

// Appends ARBITRARILY far outside the built bounding box: bucket
// coordinates for such points overflow any naive double→int cast, so this
// pins the clamp-before-cast contract (finite huge magnitudes land in a
// boundary bucket, never UB) — the latent Append bug this suite fixed.
// Probes at matching extreme coordinates must still cover the r-disk.
TEST(CellGridIndexTest, ExtremeOutOfBboxAppendsStayClamped) {
  Rng rng(4099);
  std::vector<geo::Point> positions;
  for (int i = 0; i < 80; ++i) {
    positions.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  reduce_core::CellGridIndex incremental;
  incremental.Sync(positions);

  const double extremes[] = {1e12, -1e9, 3.5e15, -2.75e13};
  for (double mag : extremes) {
    positions.push_back({mag, mag * 0.5});
    positions.push_back({-mag * 0.25, mag});
  }
  incremental.Sync(positions);
  ASSERT_EQ(incremental.built_size(), positions.size());

  std::vector<geo::Point> probes{{0.5, 0.5}, {1e12, 0.5e12}, {-1e9, 0.0},
                                 {-2.5e14, -2.75e13},         {0.0, 3.5e15}};
  for (const geo::Point& p : probes) {
    for (double r : {0.0, 0.3, 1e10, 5e15}) {
      const double r2 = r * r;
      std::vector<uint32_t> got;
      incremental.SortedCandidates(p, r, &got);
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LT(got[i - 1], got[i]) << "not ascending/unique";
      }
      std::vector<bool> is_candidate(positions.size(), false);
      for (uint32_t i : got) {
        ASSERT_LT(i, positions.size());
        is_candidate[i] = true;
      }
      for (std::size_t i = 0; i < positions.size(); ++i) {
        if (geo::Distance2(positions[i], p) <= r2) {
          EXPECT_TRUE(is_candidate[i])
              << "in-disk point " << i << " missing at extreme coordinates";
        }
      }
    }
  }

  // A fresh Build over the same extreme set must agree with itself under
  // a full-cover probe: every point, exactly once.
  reduce_core::CellGridIndex fresh;
  fresh.Build(positions);
  std::vector<uint32_t> all;
  fresh.SortedCandidates({0.0, 0.0}, 1e16, &all);
  EXPECT_EQ(all.size(), positions.size());
}

// The dead-masked Build overload is the geometry backbone of mutation
// invariant M2 (cell_store.h): an index built over physical rows with the
// dead ones masked OUT must present EXACTLY the bucket geometry of a
// fresh index built over the surviving rows alone — same bbox, same side,
// same bucket assignment — with candidates reported as physical indices.
// Because the live→physical mapping is strictly increasing, the masked
// index's sorted candidates must equal the survivor-built index's
// candidates mapped through it, element for element. Dead rows must never
// surface, even when they would dominate the physical bounding box.
TEST(CellGridIndexTest, DeadMaskedBuildMatchesFreshBuildOverSurvivors) {
  Rng rng(6151);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 1 + rng.NextUint32(250);
    std::vector<geo::Point> positions;
    std::vector<uint8_t> dead;
    for (std::size_t i = 0; i < n; ++i) {
      // A fifth of the rows — including dead ones — sit far outside the
      // unit square, so a geometry leak (dead rows stretching the bbox)
      // would shift every bucket boundary and fail the exact comparison.
      const bool wild = rng.NextUint32(5) == 0;
      const double spread = wild ? 40.0 : 1.0;
      positions.push_back({rng.NextDouble() * spread - (wild ? 20.0 : 0.0),
                           rng.NextDouble() * spread});
      dead.push_back(rng.NextUint32(3) == 0 ? 1 : 0);
    }

    std::vector<geo::Point> survivors;
    std::vector<uint32_t> live_phys;  // survivor slot -> physical row
    for (std::size_t i = 0; i < n; ++i) {
      if (!dead[i]) {
        survivors.push_back(positions[i]);
        live_phys.push_back(static_cast<uint32_t>(i));
      }
    }

    reduce_core::CellGridIndex masked;
    masked.Build(positions, &dead);
    reduce_core::CellGridIndex reference;
    reference.Build(survivors);

    for (int probe = 0; probe < 25; ++probe) {
      const geo::Point p{rng.NextDouble(-0.5, 1.5), rng.NextDouble(-0.5, 1.5)};
      const double r = rng.NextDouble() * 0.5;
      std::vector<uint32_t> got;
      masked.SortedCandidates(p, r, &got);
      std::vector<uint32_t> want;
      reference.SortedCandidates(p, r, &want);
      for (uint32_t& slot : want) slot = live_phys[slot];
      EXPECT_EQ(got, want) << "round " << round << " probe " << probe
                           << ": masked geometry drifted from survivors";
      for (uint32_t i : got) {
        ASSERT_LT(i, n);
        EXPECT_FALSE(dead[i]) << "dead row " << i << " surfaced";
      }
    }

    // Everything-dead: the masked index must stay probe-safe and empty.
    std::vector<uint8_t> all_dead(n, 1);
    reduce_core::CellGridIndex empty;
    empty.Build(positions, &all_dead);
    std::vector<uint32_t> none{42};
    empty.SortedCandidates({0.5, 0.5}, 100.0, &none);
    EXPECT_TRUE(none.empty());
  }
}

// ---------------------------------------------------------------------------
// The join rule (UseGridIndex) at its boundaries.
// ---------------------------------------------------------------------------

reduce_core::CellExtent UnitExtent(std::size_t rows) {
  reduce_core::CellExtent e;
  e.rows = rows;
  e.max_x = 1.0;
  e.max_y = 1.0;
  return e;
}

TEST(JoinRuleTest, ScansBelowMinRowsAndIndexesFrom) {
  using reduce_core::kIndexMinRows;
  EXPECT_FALSE(reduce_core::UseGridIndex(UnitExtent(kIndexMinRows - 1), 0.0));
  EXPECT_TRUE(reduce_core::UseGridIndex(UnitExtent(kIndexMinRows), 0.0));
  EXPECT_TRUE(reduce_core::UseGridIndex(UnitExtent(100 * kIndexMinRows), 0.0));
}

TEST(JoinRuleTest, CoverageThreshold) {
  using reduce_core::kIndexMinRows;
  const reduce_core::CellExtent extent = UnitExtent(kIndexMinRows);
  // Over a unit square, coverage is (2r + 2/side)² with side = √rows.
  const double pad = 2.0 / reduce_core::GridSide(kIndexMinRows);
  const double edge_r =
      (std::sqrt(reduce_core::kIndexMaxCoverage) - pad) / 2.0;
  ASSERT_GT(edge_r, 0.0);
  EXPECT_TRUE(reduce_core::UseGridIndex(extent, edge_r * 0.999));
  EXPECT_FALSE(reduce_core::UseGridIndex(extent, edge_r * 1.001));
  // Coverage is a share of the live bounding box: the same radius over a
  // box ten times larger covers a hundredth of the area.
  reduce_core::CellExtent wide = extent;
  wide.max_x = wide.max_y = 10.0;
  EXPECT_TRUE(reduce_core::UseGridIndex(wide, edge_r * 1.001));
  EXPECT_FALSE(reduce_core::UseGridIndex(extent, 1e9));
}

TEST(JoinRuleTest, EmptyDegenerateAndNanCellsScan) {
  using reduce_core::kIndexMinRows;
  EXPECT_FALSE(reduce_core::UseGridIndex(reduce_core::CellExtent{}, 0.0));
  EXPECT_FALSE(reduce_core::UseGridIndex(reduce_core::CellExtent{}, 0.01));
  // All rows on one vertical line: the x axis counts as fully covered.
  reduce_core::CellExtent line = UnitExtent(kIndexMinRows);
  line.max_x = 0.0;
  EXPECT_FALSE(reduce_core::UseGridIndex(line, 0.0));
  EXPECT_FALSE(reduce_core::UseGridIndex(
      UnitExtent(kIndexMinRows), std::numeric_limits<double>::quiet_NaN()));
}

TEST(JoinRuleTest, ExtentSkipsDeadRowsAndMatchesGrowth) {
  const std::vector<geo::Point> positions = {
      {0.5, 0.5}, {-40.0, 3.0}, {0.25, 0.75}, {0.9, 0.1}};
  const std::vector<uint8_t> dead = {0, 1, 0, 0};
  const reduce_core::CellExtent masked =
      reduce_core::CellExtent::Of(positions, &dead);
  EXPECT_EQ(3u, masked.rows);
  EXPECT_EQ(0.25, masked.min_x);
  EXPECT_EQ(0.9, masked.max_x);
  EXPECT_EQ(0.1, masked.min_y);
  EXPECT_EQ(0.75, masked.max_y);
  // A growing cell absorbs its rows one at a time; the result must equal
  // the one-pass extent, or owned and frozen cells could decide apart.
  reduce_core::CellJoinIndex join;
  std::vector<geo::Point> grown;
  for (const geo::Point& p : positions) {
    grown.push_back(p);
    join.PrepareGrowing(grown, 0.1);
  }
  const reduce_core::CellExtent full = reduce_core::CellExtent::Of(positions);
  EXPECT_EQ(full.rows, join.extent.rows);
  EXPECT_EQ(full.min_x, join.extent.min_x);
  EXPECT_EQ(full.max_x, join.extent.max_x);
  EXPECT_EQ(full.min_y, join.extent.min_y);
  EXPECT_EQ(full.max_y, join.extent.max_y);
  // Cells below kIndexMinRows live rows get no grid index at all.
  reduce_core::CellJoinIndex small;
  small.Build(positions, &dead);
  EXPECT_EQ(0u, small.grid.built_size());
}

// ---------------------------------------------------------------------------
// Keyword-signature screens (EngineOptions::signature_prefilter): the
// map-side per-feature screen and the warm per-cell screen. Pure
// screening: only reduce.cells_pruned / reduce.signature_checks may differ
// from the off-state; everything else must be bit-identical, including
// the counter footprint of skipped warm groups.
// ---------------------------------------------------------------------------

constexpr uint32_t kSigGridSize = 7;

Dataset MakeClusteredTestDataset(uint64_t seed) {
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

// The suite name predates the removal of the distance-kernel knob; it is
// kept so these test ids stay stable.
class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(KernelEquivalenceTest, VariantsMatchScalarNoSigBaseline) {
  const auto [algo, spill] = GetParam();

  EngineOptions base_options;
  base_options.grid_size = kSigGridSize;
  base_options.num_workers = 4;
  base_options.num_map_tasks = 5;
  base_options.num_reduce_tasks = 6;  // < cells: multi-cell partitions
  base_options.signature_prefilter = false;
  std::string spill_dir;
  if (spill) {
    std::string unique =
        "spq_signature_equivalence-" +
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

  const double cell_edge = 1.0 / kSigGridSize;
  const double max_radius = 0.6 * cell_edge;
  const Dataset dataset = MakeClusteredTestDataset(73);

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

    EngineOptions options = base_options;
    options.signature_prefilter = true;
    SpqEngine engine(dataset, options);
    ASSERT_TRUE(engine.BuildStore(max_radius).ok());
    const std::string label = prefilter ? "sig prefilter" : "sig ablation";
    auto cold = engine.Execute(query, algo);
    auto warm = engine.Query(query, algo);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ExpectSameRun(*base_cold, *cold, label + " cold");
    ExpectSameRun(*base_warm, *warm, label + " warm");
    EXPECT_TRUE(warm->info.warm_path) << label;
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
  const Dataset dataset = MakeClusteredTestDataset(91);
  const double max_radius = 0.6 / kSigGridSize;
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
      EngineOptions options;
      options.grid_size = kSigGridSize;
      options.num_workers = 4;
      options.num_reduce_tasks = 6;
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
            EXPECT_EQ(be[i].score, re[i].score) << "query " << q << " @" << i;
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
