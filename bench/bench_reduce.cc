// A/B benchmark of the reduce-side join: the paper's linear |O_i| scan
// per surviving feature (JoinMode::kLinearScan) against the default
// per-cell choice (JoinMode::kAuto, reduce_core.h), which on this
// workload's dense cells and small radius picks the mini-grid index.
//
// The workload is a deliberately *coarse* grid — few, large cells over a
// uniform dataset, with the query radius well below the cell edge — the
// shape where each reduce group holds thousands of data objects but each
// feature's r-disk covers only a small patch of the cell. That is exactly
// the |O_i|·|F_i| blowup the paper's Section 6.3 cost model identifies
// (and sidesteps with small cells); the index makes the large-cell regime
// usable. Results go to stdout and BENCH_reduce.json (machine-readable,
// for cross-PR perf tracking).

// A second section sweeps the warm-serving path's keyword selectivity:
// vocabularies sized so a query's keywords occur in ~1% / ~10% / ~50% of
// the grid cells, measured A/B with the signature_prefilter knob off and
// on. The sweep rows land in BENCH_reduce.json next to the join A/B.

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/engine.h"
#include "text/keyword_set.h"

namespace spq {
namespace {

struct AbRow {
  std::string algo;
  double linear_rps = 0.0;   ///< reduce-phase records/sec, kLinearScan
  double indexed_rps = 0.0;  ///< reduce-phase records/sec, kAuto
  uint64_t linear_pairs = 0;
  uint64_t indexed_pairs = 0;
  double linear_reduce_seconds = 0.0;
  double indexed_reduce_seconds = 0.0;
  double speedup() const { return indexed_rps / linear_rps; }
};

uint64_t TotalReduceRecords(const mapreduce::JobStats& stats) {
  uint64_t total = 0;
  for (uint64_t v : stats.reduce_input_records) total += v;
  return total;
}

/// Best-of-3 reduce-phase throughput for one (engine, algorithm) pair.
void Measure(const core::SpqEngine& engine, core::Algorithm algo,
             const core::Query& query, double* rps, double* reduce_seconds,
             uint64_t* pairs) {
  *rps = 0.0;
  *reduce_seconds = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    auto result = engine.Execute(query, algo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    const double secs = result->info.job.reduce_seconds;
    const double rec_per_sec =
        static_cast<double>(TotalReduceRecords(result->info.job)) / secs;
    if (rec_per_sec > *rps) {
      *rps = rec_per_sec;
      *reduce_seconds = secs;
    }
    *pairs = result->info.pairs_tested;
  }
}

// ---- Warm-serving keyword-selectivity sweep -----------------------------

/// One signature_prefilter setting of the sweep's A/B pair. modes[0]
/// (signatures off) is the baseline every speedup is measured against.
struct SweepMode {
  std::string label;  ///< "sig-<on|off>"
  bool signature;
};

/// Per-(row, mode, algorithm) measurement.
struct SweepCell {
  double rps = 0.0;
  double reduce_seconds = 0.0;
  uint64_t cells_pruned = 0;
  uint64_t signature_checks = 0;
};

// Data-heavy cells (~375 resident objects each) against a light feature
// stream: the regime the resident store serves — a large object inventory
// probed by a modest feature set — and the one where the per-group costs
// the sweep isolates (score resets + candidate distance tests) dominate
// the fixed per-record shuffle drain.
constexpr uint32_t kSweepGrid = 40;         // 40x40 = 1600 cells
constexpr uint32_t kDistrictsPerSide = 10;  // districts of 4x4 cells
constexpr uint64_t kSweepData = 600'000;
constexpr uint64_t kSweepFeatures = 12'000;

/// Terms per vocabulary block. Eight gives the reducers real Jaccard
/// merges (4-8 term features against an 8-term query) while — see below —
/// still costing each block only ONE signature bit.
constexpr uint32_t kBlockTerms = 8;

/// Vocabulary blocks chosen so TermSignature maps each block to ONE known
/// signature bit: scanning TermIds upward from 0, the first kBlockTerms
/// whose Mix64 low-6 bits equal b form bit-b's block. This keeps the
/// per-cell signatures from saturating — the failure mode of a 64-bit
/// Bloom-style screen under a large spatially mixed vocabulary — so the
/// sweep's cell hit rates are governed by the LAYOUT, not by hash
/// collisions.
std::vector<std::array<text::TermId, kBlockTerms>> SieveTermsPerBit() {
  std::vector<std::array<text::TermId, kBlockTerms>> terms(64);
  std::array<uint32_t, 64> have{};
  int remaining = kBlockTerms * 64;
  for (text::TermId t = 0; remaining > 0; ++t) {
    const int b = static_cast<int>(Mix64(t) & 63);
    if (have[b] < kBlockTerms) {
      terms[b][have[b]++] = t;
      --remaining;
    }
  }
  return terms;
}

uint32_t DistrictAxis(double v) {
  const double scaled = v * kDistrictsPerSide;
  const uint32_t i = scaled < 0.0 ? 0 : static_cast<uint32_t>(scaled);
  return i >= kDistrictsPerSide ? kDistrictsPerSide - 1 : i;
}

uint32_t DistrictOf(geo::Point p) {
  return DistrictAxis(p.y) * kDistrictsPerSide + DistrictAxis(p.x);
}

/// Features draw 4-8 keywords from their district's eight-term block;
/// blocks repeat every `100 / distinct_blocks` districts in row-major
/// district order (contiguous bands; with >64 distinct blocks requested,
/// the 64 signature bits wrap and far-apart bands share a block). A query
/// holding one block's terms therefore matches ~1/distinct_blocks of the
/// area — plus the one-cell boundary ring the cell summaries absorb from
/// features within the build radius of a district edge. distinct_blocks
/// must divide 100.
core::Dataset MakeSweepDataset(
    uint32_t distinct_blocks,
    const std::vector<std::array<text::TermId, kBlockTerms>>& bit_terms) {
  const uint32_t band =
      kDistrictsPerSide * kDistrictsPerSide / distinct_blocks;
  core::Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  Rng rng(777);
  dataset.data.reserve(kSweepData);
  for (uint64_t i = 0; i < kSweepData; ++i) {
    dataset.data.push_back(
        core::DataObject{i, {rng.NextDouble(), rng.NextDouble()}});
  }
  dataset.features.reserve(kSweepFeatures);
  for (uint64_t i = 0; i < kSweepFeatures; ++i) {
    core::FeatureObject f;
    f.id = 1'000'000 + i;
    f.pos = {rng.NextDouble(), rng.NextDouble()};
    const auto& block = bit_terms[(DistrictOf(f.pos) / band) % 64];
    // 4-8 distinct block terms, taken cyclically from a random start:
    // Jaccard against the 8-term query lands anywhere in [1/2, 1].
    const uint32_t len = 4 + rng.NextUint32(kBlockTerms - 3);
    const uint32_t start = rng.NextUint32(kBlockTerms);
    std::vector<text::TermId> terms;
    terms.reserve(len);
    for (uint32_t j = 0; j < len; ++j) {
      terms.push_back(block[(start + j) % kBlockTerms]);
    }
    f.keywords = text::KeywordSet(std::move(terms));
    dataset.features.push_back(std::move(f));
  }
  return dataset;
}

/// Best-of-5 warm reduce-phase throughput. Also captures the prune
/// counters (run-deterministic) and the result list for the cross-mode
/// equality guard. Rep 1 doubles as the store's lazy materialization
/// warm-up, so best-of-5 measures steady-state serving for every mode.
void MeasureWarm(core::SpqEngine& engine, core::Algorithm algo,
                 const core::Query& query, SweepCell* cell,
                 std::vector<core::ResultEntry>* entries) {
  cell->rps = 0.0;
  cell->reduce_seconds = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    auto result = engine.Query(query, algo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    if (result->info.cold_fallback) {
      std::fprintf(stderr, "unexpected cold fallback in the warm sweep\n");
      std::exit(1);
    }
    const double secs = result->info.job.reduce_seconds;
    const double rec_per_sec =
        static_cast<double>(TotalReduceRecords(result->info.job)) / secs;
    if (rec_per_sec > cell->rps) {
      cell->rps = rec_per_sec;
      cell->reduce_seconds = secs;
    }
    cell->cells_pruned = result->info.cells_pruned;
    cell->signature_checks = result->info.signature_checks;
    *entries = std::move(result->entries);
  }
}

bool SameEntries(const std::vector<core::ResultEntry>& a,
                 const std::vector<core::ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

}  // namespace
}  // namespace spq

int main() {
  using namespace spq;
  Logger::SetMinLevel(LogLevel::kWarn);

  std::printf("==== Reduce-side join A/B: linear scan vs. mini-grid index "
              "(coarse 4x4 grid, data-heavy cells) ====\n\n");

  // Data-heavy coarse cells: 400k data objects but only 20k features on a
  // 4x4 grid — ~25k data objects per reduce group, scanned once per
  // surviving feature under kLinearScan. This is the |O_i|·|F_i|
  // large-cell regime (a ranking over a dense object inventory); the
  // generators' half/half object split hides it because there the
  // reducers' time goes to scoring the equally huge feature stream
  // rather than to the join.
  constexpr uint64_t kNumData = 400'000;
  constexpr uint64_t kNumFeatures = 20'000;
  constexpr uint32_t kVocab = 100;
  core::Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  {
    Rng rng(2017);
    dataset.data.reserve(kNumData);
    for (uint64_t i = 0; i < kNumData; ++i) {
      dataset.data.push_back(
          core::DataObject{i, {rng.NextDouble(), rng.NextDouble()}});
    }
    dataset.features.reserve(kNumFeatures);
    for (uint64_t i = 0; i < kNumFeatures; ++i) {
      core::FeatureObject f;
      f.id = 1'000'000 + i;
      f.pos = {rng.NextDouble(), rng.NextDouble()};
      std::vector<text::TermId> terms;
      const uint32_t n = 2 + rng.NextUint32(10);
      for (uint32_t t = 0; t < n; ++t) {
        terms.push_back(rng.NextUint32(kVocab));
      }
      f.keywords = text::KeywordSet(std::move(terms));
      dataset.features.push_back(std::move(f));
    }
  }

  constexpr uint32_t kGridSize = 4;
  datagen::WorkloadSpec wspec;
  wspec.num_keywords = 8;
  // A small absolute radius (0.6% of the large cell edge — a
  // neighborhood-scale query over a city-scale cell): each feature's
  // r-disk covers only a handful of objects, so the top-k threshold
  // climbs slowly and nearly every surviving feature runs the pair loop
  // — under kLinearScan, a full 25k-object scan each time.
  wspec.radius = datagen::RadiusFromCellFraction(0.006, 1.0, kGridSize);
  // k = 100, the paper's upper range.
  wspec.k = 100;
  wspec.vocab_size = kVocab;
  wspec.seed = 2017;
  const auto query = datagen::MakeQuery(wspec, 0);

  core::EngineOptions linear_options;
  linear_options.grid_size = kGridSize;
  linear_options.num_workers = 4;
  linear_options.join_mode = core::JoinMode::kLinearScan;
  core::SpqEngine linear_engine(dataset, linear_options);
  core::EngineOptions indexed_options = linear_options;
  indexed_options.join_mode = core::JoinMode::kAuto;
  core::SpqEngine indexed_engine(dataset, indexed_options);

  std::vector<AbRow> rows;
  for (core::Algorithm algo :
       {core::Algorithm::kPSPQ, core::Algorithm::kESPQLen,
        core::Algorithm::kESPQSco}) {
    AbRow row;
    row.algo = core::AlgorithmName(algo);
    Measure(linear_engine, algo, query, &row.linear_rps,
            &row.linear_reduce_seconds, &row.linear_pairs);
    Measure(indexed_engine, algo, query, &row.indexed_rps,
            &row.indexed_reduce_seconds, &row.indexed_pairs);
    std::printf("%-9s linear %10.0f rec/s (%8.4fs, %10llu pairs)   indexed "
                "%10.0f rec/s (%8.4fs, %10llu pairs)   speedup %.2fx\n",
                row.algo.c_str(), row.linear_rps, row.linear_reduce_seconds,
                static_cast<unsigned long long>(row.linear_pairs),
                row.indexed_rps, row.indexed_reduce_seconds,
                static_cast<unsigned long long>(row.indexed_pairs),
                row.speedup());
    rows.push_back(row);
  }

  // ---- Warm-serving keyword-selectivity sweep ------------------------------
  //
  // The map-side keyword prefilter is OFF throughout: with it on, every
  // shuffled feature shares a term with q, so every reduce group survives
  // the cell-summary screen and the sweep would measure nothing.
  // Off, the reduce input is identical across modes (the map-side
  // signature screen is gated on the prefilter) and the per-cell summary
  // is the operative prefilter — the same isolate-one-knob philosophy as
  // the linear/indexed A/B above.
  std::printf("\n==== Warm-serving selectivity sweep: cell signatures "
              "(40x40 grid, district-local vocab) ====\n\n");

  const core::Algorithm kAlgos[] = {core::Algorithm::kPSPQ,
                                    core::Algorithm::kESPQLen,
                                    core::Algorithm::kESPQSco};
  const auto bit_terms = SieveTermsPerBit();
  const SweepMode modes[] = {
      {"sig-off", false},  // baseline
      {"sig-on", true},
  };
  constexpr std::size_t kNumModes = 2;

  struct SweepRowOut {
    const char* target;
    uint32_t distinct_blocks;
    double hit_rate = 1.0;
    uint64_t cells_pruned = 0;
    uint64_t signature_checks = 0;
    SweepCell cells[kNumModes][3];  // [mode][algo]
  };
  // distinct_blocks controls the vocabulary size (2 terms per block) and
  // with it the fraction of districts — hence cells — a one-block query
  // touches: 100 blocks -> 1 district (~1% of cells before the boundary
  // ring), 10 -> one district row (~10%), 2 -> half the area (~50%).
  SweepRowOut sweep[] = {
      {"~1%", 100}, {"~10%", 10}, {"~50%", 2},
  };
  const double sweep_radius =
      datagen::RadiusFromCellFraction(0.5, 1.0, kSweepGrid);

  for (SweepRowOut& row : sweep) {
    const core::Dataset sweep_dataset =
        MakeSweepDataset(row.distinct_blocks, bit_terms);
    // The query carries district 55's full block: an interior district,
    // so the ~1% row's footprint is one district plus its boundary ring.
    const uint32_t band =
        kDistrictsPerSide * kDistrictsPerSide / row.distinct_blocks;
    const auto& qblock = bit_terms[(55 / band) % 64];
    core::Query query;
    query.k = 32;
    query.radius = sweep_radius;
    query.keywords = text::KeywordSet(
        std::vector<text::TermId>(qblock.begin(), qblock.end()));

    std::vector<core::ResultEntry> baseline_entries[3];
    for (std::size_t m = 0; m < kNumModes; ++m) {
      core::EngineOptions opt;
      opt.grid_size = kSweepGrid;
      // One worker and R < cells (the paper's consolidated-reducer
      // regime): the sweep times per-group serving work, not the task
      // scheduler, and single-worker runs keep best-of-N stable.
      opt.num_workers = 1;
      opt.num_reduce_tasks = 64;
      opt.keyword_prefilter = false;  // see the section comment
      opt.signature_prefilter = modes[m].signature;
      core::SpqEngine engine(sweep_dataset, opt);
      auto built = engine.BuildStore(sweep_radius);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.ToString().c_str());
        return 1;
      }
      for (std::size_t a = 0; a < 3; ++a) {
        std::vector<core::ResultEntry> entries;
        MeasureWarm(engine, kAlgos[a], query, &row.cells[m][a], &entries);
        if (m == 0) {
          baseline_entries[a] = std::move(entries);
        } else if (!SameEntries(baseline_entries[a], entries)) {
          std::fprintf(stderr, "mode %s changed %s's results!\n",
                       modes[m].label.c_str(),
                       core::AlgorithmName(kAlgos[a]).c_str());
          return 1;
        }
      }
      if (modes[m].signature) {
        row.cells_pruned = row.cells[m][0].cells_pruned;
        row.signature_checks = row.cells[m][0].signature_checks;
        if (row.signature_checks > 0) {
          row.hit_rate = 1.0 - static_cast<double>(row.cells_pruned) /
                                   static_cast<double>(row.signature_checks);
        }
      }
    }

    std::printf("row %-4s (%3u blocks, %3u terms): cell hit rate %.1f%% "
                "(%llu of %llu groups pruned)\n",
                row.target, row.distinct_blocks,
                kBlockTerms * std::min(row.distinct_blocks, 64u),
                100.0 * row.hit_rate,
                static_cast<unsigned long long>(row.cells_pruned),
                static_cast<unsigned long long>(row.signature_checks));
    for (std::size_t a = 0; a < 3; ++a) {
      std::printf("  %-9s", core::AlgorithmName(kAlgos[a]).c_str());
      for (std::size_t m = 0; m < kNumModes; ++m) {
        std::printf("  %s %9.0f rec/s", modes[m].label.c_str(),
                    row.cells[m][a].rps);
      }
      std::printf("  speedup %.2fx\n",
                  row.cells[kNumModes - 1][a].rps / row.cells[0][a].rps);
    }
  }

  // ---- Machine-readable output for cross-PR perf tracking ------------------
  std::ofstream json("BENCH_reduce.json");
  json << "{\n  \"benchmark\": \"bench_reduce\",\n"
       << "  \"join_ab\": {\n"
       << "    \"workload\": {\"data_objects\": " << kNumData
       << ", \"feature_objects\": " << kNumFeatures
       << ", \"grid_size\": " << kGridSize << ", \"k\": " << wspec.k
       << ", \"radius_cell_fraction\": 0.006},\n    \"algorithms\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AbRow& r = rows[i];
    json << "      {\"algorithm\": \"" << r.algo
         << "\", \"linear_reduce_records_per_sec\": "
         << static_cast<uint64_t>(r.linear_rps)
         << ", \"indexed_reduce_records_per_sec\": "
         << static_cast<uint64_t>(r.indexed_rps)
         << ", \"linear_pairs_tested\": " << r.linear_pairs
         << ", \"indexed_pairs_tested\": " << r.indexed_pairs
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"selectivity_sweep\": {\n"
       << "    \"workload\": {\"data_objects\": " << kSweepData
       << ", \"feature_objects\": " << kSweepFeatures
       << ", \"grid_size\": " << kSweepGrid
       << ", \"k\": 32, \"radius_cell_fraction\": 0.5"
       << ", \"keyword_prefilter\": false},\n"
       << "    \"rows\": [\n";
  for (std::size_t s = 0; s < 3; ++s) {
    const SweepRowOut& row = sweep[s];
    json << "      {\"target_cell_hit_rate\": \"" << row.target
         << "\", \"vocabulary_terms\": "
         << kBlockTerms * std::min(row.distinct_blocks, 64u)
         << ", \"measured_cell_hit_rate\": " << row.hit_rate
         << ", \"cells_pruned\": " << row.cells_pruned
         << ", \"signature_checks\": " << row.signature_checks
         << ",\n       \"modes\": [\n";
    for (std::size_t m = 0; m < kNumModes; ++m) {
      json << "        {\"mode\": \"" << modes[m].label
           << "\", \"signature\": " << (modes[m].signature ? "true" : "false")
           << ", \"reduce_records_per_sec\": {";
      for (std::size_t a = 0; a < 3; ++a) {
        json << "\"" << core::AlgorithmName(kAlgos[a]) << "\": "
             << static_cast<uint64_t>(row.cells[m][a].rps)
             << (a + 1 < 3 ? ", " : "");
      }
      json << "}}" << (m + 1 < kNumModes ? "," : "") << "\n";
    }
    json << "       ],\n       \"speedup_vs_baseline\": {";
    for (std::size_t a = 0; a < 3; ++a) {
      json << "\"" << core::AlgorithmName(kAlgos[a]) << "\": "
           << row.cells[kNumModes - 1][a].rps / row.cells[0][a].rps
           << (a + 1 < 3 ? ", " : "");
    }
    json << "}}" << (s + 1 < 3 ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";
  std::printf("\nWrote BENCH_reduce.json\n");

  // Acceptance gates. Join A/B: >= 1.3x reduce-phase throughput on the
  // scan-bound algorithms (eSPQsco's reducers stop after k reports
  // regardless of the join strategy — reported, not gated). Sweep: on the
  // keyword-selective row, signatures on >= 1.5x signatures off on the
  // same two algorithms (eSPQsco's descending-score first-hit walk
  // already skips zero-score groups after one sort — reported, not gated).
  bool ok = true;
  for (const AbRow& r : rows) {
    if (r.algo != "eSPQsco") ok = ok && r.speedup() >= 1.3;
  }
  std::printf("acceptance (>=1.3x reduce records/sec on pSPQ and eSPQlen): "
              "%s\n",
              ok ? "PASS" : "FAIL");
  bool sweep_ok = true;
  for (std::size_t a = 0; a < 2; ++a) {
    sweep_ok = sweep_ok &&
               sweep[0].cells[kNumModes - 1][a].rps >=
                   1.5 * sweep[0].cells[0][a].rps;
  }
  std::printf("acceptance (>=1.5x warm reduce records/sec, selective row, "
              "sig-on vs sig-off, pSPQ and eSPQlen): %s\n",
              sweep_ok ? "PASS" : "FAIL");
  ok = ok && sweep_ok;
  return ok ? 0 : 1;
}
