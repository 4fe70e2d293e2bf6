#ifndef SPQ_SPQ_ALGORITHMS_H_
#define SPQ_SPQ_ALGORITHMS_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <string>

#include "geo/grid.h"
#include "mapreduce/job.h"
#include "spq/shuffle_types.h"
#include "spq/types.h"

namespace spq::core {

/// The three parallel SPQ algorithms of the paper.
enum class Algorithm {
  /// Grid partitioning, no early termination (Section 4, Algorithms 1+2).
  kPSPQ,
  /// Early termination; features sorted by increasing keyword-set length
  /// (Section 5.1, Algorithms 3+4).
  kESPQLen,
  /// Early termination; features sorted by decreasing map-side Jaccard
  /// score (Section 5.2, Algorithms 5+6).
  kESPQSco,
};

/// "pSPQ" / "eSPQlen" / "eSPQsco" — the names used in the paper's plots.
std::string AlgorithmName(Algorithm algo);

/// Secondary-sort component assigned to data objects by `algo`'s mapper
/// (0 for pSPQ/eSPQlen; kDataOrderScore for eSPQsco).
double DataOrder(Algorithm algo);

/// Secondary-sort component assigned to a feature object: the tag (pSPQ),
/// |f.W| (eSPQlen) or -w(f,q) (eSPQsco). `common` is |x.W ∩ q.W|,
/// precomputed by the caller's prefilter pass.
double FeatureOrder(Algorithm algo, const Query& query,
                    const ShuffleObject& x, std::size_t common);

/// The SPQ work counters written by the mappers/reducers. Tasks count into
/// a typed per-attempt Tally; after a run the values are in
/// JobStats::counters under the names in kNames (exposed for benches and
/// tests: `stats.counters.Get(counter::Name(counter::kGroups))`).
namespace counter {
enum Id : uint8_t {
  kDataObjects,
  kFeaturesKept,
  kFeaturesPruned,
  kFeatureDuplicates,
  kFeaturesExamined,
  kPairsTested,
  kEarlyTerminations,
  kGroups,
  /// Warm reduce groups skipped whole by the cell text summary (signature
  /// AND empty, or the cell's keyword-length range cannot produce a
  /// positive score). Only the warm serving path maintains cell summaries,
  /// so this stays 0 on cold runs.
  kCellsPruned,
  /// Cell-summary screening tests performed (one per warm group while
  /// signature_prefilter is on and the query has keywords); the
  /// cells-pruned rate of a workload is kCellsPruned / kSignatureChecks.
  kSignatureChecks,
  kNumCounters,
};

/// The JobStats::counters name of every Id, in enum order.
inline constexpr const char* kNames[] = {
    "map.data_objects",          "map.features_kept",
    "map.features_pruned",       "map.feature_duplicates",
    "reduce.features_examined",  "reduce.pairs_tested",
    "reduce.early_terminations", "reduce.groups",
    "reduce.cells_pruned",       "reduce.signature_checks",
};
static_assert(std::size(kNames) == kNumCounters,
              "counter::kNames needs exactly one name per counter::Id");

inline const char* Name(Id id) { return kNames[id]; }

/// \brief Typed per-task tally of the SPQ counters: a plain integer add per
/// bump, where a named mapreduce::Counters::Increment builds a string,
/// takes a mutex and walks a map.
///
/// Single-writer contract: a Tally belongs to ONE map or reduce task
/// attempt and is only touched by the thread running that attempt, so it
/// needs no synchronization. It reaches the job exactly once, through
/// FlushTo into the attempt's context counters at the end of the attempt
/// (Mapper::Cleanup / Reducer::Cleanup, or after a warm reduce partition's
/// group loop); the runtime merges that context only when the attempt
/// succeeds, so a failed attempt's tally is discarded with it.
class Tally {
 public:
  void Add(Id id, uint64_t delta = 1) {
    values_[id] += delta;
    touched_ |= 1u << id;
  }

  /// Increments every counter touched since the last flush into `out`,
  /// zero-delta touches included, then resets. The resulting named
  /// snapshot is exactly what one Increment per Add would have produced:
  /// same names present (untouched ones absent), same sums.
  void FlushTo(mapreduce::Counters& out);

 private:
  std::array<uint64_t, kNumCounters> values_{};
  uint32_t touched_ = 0;  ///< bit i set <=> Id i was Add()ed
};
}  // namespace counter

/// \brief How a reduce group joins its surviving features against the
/// cell's data objects (the |O_i|·|F_i| loop of Algorithms 2/4/6).
enum class JoinMode {
  /// The paper's loop: every feature scans every data object of the cell.
  /// Kept as the reference semantics the equivalence tests pin kAuto
  /// against, and as the A/B baseline of bench_reduce.
  kLinearScan,
  /// Default: per (cell, query), scan the cell's rows or walk a small SoA
  /// mini-grid over them (reduce_core.h, CellGridIndex) whose buckets
  /// overlap each feature's r-disk — the index when the cell holds many
  /// live rows and the probe square covers a small share of their
  /// bounding box (reduce_core.h, UseGridIndex), the scan otherwise.
  /// Results, feature consumption and early-termination behavior are
  /// bit-identical to kLinearScan (see join_equivalence_test.cc); only the
  /// number of distance evaluations (`reduce.pairs_tested`) shrinks where
  /// the index is picked.
  kAuto,
};

/// \brief Tunables of the generated job beyond the algorithm choice.
struct SpqJobOptions {
  /// The map-side pruning of Algorithm 1 line 9 (drop features sharing no
  /// keyword with q.W before the shuffle). Disabling it is an ablation:
  /// results stay correct, but irrelevant features get shuffled, duplicated
  /// and (for pSPQ/eSPQlen) scored in the reducers.
  bool keyword_prefilter = true;
  /// Reduce-side data↔feature join strategy; see JoinMode.
  JoinMode join_mode = JoinMode::kAuto;
  /// Keyword-signature screening (TermSignature): map-side it skips the
  /// exact q.W ∩ f.W merge for features whose signature already proves the
  /// intersection empty; warm-serving reducers additionally skip whole
  /// cells whose summary proves no feature can score > 0 against q. Pure
  /// screening — results and result-bearing counters are bit-identical
  /// with the flag off; only kCellsPruned/kSignatureChecks change.
  bool signature_prefilter = true;
};

/// \brief Builds the complete MapReduce job (mapper, reducer, partitioner,
/// sort + grouping comparators) evaluating `query` with `algo` on the grid
/// `grid`.
///
/// The query and grid are copied into the returned spec, which is therefore
/// self-contained and safe to run after the originals go out of scope.
/// The job's input records are ShuffleObjects (the horizontally-partitioned
/// union of O and F); its outputs are per-cell top-k ResultEntry rows that
/// still need the global MergeTopK (done by SpqEngine).
mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject, ResultEntry>
MakeSpqJobSpec(Algorithm algo, const Query& query,
               const geo::UniformGrid& grid, SpqJobOptions options = {});

/// Flattens a Dataset into the map input record stream: every data object
/// and every feature object as a tagged ShuffleObject, in dataset order
/// (data first, then features — the runtime splits this arbitrarily across
/// map tasks, matching the paper's "no assumption on partitioning").
std::vector<ShuffleObject> FlattenDataset(const Dataset& dataset);

}  // namespace spq::core

#endif  // SPQ_SPQ_ALGORITHMS_H_
