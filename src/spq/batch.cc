#include "spq/batch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <utility>

#include "spq/reduce_core.h"
#include "text/keyword_set.h"

namespace spq::core {

namespace {

using BatchMapContext = mapreduce::MapContext<BatchCellKey, ShuffleObject>;
using BatchGroupValues = mapreduce::GroupValues<BatchCellKey, ShuffleObject>;
using BatchReduceContext = mapreduce::ReduceContext<BatchResultEntry>;

/// One input pass serving every query of the batch.
///
/// Key layout: data objects are emitted ONCE per cell under the sentinel
/// query index 0 (so they sort before every query's feature group within
/// the cell); query q's features go under query index q+1. The reducer
/// caches the cell's data objects from the sentinel group and replays them
/// into each query group, so the batch does not multiply the data-object
/// shuffle by the batch size.
class BatchMapper final
    : public mapreduce::Mapper<ShuffleObject, BatchCellKey, ShuffleObject> {
 public:
  BatchMapper(Algorithm algo, std::shared_ptr<const std::vector<Query>> queries,
              geo::UniformGrid grid, SpqJobOptions options)
      : algo_(algo),
        queries_(std::move(queries)),
        grid_(std::move(grid)),
        options_(options) {
    query_sigs_.reserve(queries_->size());
    for (const Query& query : *queries_) {
      query_sigs_.push_back(text::TermSignature(query.keywords.ids()));
    }
    BuildTermDict();
  }

  void Map(const ShuffleObject& x, BatchMapContext& ctx) override {
    if (x.is_data()) {
      tally_.Add(counter::kDataObjects);
      ctx.Emit(BatchCellKey{grid_.CellOf(x.pos), kDataQuery, 0.0}, x);
      return;
    }
    // Exact dictionary screen: when the batch's distinct query terms fit
    // the dict (the common case — B queries with a few keywords each),
    // the per-(feature, query) keyword test collapses to a 2-word AND,
    // and popcount of the AND *is* |x.W ∩ q.W| — no sorted merge at all.
    // The 64-bit TermSignature screen below passes ~2/3 of truly disjoint
    // pairs on keyword-dense features, so at batch scale the merges it
    // fails to skip used to dominate the map phase.
    if (dict_enabled_ && options_.keyword_prefilter) {
      MapWithDict(x, ctx);
      return;
    }
    FeatureEmitter emit(*this, x, ctx);
    for (uint32_t q = 0; q < queries_->size(); ++q) {
      const Query& query = (*queries_)[q];
      // Signature screen (see SpqMapper): one AND replaces the exact merge
      // for queries this feature shares no term with — the common case in
      // a large batch. Same drop, same counter as the prefilter below.
      if (options_.keyword_prefilter && options_.signature_prefilter &&
          x.keyword_sig != 0 && (x.keyword_sig & query_sigs_[q]) == 0) {
        tally_.Add(counter::kFeaturesPruned);
        continue;
      }
      // Span accessors, not x.keywords: warm-path inputs are borrowed.
      const std::size_t common = text::SortedIntersectionSize(
          KeywordData(x), KeywordCount(x), query.keywords.ids().data(),
          query.keywords.ids().size());
      if (common == 0 && options_.keyword_prefilter) {
        tally_.Add(counter::kFeaturesPruned);
        continue;
      }
      emit.Kept(q, common);
    }
  }

  void Cleanup(BatchMapContext& ctx) override {
    tally_.FlushTo(ctx.counters());
  }

  static constexpr uint32_t kDataQuery = 0;

 private:
  /// 256 dictionary bits: comfortably holds the distinct terms of a
  /// coalesced batch (B queries × a few keywords, minus overlap) — e.g. a
  /// 48-query batch of 5-keyword queries fits even with zero overlap —
  /// at four ANDs + popcounts per screen.
  static constexpr std::size_t kDictWords = 4;
  using TermMask = std::array<uint64_t, kDictWords>;

  /// Maps each distinct query term to one dictionary bit. Distinctness is
  /// what makes the screen exact: popcount(feature_mask & query_mask) is
  /// |x.W ∩ q.W| with no hash collisions, so the dict path prunes exactly
  /// the common == 0 pairs the merge path prunes and feeds FeatureOrder
  /// the same intersection size. Batches with more distinct terms than
  /// bits keep the signature + merge path.
  void BuildTermDict() {
    std::vector<uint32_t> terms;
    for (const Query& q : *queries_) {
      terms.insert(terms.end(), q.keywords.ids().begin(),
                   q.keywords.ids().end());
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    if (terms.size() > kDictWords * 64) return;
    dict_terms_ = std::move(terms);
    query_masks_.assign(queries_->size(), TermMask{});
    for (std::size_t qi = 0; qi < queries_->size(); ++qi) {
      for (uint32_t id : (*queries_)[qi].keywords.ids()) {
        const std::size_t bit = static_cast<std::size_t>(
            std::lower_bound(dict_terms_.begin(), dict_terms_.end(), id) -
            dict_terms_.begin());
        query_masks_[qi][bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
    dict_enabled_ = true;
  }

  /// Emission side of one feature's query loop. One borrowed alias serves
  /// every query's emissions: the batch multiplies the per-feature
  /// emission count by the batch size, so the O(1) span copy (vs. a
  /// keyword-vector clone per copy) matters even more here than in the
  /// single-query mapper. The feature's cell is computed at its first kept
  /// query — a feature every query prunes never needs it.
  class FeatureEmitter {
   public:
    FeatureEmitter(BatchMapper& mapper, const ShuffleObject& x,
                   BatchMapContext& ctx)
        : m_(mapper), x_(x), borrowed_(x.Borrowed()), ctx_(ctx) {}

    /// Emits the feature for query q (|x.W ∩ q.W| = common > 0, or the
    /// prefilter ablation) into its own cell and every Lemma-1 target.
    void Kept(uint32_t q, std::size_t common) {
      if (!has_cell_) {
        cell_ = m_.grid_.CellOf(x_.pos);
        has_cell_ = true;
      }
      const Query& query = (*m_.queries_)[q];
      const double order = FeatureOrder(m_.algo_, query, x_, common);
      ctx_.Emit(BatchCellKey{cell_, q + 1, order}, borrowed_);
      // Scratch overload: the per-(feature, query) target-list allocation
      // would otherwise multiply by the batch size.
      m_.grid_.CellsWithinDist(x_.pos, query.radius, m_.targets_scratch_);
      for (geo::CellId target : m_.targets_scratch_) {
        ctx_.Emit(BatchCellKey{target, q + 1, order}, borrowed_);
      }
      m_.tally_.Add(counter::kFeaturesKept);
      m_.tally_.Add(counter::kFeatureDuplicates, m_.targets_scratch_.size());
    }

   private:
    BatchMapper& m_;
    const ShuffleObject& x_;
    const ShuffleObject borrowed_;
    BatchMapContext& ctx_;
    geo::CellId cell_ = 0;
    bool has_cell_ = false;
  };

  /// The dict-screened feature path: one linear walk tags the feature's
  /// dictionary terms, then every query costs two ANDs and a popcount.
  void MapWithDict(const ShuffleObject& x, BatchMapContext& ctx) {
    TermMask fmask{};
    const uint32_t* kw = KeywordData(x);
    const std::size_t n = KeywordCount(x);
    // Both lists are sorted; lockstep walk, O(|x.W| + |dict|).
    std::size_t di = 0;
    for (std::size_t i = 0; i < n && di < dict_terms_.size(); ++i) {
      while (di < dict_terms_.size() && dict_terms_[di] < kw[i]) ++di;
      if (di < dict_terms_.size() && dict_terms_[di] == kw[i]) {
        fmask[di / 64] |= uint64_t{1} << (di % 64);
        ++di;
      }
    }
    FeatureEmitter emit(*this, x, ctx);
    for (uint32_t q = 0; q < queries_->size(); ++q) {
      int common_bits = 0;
      for (std::size_t w = 0; w < kDictWords; ++w) {
        common_bits += std::popcount(fmask[w] & query_masks_[q][w]);
      }
      if (common_bits == 0) {
        tally_.Add(counter::kFeaturesPruned);
        continue;
      }
      emit.Kept(q, static_cast<std::size_t>(common_bits));
    }
  }

  Algorithm algo_;
  std::shared_ptr<const std::vector<Query>> queries_;
  geo::UniformGrid grid_;
  SpqJobOptions options_;
  std::vector<uint64_t> query_sigs_;  ///< TermSignature per batch query
  std::vector<geo::CellId> targets_scratch_;  ///< CellsWithinDist reuse
  std::vector<uint32_t> dict_terms_;  ///< sorted distinct query terms
  std::vector<TermMask> query_masks_;  ///< per-query dictionary bits
  bool dict_enabled_ = false;
  counter::Tally tally_;  ///< this attempt's counts; see Cleanup
};

/// Shared group protocol of both shuffle paths: groups arrive per cell as
/// (cell, 0) = the cell's data objects, then (cell, q+1) = query q's
/// sorted features. The state outlives one group (the reducer owns it for
/// its whole reduce attempt), so the cache carries across the groups of
/// one cell and is invalidated when the cell changes — cells without data
/// objects produce no sentinel group.
///
/// The cache is a thin per-cell view shaped exactly like a CellStore
/// partition: the sentinel group's data objects land straight in a
/// CellData (SoA ids/positions — no retained ShuffleObjects or views) and
/// its join structures (extent, plus the grid index once the join rule
/// picks it) are SHARED by every query group of the cell; the per-query
/// state (scores / report bitmap) lives in the QueryScratch the reduce
/// cores re-initialize each group.
struct BatchCellCache {
  reduce_core::CellData cell;
  reduce_core::CellJoinIndex join;
  reduce_core::QueryScratch scratch;
  geo::CellId cache_cell = 0;
  bool has_cache = false;

  void Rebind(geo::CellId c) {
    cell.Clear();
    join.Reset();  // growth is tracked by size only; contents changed
    cache_cell = c;
    has_cache = true;
  }
};

/// Serves both shuffle paths: the runtime builds one instance per reduce
/// attempt, so the per-cell cache and the tally span the attempt's groups.
class BatchReducer final
    : public mapreduce::Reducer<BatchCellKey, ShuffleObject,
                                BatchResultEntry>,
      public mapreduce::FlatReducer<BatchCellKey, ShuffleObject,
                                    BatchResultEntry> {
 public:
  BatchReducer(Algorithm algo,
               std::shared_ptr<const std::vector<Query>> queries,
               SpqJobOptions options)
      : algo_(algo), queries_(std::move(queries)), options_(options) {}

  void Reduce(const BatchCellKey& group_key, BatchGroupValues& values,
              BatchReduceContext& ctx) override {
    ReduceGroup(group_key, values, ctx);
  }
  void Reduce(
      const BatchCellKey& group_key,
      mapreduce::FlatGroupCursor<BatchCellKey, ShuffleObject>& values,
      BatchReduceContext& ctx) override {
    ReduceGroup(group_key, values, ctx);
  }
  void Cleanup(BatchReduceContext& ctx) override {
    tally_.FlushTo(ctx.counters());
  }

 private:
  template <typename Values>
  void ReduceGroup(const BatchCellKey& group_key, Values& values,
                   BatchReduceContext& ctx) {
    if (group_key.query == BatchMapper::kDataQuery) {
      state_.Rebind(group_key.cell);
      while (values.Next()) state_.cell.Add(values.value());
      return;
    }
    if (!state_.has_cache || state_.cache_cell != group_key.cell) {
      // No data objects in this cell: results are necessarily empty, but
      // the group must still be drained consistently (the runtime skips
      // leftovers anyway). Run with an empty cache for uniformity.
      state_.Rebind(group_key.cell);
    }
    const uint32_t q = group_key.query - 1;
    if (q >= queries_->size()) return;  // defensive
    // Owned ref: the cache is private to this reduce task, and the index
    // is still allowed to build lazily at the first probe that picks it.
    reduce_core::OwnedCellRef cell_ref{&state_.cell, &state_.join};
    reduce_core::RunReduce(algo_, options_, (*queries_)[q], cell_ref,
                           state_.scratch, values, tally_,
                           [&ctx, q](const ResultEntry& e) {
                             ctx.Emit(BatchResultEntry{q, e});
                           });
  }

  Algorithm algo_;
  std::shared_ptr<const std::vector<Query>> queries_;
  SpqJobOptions options_;
  BatchCellCache state_;
  counter::Tally tally_;
};

}  // namespace

mapreduce::JobSpec<ShuffleObject, BatchCellKey, ShuffleObject,
                   BatchResultEntry>
MakeBatchSpqJobSpec(Algorithm algo, const std::vector<Query>& queries,
                    const geo::UniformGrid& grid, SpqJobOptions options) {
  auto shared_queries =
      std::make_shared<const std::vector<Query>>(queries);
  mapreduce::JobSpec<ShuffleObject, BatchCellKey, ShuffleObject,
                     BatchResultEntry>
      spec;
  spec.mapper_factory = [algo, shared_queries, grid, options]() {
    return std::make_unique<BatchMapper>(algo, shared_queries, grid, options);
  };
  spec.reducer_factory = [algo, shared_queries, options]() {
    return std::make_unique<BatchReducer>(algo, shared_queries, options);
  };
  spec.partitioner = BatchPartitioner;
  spec.sort_less = BatchKeySortLess;
  spec.group_equal = BatchKeyGroupEqual;
  // Flat-arena path: the same reducer and group protocol (data views decay
  // into the cache's SoA arrays immediately, so no pool reference is
  // retained).
  spec.flat_reducer_factory = [algo, shared_queries, options]() {
    return std::make_unique<BatchReducer>(algo, shared_queries, options);
  };
  return spec;
}

}  // namespace spq::core
