#ifndef SPQBENCH_SPQBENCH_H_
#define SPQBENCH_SPQBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/statusor.h"
#include "common/trace.h"
#include "dfs/mini_dfs.h"
#include "spq/engine.h"

namespace spqbench {

using spq::metrics::Clock;

/// One benchmark workload: a dataset family, a query shape and the fixed
/// offered rates of its open-loop phases. Rates are constants of the
/// workload — never derived from a run's own measurements — so the load
/// a change is measured under does not move with the change.
struct Workload {
  enum class Data { kUniform, kFlickr, kClustered };

  const char* name;
  Data data;
  uint64_t num_objects;      ///< generator total (split half data/half features)
  std::size_t max_features;  ///< keep only the first N features (0 = all)
  uint32_t query_keywords;   ///< |q.W|, drawn uniformly ("random" selection)
  double radius_cells;       ///< query radius as a fraction of the cell edge
  spq::core::Algorithm algo;
  /// The closed-loop and batch phases use cold Execute()/ExecuteBatch()
  /// instead of warm Query()/QueryBatch().
  bool cold_query_path;
  double door_rate_qps;      ///< front door nominal offered rate
  double door_overload_qps;  ///< front door overload offered rate
  /// Requests of one overload burst (about a second of the door's
  /// capacity); the admission queue is sized to hold all of them.
  std::size_t overload_requests;
  double reader_think_ms;    ///< reads under writes: pause between queries
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Workload-independent constants shared by every workload.
inline constexpr uint32_t kGridSize = 50;
inline constexpr uint32_t kTopK = 10;
inline constexpr double kStoreRadiusCells = 0.5;  ///< store max radius
inline constexpr uint32_t kMaxBatch = 64;         ///< serving.max_batch
inline constexpr std::size_t kBatchSize = 32;     ///< QueryBatch size
inline constexpr double kMutateRate = 2000.0;     ///< writer mutations/s
inline constexpr std::size_t kReaders = 2;        ///< mixed-phase readers
/// Task slots of every engine (EngineOptions::num_workers). With one slot
/// a query runs on two threads, the slot and its caller (ParallelFor puts
/// the caller to work too). On a few shared vCPUs a query spread over all
/// of them waits at every map/reduce barrier for the slowest, so its
/// latency measured the hypervisor's steal rather than the engine (the
/// same code moved by 1.6x between runs at 4 slots, by about a tenth at
/// one).
inline constexpr uint32_t kWorkers = 1;
/// Every timed phase runs once per round and the rounds interleave, so a
/// host slowdown of a few seconds lands in one round of each phase; the
/// end-to-end metrics are medians over every sample of the run.
inline constexpr int kRounds = 6;

/// Generates the workload's dataset (the same on every run).
spq::StatusOr<spq::core::Dataset> MakeDataset(const Workload& w);
/// The workload's query stream: `count` queries drawn from `seed`.
std::vector<spq::core::Query> MakeQueryStream(const Workload& w,
                                              const spq::core::Dataset& data,
                                              uint64_t seed,
                                              std::size_t count);
/// Engine options shared by every engine a run constructs.
spq::core::EngineOptions MakeEngineOptions(uint32_t queue_capacity);

/// Metric samples of one run, by name, each with its unit. A metric's
/// reported value is a quantile of all its samples over the run: the
/// median, or for a tail metric the quantile it names.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           double quantile = 0.5) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.quantile = quantile;
    m.samples.push_back(value);
  }
  double Value(const std::string& name) const;
  /// `{"name": {"value": v, "unit": u}, ...}` in name order.
  std::string Json() const;

 private:
  struct Metric {
    std::string unit;
    double quantile = 0.5;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> metrics_;
};

/// The churn engine's mutation plan: Delete/Insert pairs drawn from the
/// seed, applied in order across the rounds.
struct ChurnPlan {
  std::vector<std::size_t> victims;  ///< indices into dataset.data
  std::vector<spq::core::DataObject> inserts;
  std::size_t pairs_applied = 0;
};

/// Everything the phases of one run share.
struct RunContext {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;  ///< measured-time budget of the whole run

  spq::core::Dataset dataset;
  spq::core::EngineOptions options;
  double max_radius = 0.0;
  std::vector<spq::core::Query> stream;
  /// Warm answers of every stream query on the freshly built store: the
  /// reference every timed answer is checked against.
  std::vector<std::vector<spq::core::ResultEntry>> reference;
  std::size_t next_query = 0;  ///< stream position of the closed loop
  std::size_t next_batch = 0;
  /// The latest checkpoint of the serving engine, which reopens read.
  std::unique_ptr<spq::dfs::MiniDfs> dfs;
  ChurnPlan churn;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  Report end_to_end;
  Report per_layer;
  /// Sample counts and other facts printed beside the metrics.
  std::vector<std::string> notes;

  /// Counts one attempted operation; `ok == false` counts it failed.
  void Count(bool ok, const std::string& what);
  const spq::core::Query& Query(std::size_t i) const {
    return stream[i % stream.size()];
  }
  const std::vector<spq::core::ResultEntry>& Expected(std::size_t i) const {
    return reference[i % reference.size()];
  }
};

bool SameEntries(const std::vector<spq::core::ResultEntry>& a,
                 const std::vector<spq::core::ResultEntry>& b);
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double MillisSince(Clock::time_point t);
/// CPU time of every thread of this process so far. The kernel leaves out
/// time the hypervisor stole from the vCPU.
double ProcessCpuMillis();
/// CPU time of the calling thread so far, likewise without stolen time.
double ThreadCpuMillis();
/// Due time of request `i` of an open loop started at `t0` at `rate`/s.
Clock::time_point DueAt(Clock::time_point t0, std::size_t i, double rate);
std::unique_ptr<spq::dfs::MiniDfs> MakeDfs(uint64_t seed);

// ---- phases (phases.cc) ---------------------------------------------------

/// Builds `trials` engines + stores, reports setup_s for each, and returns
/// the first `keep` of them.
std::vector<std::unique_ptr<spq::core::SpqEngine>> RunSetup(RunContext& ctx,
                                                            int trials,
                                                            std::size_t keep);
/// Computes the reference answers and the seeded oracle / cold checks.
void RunReference(RunContext& ctx, const spq::core::SpqEngine& engine);
/// First-touch Serve() of every cell of the churn engine's fresh store.
void RunMaterialize(RunContext& ctx, const spq::core::SpqEngine& churn);

// One round of each timed phase; `budget_s` is the round's time share.
void RunClosedLoop(RunContext& ctx, const spq::core::SpqEngine& engine,
                   double budget_s);
void RunBatches(RunContext& ctx, const spq::core::SpqEngine& engine,
                double budget_s);
void RunDoor(RunContext& ctx, const spq::core::SpqEngine& engine,
             double budget_s);
void RunDurability(RunContext& ctx, const spq::core::SpqEngine& engine);
void RunMixed(RunContext& ctx, spq::core::SpqEngine& churn, double budget_s);

/// After the rounds: DFS bandwidth and per-cell restore cost of the last
/// checkpoint, and the churned store against a fresh build.
void RunStorageProbe(RunContext& ctx);
void CheckChurned(RunContext& ctx, const spq::core::SpqEngine& churn);

// ---- traced windows (spans.cc) --------------------------------------------

/// Self time per span name over a set of collected spans, plus the share
/// of the benchmark's own `root` spans that no program span covers.
struct SpanTable {
  std::map<std::string, double> self_ns;  ///< summed over the window
  double root_ns = 0.0;       ///< summed duration of the root spans
  double uncovered_ns = 0.0;  ///< root time no program span covers
};
void AccumulateSpans(const std::vector<spq::trace::SpanEvent>& spans,
                     const char* root, SpanTable& table);

/// Runs the traced windows of a `--trace 1` run and reports trace.*.
/// `scratch` may be rebuilt and reopened freely.
void RunTraced(RunContext& ctx, const spq::core::SpqEngine& engine,
               spq::core::SpqEngine& scratch);

}  // namespace spqbench

#endif  // SPQBENCH_SPQBENCH_H_
