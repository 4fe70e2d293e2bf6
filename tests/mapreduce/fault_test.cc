#include "mapreduce/fault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/runtime.h"

namespace spq::mapreduce {
namespace {

TEST(FaultSpecTest, DisabledByDefault) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(AttemptFails(spec, 0, 0, 0));
  EXPECT_FALSE(AttemptFails(spec, 1, 7, 3));
}

TEST(FaultSpecTest, DeterministicDecisions) {
  FaultSpec spec;
  spec.map_failure_prob = 0.5;
  spec.seed = 9;
  for (uint32_t task = 0; task < 50; ++task) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(AttemptFails(spec, 0, task, attempt),
                AttemptFails(spec, 0, task, attempt));
    }
  }
}

TEST(FaultSpecTest, ProbabilityRoughlyRespected) {
  FaultSpec spec;
  spec.map_failure_prob = 0.3;
  spec.seed = 123;
  int failures = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (AttemptFails(spec, 0, static_cast<uint32_t>(i), 0)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.3, 0.02);
}

TEST(FaultSpecTest, ProbabilityOneAlwaysFails) {
  FaultSpec spec;
  spec.reduce_failure_prob = 1.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_TRUE(AttemptFails(spec, 1, 0, attempt));
  }
}

// ------------------------------------------------ end-to-end with a job

class IdentityMapper : public Mapper<uint64_t, uint32_t, uint64_t> {
 public:
  void Map(const uint64_t& v, MapContext<uint32_t, uint64_t>& ctx) override {
    ctx.Emit(static_cast<uint32_t>(v % 10), v);
  }
};

struct GroupSum {
  uint32_t group;
  uint64_t sum;
};

class SumReducer : public Reducer<uint32_t, uint64_t, GroupSum> {
 public:
  void Reduce(const uint32_t& group, GroupValues<uint32_t, uint64_t>& values,
              ReduceContext<GroupSum>& ctx) override {
    uint64_t sum = 0;
    while (values.Next()) sum += values.value();
    ctx.Emit({group, sum});
  }
};

JobSpec<uint64_t, uint32_t, uint64_t, GroupSum> SumSpec() {
  JobSpec<uint64_t, uint32_t, uint64_t, GroupSum> spec;
  spec.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.partitioner = [](const uint32_t& k, uint32_t n) { return k % n; };
  spec.sort_less = [](const uint32_t& a, const uint32_t& b) { return a < b; };
  spec.group_equal = [](const uint32_t& a, const uint32_t& b) {
    return a == b;
  };
  return spec;
}

std::vector<uint64_t> TestInput() {
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 1000; ++i) input.push_back(i);
  return input;
}

std::map<uint32_t, uint64_t> ToMap(const std::vector<GroupSum>& records) {
  std::map<uint32_t, uint64_t> m;
  for (const auto& r : records) m[r.group] = r.sum;
  return m;
}

TEST(FaultInjectionTest, RetriedTasksProduceIdenticalResults) {
  const auto input = TestInput();

  JobConfig clean;
  clean.num_map_tasks = 8;
  clean.num_reduce_tasks = 4;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.faults.map_failure_prob = 0.5;
  faulty.faults.reduce_failure_prob = 0.5;
  faulty.faults.seed = 77;
  faulty.max_task_attempts = 20;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(ToMap(result->records), ToMap(expected->records));
  // With p=0.5 over 12 tasks, some failures are certain for this seed.
  EXPECT_GT(result->stats.map_task_failures +
                result->stats.reduce_task_failures,
            0u);
}

/// Counts per attempt in plain members (a typed tally) and flushes them
/// into the context's named counters once, from Cleanup.
class TallyingMapper : public IdentityMapper {
 public:
  void Map(const uint64_t& v, MapContext<uint32_t, uint64_t>& ctx) override {
    ++records_;
    IdentityMapper::Map(v, ctx);
  }
  void Cleanup(MapContext<uint32_t, uint64_t>& ctx) override {
    ctx.counters().Increment("map.records", records_);
  }

 private:
  uint64_t records_ = 0;
};

class TallyingReducer : public SumReducer {
 public:
  void Reduce(const uint32_t& group, GroupValues<uint32_t, uint64_t>& values,
              ReduceContext<GroupSum>& ctx) override {
    ++groups_;
    SumReducer::Reduce(group, values, ctx);
  }
  void Cleanup(ReduceContext<GroupSum>& ctx) override {
    ctx.counters().Increment("reduce.groups", groups_);
  }

 private:
  uint64_t groups_ = 0;
};

TEST(FaultInjectionTest, NoDoubleCountingAfterRetries) {
  const auto input = TestInput();
  JobConfig faulty;
  faulty.num_map_tasks = 6;
  faulty.num_reduce_tasks = 3;
  faulty.faults.map_failure_prob = 0.6;
  faulty.faults.seed = 5;
  faulty.max_task_attempts = 30;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok());
  // Sum over all groups must equal sum 0..999 exactly once.
  uint64_t total = 0;
  for (const auto& r : result->records) total += r.sum;
  EXPECT_EQ(total, 999ull * 1000 / 2);
  EXPECT_EQ(result->stats.map_output_records, 1000u);

  // Per-attempt tallies flushed from Cleanup: a failed attempt (which dies
  // halfway through its split) is discarded with its context, so each
  // task's tally reaches the job exactly once.
  auto spec = SumSpec();
  spec.mapper_factory = [] { return std::make_unique<TallyingMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<TallyingReducer>(); };
  faulty.faults.reduce_failure_prob = 0.5;
  auto tallied = RunJob(spec, faulty, input);
  ASSERT_TRUE(tallied.ok());
  EXPECT_GT(tallied->stats.map_task_failures, 0u);
  EXPECT_GT(tallied->stats.reduce_task_failures, 0u);
  EXPECT_EQ(tallied->stats.counters.Get("map.records"), 1000u);
  EXPECT_EQ(tallied->stats.counters.Get("reduce.groups"), 10u);
}

TEST(FaultInjectionTest, ExhaustedAttemptsAbortJob) {
  JobConfig config;
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 2;
  config.faults.map_failure_prob = 1.0;
  config.max_task_attempts = 3;
  auto result = RunJob(SumSpec(), config, TestInput());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
}

// Storage faults on the spill path (torn writes caught by the
// verify-after-write, short reads / bit flips caught by the page CRCs)
// must behave like task failures: the attempt retries with a fresh fault
// roll and the job converges to the exact clean-run output.
TEST(FaultInjectionTest, StorageFaultsOnSpillPathConverge) {
  const auto input = TestInput();

  JobConfig clean;
  clean.num_map_tasks = 6;
  clean.num_reduce_tasks = 4;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.spill_dir = (std::filesystem::temp_directory_path() /
                      ("spq_fault_storage_" + std::to_string(::getpid())))
                         .string();
  faulty.faults.storage_fault_prob = 0.3;
  faulty.faults.seed = 41;
  faulty.max_task_attempts = 50;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(ToMap(result->records), ToMap(expected->records));
  // p=0.3 per storage site over 24 spill files: detections are certain
  // for this seed, and every one cost an attempt, never a wrong record.
  EXPECT_GT(result->stats.storage_fault_detections, 0u);
  std::filesystem::remove_all(faulty.spill_dir);
}

// Task faults and storage faults together: the combined retry machinery
// must still converge to the clean output.
TEST(FaultInjectionTest, TaskAndStorageFaultsTogetherConverge) {
  const auto input = TestInput();
  JobConfig clean;
  clean.num_map_tasks = 5;
  clean.num_reduce_tasks = 3;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.spill_dir = (std::filesystem::temp_directory_path() /
                      ("spq_fault_both_" + std::to_string(::getpid())))
                         .string();
  faulty.faults.map_failure_prob = 0.3;
  faulty.faults.reduce_failure_prob = 0.3;
  faulty.faults.storage_fault_prob = 0.2;
  faulty.faults.seed = 97;
  faulty.max_task_attempts = 60;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToMap(result->records), ToMap(expected->records));
  std::filesystem::remove_all(faulty.spill_dir);
}

// Without a spill dir there is no storage I/O to fault: the knob must be
// inert for in-memory shuffles, not a hidden failure source.
TEST(FaultInjectionTest, StorageFaultsInertWithoutSpill) {
  const auto input = TestInput();
  JobConfig config;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 4;
  config.faults.storage_fault_prob = 1.0;
  config.faults.seed = 3;
  auto result = RunJob(SumSpec(), config, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.storage_fault_detections, 0u);
  EXPECT_EQ(result->records.size(), 10u);
}

TEST(FaultInjectionTest, ReduceOnlyFaultsRecover) {
  const auto input = TestInput();
  JobConfig faulty;
  faulty.num_reduce_tasks = 5;
  faulty.faults.reduce_failure_prob = 0.7;
  faulty.faults.seed = 31;
  faulty.max_task_attempts = 50;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.reduce_task_failures, 0u);
  EXPECT_EQ(result->records.size(), 10u);
}

}  // namespace
}  // namespace spq::mapreduce
