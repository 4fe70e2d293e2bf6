#ifndef SPQ_MAPREDUCE_COUNTERS_H_
#define SPQ_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace spq::mapreduce {

/// \brief Named monotonic counters, in the spirit of Hadoop job counters.
///
/// Tasks increment thread-locally cheap copies (one Counters per task
/// attempt) and the runtime merges successful attempts into the job-level
/// instance, so a failed-and-retried task never double counts.
class Counters {
 public:
  Counters() = default;

  // Copyable (value semantics over the snapshot; moves copy too) so that
  // JobStats can be returned by value; the mutex itself is not copied.
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other);

  /// Adds `delta` to counter `name` (creating it at zero).
  void Increment(const std::string& name, uint64_t delta = 1);

  /// Current value of `name`, or 0 when never incremented.
  uint64_t Get(const std::string& name) const;

  /// Merges all counters of `other` into this one.
  void MergeFrom(const Counters& other);

  /// Snapshot of all counters, sorted by name.
  std::map<std::string, uint64_t> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t> values_;
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_COUNTERS_H_
