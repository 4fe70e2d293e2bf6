#include "mapreduce/counters.h"

namespace spq::mapreduce {

Counters& Counters::operator=(const Counters& other) {
  if (this == &other) return *this;
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  values_ = std::move(snapshot);
  return *this;
}

void Counters::Increment(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[name] += delta;
}

uint64_t Counters::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Counters::MergeFrom(const Counters& other) {
  std::map<std::string, uint64_t> snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, value] : snapshot) values_[name] += value;
}

std::map<std::string, uint64_t> Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_;
}

}  // namespace spq::mapreduce
