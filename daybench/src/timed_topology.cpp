#include "timed_topology.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace daybench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TimedTopology::TimedTopology(const qntn::sim::TopologyProvider& inner)
    : inner_(inner) {}

qntn::net::Graph TimedTopology::graph_at(double t) const {
  const std::uint64_t start = now_ns();
  qntn::net::Graph graph = inner_.graph_at(t);
  record(start);
  return graph;
}

std::size_t TimedTopology::epoch_of(double t) const {
  return inner_.epoch_of(t);
}

std::size_t TimedTopology::epoch_count() const { return inner_.epoch_count(); }

bool TimedTopology::epoch_delta(std::size_t from, std::size_t to,
                                std::size_t max_pairs,
                                std::vector<qntn::net::ChangedPair>& out) const {
  return inner_.epoch_delta(from, to, max_pairs, out);
}

void TimedTopology::snapshot_at(double t,
                                qntn::sim::TopologySnapshot& snap) const {
  const std::uint64_t start = now_ns();
  inner_.snapshot_at(t, snap);
  record(start);
}

void TimedTopology::record(std::uint64_t start_ns) const {
  const std::uint64_t duration = now_ns() - start_ns;
  const qntn::MutexLock lock(mutex_);
  durations_ns_.push_back(duration);
}

std::vector<std::uint64_t> TimedTopology::durations_ns() const {
  const qntn::MutexLock lock(mutex_);
  return durations_ns_;
}

TopologyCallStats summarize_calls(std::vector<std::uint64_t> durations_ns) {
  TopologyCallStats stats;
  stats.calls = durations_ns.size();
  if (durations_ns.empty()) return stats;
  std::sort(durations_ns.begin(), durations_ns.end());
  std::uint64_t total = 0;
  for (const std::uint64_t d : durations_ns) total += d;
  stats.busy_s = 1e-9 * static_cast<double>(total);
  const auto rank = [&](double q) {
    const auto n = static_cast<double>(durations_ns.size());
    const auto i = static_cast<std::size_t>(std::ceil(q * n)) - 1;
    return 1e-3 * static_cast<double>(durations_ns[std::min(i, durations_ns.size() - 1)]);
  };
  stats.p50_us = rank(0.50);
  stats.p99_us = rank(0.99);
  return stats;
}

}  // namespace daybench
