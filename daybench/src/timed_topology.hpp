#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "sim/topology.hpp"

/// \file timed_topology.hpp
/// A decorating sim::TopologyProvider that forwards every virtual to the
/// provider it wraps and times the two graph-producing calls (graph_at and
/// snapshot_at) from outside. Forwarding snapshot_at matters: the base
/// class default would turn an epoch-aware provider's in-place refresh into
/// a full graph_at rebuild, and change what is being measured.

namespace daybench {

/// Call statistics of the graph-producing virtuals since the last reset.
struct TopologyCallStats {
  std::size_t calls = 0;
  double busy_s = 0.0;    ///< summed call durations over all threads
  double p50_us = 0.0;
  double p99_us = 0.0;
};

class TimedTopology final : public qntn::sim::TopologyProvider {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedTopology(const qntn::sim::TopologyProvider& inner);

  [[nodiscard]] qntn::net::Graph graph_at(double t) const override;
  [[nodiscard]] std::size_t epoch_of(double t) const override;
  [[nodiscard]] std::size_t epoch_count() const override;
  [[nodiscard]] bool epoch_delta(
      std::size_t from, std::size_t to, std::size_t max_pairs,
      std::vector<qntn::net::ChangedPair>& out) const override;
  void snapshot_at(double t, qntn::sim::TopologySnapshot& snap) const override;

  /// Raw per-call durations [ns] in completion order.
  [[nodiscard]] std::vector<std::uint64_t> durations_ns() const
      QNTN_EXCLUDES(mutex_);

 private:
  void record(std::uint64_t start_ns) const QNTN_EXCLUDES(mutex_);

  const qntn::sim::TopologyProvider& inner_;
  mutable qntn::Mutex mutex_;
  mutable std::vector<std::uint64_t> durations_ns_ QNTN_GUARDED_BY(mutex_);
};

/// Count, total, and nearest-rank p50/p99 of a set of call durations.
[[nodiscard]] TopologyCallStats summarize_calls(
    std::vector<std::uint64_t> durations_ns);

}  // namespace daybench
