#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file rollup.hpp
/// Self-time rollup of a span profile. A span's self time is its duration
/// minus the time its direct children (spans nested inside it on the same
/// thread) cover; summing self time over a module prefix ("orbit", "plan",
/// "sim", "net", "em", "core") attributes every traced nanosecond to
/// exactly one module.

namespace daybench {

/// One finished span as read back from the profiler's Chrome trace.
struct SpanEvent {
  std::string name;
  std::uint64_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Parse the "X" events of obs::Profiler::chrome_trace_json(). Throws
/// qntn::Error on malformed input.
[[nodiscard]] std::vector<SpanEvent> parse_chrome_trace(const std::string& json);

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct Rollup {
  std::map<std::string, SpanTotals> spans;    ///< keyed by span name
  std::map<std::string, SpanTotals> modules;  ///< keyed by name prefix

  /// Add another rollup's totals into this one.
  void merge(const Rollup& other);
};

/// Module prefix of a span name: everything before the first '.'.
[[nodiscard]] std::string module_of(const std::string& span_name);

/// Per-span and per-module count, total and self time.
[[nodiscard]] Rollup rollup(std::vector<SpanEvent> events);

/// Summed duration of every span called `name` (over all threads).
[[nodiscard]] double total_s(const std::vector<SpanEvent>& events,
                             const std::string& name);

/// First span called `name`, or nullptr.
[[nodiscard]] const SpanEvent* find_span(const std::vector<SpanEvent>& events,
                                         const std::string& name);

/// Human-readable table of a rollup, every time divided by `per` (the
/// number of days or setups it was accumulated over).
[[nodiscard]] std::string format_rollup(const Rollup& rollup, double per,
                                        const std::string& title);

}  // namespace daybench
