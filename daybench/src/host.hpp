#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace qntn::obs {
class Profiler;
}  // namespace qntn::obs

/// \file host.hpp
/// Process-level measurements the benchmark takes from outside the
/// simulator: wall and CPU clocks, peak memory, the CPU affinity mask, and
/// a background sampler that lets a traced day attribute process CPU time
/// to the phases its spans delimit.

namespace daybench {

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double wall_s();

/// User plus system CPU seconds of the whole process (getrusage).
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of the process [MiB] (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// CPUs in the process's affinity mask (at least 1).
[[nodiscard]] std::size_t affinity_cpus();

/// Compiler name and version this binary was built with.
[[nodiscard]] std::string compiler_id();

/// Polls process CPU time on a background thread so that the CPU spent
/// between two instants of a span trace can be read back after the fact.
/// Samples are stamped with the profiler's clock (Profiler::now_ns), the
/// clock its spans use, which must outlive the sampler.
class CpuSampler {
 public:
  CpuSampler(const qntn::obs::Profiler& clock, std::uint64_t period_ns);
  ~CpuSampler();

  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Stop sampling and join the thread; takes a final sample. Idempotent.
  void stop();

  /// Process CPU seconds between two profiler instants, linearly interpolated
  /// between the surrounding samples. Call after stop().
  [[nodiscard]] double cpu_between(std::uint64_t begin_ns,
                                   std::uint64_t end_ns) const;

 private:
  struct Sample {
    std::uint64_t t_ns = 0;
    double cpu_s = 0.0;
  };

  void take_sample();
  [[nodiscard]] double cpu_at(std::uint64_t t_ns) const;

  const qntn::obs::Profiler& clock_;
  std::uint64_t period_ns_;
  std::vector<Sample> samples_;  ///< written by the sampler thread while it runs
  std::atomic<bool> running_{true};
  std::thread thread_;  ///< declared last: it uses every member above
};

}  // namespace daybench
