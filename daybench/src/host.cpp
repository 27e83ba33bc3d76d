#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "obs/profiler.hpp"

namespace daybench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

CpuSampler::CpuSampler(const qntn::obs::Profiler& clock,
                       std::uint64_t period_ns)
    : clock_(clock),
      period_ns_(period_ns),
      samples_{Sample{clock.now_ns(), process_cpu_s()}},
      thread_([this] {
        while (running_.load(std::memory_order_acquire)) {
          take_sample();
          std::this_thread::sleep_for(std::chrono::nanoseconds(period_ns_));
        }
      }) {}

CpuSampler::~CpuSampler() { stop(); }

void CpuSampler::stop() {
  if (!thread_.joinable()) return;
  running_.store(false, std::memory_order_release);
  thread_.join();
  take_sample();
}

void CpuSampler::take_sample() {
  samples_.push_back({clock_.now_ns(), process_cpu_s()});
}

double CpuSampler::cpu_at(std::uint64_t t_ns) const {
  if (samples_.empty()) return 0.0;
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t_ns,
      [](const Sample& s, std::uint64_t t) { return s.t_ns < t; });
  if (after == samples_.begin()) return after->cpu_s;
  if (after == samples_.end()) return samples_.back().cpu_s;
  const Sample& lo = *(after - 1);
  const Sample& hi = *after;
  if (hi.t_ns == lo.t_ns) return hi.cpu_s;
  const double f = static_cast<double>(t_ns - lo.t_ns) /
                   static_cast<double>(hi.t_ns - lo.t_ns);
  return lo.cpu_s + f * (hi.cpu_s - lo.cpu_s);
}

double CpuSampler::cpu_between(std::uint64_t begin_ns,
                               std::uint64_t end_ns) const {
  return cpu_at(end_ns) - cpu_at(begin_ns);
}

}  // namespace daybench
