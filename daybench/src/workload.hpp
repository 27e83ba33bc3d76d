#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/qntn_config.hpp"
#include "core/scenario_factory.hpp"
#include "sim/network_model.hpp"
#include "sim/scenario.hpp"

namespace qntn {
class ThreadPool;
}  // namespace qntn

/// \file workload.hpp
/// The benchmark's workloads and the two steps of a scenario day they run
/// through the public pipeline: set-up (core::build_space_ground_model then
/// core::make_topology) and the day itself (sim::run_scenario). Also the
/// correctness check every day's result must pass.

namespace daybench {

struct Workload {
  std::string name;
  std::size_t satellites = 0;
  /// Configuration shared by every day; day_config() adds the seeds and,
  /// for a sweep, the serving mode.
  qntn::core::QntnConfig config{};
  /// Sweep workloads walk a new request seed each day and alternate the
  /// serving mode with its parity (even: single-shot, odd: entanglement);
  /// the others repeat one seed, so every day of a run must be identical.
  bool sweep = false;
  /// Coverage percentage (Eq. 7) the current code computes for this
  /// constellation; coverage does not depend on the seed or serving mode.
  double reference_coverage_percent = 0.0;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// A built model and topology. The model lives on the heap because the
/// topology keeps a reference to it.
struct Setup {
  std::unique_ptr<qntn::sim::NetworkModel> model;
  qntn::core::Topology topology;
  double build_s = 0.0;         ///< build_space_ground_model wall time
  double compile_s = 0.0;       ///< make_topology wall time
  double compile_cpu_s = 0.0;   ///< make_topology process CPU time
};

/// Build the workload's model and topology on `pool`, timing each call.
[[nodiscard]] Setup run_setup(const Workload& workload, qntn::ThreadPool* pool);

/// Configuration of day `day` of a run with benchmark seed `seed`.
[[nodiscard]] qntn::core::QntnConfig day_config(const Workload& workload,
                                                std::uint64_t seed,
                                                std::size_t day);

/// Hash of every field of a result (bit patterns of the doubles), so two
/// results compare equal only if they are identical.
[[nodiscard]] std::uint64_t fingerprint(const qntn::sim::ScenarioResult& r);

/// Check one day's result. `first` is the run's first day (nullptr for the
/// first day itself). Returns an empty string when every check passes,
/// otherwise what failed.
[[nodiscard]] std::string check_day(const Workload& workload,
                                    const qntn::core::QntnConfig& day,
                                    const qntn::sim::ScenarioResult& result,
                                    const qntn::sim::ScenarioResult* first);

/// One line with a result's headline numbers at full precision.
[[nodiscard]] std::string describe(const qntn::sim::ScenarioResult& r);

}  // namespace daybench
