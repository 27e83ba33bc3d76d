#include "workload.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/thread_pool.hpp"
#include "host.hpp"

namespace daybench {

namespace qc = qntn::core;

namespace {

/// Seeds of the default configuration; benchmark seed 0 maps onto them.
const std::uint64_t kDefaultRequestSeed = qc::QntnConfig{}.request_seed;
const std::uint64_t kDefaultTrafficSeed = qc::QntnConfig{}.traffic_seed;

/// Sweep days of benchmark seed s use request seeds default + s * stride +
/// day, so runs with different seeds never share a day.
constexpr std::uint64_t kSweepSeedStride = 1'000'000;

/// Results recorded from the current code at the default seeds.
struct Reference {
  const char* workload;
  qc::ServingMode mode;
  std::uint64_t request_seed;
  std::size_t issued;
  std::size_t served;
  double fidelity;  ///< mean over served requests
};

const Reference kReferences[] = {
    {"day_rebuild_n108", qc::ServingMode::SingleShot, kDefaultRequestSeed,
     10000, 5865, 0.94258880620682539},
    {"day_plan_n108_traffic", qc::ServingMode::Traffic, kDefaultRequestSeed,
     1035841, 601437, 0.93919473971966616},
    {"sweep_plan_n36_hop", qc::ServingMode::Entanglement, kDefaultRequestSeed,
     10000, 176, 0.93238849417264824},
    {"sweep_plan_n36_hop", qc::ServingMode::SingleShot,
     kDefaultRequestSeed + 1, 10000, 2134, 0.93596889934249194},
};

bool matches(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "day_rebuild_n108";
    w.satellites = 108;
    w.reference_coverage_percent = 54.965277777777779;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "day_plan_n108_traffic";
    w.satellites = 108;
    w.config.topology_mode = qc::TopologyMode::ContactPlan;
    w.config.serving_mode = qc::ServingMode::Traffic;
    w.reference_coverage_percent = 54.965277777777779;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "sweep_plan_n36_hop";
    w.satellites = 36;
    w.config.topology_mode = qc::TopologyMode::ContactPlan;
    w.config.metric = qntn::net::CostMetric::HopCount;
    w.sweep = true;
    w.reference_coverage_percent = 18.055555555555557;
    out.push_back(w);
  }
  return out;
}

/// FNV-1a over raw bytes.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add(double x) { bytes(&x, sizeof x); }
  void add(std::size_t x) { bytes(&x, sizeof x); }
  void add(bool x) { add(static_cast<std::size_t>(x)); }
  void add(const qntn::RunningStats& s) {
    add(s.count());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  void add(const std::vector<double>& v) {
    add(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Setup run_setup(const Workload& workload, qntn::ThreadPool* pool) {
  Setup setup;
  const double t0 = wall_s();
  setup.model = std::make_unique<qntn::sim::NetworkModel>(
      qc::build_space_ground_model(workload.config, workload.satellites, pool));
  const double t1 = wall_s();
  const double c1 = process_cpu_s();
  setup.topology = qc::make_topology(workload.config, *setup.model, pool);
  setup.compile_cpu_s = process_cpu_s() - c1;
  setup.compile_s = wall_s() - t1;
  setup.build_s = t1 - t0;
  return setup;
}

qc::QntnConfig day_config(const Workload& workload, std::uint64_t seed,
                          std::size_t day) {
  qc::QntnConfig config = workload.config;
  config.request_seed = kDefaultRequestSeed + seed;
  config.traffic_seed = kDefaultTrafficSeed + seed;
  if (workload.sweep) {
    config.request_seed =
        kDefaultRequestSeed + seed * kSweepSeedStride + day;
    config.serving_mode = config.request_seed % 2 == 0
                              ? qc::ServingMode::SingleShot
                              : qc::ServingMode::Entanglement;
  }
  return config;
}

std::uint64_t fingerprint(const qntn::sim::ScenarioResult& r) {
  Hasher h;
  h.add(r.coverage.covered_s);
  h.add(r.coverage.percent);
  h.bytes(r.coverage.step_connected.data(), r.coverage.step_connected.size());
  for (const qntn::Interval& i : r.coverage.intervals.merged()) {
    h.add(i.start);
    h.add(i.end);
  }
  h.add(r.served_fraction);
  h.add(r.served_per_step);
  h.add(r.fidelity);
  h.add(r.transmissivity);
  h.add(r.hops);
  for (const std::size_t n :
       {r.requests_issued, r.requests_served, r.requests_no_path,
        r.requests_isolated, r.requests_congested,
        r.requests_rejected_capacity, r.requests_dropped_deadline,
        r.handovers}) {
    h.add(n);
  }
  h.add(r.em.enabled);
  for (const std::size_t n : {r.em.swaps, r.em.purification_rounds,
                              r.em.pairs_consumed, r.em.slo_met,
                              r.em.spilled}) {
    h.add(n);
  }
  h.add(r.em.memory_occupancy);
  h.add(r.em.swap_depth);
  h.add(r.em.latency);
  h.add(r.em.latency_samples);
  h.add(r.traffic.enabled);
  h.add(r.traffic.latency);
  h.add(r.traffic.waiting);
  h.add(r.traffic.peak_utilisation);
  h.add(r.traffic.peak_queue_depth);
  h.add(r.traffic.latency_samples);
  h.add(r.traffic.waiting_samples);
  return h.h;
}

std::string check_day(const Workload& workload, const qc::QntnConfig& day,
                      const qntn::sim::ScenarioResult& r,
                      const qntn::sim::ScenarioResult* first) {
  if (r.requests_issued !=
      r.requests_served + r.requests_no_path + r.requests_isolated +
          r.requests_congested + r.requests_rejected_capacity +
          r.requests_dropped_deadline) {
    return "ServeOutcome identity broken: " + describe(r);
  }
  if (r.requests_issued == 0) return "no requests issued";
  if (!matches(r.coverage.percent, workload.reference_coverage_percent)) {
    return "coverage differs from the reference: " + describe(r);
  }
  if (first != nullptr) {
    if (r.coverage.step_connected != first->coverage.step_connected) {
      return "coverage timeline differs from the run's first day";
    }
    if (!workload.sweep && fingerprint(r) != fingerprint(*first)) {
      return "same-seed day differs from the run's first day";
    }
  }
  for (const Reference& ref : kReferences) {
    if (workload.name != ref.workload || day.serving_mode != ref.mode ||
        day.request_seed != ref.request_seed ||
        day.traffic_seed != kDefaultTrafficSeed) {
      continue;
    }
    if (r.requests_issued != ref.issued || r.requests_served != ref.served ||
        !matches(r.fidelity.mean(), ref.fidelity)) {
      return "default-seed result differs from the reference: " + describe(r);
    }
  }
  return {};
}

std::string describe(const qntn::sim::ScenarioResult& r) {
  char line[320];
  std::snprintf(line, sizeof line,
                "coverage %.17g %% served %zu/%zu (no_path %zu isolated %zu "
                "congested %zu rejected %zu dropped %zu) fidelity %.17g "
                "peak_queue %zu",
                r.coverage.percent, r.requests_served, r.requests_issued,
                r.requests_no_path, r.requests_isolated, r.requests_congested,
                r.requests_rejected_capacity, r.requests_dropped_deadline,
                r.fidelity.mean(), r.traffic.peak_queue_depth);
  return line;
}

}  // namespace daybench
