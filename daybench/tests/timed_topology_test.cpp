// The timing decorator must be invisible to the simulation: a scenario day
// run through TimedTopology gives a result identical to one run on the bare
// provider, on both topology backends, serially and on a pool.
// ForwardsSnapshotAt pins that snapshot_at reaches the wrapped provider:
// the base-class default would rebuild through graph_at and never tag the
// slot with an epoch, silently measuring a slower path.

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/experiments.hpp"
#include "timed_topology.hpp"
#include "workload.hpp"

namespace {

namespace qc = qntn::core;

struct Case {
  qc::TopologyMode mode;
  qc::ServingMode serving;
  std::size_t satellites;
  bool pooled;
};

void expect_identical(const Case& c) {
  qc::QntnConfig config;
  config.topology_mode = c.mode;
  config.serving_mode = c.serving;
  config.request_steps = 20;
  config.request_count = 30;
  qntn::ThreadPool pool(4);
  qntn::ThreadPool* const maybe_pool = c.pooled ? &pool : nullptr;
  const qntn::sim::NetworkModel model =
      qc::build_space_ground_model(config, c.satellites, maybe_pool);
  const qc::Topology topology = qc::make_topology(config, model, maybe_pool);

  qc::RunContext ctx{config};
  ctx.pool = maybe_pool;
  const qntn::sim::ScenarioConfig scenario = ctx.scenario_config();
  const qntn::sim::ScenarioResult bare =
      qntn::sim::run_scenario(model, topology.provider(), scenario);

  const daybench::TimedTopology timed(topology.provider());
  const qntn::sim::ScenarioResult decorated =
      qntn::sim::run_scenario(model, timed, scenario);

  EXPECT_EQ(daybench::fingerprint(bare), daybench::fingerprint(decorated))
      << daybench::describe(bare) << "\nvs\n" << daybench::describe(decorated);
  EXPECT_EQ(bare.coverage.step_connected, decorated.coverage.step_connected);
  EXPECT_EQ(bare.requests_served, decorated.requests_served);
  EXPECT_GT(timed.durations_ns().size(), 0u);
  EXPECT_EQ(timed.epoch_count(), topology.provider().epoch_count());
}

TEST(TimedTopology, RebuildSerial) {
  expect_identical({qc::TopologyMode::Rebuild, qc::ServingMode::SingleShot, 6,
                    false});
}

TEST(TimedTopology, RebuildPooled) {
  expect_identical({qc::TopologyMode::Rebuild, qc::ServingMode::SingleShot, 12,
                    true});
}

TEST(TimedTopology, ContactPlanSerial) {
  expect_identical({qc::TopologyMode::ContactPlan, qc::ServingMode::SingleShot,
                    12, false});
}

TEST(TimedTopology, ContactPlanPooled) {
  expect_identical({qc::TopologyMode::ContactPlan, qc::ServingMode::SingleShot,
                    12, true});
}

TEST(TimedTopology, ContactPlanPooledEntanglement) {
  expect_identical({qc::TopologyMode::ContactPlan,
                    qc::ServingMode::Entanglement, 12, true});
}

TEST(TimedTopology, ContactPlanPooledTraffic) {
  expect_identical({qc::TopologyMode::ContactPlan, qc::ServingMode::Traffic, 6,
                    true});
}

TEST(TimedTopology, ForwardsSnapshotAt) {
  // The plan backend's snapshot_at tags the slot with its epoch; the base
  // default (a graph_at rebuild) never does.
  qc::QntnConfig config;
  config.topology_mode = qc::TopologyMode::ContactPlan;
  const qntn::sim::NetworkModel model = qc::build_space_ground_model(config, 6);
  const qc::Topology topology = qc::make_topology(config, model);
  const daybench::TimedTopology timed(topology.provider());
  qntn::sim::TopologySnapshot snap;
  timed.snapshot_at(0.0, snap);
  EXPECT_NE(snap.epoch, qntn::sim::TopologyProvider::kNoEpoch);
  EXPECT_EQ(snap.epoch, topology.provider().epoch_of(0.0));
  EXPECT_EQ(timed.durations_ns().size(), 1u);
}

TEST(SummarizeCalls, NearestRankPercentiles) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t i = 1; i <= 100; ++i) ns.push_back(i * 1000);
  const daybench::TopologyCallStats s = daybench::summarize_calls(ns);
  EXPECT_EQ(s.calls, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_NEAR(s.busy_s, 5050e-6, 1e-12);
}

}  // namespace
