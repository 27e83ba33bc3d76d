// Self time is a span's duration minus what its direct children cover, per
// thread; module totals add up the spans sharing a name prefix.

#include <gtest/gtest.h>

#include "obs/profiler.hpp"
#include "rollup.hpp"

namespace {

using daybench::SpanEvent;

TEST(Rollup, SelfTimeSubtractsDirectChildrenOnly) {
  const std::vector<SpanEvent> events = {
      {"sim.run", 1, 0, 1000},
      {"sim.coverage", 1, 100, 500},
      {"plan.graph_at", 1, 150, 200},  // grandchild of sim.run
      {"net.bf_tree", 1, 700, 100},
      {"net.bf_tree", 2, 0, 300},      // another thread: no parent
  };
  const daybench::Rollup r = daybench::rollup(events);
  EXPECT_NEAR(r.spans.at("sim.run").self_s, 400e-9, 1e-15);
  EXPECT_NEAR(r.spans.at("sim.coverage").self_s, 300e-9, 1e-15);
  EXPECT_NEAR(r.spans.at("plan.graph_at").self_s, 200e-9, 1e-15);
  EXPECT_EQ(r.spans.at("net.bf_tree").count, 2u);
  EXPECT_NEAR(r.spans.at("net.bf_tree").self_s, 400e-9, 1e-15);
  EXPECT_NEAR(r.modules.at("sim").total_s, 1500e-9, 1e-15);
  EXPECT_NEAR(r.modules.at("sim").self_s, 700e-9, 1e-15);
  // Every traced nanosecond is attributed to exactly one module.
  double self = 0.0;
  for (const auto& [name, totals] : r.modules) self += totals.self_s;
  EXPECT_NEAR(self, 1300e-9, 1e-15);
}

TEST(Rollup, ReadsTheProfilersChromeTrace) {
  qntn::obs::Profiler profiler;
  {
    const qntn::obs::ScopedProfiler scope(&profiler);
    const qntn::obs::Span outer("orbit.outer");
    const qntn::obs::Span inner("orbit.inner", 7);
  }
  const std::vector<SpanEvent> events =
      daybench::parse_chrome_trace(profiler.chrome_trace_json());
  ASSERT_EQ(events.size(), 2u);
  const daybench::Rollup r = daybench::rollup(events);
  EXPECT_EQ(r.modules.at("orbit").count, 2u);
  EXPECT_LE(r.spans.at("orbit.outer").self_s, r.spans.at("orbit.outer").total_s);
  EXPECT_NEAR(r.modules.at("orbit").self_s, r.spans.at("orbit.outer").total_s,
              2e-9);
}

}  // namespace
