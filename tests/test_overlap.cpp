// Event-level overlap timeline vs the closed-form cluster model.
#include <gtest/gtest.h>

#include "core/overlap.hpp"

namespace gc::core {
namespace {

ClusterScenario table1_scenario(int nodes) {
  ClusterScenario sc;
  sc.grid = netsim::NodeGrid::arrange_2d(nodes);
  sc.lattice = Int3{80 * sc.grid.dims.x, 80 * sc.grid.dims.y, 80};
  return sc;
}

TEST(Overlap, TasksHaveValidDependencies) {
  const OverlapTimeline tl = simulate_overlapped_step(table1_scenario(16));
  const auto* read = tl.find("border gather+readback");
  const auto* net = tl.find("network exchange");
  const auto* window = tl.find("inner-cell collision");
  const auto* write = tl.find("ghost write-back");
  const auto* rest = tl.find("border collide + stream");
  ASSERT_TRUE(read && net && window && write && rest);
  EXPECT_DOUBLE_EQ(read->start_ms, 0.0);
  EXPECT_GE(net->start_ms, read->end_ms);
  EXPECT_GE(window->start_ms, read->end_ms);
  EXPECT_GE(write->start_ms, net->end_ms);
  EXPECT_GE(rest->start_ms, window->end_ms);
  EXPECT_GE(rest->start_ms, write->end_ms);
  EXPECT_DOUBLE_EQ(tl.makespan_ms, rest->end_ms);
}

TEST(Overlap, NetworkFullyHiddenAtSixteenNodes) {
  const OverlapTimeline tl = simulate_overlapped_step(table1_scenario(16));
  const auto* net = tl.find("network exchange");
  const auto* window = tl.find("inner-cell collision");
  ASSERT_TRUE(net && window);
  EXPECT_LE(net->duration_ms(), window->duration_ms());
  EXPECT_NEAR(tl.network_hidden_ms, net->duration_ms(), 1e-9);
}

TEST(Overlap, NetworkSpillsAtThirtyTwoNodes) {
  const OverlapTimeline tl = simulate_overlapped_step(table1_scenario(32));
  const auto* net = tl.find("network exchange");
  const auto* window = tl.find("inner-cell collision");
  ASSERT_TRUE(net && window);
  EXPECT_GT(net->duration_ms(), window->duration_ms());
  EXPECT_NEAR(tl.network_hidden_ms, window->duration_ms(), 1e-9);
}

class OverlapVsClosedForm : public ::testing::TestWithParam<int> {};

TEST_P(OverlapVsClosedForm, MakespanBracketsTheClosedForm) {
  // The closed-form model charges the full GPU<->CPU bus cost serially;
  // the event model can hide the write-back under the collision window.
  // So: timeline <= closed-form <= timeline + write-back.
  const ClusterScenario sc = table1_scenario(GetParam());
  const OverlapTimeline tl = simulate_overlapped_step(sc);
  const StepBreakdown b = ClusterSimulator().simulate_step(sc);
  const auto* write = tl.find("ghost write-back");
  ASSERT_TRUE(write);
  EXPECT_LE(tl.makespan_ms, b.gpu_total_ms + 1e-6);
  EXPECT_GE(tl.makespan_ms + write->duration_ms() + 1e-6, b.gpu_total_ms);
}

INSTANTIATE_TEST_SUITE_P(Nodes, OverlapVsClosedForm,
                         ::testing::Values(2, 8, 16, 30, 32));

TEST(Overlap, DirectDiagonalNetworkMatchesClosedForm) {
  // Direct second-nearest-neighbor messages (ablation A1) are network
  // time in both models: the timeline's exchange must equal the closed
  // form's, and the makespan bracket must still hold.
  for (const int n : {2, 8, 16, 30, 32}) {
    ClusterScenario sc = table1_scenario(n);
    sc.indirect_diagonals = false;
    const OverlapTimeline tl = simulate_overlapped_step(sc);
    const StepBreakdown b = ClusterSimulator().simulate_step(sc);
    const auto* net = tl.find("network exchange");
    const auto* write = tl.find("ghost write-back");
    ASSERT_TRUE(net && write);
    EXPECT_NEAR(net->duration_ms(), b.net_total_ms, 1e-9) << n << " nodes";
    EXPECT_LE(tl.makespan_ms, b.gpu_total_ms + 1e-6) << n << " nodes";
    EXPECT_GE(tl.makespan_ms + write->duration_ms() + 1e-6, b.gpu_total_ms)
        << n << " nodes";
  }
}

TEST(Overlap, GanttRendersAllTasks) {
  const OverlapTimeline tl = simulate_overlapped_step(table1_scenario(8));
  const std::string g = tl.gantt();
  EXPECT_NE(g.find("network exchange"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
}

TEST(Overlap, SingleNodeHasNoNetwork) {
  ClusterScenario sc;
  sc.grid = netsim::NodeGrid{Int3{1, 1, 1}};
  sc.lattice = Int3{80, 80, 80};
  const OverlapTimeline tl = simulate_overlapped_step(sc);
  const auto* net = tl.find("network exchange");
  ASSERT_TRUE(net);
  EXPECT_DOUBLE_EQ(net->duration_ms(), 0.0);
  EXPECT_NEAR(tl.makespan_ms, 214.0, 2.0);
}

}  // namespace
}  // namespace gc::core
