// Network substrate: communication schedule properties (Figure 7),
// indirect routing, and switch-model behavior (the two Section 4.3
// findings).
#include <gtest/gtest.h>

#include <set>

#include "netsim/switch_model.hpp"

namespace gc::netsim {
namespace {

TEST(NodeGrid, Arrange2dIsMostSquare) {
  EXPECT_EQ(NodeGrid::arrange_2d(2).dims, (Int3{2, 1, 1}));
  EXPECT_EQ(NodeGrid::arrange_2d(4).dims, (Int3{2, 2, 1}));
  EXPECT_EQ(NodeGrid::arrange_2d(12).dims, (Int3{4, 3, 1}));
  EXPECT_EQ(NodeGrid::arrange_2d(30).dims, (Int3{6, 5, 1}));
  EXPECT_EQ(NodeGrid::arrange_2d(32).dims, (Int3{8, 4, 1}));
}

TEST(NodeGrid, Arrange3dPrefersCubes) {
  EXPECT_EQ(NodeGrid::arrange_3d(8).dims, (Int3{2, 2, 2}));
  EXPECT_EQ(NodeGrid::arrange_3d(27).dims, (Int3{3, 3, 3}));
  const NodeGrid g = NodeGrid::arrange_3d(12);
  EXPECT_EQ(g.num_nodes(), 12);
}

TEST(NodeGrid, IdCoordsRoundTrip) {
  const NodeGrid g{Int3{4, 3, 2}};
  for (int n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(g.id(g.coords(n)), n);
  }
}

class ScheduleGrid : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleGrid, PairsDisjointAndComplete2d) {
  const NodeGrid g = NodeGrid::arrange_2d(GetParam());
  const CommSchedule s = CommSchedule::pairwise(g);
  EXPECT_TRUE(s.pairs_disjoint_within_steps());
  EXPECT_TRUE(s.covers_all_axial_neighbors());
  // 2D arrangement: at most 4 steps (2 per decomposed axis).
  EXPECT_LE(s.num_steps(), 4);
}

TEST_P(ScheduleGrid, IndirectRoutesCoverAllDiagonalPairs) {
  const NodeGrid g = NodeGrid::arrange_2d(GetParam());
  const CommSchedule s = CommSchedule::pairwise(g);
  const auto routes = plan_indirect_routes(s);

  std::set<std::pair<int, int>> covered;
  for (const IndirectRoute& r : routes) {
    EXPECT_LT(r.first_step, r.second_step);
    covered.insert({r.src, r.dst});
    // Hops must be axial grid neighbors.
    const Int3 h1 = g.coords(r.via) - g.coords(r.src);
    const Int3 h2 = g.coords(r.dst) - g.coords(r.via);
    EXPECT_EQ(std::abs(h1.x) + std::abs(h1.y) + std::abs(h1.z), 1);
    EXPECT_EQ(std::abs(h2.x) + std::abs(h2.y) + std::abs(h2.z), 1);
  }

  // Count expected ordered diagonal pairs.
  int expected = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    const Int3 c = g.coords(n);
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        for (int sa = -1; sa <= 1; sa += 2) {
          for (int sb = -1; sb <= 1; sb += 2) {
            Int3 off{0, 0, 0};
            off[a] = sa;
            off[b] = sb;
            if (g.contains(c + off)) ++expected;
          }
        }
      }
    }
  }
  EXPECT_EQ(static_cast<int>(covered.size()), expected);
  EXPECT_EQ(static_cast<int>(routes.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ScheduleGrid,
                         ::testing::Values(2, 4, 8, 12, 16, 30, 32));

TEST(Schedule, ThreeDimensionalGridGetsSixSteps) {
  const NodeGrid g{Int3{3, 3, 3}};
  const CommSchedule s = CommSchedule::pairwise(g);
  EXPECT_EQ(s.num_steps(), 6);
  EXPECT_TRUE(s.pairs_disjoint_within_steps());
  EXPECT_TRUE(s.covers_all_axial_neighbors());
  const auto routes = plan_indirect_routes(s);
  EXPECT_FALSE(routes.empty());
  for (const IndirectRoute& r : routes) {
    EXPECT_LT(r.first_step, r.second_step);
  }
}

TEST(Schedule, PaperExampleFigure7) {
  // 16 nodes in a 4x4 grid: B=(1,0) sends to E=(0,1) via A=(0,0); the
  // first hop is an x step, the second a y step.
  const NodeGrid g{Int3{4, 4, 1}};
  const CommSchedule s = CommSchedule::pairwise(g);
  const auto routes = plan_indirect_routes(s);
  const int B = g.id(Int3{1, 0, 0});
  const int A = g.id(Int3{0, 0, 0});
  const int E = g.id(Int3{0, 1, 0});
  bool found = false;
  for (const IndirectRoute& r : routes) {
    if (r.src == B && r.dst == E) {
      found = true;
      EXPECT_EQ(r.via, A);
      EXPECT_LT(r.first_step, 2);   // x steps are steps 0-1
      EXPECT_GE(r.second_step, 2);  // y steps are steps 2-3
    }
  }
  EXPECT_TRUE(found);
}

TEST(SwitchModel, EmptyStepIsFree) {
  SwitchModel sw(NetSpec::gigabit_ethernet());
  EXPECT_DOUBLE_EQ(sw.step_seconds(0, 1 << 20, 16, true), 0.0);
}

TEST(SwitchModel, MoreNeighborsCostMoreThanSameBytesToFewer) {
  // Section 4.3 finding (2): same total data, more transfer partners ->
  // more time. Four steps of 64 KB beat... lose to one step of 256 KB.
  SwitchModel sw(NetSpec::gigabit_ethernet());
  const double few = sw.step_seconds(1, 256 * 1024, 4, false);
  double many = 0;
  for (int k = 0; k < 4; ++k) many += sw.step_seconds(1, 64 * 1024, 4, false);
  EXPECT_GT(many, 1.5 * few);
}

TEST(SwitchModel, InterruptionsHurtDirectExchanges) {
  // Section 4.3 finding (1): two senders targeting one receiver interrupt
  // each other; the scheduled pairwise pattern avoids that.
  SwitchModel sw(NetSpec::gigabit_ethernet());
  const i64 bytes = 128 * 1024;
  // Pairwise: 0->1 and 2->3 in parallel.
  const double pairwise =
      sw.direct_exchange_seconds({{0, 1, bytes}, {2, 3, bytes}}, 4);
  // Convergecast: 0->1 and 2->1 collide at node 1.
  const double colliding =
      sw.direct_exchange_seconds({{0, 1, bytes}, {2, 1, bytes}}, 4);
  EXPECT_GT(colliding, pairwise * 1.5);
}

TEST(SwitchModel, CongestionKicksInBeyondBackplane) {
  SwitchModel sw(NetSpec::gigabit_ethernet());
  const double below = sw.step_seconds(12, 128 * 1024, 32, false);
  const double above = sw.step_seconds(16, 128 * 1024, 32, false);
  EXPECT_GT(above, below + 0.02);  // 8 excess flows * 3.5 ms
}

TEST(SwitchModel, BarrierCheaperThanJitterOnlyForSmallClusters) {
  // The paper's crossover: barrier helps at <= 16 nodes, hurts beyond.
  SwitchModel sw(NetSpec::gigabit_ethernet());
  const double with8 = sw.step_seconds(4, 128 * 1024, 8, true);
  const double without8 = sw.step_seconds(4, 128 * 1024, 8, false);
  EXPECT_LT(with8, without8);
  const double with32 = sw.step_seconds(12, 128 * 1024, 32, true);
  const double without32 = sw.step_seconds(12, 128 * 1024, 32, false);
  EXPECT_GT(with32, without32);
}

TEST(SwitchModel, ScheduledSecondsAggregatesSteps) {
  const NodeGrid g = NodeGrid::arrange_2d(4);
  const CommSchedule s = CommSchedule::pairwise(g);
  SwitchModel sw(NetSpec::gigabit_ethernet());
  const NetworkTiming t = sw.scheduled_seconds(s, 128 * 1024, true);
  ASSERT_EQ(t.steps.size(), s.steps.size());
  double sum = 0;
  for (const StepTiming& st : t.steps) sum += st.seconds;
  EXPECT_DOUBLE_EQ(t.total_s, sum);
}

TEST(SwitchModel, MyrinetIsFarFaster) {
  const NodeGrid g = NodeGrid::arrange_2d(32);
  const CommSchedule s = CommSchedule::pairwise(g);
  const double gbe = SwitchModel(NetSpec::gigabit_ethernet())
                         .scheduled_seconds(s, 128 * 1024, false)
                         .total_s;
  const double myri = SwitchModel(NetSpec::myrinet2000())
                          .scheduled_seconds(s, 128 * 1024, false)
                          .total_s;
  EXPECT_LT(myri * 10, gbe);
}

}  // namespace
}  // namespace gc::netsim
