// The timing model against the paper's published numbers: Table 1 totals
// and speedups, Table 2 throughput/efficiency, the Figure 8/9/10 shapes,
// and the Section 4.4 strong-scaling collapse.
#include <gtest/gtest.h>

#include <cmath>

#include "core/scaling_study.hpp"

namespace gc::core {
namespace {

// Paper Table 1 (per step, ms): node count -> {cpu_total, gpu_total}.
struct PaperRow {
  int nodes;
  double cpu_ms;
  double gpu_ms;
  double speedup;
};
const PaperRow kTable1[] = {
    {1, 1420, 214, 6.64},  {2, 1424, 229, 6.22},  {4, 1430, 266, 5.38},
    {8, 1429, 272, 5.25},  {12, 1431, 280, 5.11}, {16, 1433, 285, 5.03},
    {20, 1436, 287, 5.00}, {24, 1437, 288, 4.99}, {28, 1439, 298, 4.83},
    {30, 1440, 312, 4.62}, {32, 1440, 317, 4.54},
};

std::vector<StepBreakdown> table1_series() {
  return weak_scaling(Int3{80, 80, 80}, paper_node_counts());
}

TEST(ClusterSim, SingleNodeMatchesPaperExactly) {
  const StepBreakdown b = table1_series().front();
  EXPECT_NEAR(b.cpu_total_ms, 1420.0, 1.0);
  EXPECT_NEAR(b.gpu_total_ms, 214.0, 1.0);
  EXPECT_NEAR(b.speedup(), 6.64, 0.02);
}

TEST(ClusterSim, Table1TotalsWithinTenPercent) {
  const auto series = table1_series();
  ASSERT_EQ(series.size(), std::size(kTable1));
  for (std::size_t k = 0; k < series.size(); ++k) {
    const double rel_cpu =
        std::abs(series[k].cpu_total_ms - kTable1[k].cpu_ms) /
        kTable1[k].cpu_ms;
    const double rel_gpu =
        std::abs(series[k].gpu_total_ms - kTable1[k].gpu_ms) /
        kTable1[k].gpu_ms;
    EXPECT_LT(rel_cpu, 0.02) << "nodes=" << kTable1[k].nodes;
    EXPECT_LT(rel_gpu, 0.10) << "nodes=" << kTable1[k].nodes;
  }
}

TEST(ClusterSim, SpeedupCurveShapeMatchesFigure9) {
  const auto series = table1_series();
  // Shape: starts at ~6.6, drops fast to a plateau around 5, then dips
  // once the network stops overlapping (>= 30 nodes).
  EXPECT_GT(series[0].speedup(), 6.4);
  for (std::size_t k = 3; k < 8; ++k) {  // 8..24 nodes: the plateau
    EXPECT_GT(series[k].speedup(), 4.8);
    EXPECT_LT(series[k].speedup(), 5.6);
  }
  const double plateau = series[5].speedup();   // 16 nodes
  const double at32 = series.back().speedup();  // 32 nodes
  EXPECT_LT(at32, plateau - 0.4);  // the Figure-9 drop
  EXPECT_NEAR(at32, 4.54, 0.35);
}

TEST(ClusterSim, NonOverlapAppearsOnlyBeyond24Nodes) {
  // Figure 8: below ~28 nodes the network hides entirely under the
  // 120 ms inner-collision window.
  const auto series = table1_series();
  for (const StepBreakdown& b : series) {
    if (b.nodes <= 24) {
      EXPECT_DOUBLE_EQ(b.net_nonoverlap_ms, 0.0) << "nodes=" << b.nodes;
    }
    EXPECT_NEAR(b.overlap_window_ms, 120.0, 2.0);
  }
  EXPECT_GT(series.back().net_nonoverlap_ms, 20.0);  // 32 nodes
}

TEST(ClusterSim, NetworkTimeGrowsMonotonically) {
  const auto series = table1_series();
  for (std::size_t k = 1; k + 1 < series.size(); ++k) {
    EXPECT_LE(series[k].net_total_ms, series[k + 1].net_total_ms + 1e-9)
        << "between " << series[k].nodes << " and " << series[k + 1].nodes;
  }
}

TEST(ClusterSim, Table2ThroughputAndEfficiency) {
  const auto rows = throughput_rows(table1_series(), i64(80) * 80 * 80);
  // Paper Table 2: 2.3M cells/s at 1 node, 49.2M at 32, efficiency 66.8%.
  EXPECT_NEAR(rows.front().mcells_per_s, 2.39, 0.1);
  EXPECT_NEAR(rows.back().mcells_per_s, 49.2, 5.0);
  EXPECT_NEAR(rows.back().efficiency, 0.668, 0.05);
  // Efficiency decreases monotonically (Figure 10's shape).
  for (std::size_t k = 2; k < rows.size(); ++k) {
    EXPECT_LE(rows[k].efficiency, rows[k - 1].efficiency + 1e-9);
  }
  // Paper's 2-node efficiency: 93.5%.
  EXPECT_NEAR(rows[1].efficiency, 0.935, 0.04);
}

TEST(ClusterSim, StrongScalingCollapsesLikeSection44) {
  // 160x160x80 fixed: speedup 5.3 at 4 nodes -> 2.4 at 16 nodes, then
  // converging toward CPU-comparable performance.
  const auto series = strong_scaling(Int3{160, 160, 80}, {4, 16, 32});
  EXPECT_NEAR(series[0].speedup(), 5.3, 0.6);
  EXPECT_NEAR(series[1].speedup(), 2.4, 0.5);
  EXPECT_LT(series[2].speedup(), 1.8);  // "gradually converge"
  EXPECT_GT(series[2].speedup(), 0.5);
}

TEST(ClusterSim, TimesSquareRunMatchesSection5) {
  // 480x400x80 on 30 nodes: 0.31 s/step.
  ClusterSimulator sim;
  ClusterScenario sc;
  sc.lattice = Int3{480, 400, 80};
  sc.grid = netsim::NodeGrid::arrange_2d(30);
  const StepBreakdown b = sim.simulate_step(sc);
  EXPECT_NEAR(b.gpu_total_ms, 310.0, 31.0);
  // 1000 steps of LBM spin-up stay under the paper's "< 20 minutes".
  EXPECT_LT(b.gpu_total_ms * 1000 / 1000.0 / 60.0, 20.0);
}

TEST(ClusterSim, PcieBusCutsGpuCpuCommCost) {
  ClusterSimulator sim;
  ClusterScenario agp;
  agp.lattice = Int3{320, 320, 80};
  agp.grid = netsim::NodeGrid{Int3{4, 4, 1}};
  ClusterScenario pcie = agp;
  pcie.node = NodePerfProfile::pcie_node();
  const StepBreakdown a = sim.simulate_step(agp);
  const StepBreakdown p = sim.simulate_step(pcie);
  EXPECT_LT(p.gpu_cpu_comm_ms * 4, a.gpu_cpu_comm_ms);
  EXPECT_LT(p.gpu_total_ms, a.gpu_total_ms);
}

TEST(ClusterSim, IndirectRoutingBeatsDirectDiagonals) {
  ClusterSimulator sim;
  ClusterScenario indirect;
  indirect.lattice = Int3{320, 320, 80};
  indirect.grid = netsim::NodeGrid{Int3{4, 4, 1}};
  ClusterScenario direct = indirect;
  direct.indirect_diagonals = false;
  const double t_ind = sim.simulate_step(indirect).net_total_ms;
  const double t_dir = sim.simulate_step(direct).net_total_ms;
  EXPECT_LT(t_ind, t_dir);
}

TEST(ClusterSim, MyrinetRemovesTheNonOverlap) {
  // Section 4.4 enhancement (1): a faster network eliminates the 32-node
  // speedup drop.
  const auto slow = weak_scaling(Int3{80, 80, 80}, {32});
  const auto fast = weak_scaling(Int3{80, 80, 80}, {32},
                                 NodePerfProfile::paper_node(),
                                 netsim::NetSpec::myrinet2000());
  EXPECT_GT(slow[0].net_nonoverlap_ms, 10.0);
  EXPECT_DOUBLE_EQ(fast[0].net_nonoverlap_ms, 0.0);
  EXPECT_GT(fast[0].speedup(), slow[0].speedup());
}

TEST(ClusterSim, SseCpuShrinksTheSpeedup) {
  // Section 4.4: an SSE-optimized CPU implementation (2-3x faster) would
  // shrink the GPU/CPU ratio accordingly.
  const auto base = weak_scaling(Int3{80, 80, 80}, {16});
  const auto sse = weak_scaling(Int3{80, 80, 80}, {16},
                                NodePerfProfile::sse_cpu_node());
  EXPECT_NEAR(sse[0].speedup(), base[0].speedup() / 2.5, 0.2);
}

TEST(ClusterSim, BiggerSubdomainsImproveComputeCommRatio) {
  // Section 4.4 enhancement (3): 256 MB GPUs allow larger sub-domains,
  // raising the computation/communication ratio.
  const auto small = weak_scaling(Int3{64, 64, 64}, {32});
  const auto large = weak_scaling(Int3{112, 112, 80}, {32});
  const double small_ratio =
      small[0].gpu_compute_ms /
      (small[0].gpu_cpu_comm_ms + small[0].net_total_ms);
  const double large_ratio =
      large[0].gpu_compute_ms /
      (large[0].gpu_cpu_comm_ms + large[0].net_total_ms);
  EXPECT_GT(large_ratio, small_ratio);
}

TEST(ClusterSim, TrafficBytesMatchPaperFormula) {
  // 80^3 blocks: 5 * 80^2 distributions = 128 KB per face payload.
  const netsim::NodeGrid grid{Int3{4, 4, 1}};
  const Decomposition3 decomp(Int3{320, 320, 80}, grid);
  const auto sched = netsim::CommSchedule::pairwise(grid);
  const auto bytes =
      ClusterSimulator::traffic_bytes_per_step(decomp, sched, true);
  const i64 face = i64(5) * 80 * 80 * static_cast<i64>(sizeof(Real));
  for (const auto& step : bytes) {
    for (i64 b : step) {
      EXPECT_GE(b, face);
      // Piggyback adds at most a few N-sized chunks (c/(5N) of the face).
      EXPECT_LE(b, face + 6 * 80 * static_cast<i64>(sizeof(Real)));
    }
  }
}

}  // namespace
}  // namespace gc::core
