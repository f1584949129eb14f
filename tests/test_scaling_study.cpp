// Scaling-study helpers and calibrated hardware profiles.
#include <gtest/gtest.h>

#include "core/scaling_study.hpp"

namespace gc::core {
namespace {

TEST(ScalingStudy, PaperNodeCountsMatchTable1) {
  const auto counts = paper_node_counts();
  EXPECT_EQ(counts.size(), 11u);
  EXPECT_EQ(counts.front(), 1);
  EXPECT_EQ(counts.back(), 32);
}

TEST(ScalingStudy, WeakScalingGrowsTheLattice) {
  const auto series = weak_scaling(Int3{40, 40, 40}, {1, 4, 16});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].nodes, 1);
  EXPECT_EQ(series[2].nodes, 16);
  // Weak scaling: per-node work constant, so GPU compute stays flat
  // while network costs grow.
  EXPECT_NEAR(series[0].gpu_compute_ms, series[2].gpu_compute_ms, 25.0);
  EXPECT_LT(series[0].net_total_ms, series[2].net_total_ms);
}

TEST(ScalingStudy, StrongScalingShrinksPerNodeWork) {
  const auto series = strong_scaling(Int3{160, 160, 80}, {4, 16});
  EXPECT_GT(series[0].gpu_compute_ms, series[1].gpu_compute_ms * 2);
  EXPECT_GT(series[0].cpu_total_ms, series[1].cpu_total_ms * 2);
}

TEST(ScalingStudy, ThroughputRowsNormalizeToOneNode) {
  const auto series = weak_scaling(Int3{80, 80, 80}, {1, 2});
  const auto rows = throughput_rows(series, i64(80) * 80 * 80);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NEAR(rows[0].speedup_vs_1, 1.0, 1e-9);
  EXPECT_NEAR(rows[0].efficiency, 1.0, 1e-9);
  EXPECT_GT(rows[1].speedup_vs_1, 1.0);
  EXPECT_LT(rows[1].efficiency, 1.0);
}

TEST(Profiles, PaperNodeMatchesCalibration) {
  const NodePerfProfile p = NodePerfProfile::paper_node();
  EXPECT_NEAR(p.cpu_ns_per_cell, 2773.4, 1.0);
  EXPECT_NEAR(p.gpu_ns_per_cell, 417.97, 0.5);
  EXPECT_NEAR(p.overlap_fraction, 0.5607, 0.001);
  EXPECT_NEAR(p.bus.up_Bps, 133e6, 1.0);
}

TEST(Profiles, VariantsAdjustTheRightKnob) {
  const NodePerfProfile base = NodePerfProfile::paper_node();
  const NodePerfProfile pcie = NodePerfProfile::pcie_node();
  EXPECT_EQ(pcie.gpu_ns_per_cell, base.gpu_ns_per_cell);
  EXPECT_GT(pcie.bus.up_Bps, base.bus.up_Bps * 10);

  const NodePerfProfile gf68 = NodePerfProfile::gf6800_node();
  EXPECT_NEAR(gf68.gpu_ns_per_cell, base.gpu_ns_per_cell / 2.5, 1.0);

  const NodePerfProfile sse = NodePerfProfile::sse_cpu_node();
  EXPECT_NEAR(sse.cpu_ns_per_cell, base.cpu_ns_per_cell / 2.5, 1.0);
  EXPECT_EQ(sse.gpu_ns_per_cell, base.gpu_ns_per_cell);
}

}  // namespace
}  // namespace gc::core
