// Compile-time audit of the D3Q19 model tables. Every invariant the
// kernels and the §4.3 two-hop diagonal routing silently rely on is proven
// here with constexpr evaluation over C, W and OPP — an edit to the
// velocity set that breaks any of them fails to *compile* instead of
// producing silently wrong physics. Included from model.hpp so the proofs
// run in every translation unit that can see the tables.
//
// The invariants, in order:
//   1. index ranges partition [0, Q): rest, axial block, diagonal block
//   2. OPP is an involution with C[OPP[i]] == -C[i]
//   3. link norms match their block (0 / 1 / 2)
//   4. all links are distinct
//   5. weights: positive, one value per shell, sum to 1
//   6. first moment  Σ W c      == 0
//   7. second moment Σ W c⊗c   == CS2 · I
//   8. routing: every diagonal link is the sum of exactly two axial links
//      (the precondition for piggybacking diagonal traffic on face
//      messages — the paper's indirect routing)
#pragma once

#include "lbm/model.hpp"

namespace gc::lbm::audit {

constexpr double cabs(double v) { return v < 0 ? -v : v; }

/// Comparison tolerance for the float-valued weight sums, evaluated in
/// double. The weights are float-rounded, so exact comparison against the
/// rational values would be wrong by construction.
inline constexpr double kTol = 1e-6;

constexpr int norm2(Int3 v) { return v.x * v.x + v.y * v.y + v.z * v.z; }

// --- 1. index ranges ------------------------------------------------------
static_assert(REST == 0 && AXIAL_BEGIN == 1, "rest link must be index 0");
static_assert(AXIAL_END == DIAG_BEGIN,
              "axial and diagonal blocks must be adjacent");
static_assert(DIAG_END == Q, "diagonal block must end the velocity set");
static_assert(AXIAL_END - AXIAL_BEGIN == 6, "D3Q19 has 6 axial links");
static_assert(DIAG_END - DIAG_BEGIN == 12, "D3Q19 has 12 diagonal links");

// --- 2. opposite-link involution ------------------------------------------
constexpr bool opp_is_involution() {
  for (int i = 0; i < Q; ++i) {
    if (OPP[i] < 0 || OPP[i] >= Q) return false;
    if (OPP[OPP[i]] != i) return false;
    if (C[OPP[i]] != Int3{-C[i].x, -C[i].y, -C[i].z}) return false;
  }
  return OPP[REST] == REST;
}
static_assert(opp_is_involution(),
              "OPP must be an involution with C[OPP[i]] == -C[i]");

// --- 3. link norms per block ----------------------------------------------
constexpr bool link_norms_match_blocks() {
  if (norm2(C[REST]) != 0) return false;
  for (int i = AXIAL_BEGIN; i < AXIAL_END; ++i) {
    if (norm2(C[i]) != 1) return false;
  }
  for (int i = DIAG_BEGIN; i < DIAG_END; ++i) {
    if (norm2(C[i]) != 2) return false;
  }
  return true;
}
static_assert(link_norms_match_blocks(),
              "axial links must have |c|^2 == 1 and diagonal links "
              "|c|^2 == 2, in the AXIAL_*/DIAG_* index ranges");

// --- 4. distinct links ----------------------------------------------------
constexpr bool links_distinct() {
  for (int i = 0; i < Q; ++i) {
    for (int j = i + 1; j < Q; ++j) {
      if (C[i] == C[j]) return false;
    }
  }
  return true;
}
static_assert(links_distinct(), "velocity set must not repeat a link");

// --- 5. weights -----------------------------------------------------------
constexpr bool weights_positive_and_shell_uniform() {
  for (int i = 0; i < Q; ++i) {
    if (!(W[i] > 0)) return false;
  }
  for (int i = AXIAL_BEGIN; i < AXIAL_END; ++i) {
    if (W[i] != W[AXIAL_BEGIN]) return false;
  }
  for (int i = DIAG_BEGIN; i < DIAG_END; ++i) {
    if (W[i] != W[DIAG_BEGIN]) return false;
  }
  return true;
}
static_assert(weights_positive_and_shell_uniform(),
              "weights must be positive and uniform within each shell");

constexpr bool weights_normalized() {
  double sum = 0;
  for (int i = 0; i < Q; ++i) sum += double(W[i]);
  return cabs(sum - 1.0) < kTol;
}
static_assert(weights_normalized(), "weights must sum to 1");

// --- 6. first moment ------------------------------------------------------
constexpr bool first_moment_zero() {
  double mx = 0, my = 0, mz = 0;
  for (int i = 0; i < Q; ++i) {
    mx += double(W[i]) * C[i].x;
    my += double(W[i]) * C[i].y;
    mz += double(W[i]) * C[i].z;
  }
  return cabs(mx) < kTol && cabs(my) < kTol && cabs(mz) < kTol;
}
static_assert(first_moment_zero(), "Σ W·c must vanish");

// --- 7. second moment -----------------------------------------------------
constexpr bool second_moment_isotropic() {
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      double m = 0;
      for (int i = 0; i < Q; ++i) {
        const int ca = a == 0 ? C[i].x : a == 1 ? C[i].y : C[i].z;
        const int cb = b == 0 ? C[i].x : b == 1 ? C[i].y : C[i].z;
        m += double(W[i]) * ca * cb;
      }
      const double want = a == b ? double(CS2) : 0.0;
      if (cabs(m - want) > kTol) return false;
    }
  }
  return true;
}
static_assert(second_moment_isotropic(), "Σ W·c⊗c must equal CS2·I");

// --- 8. two-hop routing precondition --------------------------------------
constexpr bool diagonals_decompose_into_two_axial_hops() {
  for (int d = DIAG_BEGIN; d < DIAG_END; ++d) {
    bool found = false;
    for (int a1 = AXIAL_BEGIN; a1 < AXIAL_END && !found; ++a1) {
      for (int a2 = AXIAL_BEGIN; a2 < AXIAL_END && !found; ++a2) {
        if (C[a1] + C[a2] == C[d]) found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}
static_assert(diagonals_decompose_into_two_axial_hops(),
              "every diagonal link must be the sum of two axial links — "
              "the §4.3 indirect-routing precondition");

}  // namespace gc::lbm::audit
