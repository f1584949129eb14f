// Central MPI tag registry. Every point-to-point channel in the system is
// identified by a (src, dst, tag) triple; correctness of the exchange
// protocols (two-hop diagonal routing, thermal ghost swap, CG proxy
// refresh, allreduce, the reliable-envelope sequence numbers) depends on
// no two logical streams sharing a triple. All tags are therefore drawn
// from this one enum — gc_lint flags raw integer literals at
// send/isend/irecv call sites — and the block layout below is proven
// overlap-free at compile time.
//
// Base tags ("...Base") are offset by a rank or node id at the call site
// (e.g. kHop1Base + ultimate destination node); each owns the half-open
// block [base, base + block_width). Scalar tags own a block of width 1.
#pragma once

namespace gc::netsim {

enum Tag : int {
  // --- distributed LBM ghost exchange (core/parallel_lbm, core/gpu_cluster)
  kFace = 1,            ///< axial face payloads (unique per (src,dst) pair)
  kHop1Base = 1000,     ///< + ultimate destination node (diagonal hop 1)
  kHop2Base = 2000,     ///< + origin node (diagonal hop 2)
  kThermalFace = 4000,  ///< thermal ghost-plane scalar exchange

  // --- distributed CG (linalg/distributed_cg)
  kCgProxyBase = 7000,  ///< + sender rank (proxy-entry refresh)

  // --- collectives (netsim::Comm::allreduce_sum)
  kAllreduceGather = 90001,  ///< every rank's value to rank 0
  kAllreduceBcast = 90002,   ///< the sum from rank 0 to every rank

  // --- reserved for unit tests (tests/ only; width-1 scalar tags)
  kTest0 = 9000,
  kTest1 = 9001,
  kTest2 = 9002,
  kTest3 = 9003,
  kTest4 = 9004,
  kTest5 = 9005,
  kTest7 = 9007,
  kTest9 = 9009,
};

namespace detail {

/// One registry row: the block of tag values a Tag entry owns.
struct TagBlock {
  int base;
  int width;  ///< 1 for scalar tags; max world size for "...Base" tags
};

/// Maximum rank/node count a "...Base" tag can be offset by. Bases are
/// spaced so their blocks never collide below this world size.
inline constexpr int kMaxWorldSize = 1000;

inline constexpr TagBlock kTagBlocks[] = {
    {kFace, 1},
    {kHop1Base, kMaxWorldSize},
    {kHop2Base, kMaxWorldSize},
    {kThermalFace, 1},
    {kCgProxyBase, kMaxWorldSize},
    {kAllreduceGather, 1},
    {kAllreduceBcast, 1},
    {kTest0, 1},
    {kTest1, 1},
    {kTest2, 1},
    {kTest3, 1},
    {kTest4, 1},
    {kTest5, 1},
    {kTest7, 1},
    {kTest9, 1},
};

/// True when no two registry blocks overlap (pairwise interval check).
constexpr bool tag_blocks_disjoint() {
  constexpr int n = static_cast<int>(sizeof(kTagBlocks) / sizeof(TagBlock));
  for (int i = 0; i < n; ++i) {
    if (kTagBlocks[i].width < 1) return false;
    for (int j = i + 1; j < n; ++j) {
      const int lo_i = kTagBlocks[i].base;
      const int hi_i = lo_i + kTagBlocks[i].width;
      const int lo_j = kTagBlocks[j].base;
      const int hi_j = lo_j + kTagBlocks[j].width;
      if (lo_i < hi_j && lo_j < hi_i) return false;
    }
  }
  return true;
}

static_assert(tag_blocks_disjoint(),
              "netsim::Tag registry entries must be unique: no two tag "
              "blocks may overlap below kMaxWorldSize ranks");

}  // namespace detail

}  // namespace gc::netsim
