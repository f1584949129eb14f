// Utility layer: RNG determinism and distributions, thread pool, tables,
// and the CRC32 every on-disk and wire format depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "temp_path.hpp"

namespace gc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<i64> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalHasUnitVariance) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng as = a.split(), bs = b.split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(as.next_u64(), bs.next_u64());
}

/// Bit-serial CRC32 over the reflected polynomial 0xEDB88320, one byte
/// at a time: the definition crc32 must reproduce, written without its
/// tables.
u32 reference_crc32(const unsigned char* p, std::size_t n, u32 seed) {
  u32 c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> seeded_bytes(std::size_t n, u64 seed) {
  std::vector<unsigned char> v(n);
  Rng rng(seed);
  for (unsigned char& b : v) {
    b = static_cast<unsigned char>(rng.next_u64() >> 56);
  }
  return v;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("", 0, 0x1234abcdu), 0x1234abcdu);  // no bytes, no change
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAlignmentAndSplit) {
  // Lengths up to 80 cover no, one and several 16-byte strides plus every
  // tail; starting offsets 0-15 cover every alignment of those strides.
  const std::vector<unsigned char> buf = seeded_bytes(16 + 80, 77);
  for (std::size_t align = 0; align < 16; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= 80; ++len) {
      const u32 want = reference_crc32(p, len, 0);
      ASSERT_EQ(crc32(p, len, 0x5eedu), reference_crc32(p, len, 0x5eedu))
          << "align " << align << " len " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32(p + split, len - split, crc32(p, split)), want)
            << "align " << align << " len " << len << " split " << split;
      }
    }
  }
}

TEST(Crc32, SeededBufferAndCheckpointKeepTheirRecordedValues) {
  // Recorded values. Every checkpoint, manifest, flow-cache stem and
  // MpiLite envelope on disk or in flight depends on them; a CRC that
  // is wrong but self-consistent would pass every round trip and still
  // make all of those unreadable.
  const std::vector<unsigned char> mib =
      seeded_bytes(std::size_t{1} << 20, 2024);
  EXPECT_EQ(crc32(mib.data(), mib.size()), 0x68418893u);

  lbm::Lattice lat(Int3{9, 7, 5});
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMAX, lbm::FaceBc::FreeSlip);
  lat.set_inlet(Real(1.02), Vec3{0.04f, -0.01f, 0.02f});
  Rng rng(123);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, Real(rng.uniform(0.01, 0.1)));
    }
  }
  lat.fill_solid_box(Int3{3, 3, 1}, Int3{5, 5, 3});  // saved as 0
  lat.add_curved_link({lat.idx(2, 3, 1), 1, Real(0.37)});
  test::TempPath f("crc_pin.gclb");
  io::save_checkpoint(f.path(), lat);
  std::ifstream in(f.path(), std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file.size(), 24334u);
  // An AA lattice, the default: storage byte 1.
  EXPECT_EQ(crc32(file.data(), file.size()), 0x9822c60au);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&hits](i64 i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedVariantCoversRange) {
  ThreadPool pool(3);
  std::atomic<i64> total{0};
  pool.parallel_for_chunks(10, 500, [&total](i64 lo, i64 hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 490);
}

TEST(ThreadPool, MinChunkCoalescesTinyRanges) {
  ThreadPool pool(4);
  // 8 indices with a floor of 5 per chunk: at most one chunk fits, so the
  // body must run exactly once, inline, over the whole range.
  std::atomic<int> chunks{0};
  std::atomic<i64> covered{0};
  pool.parallel_for_chunks(
      0, 8,
      [&](i64 lo, i64 hi) {
        chunks.fetch_add(1);
        covered.fetch_add(hi - lo);
      },
      5);
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 8);

  // 20 indices, floor 5: at most 4 chunks, full coverage.
  chunks = 0;
  covered = 0;
  pool.parallel_for_chunks(
      0, 20,
      [&](i64 lo, i64 hi) {
        chunks.fetch_add(1);
        covered.fetch_add(hi - lo);
      },
      5);
  EXPECT_LE(chunks.load(), 4);
  EXPECT_EQ(covered.load(), 20);
}

TEST(ThreadPool, MinChunkIndicesHeuristic) {
  // Large slices need no coalescing; tiny slices coalesce to ~target.
  EXPECT_EQ(ThreadPool::min_chunk_indices(6400), 2);   // 80^2 plane
  EXPECT_EQ(ThreadPool::min_chunk_indices(10000), 1);  // 100^2 plane
  EXPECT_EQ(ThreadPool::min_chunk_indices(64), 128);   // 8^2 plane
  EXPECT_EQ(ThreadPool::min_chunk_indices(0), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_chunks(5, 5, [&called](i64, i64) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkExceptionIsRethrownOnTheCaller) {
  // Every chunk runs on a worker and every chunk throws: the caller gets
  // one of the exceptions only after all chunks have finished, and the
  // pool stays usable.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for_chunks(0, 8,
                                        [&finished](i64 lo, i64) {
                                          finished.fetch_add(1);
                                          GC_CHECK_MSG(lo < 0, "chunk " << lo);
                                        }),
               Error);
  EXPECT_EQ(finished.load(), 2);

  std::atomic<i64> covered{0};
  pool.parallel_for_chunks(0, 8, [&covered](i64 lo, i64 hi) {
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(covered.load(), 8);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(Table, AlignsAndFormats) {
  Table t("demo");
  t.set_header({"a", "value"});
  t.row().cell("x").cell(1.234567, 3);
  t.row().cell("longer").cell(2L);
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("1.235"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t;
  t.set_header({"n", "ms"});
  t.row().cell(1L).cell(2.5, 1);
  EXPECT_EQ(t.csv(), "n,ms\n1,2.5\n");
}

TEST(Table, CellWithoutRowThrows) {
  Table t;
  EXPECT_THROW(t.cell("oops"), Error);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a tiny amount.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(double(i));
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

TEST(SectionTimer, Accumulates) {
  SectionTimer s("phase");
  s.add(0.5);
  s.add(1.5);
  EXPECT_DOUBLE_EQ(s.total_seconds(), 2.0);
  EXPECT_EQ(s.count(), 2);
  EXPECT_DOUBLE_EQ(s.mean_seconds(), 1.0);
}

TEST(Check, MacroThrowsWithMessage) {
  try {
    GC_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace gc
