// Checkpoint round-trips: bit-identical state, boundary config, curved
// links, robust rejection of malformed files, and seeded structured
// mutation of every field the checkpoint and manifest decoders read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <typeinfo>

#include "io/checkpoint.hpp"
#include "lbm/collision.hpp"
#include "lbm/stream.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "alloc_probe.hpp"
#include "temp_path.hpp"

namespace gc::io {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

using test::TempPath;

Lattice make_state() {
  Lattice lat(Int3{9, 7, 5});
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1.02), Vec3{0.04f, -0.01f, 0.02f});
  Rng rng(123);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, Real(rng.uniform(0.01, 0.1)));
    }
  }
  lat.fill_solid_box(Int3{3, 3, 1}, Int3{5, 5, 3});
  lat.add_curved_link({lat.idx(2, 3, 1), 1, Real(0.37)});
  return lat;
}

TEST(Checkpoint, RoundTripIsBitIdentical) {
  TempPath f("state.gclb");
  const Lattice original = make_state();
  save_checkpoint(f.path(), original);
  const Lattice restored = load_checkpoint(f.path());

  EXPECT_EQ(restored.dim(), original.dim());
  for (int face = 0; face < 6; ++face) {
    EXPECT_EQ(restored.face_bc(static_cast<lbm::Face>(face)),
              original.face_bc(static_cast<lbm::Face>(face)));
  }
  EXPECT_EQ(restored.inlet_density(), original.inlet_density());
  EXPECT_EQ(restored.inlet_velocity().x, original.inlet_velocity().x);
  for (i64 c = 0; c < original.num_cells(); ++c) {
    ASSERT_EQ(restored.flag(c), original.flag(c));
    for (int i = 0; i < lbm::Q; ++i) {
      ASSERT_EQ(restored.f(i, c), original.f(i, c));
    }
  }
  ASSERT_EQ(restored.curved_links().size(), 1u);
  EXPECT_EQ(restored.curved_links()[0].cell, original.curved_links()[0].cell);
  EXPECT_EQ(restored.curved_links()[0].q, original.curved_links()[0].q);
}

TEST(Checkpoint, RestoredStateEvolvesIdentically) {
  TempPath f("evolve.gclb");
  Lattice a = make_state();
  save_checkpoint(f.path(), a);
  Lattice b = load_checkpoint(f.path());

  for (int s = 0; s < 3; ++s) {
    lbm::collide_bgk(a, lbm::BgkParams{Real(0.8), Vec3{}});
    lbm::stream(a);
    lbm::collide_bgk(b, lbm::BgkParams{Real(0.8), Vec3{}});
    lbm::stream(b);
  }
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      ASSERT_EQ(a.f(i, c), b.f(i, c));
    }
  }
}

TEST(Checkpoint, RejectsWrongMagic) {
  TempPath f("bogus.gclb");
  std::ofstream(f.path()) << "not a checkpoint at all";
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(Checkpoint, RejectsTruncatedFile) {
  TempPath f("trunc.gclb");
  save_checkpoint(f.path(), make_state());
  // Truncate to half size.
  std::ifstream in(f.path(), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(f.path(), std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/x.gclb"), Error);
}

// ---------------------------------------------------------------------------
// Format v2: envelope integrity (CRC, exact size, atomic commit).

namespace {
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Envelope header: [magic 4][version 4][body_size 8][crc 4].
constexpr std::size_t kHeader = 4 + 4 + 8 + 4;
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kSizeAt = 8;
constexpr std::size_t kCrcAt = 16;

template <typename T>
void put(std::string& file, std::size_t at, T v) {
  std::memcpy(file.data() + at, &v, sizeof(T));
}

/// Re-derives the body CRC in the header, so that a mutated body gets
/// past the CRC to the decoder's other checks.
void reseal(std::string& file) {
  put(file, kCrcAt, crc32(file.data() + kHeader, file.size() - kHeader));
}
}  // namespace

TEST(CheckpointV2, RejectsFlippedBodyByte) {
  TempPath f("flip.gclb");
  save_checkpoint(f.path(), make_state());
  std::string content = slurp(f.path());
  content[content.size() / 2] ^= 0x10;  // one bit, deep in the body
  spit(f.path(), content);
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(CheckpointV2, RejectsWrongVersion) {
  TempPath f("ver.gclb");
  save_checkpoint(f.path(), make_state());
  std::string content = slurp(f.path());
  content[4] ^= 0x7f;  // the version word follows the 4-byte magic
  spit(f.path(), content);
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(CheckpointV2, RejectsTruncatedTail) {
  // A single missing byte must be caught (the header records the exact
  // body size), not just gross truncation.
  TempPath f("tail.gclb");
  save_checkpoint(f.path(), make_state());
  const std::string content = slurp(f.path());
  spit(f.path(), content.substr(0, content.size() - 1));
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(CheckpointV2, RejectsTrailingGarbage) {
  TempPath f("tail2.gclb");
  save_checkpoint(f.path(), make_state());
  spit(f.path(), slurp(f.path()) + 'x');
  EXPECT_THROW(load_checkpoint(f.path()), Error);
}

TEST(CheckpointV2, RejectsCorruptBodySizeBeforeAllocating) {
  // The size field is checked against the file's length before anything
  // is read into memory, so a flipped high byte can neither allocate
  // nor escape as anything but a typed error.
  TempPath f("size.gclb");
  save_checkpoint(f.path(), make_state());
  const std::string good = slurp(f.path());
  const u64 size = good.size() - kHeader;
  for (const u64 bad : {u64{1} << 40, u64{std::numeric_limits<i64>::max()},
                        ~u64{0}, size - 1, size + 1}) {
    std::string content = good;
    put(content, kSizeAt, bad);
    spit(f.path(), content);
    test::reset_largest_allocation();
    EXPECT_THROW(load_checkpoint(f.path()), Error) << bad;
    EXPECT_THROW(read_checkpoint_info(f.path()), Error) << bad;
    EXPECT_LT(test::largest_allocation(), content.size()) << bad;
  }
}

TEST(CheckpointV2, CommitsAtomicallyWithoutTmpResidue) {
  TempPath f("clean.gclb");
  save_checkpoint(f.path(), make_state());
  EXPECT_FALSE(std::filesystem::exists(f.path() + ".tmp"));
  // Overwriting an existing checkpoint is also a tmp+rename commit.
  save_checkpoint(f.path(), make_state());
  EXPECT_FALSE(std::filesystem::exists(f.path() + ".tmp"));
  EXPECT_NO_THROW(load_checkpoint(f.path()));
}

TEST(CheckpointV2, ManifestRoundTrips) {
  TempPath f("m.gcmf");
  ClusterManifest m;
  m.step = 123;
  m.grid = Int3{2, 2, 1};
  m.lattice_dim = Int3{16, 16, 8};
  m.rank_files = {"rank_0000.gclb", "rank_0001.gclb", "rank_0002.gclb",
                  "rank_0003.gclb"};
  save_manifest(f.path(), m);
  const ClusterManifest r = load_manifest(f.path());
  EXPECT_EQ(r.step, m.step);
  EXPECT_EQ(r.grid, m.grid);
  EXPECT_EQ(r.lattice_dim, m.lattice_dim);
  EXPECT_EQ(r.rank_files, m.rank_files);
}

// ---------------------------------------------------------------------------
// Format v3+: the header records the StorageMode; loads auto-detect it,
// and v2 files (no mode field) and storage byte 0 (the retired
// double-buffered mode) load as AA. The writer emits v4 (same layout; the
// storage byte may additionally say Sparse).

namespace {
/// Rewrites a saved v3 checkpoint into the v2 wire format: drops the
/// storage-mode byte from the body, sets the version word to 2 and
/// re-derives body_size and CRC32 — byte-for-byte what the pre-v3 writer
/// produced: the planes are stored in natural order in every mode.
std::string downgrade_to_v2(const std::string& v3) {
  // Envelope: [magic 4][version 4][body_size 8][crc 4][body]; the
  // storage byte sits at body offset 16 (3 x i32 dims + u32 Q).
  std::string out = v3;
  out.erase(kHeader + 16, 1);
  put(out, kVersionAt, u32{2});
  put(out, kSizeAt, u64{out.size() - kHeader});
  reseal(out);
  return out;
}
}  // namespace

TEST(CheckpointV3, RecordsAndDetectsStorageMode) {
  TempPath f("mode.gclb");
  for (const lbm::StorageMode mode :
       {lbm::StorageMode::AA, lbm::StorageMode::Sparse}) {
    Lattice lat(Int3{6, 5, 4}, mode);
    lat.init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
    save_checkpoint(f.path(), lat);
    const CheckpointInfo info = read_checkpoint_info(f.path());
    EXPECT_EQ(info.version, 4u);
    EXPECT_EQ(info.storage, mode);
    EXPECT_EQ(info.dim, lat.dim());
    // The mode-less load materializes the recorded backend.
    const Lattice restored = load_checkpoint(f.path());
    EXPECT_EQ(restored.storage_mode(), mode);
  }
}

TEST(CheckpointV3, ExplicitModeOverridesTheHeader) {
  TempPath f("override.gclb");
  Lattice lat(Int3{6, 5, 4}, lbm::StorageMode::AA);
  lat.init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
  save_checkpoint(f.path(), lat);
  const Lattice as_sparse = load_checkpoint(f.path(), lbm::StorageMode::Sparse);
  EXPECT_EQ(as_sparse.storage_mode(), lbm::StorageMode::Sparse);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      ASSERT_EQ(as_sparse.f(i, c), lat.f(i, c));
    }
  }
}

TEST(CheckpointV3, LoadsStorageByteZeroAsAA) {
  // Byte 0 named the retired double-buffered mode, whose natural planes
  // an AA lattice holds at phase 0.
  TempPath f("byte0.gclb");
  const Lattice original = make_state();
  save_checkpoint(f.path(), original);
  std::string file = slurp(f.path());
  // The storage byte sits at body offset 16 (3 x i32 dims + u32 Q).
  ASSERT_EQ(file[kHeader + 16], char(lbm::StorageMode::AA));
  file[kHeader + 16] = 0;
  reseal(file);
  spit(f.path(), file);

  EXPECT_EQ(read_checkpoint_info(f.path()).storage, lbm::StorageMode::AA);
  const Lattice restored = load_checkpoint(f.path());
  EXPECT_EQ(restored.storage_mode(), lbm::StorageMode::AA);
  EXPECT_EQ(restored.aa_phase(), 0);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < original.num_cells(); ++c) {
      ASSERT_EQ(restored.f(i, c), original.f(i, c));
    }
  }
}

TEST(CheckpointV3, LoadsLegacyV2FilesAsAA) {
  TempPath f("legacy.gclb");
  const Lattice original = make_state();
  save_checkpoint(f.path(), original);
  spit(f.path(), downgrade_to_v2(slurp(f.path())));

  const CheckpointInfo info = read_checkpoint_info(f.path());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.storage, lbm::StorageMode::AA);

  const Lattice restored = load_checkpoint(f.path());
  EXPECT_EQ(restored.storage_mode(), lbm::StorageMode::AA);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < original.num_cells(); ++c) {
      ASSERT_EQ(restored.f(i, c), original.f(i, c));
    }
  }
}

TEST(CheckpointV3, RejectsInvalidStorageModeByte) {
  TempPath f("badmode.gclb");
  save_checkpoint(f.path(), make_state());
  std::string content = slurp(f.path());
  content[kHeader + 16] = 0x7;  // not a StorageMode
  reseal(content);
  spit(f.path(), content);
  EXPECT_THROW(load_checkpoint(f.path()), Error);
  EXPECT_THROW(read_checkpoint_info(f.path()), Error);
}

TEST(CheckpointV2, ManifestRejectsCorruption) {
  TempPath f("mbad.gcmf");
  ClusterManifest m;
  m.step = 5;
  m.rank_files = {"rank_0000.gclb"};
  save_manifest(f.path(), m);
  std::string content = slurp(f.path());
  content[content.size() - 3] ^= 0x01;
  spit(f.path(), content);
  EXPECT_THROW(load_manifest(f.path()), Error);
}

// ---------------------------------------------------------------------------
// Hostile input: seeded structured mutation of every header and body
// field. Each load must return a value or throw gc::Error — no other
// exception, no crash, no hang — and no single allocation may exceed
// twice the file's size: nothing may be sized by what a file claims
// rather than by what it holds. (The 64 KiB floor covers the file
// stream's own fixed buffer, which a small manifest alone exceeds.)

namespace {

using Decoder = void (*)(const std::string&);

void expect_value_or_error(const std::string& path, const std::string& file,
                           std::initializer_list<Decoder> decoders,
                           const std::string& what) {
  spit(path, file);
  for (const Decoder decode : decoders) {
    test::reset_largest_allocation();
    try {
      decode(path);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
    }
    const std::size_t largest = test::largest_allocation();
    EXPECT_LE(largest, std::max<std::size_t>(2 * file.size(), 64 << 10))
        << what;
  }
}

const std::initializer_list<Decoder> kCheckpointDecoders = {
    [](const std::string& p) { load_checkpoint(p); },
    [](const std::string& p) { read_checkpoint_info(p); },
};
const std::initializer_list<Decoder> kManifestDecoders = {
    [](const std::string& p) { load_manifest(p); },
};

/// A valid file to mutate, with the body offsets of the fields the
/// checkpoint decoder reads (v2 bodies have no storage byte).
struct Sample {
  std::string name;
  std::string file;
  i64 cells = 0;
  bool has_storage_byte = true;
  bool has_link = false;

  std::size_t dims_at() const { return kHeader; }
  std::size_t q_at() const { return kHeader + 12; }
  std::size_t storage_at() const { return kHeader + 16; }
  std::size_t bcs_at() const { return kHeader + (has_storage_byte ? 17 : 16); }
  std::size_t inlet_at() const { return bcs_at() + 6; }
  std::size_t flags_at() const { return inlet_at() + 4 * sizeof(Real); }
  std::size_t links_at() const {
    return flags_at() + static_cast<std::size_t>(cells) *
                            (1 + lbm::Q * sizeof(Real));
  }
};

/// v4 AA with a curved link, v4 Sparse, and the first one
/// relabelled v3 and rewritten as v2. 12x10x6 puts every file well above
/// the allocation floor.
std::vector<Sample> checkpoint_samples(const std::string& path) {
  Lattice lat(Int3{12, 10, 6});
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_inlet(Real(1.01), Vec3{0.03f, 0, 0});
  Rng rng(31);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, Real(rng.uniform(0.01, 0.1)));
    }
  }
  lat.fill_solid_box(Int3{4, 3, 1}, Int3{7, 6, 4});
  Lattice sparse = lat;
  sparse.convert_storage(lbm::StorageMode::Sparse);
  lat.add_curved_link({lat.idx(3, 4, 2), 1, Real(0.42)});

  const i64 n = lat.num_cells();
  std::vector<Sample> out;
  save_checkpoint(path, lat);
  out.push_back({"v4 dense", slurp(path), n, true, true});
  save_checkpoint(path, sparse);
  out.push_back({"v4 sparse", slurp(path), n, true, false});
  Sample v3 = out[0];
  v3.name = "v3 dense";
  put(v3.file, kVersionAt, u32{3});
  out.push_back(v3);
  Sample v2 = out[0];
  v2.name = "v2 dense";
  v2.file = downgrade_to_v2(v2.file);
  v2.has_storage_byte = false;
  out.push_back(v2);
  return out;
}

u32 random_u32(Rng& rng) { return static_cast<u32>(rng.next_u64() >> 32); }

}  // namespace

TEST(CheckpointFuzz, HeaderFieldMutationsLoadOrThrowError) {
  TempPath f("fuzz_header.gclb");
  Rng rng(1401);
  for (const Sample& s : checkpoint_samples(f.path())) {
    const u64 size = s.file.size() - kHeader;
    const auto mutate = [&](std::size_t at, auto value,
                            const std::string& field) {
      std::string file = s.file;
      put(file, at, value);
      expect_value_or_error(f.path(), file, kCheckpointDecoders,
                            s.name + " " + field);
    };
    for (int k = 0; k < 8; ++k) {
      mutate(0, random_u32(rng), "magic");
      mutate(kVersionAt, random_u32(rng), "version");
      mutate(kSizeAt, rng.next_u64(), "size");
      mutate(kSizeAt, size ^ (u64{1} << rng.uniform_int(0, 63)), "size bit");
      mutate(kCrcAt, random_u32(rng), "crc");
    }
    for (const u32 v : {0u, 1u, 2u, 3u, 4u, 5u, ~0u}) {
      mutate(kVersionAt, v, "version " + std::to_string(v));
    }
    for (const u64 v : {u64{0}, u64{1}, size - 1, size + 1, u64{1} << 31,
                        u64{1} << 40, ~u64{0} >> 1, ~u64{0}}) {
      mutate(kSizeAt, v, "size " + std::to_string(v));
    }
  }
}

TEST(CheckpointFuzz, BodyFieldMutationsPastTheCrcLoadOrThrowError) {
  TempPath f("fuzz_body.gclb");
  Rng rng(1402);
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  for (const Sample& s : checkpoint_samples(f.path())) {
    const auto check = [&](std::string file, const std::string& field) {
      reseal(file);
      expect_value_or_error(f.path(), file, kCheckpointDecoders,
                            s.name + " " + field);
    };
    const auto mutate = [&](std::size_t at, auto value,
                            const std::string& field) {
      std::string file = s.file;
      put(file, at, value);
      check(file, field);
    };

    for (int axis = 0; axis < 3; ++axis) {
      const std::size_t at = s.dims_at() + 4 * static_cast<std::size_t>(axis);
      i32 orig;
      std::memcpy(&orig, s.file.data() + at, sizeof(orig));
      for (const i32 v : {0, -1, 1, kMin, kMax, orig - 1, orig + 1, 4 << 20,
                          static_cast<i32>(random_u32(rng)),
                          static_cast<i32>(random_u32(rng))}) {
        mutate(at, v, "dim " + std::to_string(axis) + "=" + std::to_string(v));
      }
    }
    for (const Int3 d : {Int3{16, 8, 4 << 20}, Int3{kMax, kMax, kMax},
                         Int3{1 << 16, 1 << 16, 1 << 16}, Int3{1, 1, 1}}) {
      std::string file = s.file;
      put(file, s.dims_at(), d);
      check(file, "dims");
    }
    for (const u32 q : {0u, 18u, 20u, ~0u, random_u32(rng)}) {
      mutate(s.q_at(), q, "Q=" + std::to_string(q));
    }
    if (s.has_storage_byte) {
      for (int v = 0; v < 256; ++v) {
        mutate(s.storage_at(), static_cast<u8>(v), "storage byte");
      }
    }
    for (std::size_t face = 0; face < 6; ++face) {
      for (const int v : {0, 3, 4, 5, 6, 255}) {
        mutate(s.bcs_at() + face, static_cast<u8>(v), "face BC");
      }
    }
    for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(), -1.0f,
                          0.0f}) {
      for (std::size_t k = 0; k < 4; ++k) {
        mutate(s.inlet_at() + k * sizeof(Real), static_cast<Real>(v), "inlet");
      }
    }
    for (int k = 0; k < 24; ++k) {
      const std::size_t cell =
          static_cast<std::size_t>(rng.uniform_int(0, s.cells - 1));
      const int v = k < 16 ? static_cast<int>(rng.uniform_int(0, 8))
                           : static_cast<int>(random_u32(rng) & 0xFFu);
      mutate(s.flags_at() + cell, static_cast<u8>(v), "flag byte");
    }
    for (const u32 links : {0u, 1u, 2u, 1u << 20, ~0u, random_u32(rng)}) {
      mutate(s.links_at(), links, "link count " + std::to_string(links));
    }
    if (s.has_link) {
      const std::size_t at = s.links_at() + sizeof(u32);
      for (const i64 cell : {i64{-1}, i64{0}, s.cells - 1, s.cells,
                             std::numeric_limits<i64>::min(),
                             static_cast<i64>(rng.next_u64())}) {
        mutate(at, cell, "link cell");
      }
      for (const int dir : {-1, 0, 1, lbm::Q - 1, lbm::Q, kMax}) {
        mutate(at + sizeof(i64), dir, "link dir");
      }
      for (const float q : {0.0f, -0.0f, 1.0f, std::nextafter(1.0f, 2.0f),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        mutate(at + sizeof(i64) + sizeof(int), static_cast<Real>(q),
               "link q");
      }
    }
  }
}

TEST(CheckpointFuzz, TruncatedOrExtendedFilesAreRejected) {
  // Unlike the field mutations above, these can never be valid.
  TempPath f("fuzz_cut.gclb");
  Rng rng(1403);
  for (const Sample& s : checkpoint_samples(f.path())) {
    std::vector<std::size_t> cuts = {0, 1, 3, kHeader - 1, kHeader,
                                     kHeader + 1, s.file.size() - 1};
    for (int k = 0; k < 24; ++k) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<i64>(s.file.size()) - 1)));
    }
    for (const std::size_t cut : cuts) {
      spit(f.path(), s.file.substr(0, cut));
      EXPECT_THROW(load_checkpoint(f.path()), Error) << s.name << " " << cut;
      EXPECT_THROW(read_checkpoint_info(f.path()), Error)
          << s.name << " " << cut;
    }
    for (const int extra : {1, 2, 7, 64}) {
      std::string file = s.file;
      for (int k = 0; k < extra; ++k) {
        file += static_cast<char>(random_u32(rng));
      }
      spit(f.path(), file);
      EXPECT_THROW(load_checkpoint(f.path()), Error) << s.name << " +" << extra;
      EXPECT_THROW(read_checkpoint_info(f.path()), Error)
          << s.name << " +" << extra;
    }
  }
}

TEST(CheckpointFuzz, ManifestMutationsLoadOrThrowError) {
  TempPath f("fuzz.gcmf");
  ClusterManifest m;
  m.step = 42;
  m.grid = Int3{2, 2, 1};
  m.lattice_dim = Int3{32, 32, 16};
  m.rank_files = {"rank_0000.gclb", "rank_0001.gclb", "rank_0002.gclb",
                  "rank_0003.gclb"};
  save_manifest(f.path(), m);
  const std::string good = slurp(f.path());
  // Body: i64 step, 2 x Int3, u32 rank count, then per rank a u32 name
  // length and the name.
  const std::size_t ranks_at = kHeader + 8 + 2 * 12;
  const std::size_t name_at = ranks_at + 4;
  Rng rng(1404);
  const auto check = [&](std::string file, bool resealed,
                         const std::string& field) {
    if (resealed) reseal(file);
    expect_value_or_error(f.path(), file, kManifestDecoders, field);
  };
  const auto mutate = [&](std::size_t at, auto value, bool resealed,
                          const std::string& field) {
    std::string file = good;
    put(file, at, value);
    check(file, resealed, field);
  };
  for (int k = 0; k < 8; ++k) {
    mutate(0, random_u32(rng), false, "magic");
    mutate(kVersionAt, random_u32(rng), false, "version");
    mutate(kSizeAt, rng.next_u64(), false, "size");
    mutate(kCrcAt, random_u32(rng), false, "crc");
    mutate(kHeader, rng.next_u64(), true, "step");
    mutate(kHeader + 8 + 4 * static_cast<std::size_t>(rng.uniform_int(0, 5)),
           random_u32(rng), true, "grid or lattice dims");
  }
  for (const u32 ranks : {0u, 1u, 3u, 5u, 1u << 20, (1u << 20) + 1, ~0u,
                          random_u32(rng)}) {
    mutate(ranks_at, ranks, true, "rank count " + std::to_string(ranks));
  }
  for (const u32 len : {0u, 13u, 15u, 4096u, 4097u, ~0u, random_u32(rng)}) {
    mutate(name_at, len, true, "name length " + std::to_string(len));
  }
  for (int k = 0; k < 8; ++k) {
    mutate(name_at + 4 + static_cast<std::size_t>(rng.uniform_int(0, 13)),
           static_cast<char>(random_u32(rng)), true, "name byte");
  }
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    spit(f.path(), good.substr(0, cut));
    EXPECT_THROW(load_manifest(f.path()), Error) << "cut " << cut;
  }
  spit(f.path(), good + "x");
  EXPECT_THROW(load_manifest(f.path()), Error);
}

}  // namespace
}  // namespace gc::io
