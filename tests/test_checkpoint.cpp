// Checkpoint round-trips: bit-identical state, boundary config, curved
// links, and robust rejection of malformed files.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/checkpoint.hpp"
#include "lbm/collision.hpp"
#include "lbm/stream.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
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
// and v2 files (no mode field) still load as DoubleBuffer. The writer
// emits v4 (same layout; the storage byte may additionally say Sparse).

namespace {
/// Rewrites a saved v3 checkpoint into the v2 wire format: drops the
/// storage-mode byte from the body, sets the version word to 2 and
/// re-derives body_size and CRC32 — byte-for-byte what the pre-v3 writer
/// produced for a DoubleBuffer lattice.
std::string downgrade_to_v2(const std::string& v3) {
  // Envelope: [magic 4][version 4][body_size 8][crc 4][body]; the
  // storage byte sits at body offset 16 (3 x i32 dims + u32 Q).
  std::string out = v3;
  const std::size_t header = 4 + 4 + 8 + 4;
  out.erase(header + 16, 1);
  const u32 version = 2;
  std::memcpy(out.data() + 4, &version, sizeof(version));
  const u64 body_size = out.size() - header;
  std::memcpy(out.data() + 8, &body_size, sizeof(body_size));
  const u32 crc = crc32(out.data() + header, out.size() - header);
  std::memcpy(out.data() + 16, &crc, sizeof(crc));
  return out;
}
}  // namespace

TEST(CheckpointV3, RecordsAndDetectsStorageMode) {
  TempPath f("mode.gclb");
  for (const lbm::StorageMode mode :
       {lbm::StorageMode::DoubleBuffer, lbm::StorageMode::AA}) {
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
  const Lattice as_db =
      load_checkpoint(f.path(), lbm::StorageMode::DoubleBuffer);
  EXPECT_EQ(as_db.storage_mode(), lbm::StorageMode::DoubleBuffer);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      ASSERT_EQ(as_db.f(i, c), lat.f(i, c));
    }
  }
}

TEST(CheckpointV3, LoadsLegacyV2FilesAsDoubleBuffer) {
  TempPath f("legacy.gclb");
  const Lattice original = make_state();
  save_checkpoint(f.path(), original);
  spit(f.path(), downgrade_to_v2(slurp(f.path())));

  const CheckpointInfo info = read_checkpoint_info(f.path());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.storage, lbm::StorageMode::DoubleBuffer);

  const Lattice restored = load_checkpoint(f.path());
  EXPECT_EQ(restored.storage_mode(), lbm::StorageMode::DoubleBuffer);
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
  const std::size_t header = 4 + 4 + 8 + 4;
  content[header + 16] = 0x7;  // not a StorageMode
  const u32 crc = crc32(content.data() + header, content.size() - header);
  std::memcpy(content.data() + 16, &crc, sizeof(crc));
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

}  // namespace
}  // namespace gc::io
