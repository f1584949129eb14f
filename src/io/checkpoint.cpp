#include "io/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/checksum.hpp"

namespace gc::io {

namespace {
constexpr char kMagic[4] = {'G', 'C', 'L', 'B'};
// v2: storage-agnostic body, no storage-mode field (pre-dates the AA
// backend reaching the header). v3: u8 StorageMode after the velocity
// count. v4: same layout, the storage byte may also say Sparse (v3
// readers must reject such files, hence the bump). All load; v2 and
// storage byte 0, the retired DoubleBuffer mode, load as AA.
constexpr u32 kMinVersion = 2;
constexpr u32 kVersion = 4;
constexpr char kManifestMagic[4] = {'G', 'C', 'M', 'F'};
constexpr u32 kManifestVersion = 1;

/// Serializes the body into memory so the envelope can carry its exact
/// size and CRC32 up front.
class BodyWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

/// Writes [magic][version][body_size][crc][body] to `path + ".tmp"` and
/// commits with an atomic rename.
void write_envelope(const std::string& path, const char magic[4], u32 version,
                    const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open " << tmp << " for writing");
    out.write(magic, 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const u64 size = body.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    const u32 crc = crc32(body.data(), body.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      GC_CHECK_MSG(false, "write failure on " << tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    GC_CHECK_MSG(false, "cannot rename " << tmp << " to " << path);
  }
}

/// Streams one envelope's body from disk, one field at a time. The
/// constructor checks magic, version and that the header's body size is
/// exactly what the file holds, before anything is read or allocated;
/// each later read is bounds-checked against that size, lands straight
/// in its destination and is folded into the CRC in kChunk pieces while
/// they are still in cache. The CRC is known only at the end, so a
/// decoder validates what it reads as it goes and calls finish() before
/// it hands anything out.
class EnvelopeReader {
 public:
  EnvelopeReader(const std::string& path, const char magic[4],
                 u32 min_version, u32 max_version, const char* what)
      : path_(path), what_(what), in_(path, std::ios::binary) {
    GC_CHECK_MSG(in_.good(), "cannot open " << path);
    in_.seekg(0, std::ios::end);
    const std::streamoff file_bytes = in_.tellg();
    in_.seekg(0);

    char m[4];
    in_.read(m, sizeof(m));
    GC_CHECK_MSG(in_.good() && std::memcmp(m, magic, 4) == 0,
                 path << " is not a gpucluster " << what);
    in_.read(reinterpret_cast<char*>(&version_), sizeof(version_));
    GC_CHECK_MSG(
        in_.good() && version_ >= min_version && version_ <= max_version,
        "unsupported " << what << " version " << version_);
    u64 size = 0;
    in_.read(reinterpret_cast<char*>(&size), sizeof(size));
    in_.read(reinterpret_cast<char*>(&expected_crc_), sizeof(expected_crc_));
    GC_CHECK_MSG(in_.good() && file_bytes >= kHeaderBytes,
                 "truncated " << what << " header in " << path);
    const u64 held = static_cast<u64>(file_bytes - kHeaderBytes);
    GC_CHECK_MSG(size <= held, path << " is truncated: body has " << held
                                    << " of " << size << " bytes");
    GC_CHECK_MSG(size == held, path << " has trailing bytes after the body");
    remaining_ = size;
  }

  u32 version() const { return version_; }
  /// Body bytes not read yet.
  u64 remaining() const { return remaining_; }

  template <typename T>
  void pod(T& v) {
    bytes(&v, sizeof(T));
  }
  void bytes(void* dst, std::size_t n) {
    GC_CHECK_MSG(n <= remaining_, "truncated " << what_ << " body");
    auto* p = static_cast<char*>(dst);
    while (n > 0) {
      const std::size_t k = std::min(n, kChunk);
      in_.read(p, static_cast<std::streamsize>(k));
      GC_CHECK_MSG(static_cast<std::size_t>(in_.gcount()) == k,
                   path_ << " is truncated");
      crc_ = crc32(p, k, crc_);
      p += k;
      n -= k;
      remaining_ -= k;
    }
  }
  /// Streams the unread rest of the body through the CRC.
  void skip_rest() {
    std::vector<char> chunk(
        static_cast<std::size_t>(std::min<u64>(remaining_, kChunk)));
    while (remaining_ > 0) {
      bytes(chunk.data(),
            static_cast<std::size_t>(std::min<u64>(remaining_, chunk.size())));
    }
  }
  /// Requires the body to be consumed exactly and to match its CRC.
  void finish() const {
    GC_CHECK_MSG(remaining_ == 0, what_ << " body has trailing bytes");
    GC_CHECK_MSG(crc_ == expected_crc_, path_ << " failed its CRC32 check "
                                              << "(corrupted " << what_
                                              << ")");
  }

 private:
  /// [magic 4][version 4][body_size 8][crc 4]
  static constexpr std::streamoff kHeaderBytes = 20;
  /// Read granularity: small enough to stay in L2 between the read and
  /// its CRC pass.
  static constexpr std::size_t kChunk = std::size_t{256} << 10;

  std::string path_;
  const char* what_;
  std::ifstream in_;
  u32 version_ = 0;
  u32 expected_crc_ = 0;
  u32 crc_ = 0;
  u64 remaining_ = 0;
};
}  // namespace

void save_checkpoint(const std::string& path, const lbm::Lattice& lat) {
  BodyWriter body;
  const Int3 d = lat.dim();
  body.pod(d.x);
  body.pod(d.y);
  body.pod(d.z);
  body.pod(static_cast<u32>(lbm::Q));
  // v3: the storage backend the saved simulation was running. The planes
  // below stay in the canonical natural order regardless.
  body.pod(static_cast<u8>(lat.storage_mode()));

  for (int face = 0; face < 6; ++face) {
    body.pod(static_cast<u8>(lat.face_bc(static_cast<lbm::Face>(face))));
  }
  body.pod(lat.inlet_density());
  const Vec3 uin = lat.inlet_velocity();
  body.pod(uin.x);
  body.pod(uin.y);
  body.pod(uin.z);

  const i64 n = lat.num_cells();
  body.bytes(lat.flags().data(), static_cast<std::size_t>(n));
  for (int i = 0; i < lbm::Q; ++i) {
    lat.read_plane(i, [&body](std::span<const Real> plane) {
      body.bytes(plane.data(), plane.size_bytes());
    });
  }

  body.pod(static_cast<u32>(lat.curved_links().size()));
  for (const lbm::CurvedLink& link : lat.curved_links()) {
    body.pod(link.cell);
    body.pod(link.dir);
    body.pod(link.q);
  }
  write_envelope(path, kMagic, kVersion, body.str());
}

namespace {

/// Reads the dims / velocity-count / storage-mode header prefix shared by
/// v2 and v3 bodies (v2 has no storage byte: AA).
lbm::StorageMode read_header_prefix(EnvelopeReader& body, Int3* d) {
  body.pod(d->x);
  body.pod(d->y);
  body.pod(d->z);
  u32 q;
  body.pod(q);
  GC_CHECK_MSG(q == static_cast<u32>(lbm::Q),
               "checkpoint has " << q << " velocities, expected " << lbm::Q);
  if (body.version() < 3) return lbm::StorageMode::AA;
  u8 mode;
  body.pod(mode);
  const u8 max_mode = body.version() >= 4
                          ? static_cast<u8>(lbm::StorageMode::Sparse)
                          : static_cast<u8>(lbm::StorageMode::AA);
  GC_CHECK_MSG(mode <= max_mode, "invalid storage mode in checkpoint");
  return mode == 0 ? lbm::StorageMode::AA : static_cast<lbm::StorageMode>(mode);
}

/// The dims come from a body whose CRC is checked only once it has all
/// been read, so they may be corrupt: before they size any allocation,
/// require them to be positive and their cells (a flag byte and Q
/// values each) to fit in the `body_bytes` still unread. Divides rather
/// than multiplies, so no product can overflow.
void check_dims_fit(Int3 d, u64 body_bytes) {
  GC_CHECK_MSG(d.x > 0 && d.y > 0 && d.z > 0,
               "invalid checkpoint dimensions " << d);
  u64 cells = body_bytes / (1 + lbm::Q * sizeof(Real));
  for (const int extent : {d.x, d.y, d.z}) {
    GC_CHECK_MSG(static_cast<u64>(extent) <= cells,
                 "checkpoint dimensions " << d << " exceed its "
                                          << body_bytes << "-byte body");
    cells /= static_cast<u64>(extent);
  }
}

lbm::Lattice load_checkpoint_impl(const std::string& path,
                                  const lbm::StorageMode* forced_mode) {
  EnvelopeReader body(path, kMagic, kMinVersion, kVersion, "checkpoint");
  Int3 d;
  const lbm::StorageMode recorded = read_header_prefix(body, &d);
  const lbm::StorageMode mode = forced_mode ? *forced_mode : recorded;
  check_dims_fit(d, body.remaining());

  // The flags are read before the planes, so a Sparse target packs each
  // plane into its final compact layout (Lattice::write_plane).
  lbm::Lattice lat(d, mode);
  for (int face = 0; face < 6; ++face) {
    u8 bc;
    body.pod(bc);
    GC_CHECK_MSG(bc <= static_cast<u8>(lbm::FaceBc::FreeSlip),
                 "invalid face BC in checkpoint");
    lat.set_face_bc(static_cast<lbm::Face>(face),
                    static_cast<lbm::FaceBc>(bc));
  }
  Real rho;
  Vec3 uin;
  body.pod(rho);
  body.pod(uin.x);
  body.pod(uin.y);
  body.pod(uin.z);
  lat.set_inlet(rho, uin);

  const i64 n = lat.num_cells();
  std::vector<u8> flags(static_cast<std::size_t>(n));
  body.bytes(flags.data(), static_cast<std::size_t>(n));
  for (i64 c = 0; c < n; ++c) {
    const u8 t = flags[static_cast<std::size_t>(c)];
    GC_CHECK_MSG(t <= static_cast<u8>(lbm::CellType::Outflow),
                 "invalid cell flag in checkpoint");
    lat.set_flag(c, static_cast<lbm::CellType>(t));
  }
  for (int i = 0; i < lbm::Q; ++i) {
    lat.write_plane(i, [&body](std::span<Real> plane) {
      body.bytes(plane.data(), plane.size_bytes());
    });
  }

  u32 num_links;
  body.pod(num_links);
  for (u32 k = 0; k < num_links; ++k) {
    lbm::CurvedLink link;
    body.pod(link.cell);
    body.pod(link.dir);
    body.pod(link.q);
    lat.add_curved_link(link);
  }
  body.finish();
  return lat;
}

}  // namespace

lbm::Lattice load_checkpoint(const std::string& path) {
  return load_checkpoint_impl(path, nullptr);
}

lbm::Lattice load_checkpoint(const std::string& path, lbm::StorageMode mode) {
  return load_checkpoint_impl(path, &mode);
}

CheckpointInfo read_checkpoint_info(const std::string& path) {
  EnvelopeReader body(path, kMagic, kMinVersion, kVersion, "checkpoint");
  CheckpointInfo info;
  info.version = body.version();
  info.storage = read_header_prefix(body, &info.dim);
  body.skip_rest();
  body.finish();
  return info;
}

void save_manifest(const std::string& path, const ClusterManifest& m) {
  BodyWriter body;
  body.pod(m.step);
  body.pod(m.grid.x);
  body.pod(m.grid.y);
  body.pod(m.grid.z);
  body.pod(m.lattice_dim.x);
  body.pod(m.lattice_dim.y);
  body.pod(m.lattice_dim.z);
  body.pod(static_cast<u32>(m.rank_files.size()));
  for (const std::string& f : m.rank_files) {
    body.pod(static_cast<u32>(f.size()));
    body.bytes(f.data(), f.size());
  }
  write_envelope(path, kManifestMagic, kManifestVersion, body.str());
}

ClusterManifest load_manifest(const std::string& path) {
  EnvelopeReader body(path, kManifestMagic, kManifestVersion,
                      kManifestVersion, "manifest");
  ClusterManifest m;
  body.pod(m.step);
  body.pod(m.grid.x);
  body.pod(m.grid.y);
  body.pod(m.grid.z);
  body.pod(m.lattice_dim.x);
  body.pod(m.lattice_dim.y);
  body.pod(m.lattice_dim.z);
  u32 ranks;
  body.pod(ranks);
  GC_CHECK_MSG(ranks >= 1 && ranks <= 1u << 20, "implausible rank count");
  for (u32 r = 0; r < ranks; ++r) {
    u32 len;
    body.pod(len);
    GC_CHECK_MSG(len <= 4096, "implausible rank file name length");
    std::string name(len, '\0');
    body.bytes(name.data(), len);
    m.rank_files.push_back(std::move(name));
  }
  body.finish();
  return m;
}

}  // namespace gc::io
