#include "dist/pario.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/crc32.hpp"
#include "core/meshio.hpp"
#include "core/topo.hpp"
#include "dist/partio.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace dist::pario {

namespace {

constexpr std::uint64_t kManifestMagic = 0x50554d4950494f31ull;  // "PUMIPIO1"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kImageMagic = 0x50554d49494d4731ull;  // "PUMIIMG1"
constexpr std::uint64_t kRegionAlign = 4096;  // writer extents: page-aligned
constexpr std::uint64_t kChunkAlign = 8;
// magic..fingerprint + image-name length prefix (the variable name and the
// per-part slot table follow).
constexpr std::size_t kManifestHeadBytes = 8 + 4 + 4 + 4 + 1 + 4 + 8 + 8 + 8;
constexpr std::size_t kManifestSlotBytes = 2 * (8 + 8 + 8 + 4);
// Concurrency cap for the logical writers/readers. The extent layout and
// every byte written depend only on the logical writer count (== parts),
// never on this, so images are machine-independent.
constexpr int kMaxIoThreads = 16;

[[noreturn]] void failValidation(const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kValidation, -1, what);
}

[[noreturn]] void failIo(const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kIoFault, -1, what);
}

std::uint64_t alignUp(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

std::string manifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

/// Run fn(0..n-1) on up to kMaxIoThreads workers. Workers inherit the
/// caller's ambient fault domain (DomainScope is thread-local), so a
/// tenant's storage chaos plan follows its I/O onto the pool. The first
/// exception is rethrown in the caller after all workers drain.
void parallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int nthreads = std::min(n, kMaxIoThreads);
  if (nthreads <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  auto domain = pcu::faults::currentHandle();
  std::atomic<int> next{0};
  std::mutex err_mutex;
  std::exception_ptr err;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back([&] {
      pcu::faults::DomainScope scope(domain);
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mutex);
          if (!err) err = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (err) std::rethrow_exception(err);
}

void put32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Serialize a chunk header into a 24-byte buffer.
void packChunkHeader(std::byte* h, std::uint32_t type, std::uint32_t part,
                     std::uint32_t crc, std::uint64_t length) {
  put32(h, kChunkMagic);
  put32(h + 4, type);
  put32(h + 8, part);
  put32(h + 12, crc);
  put64(h + 16, length);
}

/// One full chunk (header + payload) as contiguous bytes, for writes and
/// for rewriting a bad copy from a good one.
std::vector<std::byte> chunkBytes(std::uint32_t type, std::uint32_t part,
                                  std::uint32_t crc,
                                  const std::vector<std::byte>& payload) {
  std::vector<std::byte> out(kChunkHeaderBytes + payload.size());
  packChunkHeader(out.data(), type, part, crc, payload.size());
  if (!payload.empty())
    std::memcpy(out.data() + kChunkHeaderBytes, payload.data(),
                payload.size());
  return out;
}

/// Read and validate one chunk copy: header fields must match the
/// manifest's expectation and the payload CRC must agree. Any shortfall or
/// disagreement returns nullopt — the caller falls over to the buddy copy.
std::optional<std::vector<std::byte>> tryReadChunk(File& img,
                                                   std::uint64_t off,
                                                   std::uint32_t type,
                                                   std::uint32_t part,
                                                   const ChunkSlot& slot) {
  const std::size_t total =
      kChunkHeaderBytes + static_cast<std::size_t>(slot.length);
  std::vector<std::byte> buf(total);
  if (img.preadSome(buf.data(), total, off) != total) return std::nullopt;
  if (get32(buf.data()) != kChunkMagic || get32(buf.data() + 4) != type ||
      get32(buf.data() + 8) != part || get32(buf.data() + 12) != slot.crc ||
      get64(buf.data() + 16) != slot.length)
    return std::nullopt;
  if (common::crc32(buf.data() + kChunkHeaderBytes, slot.length) !=
      slot.crc)
    return std::nullopt;
  buf.erase(buf.begin(),
            buf.begin() + static_cast<std::ptrdiff_t>(kChunkHeaderBytes));
  return buf;
}

/// Load one chunk with read-repair: primary first, then the buddy replica;
/// a good replica is written back over the bad primary (best-effort — the
/// data in hand is already good, so a failed repair write only leaves the
/// damage for the next scrub). Returns nullopt when both copies are bad.
std::optional<std::vector<std::byte>> loadChunk(
    File& img, File* rw, std::uint32_t type, std::uint32_t part,
    const ChunkSlot& slot, std::atomic<std::uint64_t>& repaired,
    std::atomic<std::uint64_t>& lost) {
  if (auto primary = tryReadChunk(img, slot.primary, type, part, slot))
    return primary;
  auto replica = tryReadChunk(img, slot.replica, type, part, slot);
  if (!replica) {
    lost.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  {
    pcu::trace::Scope scope("io:repair");
    if (rw != nullptr) {
      const auto fixed = chunkBytes(type, part, slot.crc, *replica);
      try {
        rw->pwriteAll(fixed.data(), fixed.size(), slot.primary);
      } catch (const pcu::Error&) {
        // repair write failed; the replica bytes are still good
      }
    }
  }
  repaired.fetch_add(1, std::memory_order_relaxed);
  return replica;
}

std::vector<std::byte> buildManifestBytes(const Index& idx) {
  pcu::OutBuffer b;
  b.pack(kManifestMagic);
  b.pack<std::uint32_t>(kVersion);
  b.pack<std::uint32_t>(static_cast<std::uint32_t>(idx.nparts));
  b.pack<std::int32_t>(idx.dim);
  b.pack<std::uint8_t>(static_cast<std::uint8_t>(idx.rule));
  b.pack<std::uint32_t>(static_cast<std::uint32_t>(idx.writers));
  b.pack<std::uint64_t>(idx.generation);
  b.pack<std::uint64_t>(idx.fingerprint);
  b.packString(idx.image);
  for (const PartSlots& ps : idx.parts) {
    for (const ChunkSlot* s : {&ps.mesh, &ps.meta}) {
      b.pack<std::uint64_t>(s->primary);
      b.pack<std::uint64_t>(s->replica);
      b.pack<std::uint64_t>(s->length);
      b.pack<std::uint32_t>(s->crc);
    }
  }
  auto bytes = std::move(b).take();
  std::byte trailer[4];
  put32(trailer, common::crc32(bytes.data(), bytes.size()));
  bytes.insert(bytes.end(), trailer, trailer + 4);
  return bytes;
}

/// Compute the image layout for the given payload sizes: writer w's
/// 4 KiB-aligned region holds its own part's primary chunks followed by
/// the replica chunks of part (w-1+n) % n — equivalently, part p's
/// replicas land in buddy (p+1) % n's region, the cyclic pairing failover
/// uses. Pure in the sizes, so every writer computes identical extents.
std::uint64_t computeLayout(const std::vector<std::uint64_t>& mesh_len,
                            const std::vector<std::uint64_t>& meta_len,
                            std::vector<PartSlots>& slots) {
  const int n = static_cast<int>(mesh_len.size());
  slots.assign(static_cast<std::size_t>(n), PartSlots{});
  std::uint64_t off = kRegionAlign;  // region 0 starts past the image header
  for (int w = 0; w < n; ++w) {
    off = alignUp(off, kRegionAlign);
    const int prev = (w - 1 + n) % n;
    const auto place = [&off](ChunkSlot& s, bool primary,
                              std::uint64_t length) {
      off = alignUp(off, kChunkAlign);
      (primary ? s.primary : s.replica) = off;
      s.length = length;
      off += kChunkHeaderBytes + length;
    };
    auto& own = slots[static_cast<std::size_t>(w)];
    auto& buddy = slots[static_cast<std::size_t>(prev)];
    place(own.mesh, true, mesh_len[static_cast<std::size_t>(w)]);
    place(own.meta, true, meta_len[static_cast<std::size_t>(w)]);
    place(buddy.mesh, false, mesh_len[static_cast<std::size_t>(prev)]);
    place(buddy.meta, false, meta_len[static_cast<std::size_t>(prev)]);
  }
  return off;
}

/// Remove stale "*.tmp" files — a crashed or failed earlier attempt's
/// leavings (the historical temp-file leak). Never touches committed
/// files; best-effort, called only by the writer side.
void sweepTmpFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  std::vector<std::string> doomed;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
      doomed.push_back(entry.path().string());
  }
  for (const auto& path : doomed) std::filesystem::remove(path, ec);
}

/// After a successful commit, sweep image files the new MANIFEST does not
/// reference (the previous generation, or a crashed attempt's orphan).
void sweepStaleImages(const std::string& dir, const std::string& keep) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  std::vector<std::string> doomed;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("IMAGE.", 0) == 0 && name != keep)
      doomed.push_back(entry.path().string());
  }
  for (const auto& path : doomed) std::filesystem::remove(path, ec);
}

void renameOrFail(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0)
    failValidation("checkpoint: cannot commit " + to + ": " +
                   std::strerror(errno));
}

/// Shared read-side setup: parse the index and open the image, read-write
/// when possible so read-repair can persist, read-only otherwise.
struct OpenedImage {
  Index idx;
  File img;
  bool can_repair;
};

OpenedImage openForRead(const std::string& dir) {
  Index idx = loadIndex(dir);
  const std::string path = dir + "/" + idx.image;
  if (!std::filesystem::exists(path))
    failValidation("restore: " + dir + "/MANIFEST names missing image " +
                   idx.image);
  try {
    return OpenedImage{std::move(idx), File::openRw(path), true};
  } catch (const pcu::Error&) {
    // read-only media: restore still works, repairs just don't persist
    return OpenedImage{std::move(idx), File::openRead(path), false};
  }
}

std::string joinParts(const std::vector<PartId>& parts) {
  std::string s;
  for (PartId p : parts) {
    if (!s.empty()) s += ",";
    s += std::to_string(p);
  }
  return s;
}

}  // namespace

/// --- File ---------------------------------------------------------------

File::File(int fd, std::string path)
    : fd_(fd),
      path_(std::move(path)),
      path_hash_(pcu::faults::ioPathHash(path_)) {}

File::File(File&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      path_hash_(other.path_hash_) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    path_hash_ = other.path_hash_;
    other.fd_ = -1;
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File File::create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0)
    failValidation("pario: cannot create " + path + ": " +
                   std::strerror(errno));
  return File(fd, path);
}

File File::openRead(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    failValidation("pario: cannot open " + path + ": " + std::strerror(errno));
  return File(fd, path);
}

File File::openRw(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0)
    failValidation("pario: cannot open " + path + " read-write: " +
                   std::strerror(errno));
  return File(fd, path);
}

namespace {

/// pwrite/pread loop handling EINTR and genuine short transfers; real
/// errors surface as kIoFault naming the path, operation and offset.
std::size_t rawWrite(int fd, const std::string& path, const void* data,
                     std::size_t n, std::uint64_t off) {
  const auto* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, p + done, n - done,
                               static_cast<off_t>(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      failIo("pario: write to " + path + " at offset " +
             std::to_string(off + done) + " failed: " + std::strerror(errno));
    }
    if (w == 0) break;
    done += static_cast<std::size_t>(w);
  }
  return done;
}

std::size_t rawRead(int fd, const std::string& path, void* data, std::size_t n,
                    std::uint64_t off) {
  auto* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r =
        ::pread(fd, p + done, n - done, static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      failIo("pario: read from " + path + " at offset " +
             std::to_string(off + done) + " failed: " + std::strerror(errno));
    }
    if (r == 0) break;  // end of file
    done += static_cast<std::size_t>(r);
  }
  return done;
}

}  // namespace

void File::pwriteAll(const void* data, std::size_t n, std::uint64_t off) {
  using pcu::faults::IoAction;
  std::size_t want = n;
  switch (pcu::faults::decideIo(pcu::faults::IoOp::kWrite, path_hash_, off)) {
    case IoAction::kEnospc:
      failIo("pario: injected ENOSPC writing " + path_ + " at offset " +
             std::to_string(off));
    case IoAction::kTorn:
      // A torn write persists a prefix yet reports success — the silent
      // failure mode CRC validation + read-repair exist for.
      want = n / 2;
      break;
    case IoAction::kShort: {
      // An honest short transfer: a prefix persists and the failure is
      // reported, like a device running dry mid-write.
      const std::size_t prefix = n - n / 4;
      rawWrite(fd_, path_, data, prefix, off);
      failIo("pario: injected short write to " + path_ + " at offset " +
             std::to_string(off) + " (" + std::to_string(prefix) + " of " +
             std::to_string(n) + " bytes)");
    }
    case IoAction::kStall:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(pcu::faults::ioStallMs()));
      break;
    default:
      break;
  }
  const std::size_t done = rawWrite(fd_, path_, data, want, off);
  if (done < want)
    failIo("pario: short write to " + path_ + " at offset " +
           std::to_string(off) + " (" + std::to_string(done) + " of " +
           std::to_string(want) + " bytes)");
}

std::size_t File::preadSome(void* data, std::size_t n, std::uint64_t off) {
  using pcu::faults::IoAction;
  std::size_t want = n;
  bool rot = false;
  switch (pcu::faults::decideIo(pcu::faults::IoOp::kRead, path_hash_, off)) {
    case IoAction::kBitrot:
      rot = true;
      break;
    case IoAction::kShort:
      want = n / 2;
      break;
    case IoAction::kStall:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(pcu::faults::ioStallMs()));
      break;
    default:
      break;
  }
  const std::size_t got = rawRead(fd_, path_, data, want, off);
  if (rot && got > 0)
    static_cast<std::byte*>(data)[got / 2] ^= std::byte{0x5A};
  return got;
}

void File::sync() {
  if (::fdatasync(fd_) != 0)
    failIo("pario: fdatasync of " + path_ + " failed: " +
           std::strerror(errno));
}

std::uint64_t File::size() const {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0)
    failIo("pario: cannot size " + path_ + ": " + std::strerror(errno));
  return static_cast<std::uint64_t>(end);
}

/// --- MANIFEST ------------------------------------------------------------

Index loadIndex(const std::string& dir) {
  // An unreadable or absent directory must be a structured validation
  // error naming the path — never a crash or a hang (restore is the last
  // recovery tier; it runs when everything else already went wrong).
  std::error_code ec;
  const auto st = std::filesystem::status(dir, ec);
  if (ec || !std::filesystem::exists(st))
    failValidation("restore: checkpoint directory " + dir +
                   " does not exist or is not readable" +
                   (ec ? " (" + ec.message() + ")" : ""));
  if (!std::filesystem::is_directory(st))
    failValidation("restore: " + dir + " is not a directory");
  std::filesystem::directory_iterator probe(dir, ec);
  if (ec)
    failValidation("restore: checkpoint directory " + dir +
                   " is not readable (" + ec.message() + ")");
  const std::string path = manifestPath(dir);
  if (!std::filesystem::exists(path, ec) || ec)
    failValidation("restore: no MANIFEST in " + dir);

  File f = File::openRead(path);
  const std::uint64_t size = f.size();
  if (size < kManifestHeadBytes + 4 || size > (std::uint64_t{1} << 30))
    failValidation("restore: truncated MANIFEST in " + dir);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (f.preadSome(bytes.data(), bytes.size(), 0) != bytes.size())
    failValidation("restore: short read from " + path);
  const std::uint32_t want_crc = get32(bytes.data() + bytes.size() - 4);
  if (common::crc32(bytes.data(), bytes.size() - 4) != want_crc)
    failValidation("restore: " + path + " fails its own CRC (corrupt)");

  pcu::InBuffer b(std::move(bytes));
  if (b.unpack<std::uint64_t>() != kManifestMagic)
    failValidation("restore: " + path + " is not a checkpoint manifest");
  const auto version = b.unpack<std::uint32_t>();
  if (version != kVersion)
    failValidation("restore: " + path + " has unsupported version " +
                   std::to_string(version));
  Index idx;
  idx.nparts = static_cast<int>(b.unpack<std::uint32_t>());
  idx.dim = b.unpack<std::int32_t>();
  const auto rule = b.unpack<std::uint8_t>();
  idx.writers = static_cast<int>(b.unpack<std::uint32_t>());
  idx.generation = b.unpack<std::uint64_t>();
  idx.fingerprint = b.unpack<std::uint64_t>();
  if (idx.nparts < 1 || idx.nparts > (1 << 24))
    failValidation("restore: " + path + " has bad part count " +
                   std::to_string(idx.nparts));
  if (rule > 1)
    failValidation("restore: " + path + " has bad owner rule " +
                   std::to_string(rule));
  idx.rule = static_cast<OwnerRule>(rule);
  if (idx.writers < 1 || idx.writers > idx.nparts)
    failValidation("restore: " + path + " has bad writer count " +
                   std::to_string(idx.writers));
  if (b.remaining() < 8) failValidation("restore: truncated MANIFEST in " + dir);
  const auto name_len = b.unpack<std::uint64_t>();
  if (name_len == 0 || name_len > 255 || name_len > b.remaining())
    failValidation("restore: " + path + " has a bad image name");
  const auto name_bytes = b.unpackRaw(static_cast<std::size_t>(name_len));
  idx.image.assign(reinterpret_cast<const char*>(name_bytes.data()),
                   name_bytes.size());
  if (idx.image.find('/') != std::string::npos)
    failValidation("restore: " + path + " has a bad image name");
  if (b.remaining() !=
      static_cast<std::size_t>(idx.nparts) * kManifestSlotBytes + 4)
    failValidation("restore: " + path + " has wrong length for " +
                   std::to_string(idx.nparts) + " parts");
  idx.parts.resize(static_cast<std::size_t>(idx.nparts));
  for (PartSlots& ps : idx.parts) {
    for (ChunkSlot* s : {&ps.mesh, &ps.meta}) {
      s->primary = b.unpack<std::uint64_t>();
      s->replica = b.unpack<std::uint64_t>();
      s->length = b.unpack<std::uint64_t>();
      s->crc = b.unpack<std::uint32_t>();
      if (s->length > (std::uint64_t{1} << 40) ||
          s->primary > (std::uint64_t{1} << 50) ||
          s->replica > (std::uint64_t{1} << 50))
        failValidation("restore: " + path + " has an implausible chunk slot");
    }
  }
  return idx;
}

/// --- write path ----------------------------------------------------------

WriteStats checkpointImage(const PartedMesh& pm, const std::string& dir) {
  pcu::trace::Scope scope("io:write");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    failValidation("checkpoint: cannot create directory " + dir + ": " +
                   ec.message());
  sweepTmpFiles(dir);

  const int n = pm.parts();
  if (n < 1) failValidation("checkpoint: mesh has no parts");
  std::uint64_t generation = 1;
  try {
    generation = loadIndex(dir).generation + 1;
  } catch (const pcu::Error&) {
    // no previous valid checkpoint here; start at generation 1
  }
  const std::string image_name = "IMAGE." + std::to_string(generation);
  const std::string image_path = dir + "/" + image_name;
  const std::string image_tmp = image_path + ".tmp";
  const std::string man_tmp = manifestPath(dir) + ".tmp";

  // Serialize every part (mesh stream + ordinals in one parallel pass,
  // then metadata, which needs every part's ordinal map).
  std::vector<std::vector<std::byte>> mesh_bytes(static_cast<std::size_t>(n));
  std::vector<std::vector<std::byte>> meta_bytes(static_cast<std::size_t>(n));
  std::vector<partio::OrdinalMap> ords(static_cast<std::size_t>(n));
  parallelFor(n, [&](int p) {
    mesh_bytes[static_cast<std::size_t>(p)] =
        core::meshToBytes(pm.part(p).mesh());
    ords[static_cast<std::size_t>(p)] =
        partio::buildOrdinals(pm.part(p).mesh());
  });
  parallelFor(n, [&](int p) {
    meta_bytes[static_cast<std::size_t>(p)] = partio::buildMeta(
        pm.part(p), ords[static_cast<std::size_t>(p)], ords);
  });

  Index idx;
  idx.nparts = n;
  idx.dim = pm.dim();
  idx.rule = pm.ownerRule();
  idx.writers = n;
  idx.generation = generation;
  idx.fingerprint = pm.fingerprint();
  idx.image = image_name;
  std::vector<std::uint64_t> mesh_len(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> meta_len(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    mesh_len[static_cast<std::size_t>(p)] =
        mesh_bytes[static_cast<std::size_t>(p)].size();
    meta_len[static_cast<std::size_t>(p)] =
        meta_bytes[static_cast<std::size_t>(p)].size();
  }
  computeLayout(mesh_len, meta_len, idx.parts);
  for (int p = 0; p < n; ++p) {
    auto& ps = idx.parts[static_cast<std::size_t>(p)];
    ps.mesh.crc = common::crc32(
        mesh_bytes[static_cast<std::size_t>(p)].data(), ps.mesh.length);
    ps.meta.crc = common::crc32(
        meta_bytes[static_cast<std::size_t>(p)].data(), ps.meta.length);
  }

  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> chunks{0};
  try {
    File img = File::create(image_tmp);
    std::byte header[16];
    put64(header, kImageMagic);
    put64(header + 8, generation);
    img.pwriteAll(header, sizeof header, 0);

    // All logical writers stream their extents concurrently: writer p
    // writes its part's primary chunks into its own region and the
    // replicas into buddy (p+1) % n's region — disjoint extents, no
    // coordination, no rank-0 fan-out.
    parallelFor(n, [&](int p) {
      pcu::trace::Scope wscope("io:write", p);
      const auto& ps = idx.parts[static_cast<std::size_t>(p)];
      const auto put = [&](const ChunkSlot& s, std::uint32_t type,
                           const std::vector<std::byte>& payload,
                           bool primary) {
        const auto full = chunkBytes(type, static_cast<std::uint32_t>(p),
                                     s.crc, payload);
        img.pwriteAll(full.data(), full.size(), primary ? s.primary
                                                        : s.replica);
        bytes.fetch_add(full.size(), std::memory_order_relaxed);
        chunks.fetch_add(1, std::memory_order_relaxed);
      };
      put(ps.mesh, kChunkMesh, mesh_bytes[static_cast<std::size_t>(p)], true);
      put(ps.meta, kChunkMeta, meta_bytes[static_cast<std::size_t>(p)], true);
      put(ps.mesh, kChunkMesh, mesh_bytes[static_cast<std::size_t>(p)],
          false);
      put(ps.meta, kChunkMeta, meta_bytes[static_cast<std::size_t>(p)],
          false);
    });
    // One durability barrier for the whole image (vs one per part file in
    // the per-part layout), then make it visible under its final name.
    img.sync();
    // Write-then-verify: a torn write is silent (the write path — like a
    // lying disk — reports success), so nothing is committed until every
    // chunk copy reads back intact against the manifest-to-be. One bad
    // copy aborts the whole attempt; the previous checkpoint survives.
    parallelFor(n, [&](int p) {
      const auto& ps = idx.parts[static_cast<std::size_t>(p)];
      const auto up = static_cast<std::uint32_t>(p);
      for (const ChunkSlot* s : {&ps.mesh, &ps.meta}) {
        const std::uint32_t type = s == &ps.mesh ? kChunkMesh : kChunkMeta;
        for (const std::uint64_t off : {s->primary, s->replica}) {
          if (!tryReadChunk(img, off, type, up, *s))
            failIo("checkpoint: " + image_tmp + ": part " +
                   std::to_string(p) +
                   " chunk failed post-write verification (torn write)");
        }
      }
    });
    renameOrFail(image_tmp, image_path);

    // The MANIFEST commits the checkpoint: written last, atomically, so a
    // crash anywhere above leaves the previous checkpoint's manifest (still
    // naming the previous image, which this attempt never touched) or none.
    const auto man = buildManifestBytes(idx);
    {
      File mf = File::create(man_tmp);
      mf.pwriteAll(man.data(), man.size(), 0);
      mf.sync();
      // Same discipline for the commit record itself: a torn MANIFEST
      // renamed into place would destroy the previous checkpoint.
      std::vector<std::byte> echo(man.size());
      if (mf.preadSome(echo.data(), echo.size(), 0) != man.size() ||
          echo != man)
        failIo("checkpoint: " + man_tmp +
               " failed post-write verification (torn write)");
    }
    bytes.fetch_add(man.size(), std::memory_order_relaxed);
    renameOrFail(man_tmp, manifestPath(dir));
  } catch (...) {
    // A failed attempt must strand nothing: remove everything it may have
    // created. The previous checkpoint (older image + MANIFEST) survives.
    std::filesystem::remove(image_tmp, ec);
    std::filesystem::remove(image_path, ec);
    std::filesystem::remove(man_tmp, ec);
    throw;
  }
  // Only after the commit: garbage-collect images the new MANIFEST does
  // not reference.
  sweepStaleImages(dir, image_name);

  pcu::trace::counter("io:bytes",
                      static_cast<std::int64_t>(bytes.load()));
  WriteStats stats;
  stats.bytes = bytes.load();
  stats.chunks = chunks.load();
  stats.generation = generation;
  return stats;
}

/// --- read path -----------------------------------------------------------

std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model, PartMap map,
                                         OnLoss on_loss,
                                         RestoreReport* report) {
  pcu::trace::Scope scope("io:read");
  OpenedImage opened = openForRead(dir);
  const Index& idx = opened.idx;
  const int n = idx.nparts;
  if (map.parts() != n)
    failValidation("restore: part map covers " + std::to_string(map.parts()) +
                   " parts but " + dir + " holds " + std::to_string(n));
  std::vector<int> reader(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    reader[static_cast<std::size_t>(p)] = map.rankOf(p);

  // Partition-on-read: every part's chunks are pulled, validated and
  // repaired by its target rank's reader, concurrently over disjoint
  // extents of the one image.
  std::vector<std::vector<std::byte>> mesh_bytes(static_cast<std::size_t>(n));
  std::vector<std::vector<std::byte>> meta_bytes(static_cast<std::size_t>(n));
  std::vector<char> part_lost(static_cast<std::size_t>(n), 0);
  std::atomic<std::uint64_t> repaired{0};
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> bytes_read{0};
  File* rw = opened.can_repair ? &opened.img : nullptr;
  parallelFor(n, [&](int p) {
    pcu::trace::Scope rscope("io:read", reader[static_cast<std::size_t>(p)]);
    const auto& ps = idx.parts[static_cast<std::size_t>(p)];
    auto mesh = loadChunk(opened.img, rw, kChunkMesh,
                          static_cast<std::uint32_t>(p), ps.mesh, repaired,
                          lost);
    auto meta = loadChunk(opened.img, rw, kChunkMeta,
                          static_cast<std::uint32_t>(p), ps.meta, repaired,
                          lost);
    if (!mesh || !meta) {
      part_lost[static_cast<std::size_t>(p)] = 1;
      return;
    }
    bytes_read.fetch_add(mesh->size() + meta->size(),
                         std::memory_order_relaxed);
    mesh_bytes[static_cast<std::size_t>(p)] = std::move(*mesh);
    meta_bytes[static_cast<std::size_t>(p)] = std::move(*meta);
  });

  std::vector<PartId> lost_parts;
  for (int p = 0; p < n; ++p)
    if (part_lost[static_cast<std::size_t>(p)] != 0) lost_parts.push_back(p);
  if (repaired.load() > 0)
    pcu::trace::counter("io:chunks_repaired",
                        static_cast<std::int64_t>(repaired.load()));
  if (lost.load() > 0)
    pcu::trace::counter("io:chunks_lost",
                        static_cast<std::int64_t>(lost.load()));
  pcu::trace::counter("io:bytes",
                      static_cast<std::int64_t>(bytes_read.load()));
  if (report != nullptr) {
    report->lost = lost_parts;
    report->chunks_repaired = repaired.load();
    report->chunks_lost = lost.load();
    report->bytes_read = bytes_read.load();
  }
  if (!lost_parts.empty() && on_loss == OnLoss::kFail)
    failValidation("restore: " + dir + " lost part(s) " +
                   joinParts(lost_parts) +
                   " (both copies of a chunk are bad); re-run with "
                   "OnLoss::kPartial to load the survivors");

  auto pm =
      std::make_unique<PartedMesh>(model, n, std::move(map), idx.rule);
  partio::EntResolver ents(n);
  parallelFor(n, [&](int p) {
    if (part_lost[static_cast<std::size_t>(p)] != 0) return;
    auto loaded = core::meshFromBytes(
        std::move(mesh_bytes[static_cast<std::size_t>(p)]), model);
    Part& part = pm->part(p);
    part.mesh().copyFrom(*loaded);
    ents.index(p, part.mesh());
  });

  // A partial restore filters records referencing lost parts and drops
  // all ghosts mesh-wide — a ghost whose source may be gone cannot satisfy
  // the verify() invariants.
  parallelFor(n, [&](int p) {
    if (part_lost[static_cast<std::size_t>(p)] != 0) return;
    partio::applyMeta(pm->part(p), p,
                      std::move(meta_bytes[static_cast<std::size_t>(p)]), ents,
                      "restore: " + dir + " part " + std::to_string(p) +
                          " metadata",
                      lost_parts);
  });

  CheckpointAccess::setDim(*pm, idx.dim);
  pm->verify();
  if (lost_parts.empty() && pm->fingerprint() != idx.fingerprint)
    throw pcu::Error(pcu::ErrorCode::kCorruptPayload, -1,
                     "restore: " + dir +
                         " rebuilt to a different fingerprint than its "
                         "MANIFEST records");
  return pm;
}

std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model, OnLoss on_loss,
                                         RestoreReport* report) {
  const Index idx = loadIndex(dir);
  return restoreImage(dir, model, PartMap(idx.nparts, pcu::Machine()),
                      on_loss, report);
}

std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model, int target_ranks,
                                         OnLoss on_loss,
                                         RestoreReport* report) {
  if (target_ranks < 1)
    failValidation("restore: target rank count " +
                   std::to_string(target_ranks) + " is not positive");
  const Index idx = loadIndex(dir);
  // Partition-on-read: part p lands on rank p % target_ranks, so any rank
  // count M — smaller after a shrink, larger before an expand — computes
  // the same assignment without communicating.
  std::vector<int> ranks(static_cast<std::size_t>(idx.nparts));
  for (int p = 0; p < idx.nparts; ++p)
    ranks[static_cast<std::size_t>(p)] = p % target_ranks;
  PartMap map(idx.nparts, pcu::Machine::flat(target_ranks));
  map.setPartRanks(std::move(ranks));
  return restoreImage(dir, model, std::move(map), on_loss, report);
}

std::pair<std::vector<std::byte>, std::vector<std::byte>> partBytes(
    const std::string& dir, PartId p) {
  OpenedImage opened = openForRead(dir);
  const Index& idx = opened.idx;
  if (p < 0 || p >= idx.nparts)
    failValidation("checkpointPartBytes: part " + std::to_string(p) +
                   " out of range for " + dir + " (" +
                   std::to_string(idx.nparts) + " parts)");
  File* rw = opened.can_repair ? &opened.img : nullptr;
  std::atomic<std::uint64_t> repaired{0};
  std::atomic<std::uint64_t> lost{0};
  const auto& ps = idx.parts[static_cast<std::size_t>(p)];
  auto mesh = loadChunk(opened.img, rw, kChunkMesh,
                        static_cast<std::uint32_t>(p), ps.mesh, repaired,
                        lost);
  auto meta = loadChunk(opened.img, rw, kChunkMeta,
                        static_cast<std::uint32_t>(p), ps.meta, repaired,
                        lost);
  if (!mesh || !meta)
    throw pcu::Error(pcu::ErrorCode::kCorruptPayload, -1,
                     "checkpointPartBytes: part " + std::to_string(p) +
                         " of " + dir +
                         " does not match its MANIFEST size/CRC in either "
                         "copy");
  if (repaired.load() > 0)
    pcu::trace::counter("io:chunks_repaired",
                        static_cast<std::int64_t>(repaired.load()));
  return {std::move(*mesh), std::move(*meta)};
}

bool valid(const std::string& dir) {
  try {
    const Index idx = loadIndex(dir);
    const std::string path = dir + "/" + idx.image;
    File img = File::openRead(path);
    for (int p = 0; p < idx.nparts; ++p) {
      const auto& ps = idx.parts[static_cast<std::size_t>(p)];
      for (const auto& [slot, type] :
           {std::pair<const ChunkSlot&, std::uint32_t>{ps.mesh, kChunkMesh},
            std::pair<const ChunkSlot&, std::uint32_t>{ps.meta,
                                                       kChunkMeta}}) {
        if (!tryReadChunk(img, slot.primary, type,
                          static_cast<std::uint32_t>(p), slot) &&
            !tryReadChunk(img, slot.replica, type,
                          static_cast<std::uint32_t>(p), slot))
          return false;
      }
    }
    return true;
  } catch (...) {
    return false;
  }
}

/// --- offline scrub -------------------------------------------------------

ScrubReport scrub(const std::string& dir) {
  OpenedImage opened = openForRead(dir);
  const Index& idx = opened.idx;
  ScrubReport report;
  for (int p = 0; p < idx.nparts; ++p) {
    const auto& ps = idx.parts[static_cast<std::size_t>(p)];
    bool part_lost = false;
    for (const auto& [slot, type] :
         {std::pair<const ChunkSlot&, std::uint32_t>{ps.mesh, kChunkMesh},
          std::pair<const ChunkSlot&, std::uint32_t>{ps.meta, kChunkMeta}}) {
      auto primary = tryReadChunk(opened.img, slot.primary, type,
                                  static_cast<std::uint32_t>(p), slot);
      auto replica = tryReadChunk(opened.img, slot.replica, type,
                                  static_cast<std::uint32_t>(p), slot);
      if (primary && replica) {
        ++report.chunks_ok;
        continue;
      }
      if (!primary && !replica) {
        ++report.chunks_lost;
        part_lost = true;
        continue;
      }
      pcu::trace::Scope rscope("io:repair");
      const auto& good = primary ? *primary : *replica;
      const std::uint64_t bad_off = primary ? slot.replica : slot.primary;
      if (opened.can_repair) {
        const auto fixed =
            chunkBytes(type, static_cast<std::uint32_t>(p), slot.crc, good);
        try {
          opened.img.pwriteAll(fixed.data(), fixed.size(), bad_off);
          ++report.chunks_repaired;
        } catch (const pcu::Error&) {
          ++report.chunks_ok;  // copy still bad, but the chunk is readable
        }
      } else {
        ++report.chunks_ok;
      }
    }
    if (part_lost) report.lost_parts.push_back(p);
  }
  if (report.chunks_repaired > 0) {
    opened.img.sync();
    pcu::trace::counter("io:chunks_repaired",
                        static_cast<std::int64_t>(report.chunks_repaired));
  }
  if (report.chunks_lost > 0)
    pcu::trace::counter("io:chunks_lost",
                        static_cast<std::int64_t>(report.chunks_lost));
  return report;
}

}  // namespace dist::pario
