#ifndef PUMI_DIST_PARIO_HPP
#define PUMI_DIST_PARIO_HPP

/// \file pario.hpp
/// \brief Checkpoint/restart: crash-consistent parallel streaming mesh
/// I/O (recovery tier 3).
///
/// One checkpoint is one chunked image file plus a MANIFEST index:
///
///   dir/IMAGE.<g>   [image header | region 0 | region 1 | ... ]
///   dir/MANIFEST    chunk index: per part, both copies' extents + CRCs
///
/// Every part's payloads (serial mesh stream, boundary/ghost metadata
/// stream — the partio format) become fixed-header chunks:
///
///   chunk := magic("PIOC") type(u32) part(u32) crc32(u32) length(u64)
///            payload[length]
///
/// Writer w owns one contiguous, 4 KiB-aligned extent region of the image
/// (one logical writer per part), so all writers stream their chunks
/// concurrently with no coordination and no rank-0 fan-out. Each chunk is
/// additionally buddy-replicated into writer (w+1) % W's region — the
/// cyclic pairing failover's buddy journals use — so restore can
/// read-repair a corrupted or torn copy from its replica instead of
/// failing. Reading back is partition-on-read: part p is deserialized by
/// reader p % M for any target rank count M (N writers → M readers with no
/// redistribution pass), cross-part references resolving through the
/// partio (dim, ordinal) entrefs.
///
/// Durability discipline:
/// the image and the MANIFEST are each written to a temp file, fdatasync'd
/// and atomically renamed, MANIFEST strictly last — a crash anywhere
/// leaves the previous checkpoint's MANIFEST (still naming the previous,
/// untouched IMAGE.<g-1>) or none at all. Stale images and temp files are
/// swept only after the new MANIFEST committed, so two checkpoints into
/// one directory never share bytes. A pcu::Error mid-checkpoint (e.g.
/// injected ENOSPC) removes everything the failed attempt created.
///
/// All reads and writes route through pario::File, the storage shim the
/// pcu::faults I/O tokens (iobitrot/iotorn/ioshort/ioenospc/iostall) hook;
/// decisions are pure in (seed, path-hash, op, offset), so storage chaos
/// replays bit-identically.
///
/// Degradation contract: a chunk whose two copies are both bad names its
/// part in a RestoreReport; OnLoss::kFail turns that into a structured
/// kValidation error, OnLoss::kPartial loads every surviving part, drops
/// boundary records referencing lost parts (owners deterministically
/// reassigned to the minimum surviving resident part) and drops all
/// ghosts mesh-wide (a ghost whose source may be lost cannot satisfy the
/// verify() invariants), then verify()s what remains. scrub() is the
/// offline variant: verify and repair every chunk, reporting what it fixed.
/// Restored parts are decoded by partio::rebuildParts, the decoder armor
/// repair and failover evacuation share.
///
/// Errors are structured pcu::Error values: kValidation for a missing,
/// unreadable or malformed checkpoint and for unrecoverable loss under
/// OnLoss::kFail (naming the path, reason and lost parts), kCorruptPayload
/// for a rebuilt mesh whose fingerprint disagrees with the MANIFEST,
/// kIoFault for storage-level write failures.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/partedmesh.hpp"

namespace dist::pario {

/// --- storage shim --------------------------------------------------------

/// A positional-I/O file handle. Every pario/checkpoint byte moves through
/// this shim, which consults pcu::faults::decideIo (pure in seed, path
/// hash, op, offset) before touching the kernel: reads can come back
/// bit-rotted or short, writes can tear (prefix persists, success
/// reported), fail with an injected ENOSPC, or stall. Real I/O errors
/// surface as pcu::Error(kIoFault); open failures as kValidation naming
/// the path.
class File {
 public:
  /// Create/truncate for writing (0644), read-write.
  static File create(const std::string& path);
  /// Open read-only.
  static File openRead(const std::string& path);
  /// Open read-write (read-repair, scrub).
  static File openRw(const std::string& path);

  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Write all n bytes at `off`. Loops on genuine short writes; injected
  /// faults tear (silent prefix), throw kIoFault (enospc / short), or
  /// stall per the ambient plan.
  void pwriteAll(const void* data, std::size_t n, std::uint64_t off);
  /// Read up to n bytes at `off`; returns the count actually read (short
  /// at end-of-file or under an injected short read). Injected bitrot
  /// flips one byte of the returned buffer.
  std::size_t preadSome(void* data, std::size_t n, std::uint64_t off);
  /// fdatasync: the write path's one durability barrier per file.
  void sync();
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  File(int fd, std::string path);
  int fd_ = -1;
  std::string path_;
  std::uint64_t path_hash_ = 0;
};

/// --- chunk index (the MANIFEST, parsed) ----------------------------------

inline constexpr std::uint32_t kChunkMagic = 0x50494F43u;  // "PIOC"
inline constexpr std::size_t kChunkHeaderBytes = 24;
inline constexpr std::uint32_t kChunkMesh = 0;
inline constexpr std::uint32_t kChunkMeta = 1;

/// Both copies of one chunk: primary extent in its writer's region,
/// replica in the buddy writer's region. Offsets locate the chunk header.
struct ChunkSlot {
  std::uint64_t primary = 0;
  std::uint64_t replica = 0;
  std::uint64_t length = 0;  ///< payload bytes (header excluded)
  std::uint32_t crc = 0;     ///< CRC32 of the payload
};

struct PartSlots {
  ChunkSlot mesh;
  ChunkSlot meta;
};

/// A parsed MANIFEST. Public so tests and fsck can locate chunk extents
/// (e.g. to corrupt one copy deliberately, or to report per-part damage).
struct Index {
  int nparts = 0;
  int dim = -1;
  OwnerRule rule = OwnerRule::MinPartId;
  int writers = 0;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::string image;  ///< image file name within the directory
  std::vector<PartSlots> parts;
};

/// Parse and CRC-verify dir/MANIFEST. Throws kValidation for a missing,
/// unreadable or malformed checkpoint, naming the path and reason — an
/// unreadable directory is reported the same way, never a crash or hang.
Index loadIndex(const std::string& dir);

/// --- write path ----------------------------------------------------------

struct WriteStats {
  std::uint64_t bytes = 0;   ///< image + manifest bytes written (both copies)
  std::uint64_t chunks = 0;  ///< chunk copies written
  std::uint64_t generation = 0;
};

/// Write `pm` as a chunked image checkpoint into `dir` (created if
/// missing). All logical writers (one per part) stream their extents
/// concurrently; the MANIFEST commits last, atomically. On any error the
/// attempt's files are removed and the directory still holds the previous
/// valid checkpoint (or none).
WriteStats checkpointImage(const PartedMesh& pm, const std::string& dir);

/// --- read path -----------------------------------------------------------

/// What a restore did about damage.
struct RestoreReport {
  std::vector<PartId> lost;           ///< parts with an unrecoverable chunk
  std::uint64_t chunks_repaired = 0;  ///< copies rewritten from their buddy
  std::uint64_t chunks_lost = 0;      ///< chunks with both copies bad
  std::uint64_t bytes_read = 0;
  [[nodiscard]] bool partial() const { return !lost.empty(); }
};

/// Caller's choice when both copies of some chunk are gone.
enum class OnLoss : std::uint8_t {
  kFail,     ///< throw kValidation naming the lost parts (default)
  kPartial,  ///< load the surviving parts, report the lost ones
};

/// Rebuild a PartedMesh from a checkpoint image; `map` assigns parts to
/// target ranks (partition-on-read). Single-copy damage is read-repaired
/// in place from the buddy replica; unrecoverable chunks follow `on_loss`.
/// Fingerprint equality with the MANIFEST is enforced unless parts were
/// lost (a partial mesh fingerprints differently by construction);
/// verify() always runs. `report`, when non-null, receives the repair
/// counters and lost-part list.
std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model, PartMap map,
                                         OnLoss on_loss = OnLoss::kFail,
                                         RestoreReport* report = nullptr);

/// Default part map: flat machine sized to the checkpoint's part count.
std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model,
                                         OnLoss on_loss = OnLoss::kFail,
                                         RestoreReport* report = nullptr);

/// N→M partition-on-read: part p lands on rank p % target_ranks of a flat
/// machine (fewer ranks than wrote the image, or more — extra ranks start
/// idle). Throws kValidation when target_ranks < 1.
std::unique_ptr<PartedMesh> restoreImage(const std::string& dir,
                                         gmi::Model* model, int target_ranks,
                                         OnLoss on_loss = OnLoss::kFail,
                                         RestoreReport* report = nullptr);

/// Validated payloads (mesh stream, metadata stream) of one part,
/// read-repairing single-copy damage on the way. Throws kValidation for a
/// malformed checkpoint or part out of range, kCorruptPayload when both
/// copies of a chunk are bad.
std::pair<std::vector<std::byte>, std::vector<std::byte>> partBytes(
    const std::string& dir, PartId p);

/// True when `dir` restores without data loss: MANIFEST parses and every
/// chunk has at least one good copy. Never repairs, never throws.
bool valid(const std::string& dir);

/// --- offline scrub -------------------------------------------------------

struct ScrubReport {
  std::uint64_t chunks_ok = 0;
  std::uint64_t chunks_repaired = 0;  ///< bad copies rewritten from buddy
  std::uint64_t chunks_lost = 0;      ///< both copies bad
  std::vector<PartId> lost_parts;     ///< parts owning a lost chunk, sorted
  [[nodiscard]] bool clean() const { return chunks_lost == 0; }
};

/// Verify every chunk copy of the checkpoint in `dir` and rewrite any bad
/// copy from its good buddy. Throws kValidation for a missing/malformed
/// checkpoint; damage is reported, not thrown.
ScrubReport scrub(const std::string& dir);

}  // namespace dist::pario

#endif  // PUMI_DIST_PARIO_HPP
