#ifndef PUMI_CORE_INTEGRITY_HPP
#define PUMI_CORE_INTEGRITY_HPP

/// \file integrity.hpp
/// \brief Sectioned in-memory checksum ledger for one mesh (silent-
/// corruption armor, detection side).
///
/// The fault stack guards every *boundary* — message CRCs, storage CRCs,
/// rank death — but the live mesh state those boundaries hand off is
/// unguarded: one flipped bit in an entity pool, tag payload, or adjacency
/// array propagates silently into checkpoints and journals, checksummed as
/// if it were truth. This layer extends the verify()-at-commit-points
/// tradition from topological invariants to byte-level integrity.
///
/// A Ledger divides a mesh's state into named *sections* — each entity
/// pool's verts/down/alive arrays, the vertex coordinates, every tag's
/// payload stream — and records a CRC-32C per section plus per-block CRCs
/// for byte-range localization.
/// Sections are re-hashed lazily: each is keyed on the version counters
/// that every legitimate write path already bumps (Mesh::topoVersion /
/// dataVersion, TagBase::version), so seal() skips unchanged sections and
/// audit() can classify a hash mismatch precisely: *same versions, different
/// bytes* is corruption, never a legitimate write.
///
/// Detection never dereferences mesh state — it only hashes raw bytes — so
/// a flipped entity handle or alive flag cannot crash the audit; repair
/// (dist/integrity.hpp) replaces state wholesale from replicas.
///
/// The contract callers must keep: between a seal() and the next audit(),
/// mesh state changes only through the version-bumping mutators (or not at
/// all). The distributed layers already live by this rule — all mutation
/// happens inside transactional operations, and the armor seals at every
/// commit point.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/mesh.hpp"

namespace core::integrity {

/// Per-block CRC granularity: a mismatch is localized to a byte range no
/// wider than this (memory overhead: 4 bytes of ledger per block).
inline constexpr std::size_t kBlockBytes = 256;

/// One detected corruption: the section and the byte range (within the
/// section's canonical byte stream, inclusive) the damage localizes to.
struct Mismatch {
  std::string section;
  std::size_t first_byte = 0;
  std::size_t last_byte = 0;

  friend bool operator==(const Mismatch& a, const Mismatch& b) {
    return a.section == b.section && a.first_byte == b.first_byte &&
           a.last_byte == b.last_byte;
  }
};

/// Byte-level access to a mesh's hashable state, for the ledger and the
/// deterministic memory-fault injector (dist/integrity.hpp). Friend of
/// Mesh; the only non-const entry point is the fault-injection span.
struct MeshAccess {
  /// One contiguous hashable section of a mesh.
  struct SectionRef {
    std::string name;
    std::uint64_t va = 0;  ///< governing version counter (topo/tag)
    std::uint64_t vb = 0;  ///< second governing counter (dataVersion) or 0
    std::span<const std::byte> bytes;
  };

  /// Enumerate the mesh's contiguous sections in deterministic order:
  /// "coords", then "pool:<topo>:{verts,down,alive}" per non-empty pool.
  /// Excluded by design: upward adjacency (derived, heap-backed),
  /// classification (process-local pointers, guarded by verify()),
  /// free lists (derived bookkeeping).
  static std::vector<SectionRef> sections(const Mesh& m);

  /// Writable bytes of one contiguous section, for fault injection; empty
  /// when no section has that name.
  static std::span<std::byte> mutableSection(Mesh& m, const std::string& name);
};

/// Canonical byte stream of one tag's payload: items sorted by packed
/// handle, each as (packed handle, payload byte count, payload bytes).
/// Deterministic for a given tag content, independent of hash-map order.
std::vector<std::byte> tagStream(const common::TagBase<Ent>* tag);

/// The sectioned checksum ledger of one mesh (one per part).
class Ledger {
 public:
  /// Record/refresh the hash of every current section. Sections whose
  /// governing versions are unchanged since the last seal are skipped
  /// (their hash is still valid); sections that vanished (destroyed tag,
  /// drained pool) are pruned.
  void seal(const Mesh& m);

  /// Verify every section that should be byte-identical to its sealed
  /// state: versions unchanged but bytes differ is corruption, appended to
  /// `out` with block-level byte-range localization. Sections with changed
  /// versions (legitimate writes since the seal) and sections added or
  /// removed since the seal are skipped — the next seal() re-keys them.
  void audit(const Mesh& m, std::vector<Mismatch>& out);

  /// External sections: state owned by a higher layer (the part's
  /// remote/ghost tables), serialized canonically by the caller and keyed
  /// on the caller's version counter for that state — the same gate as
  /// mesh sections. externalCurrent() says whether `name` was sealed at
  /// `version`: then its stored hash is still valid, the caller skips
  /// building the stream at seal, and at audit compares the bytes (same
  /// version, different bytes is corruption). A moved version is a
  /// legitimate write: audit skips it and the next seal re-keys it.
  [[nodiscard]] bool externalCurrent(const std::string& name,
                                     std::uint64_t version) const;
  void sealExternal(const std::string& name, std::uint64_t version,
                    std::span<const std::byte> bytes);
  void auditExternal(const std::string& name, std::span<const std::byte> bytes,
                     std::vector<Mismatch>& out);

  [[nodiscard]] bool sealed() const { return sealed_; }
  void reset() {
    sections_.clear();
    sealed_ = false;
  }

  /// Section names currently sealed, sorted (diagnostics, tests).
  [[nodiscard]] std::vector<std::string> sectionNames() const;
  /// The sealed hash of one section; nullopt when none has that name.
  [[nodiscard]] std::optional<std::uint32_t> sectionCrc(
      const std::string& name) const;
  /// Total bytes covered by the current seal.
  [[nodiscard]] std::size_t coveredBytes() const;

  /// Cumulative work counters (for trace/bench).
  [[nodiscard]] std::uint64_t bytesHashed() const { return bytes_hashed_; }
  [[nodiscard]] std::uint64_t sectionsRehashed() const {
    return sections_rehashed_;
  }

 private:
  struct Section {
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    std::size_t bytes = 0;
    std::uint32_t crc = 0;                ///< crc32c over the block CRCs
    std::vector<std::uint32_t> blocks;    ///< per-kBlockBytes CRC32Cs
    bool external = false;
  };

  Section makeSection(std::span<const std::byte> bytes, std::uint64_t va,
                      std::uint64_t vb, bool external);
  /// Compare `bytes` against a stored section; on mismatch append a
  /// Mismatch for `name` localizing the differing block range.
  void compare(const std::string& name, const Section& stored,
               std::span<const std::byte> bytes, std::vector<Mismatch>& out);

  std::map<std::string, Section> sections_;
  bool sealed_ = false;
  std::uint64_t bytes_hashed_ = 0;
  std::uint64_t sections_rehashed_ = 0;
};

}  // namespace core::integrity

#endif  // PUMI_CORE_INTEGRITY_HPP
