#ifndef PUMI_DIST_INTEGRITY_HPP
#define PUMI_DIST_INTEGRITY_HPP

/// \file integrity.hpp
/// \brief Silent-corruption armor for a parted mesh: per-part checksum
/// ledgers, deterministic memory-fault injection, and online audit-and-
/// repair at every transactional commit point.
///
/// The Armor owns one core::integrity::Ledger per part. At each boundary
/// (transaction entry/exit — a balancing round is one transaction — and
/// service phase) it:
///   * audits every part — the mesh-owned sections through the ledger's
///     version-gated byte hashes, the remote/ghost tables through
///     canonical serialized streams — localizing any mismatch to an exact
///     (part, section, byte range);
///   * repairs what it can, escalating through a ladder (tier numbers are
///     stable report values; 1 is unused):
///       tier 2  refetch the part from its BuddyJournal replica (CRC-gated)
///               and rebuild it in place through partio::rebuildParts —
///               the routine evacuation uses — which patches survivor
///               mirrors through copy symmetry;
///       tier 3  the same rebuild from the configured checkpoint directory;
///       tier 4  nothing left — throw pcu::Error(kIntegrity) naming the
///               part, section and byte range;
///   * reseals the ledgers against the (possibly repaired) state, then
///     consumes any `memflip` burst scheduled for this boundary index and
///     plants the flips in live state — so an injected flip sits in sealed
///     state until the next entry audit finds it, exactly like a real
///     particle strike between operations.
///
/// Flip placement is pure in (plan seed, rank, part, section, flip index)
/// via pcu::faults::memFlipKey, so a seeded memflip matrix replays
/// bit-identically. Flips land only in bytes the ledger covers (entity
/// pools, coordinates, tag payloads, remote/ghost records) —
/// never in derived heap structure — so every flip is either repaired to a
/// fingerprint-identical mesh or reported with exact localization; none is
/// silent.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/integrity.hpp"
#include "dist/failover.hpp"
#include "dist/partedmesh.hpp"
#include "pcu/faults.hpp"

namespace dist {
namespace integrity {

/// One detected corruption: where it localized and how it was resolved.
struct Corruption {
  PartId part = -1;
  std::string section;         ///< ledger section name
  std::size_t first_byte = 0;  ///< localized byte range within the section's
  std::size_t last_byte = 0;   ///< canonical stream, inclusive
  int repair_tier = 0;  ///< 2 journal, 3 checkpoint, 0 none
  std::string where;    ///< boundary label ("migrate", "parma:round", ...)

  friend bool operator==(const Corruption& a, const Corruption& b) {
    return a.part == b.part && a.section == b.section &&
           a.first_byte == b.first_byte && a.last_byte == b.last_byte &&
           a.repair_tier == b.repair_tier && a.where == b.where;
  }
};

/// What the armor saw and did so far. Lists are deterministic for a given
/// (plan seed, operation sequence): detected in detection order (boundaries
/// in time order, parts ascending, sections in ledger order),
/// parts_repaired / parts_unrepaired sorted and deduplicated.
struct IntegrityReport {
  std::uint64_t audits = 0;          ///< audit passes (all parts each)
  std::uint64_t seals = 0;           ///< seal passes == boundaries crossed
  std::uint64_t mismatches = 0;      ///< corruptions detected
  std::uint64_t flips_injected = 0;  ///< memflip bits planted
  std::uint64_t flips_skipped = 0;   ///< no eligible bytes for the target
  std::uint64_t bytes_hashed = 0;    ///< cumulative ledger hash work
  std::uint64_t sections_rehashed = 0;
  double audit_ms = 0;  ///< wall time inside auditAndRepair (incl. repairs)
  double seal_ms = 0;   ///< wall time inside sealAndMaybeInject (incl.
                        ///< journal refresh and flip planting)
  std::vector<Corruption> detected;
  std::vector<PartId> parts_repaired;
  std::vector<PartId> parts_unrepaired;
};

/// Canonical byte streams of a part's boundary and ghost tables — the
/// armor's external ledger sections "remotes", "ghost-src" and "ghost-on".
/// Records are in entity handle order (partio::forEachInSlotOrder), so a
/// stream is deterministic regardless of hash-map layout; every field is a
/// u64 word.
std::vector<std::byte> remotesStream(const Part& p);
std::vector<std::byte> ghostSourceStream(const Part& p);
std::vector<std::byte> ghostedOnStream(const Part& p);

/// The armor of one PartedMesh (created lazily via PartedMesh::armor()).
class Armor {
 public:
  explicit Armor(PartedMesh& pm) : pm_(pm) {}

  /// Repair sources, in escalation order. Without a journal tier 2 is
  /// skipped; without a checkpoint dir tier 3 is skipped. The armor
  /// *refreshes* the journal at every seal — after sealing, before any
  /// flip can strike — so each boundary's sealed state always has a
  /// matching replica and a tier-2 repair never meets a stale snapshot.
  void setJournal(failover::BuddyJournal* journal) { journal_ = journal; }
  void setCheckpointDir(std::string dir) { checkpoint_dir_ = std::move(dir); }

  /// Audit every part and run the repair ladder on every mismatch. `where`
  /// labels the boundary in the report and in error messages. Throws
  /// pcu::Error(kIntegrity) when a corrupt part exhausts the ladder.
  void auditAndRepair(const char* where);

  /// Reseal every part's ledger, refresh the journal replica, then consume
  /// any memflip scheduled for this
  /// boundary index and plant the flips in live state. The order is the
  /// armor's core invariant: seal, then replicate, then corrupt — so the
  /// repair source always matches the sealed state a flip lands in.
  /// The work follows what changed: mesh sections and the external tables
  /// are rehashed only when their versions moved, and the journal
  /// serializes a part only when its stamps moved (CRC dedup then drops
  /// re-serialized parts whose bytes came out unchanged).
  void sealAndMaybeInject();

  /// One full boundary: audit/repair, then seal and maybe inject. The
  /// service layer calls this between phases.
  void boundary(const char* where) {
    auditAndRepair(where);
    sealAndMaybeInject();
  }

  /// Boundaries crossed so far == the phase index the NEXT seal will use
  /// (memflip=N@P fires at the P-th boundary, 0-based).
  [[nodiscard]] std::uint64_t boundaryIndex() const { return boundary_; }

  /// Snapshot of the armor's activity; lists sorted/deduplicated as
  /// documented on IntegrityReport.
  [[nodiscard]] IntegrityReport report() const;

  /// One part's sealed ledger (diagnostics, tests).
  [[nodiscard]] const core::integrity::Ledger& ledger(PartId p) const;

 private:
  void ensureParts();
  void sealPart(PartId p);
  /// Appends this part's mismatches (mesh sections + external tables).
  void auditPart(PartId p, std::vector<core::integrity::Mismatch>& out);


  bool repairFromJournal(PartId p);     // tier 2
  bool repairFromCheckpoint(PartId p);  // tier 3
  /// Shared tier-2/3 body: partio::rebuildParts on the one-part set (the
  /// part's rank is alive, only its bytes were bad, so nothing is
  /// re-pinned). False when the replica is stale or malformed.
  bool rebuildFrom(PartId p, std::vector<std::byte> mesh_bytes,
                   std::vector<std::byte> meta_bytes, const char* src);

  void injectFlips(const pcu::faults::MemFlip& burst);
  bool flipOne(pcu::faults::MemTarget target, std::uint64_t seed, int rank,
               PartId p, int flip_index);

  PartedMesh& pm_;
  failover::BuddyJournal* journal_ = nullptr;
  std::string checkpoint_dir_;
  std::vector<core::integrity::Ledger> ledgers_;  // one per part
  std::uint64_t boundary_ = 0;
  IntegrityReport rep_;
};

}  // namespace integrity
}  // namespace dist

#endif  // PUMI_DIST_INTEGRITY_HPP
