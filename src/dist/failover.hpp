#ifndef PUMI_DIST_FAILOVER_HPP
#define PUMI_DIST_FAILOVER_HPP

/// \file failover.hpp
/// \brief Live part evacuation after a rank failure (recovery tier 4).
///
/// When dist::Network declares a rank dead mid-operation, the
/// transactional layer rolls every surviving part back to the last
/// quiescent point and the transport poisons all traffic to the dead
/// rank's parts (Network::deadRanks). This layer finishes the job without
/// a restart: survivors rebuild the dead rank's parts from replicated
/// state and adopt them.
///
/// BuddyJournal is the replication side: record(pm) at every quiescent
/// point (between distributed operations) serializes each part — mesh
/// stream plus partio metadata stream — and retains the newest copy,
/// attributing the bytes to the part's buddy rank (the next rank
/// cyclically). Version stamps let record skip serializing a part whose
/// state provably did not change; a CRC-based dedup then drops parts whose
/// fresh streams match the stored copy, so steady-state phases stream only
/// deltas.
///
/// evacuate(pm, journal[, checkpoint_dir]) runs on the survivors after an
/// operation aborts with pcu::ErrorCode::kRankFailed:
///  1. every part pinned to a dead rank is fetched from the journal
///     (falling back to `checkpoint_dir` for parts the journal lacks);
///  2. partio::rebuildParts — the one rebuild routine, shared with armor
///     repair — wipes and rebuilds them in place, re-resolves their
///     boundary/ghost records against the rebuilt handles, and patches the
///     surviving parts' mirror records through copy symmetry;
///  3. the parts are re-pinned to their buddy ranks (lifting the
///     transport's dead-rank gate) and the whole mesh is verify()-ed.
///
/// Correctness contract: the journal (or checkpoint) must hold the same
/// quiescent state the transactional rollback restored — i.e. record (or
/// checkpoint) at each phase boundary, exactly where the rollback lands.
/// Evacuation then reproduces the pre-fault state bit-identically
/// (fingerprint-equal), just hosted on fewer ranks.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/partedmesh.hpp"

namespace dist {
namespace failover {

/// Newest serialized copy of every part, replicated for its buddy rank.
class BuddyJournal {
 public:
  /// What a part's mesh stream is a function of: the Part object, its
  /// mesh's topology and data versions, and its tags' (name, version) list
  /// in registry order. Every component is monotone per object and the
  /// generation is process-wide unique, so equal stamps mean equal bytes.
  struct MeshStamp {
    std::uint64_t generation = 0;
    std::uint64_t topo = 0;
    std::uint64_t data = 0;
    std::vector<std::pair<std::string, std::uint64_t>> tags;
    friend bool operator==(const MeshStamp&, const MeshStamp&) = default;
  };
  /// What a part's metadata stream is a function of: its own table version
  /// and the ordinals of every part, i.e. each part's (generation, topology
  /// version).
  struct MetaStamp {
    std::uint64_t tables = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> parts;
    friend bool operator==(const MetaStamp&, const MetaStamp&) = default;
  };

  /// One part's replicated state: the two partio streams plus their CRCs
  /// (used for delta dedup between records) and the stamps of the state
  /// they were serialized from.
  struct Snapshot {
    std::vector<std::byte> mesh;
    std::vector<std::byte> meta;
    std::uint32_t mesh_crc = 0;
    std::uint32_t meta_crc = 0;
    MeshStamp mesh_stamp;
    MetaStamp meta_stamp;
  };

  /// Serialize every part of `pm` at a quiescent point, keeping the newest
  /// copy. A stream whose stamp matches the stored copy's is not
  /// serialized at all; parts whose streams come out byte-identical to the
  /// stored copy (both stamps matched, or equal CRCs and sizes) are
  /// skipped (delta dedup) and counted in recordsSkipped(). A bit flipped
  /// in live state bumps no version, so it cannot overwrite a replica of
  /// an otherwise unchanged part.
  void record(const PartedMesh& pm);

  [[nodiscard]] bool hasPart(PartId p) const {
    return parts_.count(p) > 0;
  }
  [[nodiscard]] const Snapshot* find(PartId p) const {
    auto it = parts_.find(p);
    return it == parts_.end() ? nullptr : &it->second;
  }
  /// Total bytes streamed to buddies across all record() calls (dedup'd
  /// parts stream nothing).
  [[nodiscard]] std::uint64_t bytesStreamed() const { return bytes_streamed_; }
  /// Per-part records skipped because the part was unchanged.
  [[nodiscard]] std::uint64_t recordsSkipped() const {
    return records_skipped_;
  }
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  std::unordered_map<PartId, Snapshot> parts_;
  std::uint64_t bytes_streamed_ = 0;
  std::uint64_t records_skipped_ = 0;
  std::uint64_t records_ = 0;
};

/// What one evacuation did, for operators and the parma repair pass.
struct EvacuationReport {
  std::vector<int> ranks_lost;          ///< ranks declared dead
  std::vector<PartId> parts_evacuated;  ///< parts rebuilt onto survivors
  std::size_t entities_adopted = 0;     ///< entities (all dims) re-hosted
  std::uint64_t journal_bytes_replayed = 0;
  double detect_ms = 0;    ///< rank-failure detection latency
  double evacuate_ms = 0;  ///< rebuild + re-pin + verify wall time
};

/// Rebuild every part pinned to a dead rank from `journal` (falling back
/// to the checkpoint in `checkpoint_dir` when non-empty), patch the
/// surviving parts' mirror records, re-pin the rebuilt parts to their
/// buddy ranks and verify() the result. Throws kValidation when no rank is
/// dead or a dead part has no replica anywhere; propagates verify()
/// failures. On return the mesh is fully operational on the surviving
/// ranks.
EvacuationReport evacuate(PartedMesh& pm, const BuddyJournal& journal,
                          const std::string& checkpoint_dir = "");

/// The rank adopting dead rank `r`'s parts: the next rank cyclically that
/// is not in `dead`. Throws kValidation when every rank is dead.
int buddyOf(int r, int nranks, const std::vector<int>& dead);

}  // namespace failover
}  // namespace dist

#endif  // PUMI_DIST_FAILOVER_HPP
