#ifndef PUMI_DIST_PARTEDMESH_HPP
#define PUMI_DIST_PARTEDMESH_HPP

/// \file partedmesh.hpp
/// \brief The distributed mesh: parts, part boundaries, ownership,
/// migration and ghosting (paper Secs. II-A..II-C).
///
/// A PartedMesh holds N parts. Each part is a serial mesh (core::Mesh) plus
/// the parallel metadata of its part-boundary entities: the remote copies
/// on other parts and the owning part. Residence follows the paper's rule:
/// an entity resides on exactly the parts of its adjacent elements. All
/// distributed operations (migration, ghosting) are implemented as
/// bulk-synchronous message exchanges over dist::Network, whose machine
/// model classifies traffic on-node vs off-node (two-level design,
/// Figs. 5-6). "Multiple parts per process" is first-class: every part
/// lives in this process; addPart() grows the part set dynamically.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flatmap.hpp"
#include "core/mesh.hpp"
#include "dist/network.hpp"
#include "dist/types.hpp"

namespace gmi {
class Model;
}

namespace dist {

using core::Ent;
using core::EntHash;

namespace integrity {
class Armor;
}
class Plan;

/// Element-migration plan: for each part (by index), the elements leaving
/// it and their destination parts. Elements not listed stay. Open-addressing
/// tables (common::FlatMap): plan application probes these once per adjacent
/// element on the migration hot path.
using MigrationPlan = std::vector<common::FlatMap<Ent, PartId, EntHash>>;

class PartedMesh;

/// One part: a serial mesh plus part-boundary metadata.
class Part {
 public:
  Part(PartId id, gmi::Model* model) : id_(id), mesh_(model) {}
  Part(const Part&) = delete;
  Part& operator=(const Part&) = delete;

  [[nodiscard]] PartId id() const { return id_; }
  [[nodiscard]] core::Mesh& mesh() { return mesh_; }
  [[nodiscard]] const core::Mesh& mesh() const { return mesh_; }

  /// --- part boundary metadata (paper II-B) ----------------------------

  /// True when the entity is duplicated on other parts.
  [[nodiscard]] bool isShared(Ent e) const { return remotes_.count(e) > 0; }
  /// The owning part imbues the right to modify the entity (paper II-A).
  [[nodiscard]] PartId ownerOf(Ent e) const {
    auto it = remotes_.find(e);
    return it == remotes_.end() ? id_ : it->second.owner;
  }
  [[nodiscard]] bool isOwned(Ent e) const { return ownerOf(e) == id_; }
  /// Remote copies (excluding this part); nullptr for interior entities.
  [[nodiscard]] const Remote* remote(Ent e) const {
    auto it = remotes_.find(e);
    return it == remotes_.end() ? nullptr : &it->second;
  }
  /// All part-boundary entities with their remote records (iteration order
  /// is unspecified; callers needing determinism must sort).
  [[nodiscard]] const common::FlatMap<Ent, Remote, EntHash>& remotes() const {
    return remotes_;
  }

  /// --- low-level boundary-record mutators -----------------------------
  /// For distributed algorithms (parallel adaptation) that create new
  /// part-boundary entities and must register their links. Misuse breaks
  /// the invariants verify() checks; normal users never call these.
  void setRemote(Ent e, Remote r) {
    remotes_[e] = std::move(r);
    touchTables();
  }
  void eraseRemote(Ent e) {
    if (remotes_.erase(e) > 0) touchTables();
  }
  /// Drop records whose entity has been destroyed (after local mesh
  /// modification).
  void sweepDeadRemotes() {
    for (auto it = remotes_.begin(); it != remotes_.end();) {
      if (!mesh_.alive(it->first)) {
        it = remotes_.erase(it);
        touchTables();
      } else {
        ++it;
      }
    }
  }

  /// --- version stamps ---------------------------------------------------

  /// Version of the boundary and ghost tables (remote records, ghost
  /// sources, tracked ghost copies). Every legitimate mutation draws a
  /// fresh value from a process-wide monotone counter (like
  /// TagBase::version()), so an unchanged version proves no legitimate
  /// write happened since it was observed; the armor and the buddy journal
  /// skip re-serializing tables whose version did not move. Writes through
  /// the armor's memory-fault injector deliberately do not bump it.
  [[nodiscard]] std::uint64_t tableVersion() const { return table_version_; }
  /// Process-wide unique id of this Part object. Mesh version counters are
  /// per object and restart in a re-added part, so stamps that must never
  /// repeat for different content key on (generation, mesh versions).
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Residence part set: this part plus every part with a copy, sorted.
  [[nodiscard]] std::vector<PartId> residence(Ent e) const;

  /// --- ghosts (paper II-C) --------------------------------------------

  /// True for read-only off-part copies localized by ghosting.
  [[nodiscard]] bool isGhost(Ent e) const { return ghost_source_.count(e) > 0; }
  /// The real copy this ghost mirrors.
  [[nodiscard]] Copy ghostSource(Ent e) const { return ghost_source_.at(e); }
  /// Ghost copies of a local real entity on other parts (tracked by the
  /// owner for tag synchronization).
  [[nodiscard]] const std::vector<Copy>* ghostCopies(Ent e) const {
    auto it = ghosted_on_.find(e);
    return it == ghosted_on_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t ghostCount() const { return ghost_source_.size(); }

  /// --- counts & iteration ----------------------------------------------

  /// Non-ghost entities of dimension d on this part.
  [[nodiscard]] std::size_t countLocal(int d) const;
  /// Entities of dimension d owned by this part (excludes ghosts and
  /// remote-owned boundary copies).
  [[nodiscard]] std::size_t countOwned(int d) const;
  /// Non-ghost elements (entities of the mesh's element dimension).
  [[nodiscard]] std::vector<Ent> elements() const;
  [[nodiscard]] std::size_t elementCount() const;
  /// Non-ghost entities of dimension d.
  [[nodiscard]] std::vector<Ent> locals(int d) const;

  /// Parts sharing at least one d-dimensional boundary entity with this
  /// part (paper II-D: "neighboring part recognition"), sorted.
  [[nodiscard]] std::vector<PartId> neighborParts(int d) const;

 private:
  friend class PartedMesh;
  friend struct CheckpointAccess;  ///< partio (de)serializes the maps
  friend class integrity::Armor;   ///< memory-fault spans
  friend class Plan;               ///< lanes from the ghost tables
  /// Draw a new table version (after any write to the three tables).
  void touchTables() { table_version_ = nextStamp(); }
  static std::uint64_t nextStamp();

  PartId id_;
  std::uint64_t generation_ = nextStamp();
  std::uint64_t table_version_ = nextStamp();
  core::Mesh mesh_;
  // Open-addressing tables (SIMD-probed; see common/flatmap.hpp): the
  // remote/ghost lookups these serve are the per-entity inner loops of
  // migration, ghosting and tag sync.
  common::FlatMap<Ent, Remote, EntHash> remotes_;
  common::FlatMap<Ent, Copy, EntHash> ghost_source_;
  common::FlatMap<Ent, std::vector<Copy>, EntHash> ghosted_on_;
};

/// keyOf() of entity `e` of part `p`, through its remote record.
inline GKey keyOf(const Part& p, Ent e) {
  return keyOf(p.id(), e, p.remote(e));
}

/// The distributed mesh.
class PartedMesh {
 public:
  /// Create an empty parted mesh (parts filled by migration from a peer or
  /// by distribute()).
  PartedMesh(gmi::Model* model, int nparts, PartMap map,
             OwnerRule rule = OwnerRule::MinPartId);
  ~PartedMesh();  ///< out of line: armor_ holds an incomplete type here

  /// Split a serial mesh into parts: element i (in iteration order of
  /// serial.entities(dim)) goes to part elem_dest[i]. The serial mesh is
  /// left untouched; classification pointers are shared with it.
  static std::unique_ptr<PartedMesh> distribute(
      const core::Mesh& serial, gmi::Model* model,
      const std::vector<PartId>& elem_dest, PartMap map,
      OwnerRule rule = OwnerRule::MinPartId);

  [[nodiscard]] int parts() const { return static_cast<int>(parts_.size()); }
  [[nodiscard]] Part& part(PartId p) { return *parts_.at(static_cast<std::size_t>(p)); }
  [[nodiscard]] const Part& part(PartId p) const {
    return *parts_.at(static_cast<std::size_t>(p));
  }
  [[nodiscard]] gmi::Model* model() const { return model_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const Network& network() const { return net_; }
  [[nodiscard]] OwnerRule ownerRule() const { return rule_; }

  /// Element dimension (3 for tet/hex meshes, 2 for tri/quad meshes).
  [[nodiscard]] int dim() const { return dim_; }

  /// Add an empty part (dynamic part count: local splitting, heavy part
  /// splitting). Returns the new part's id.
  PartId addPart();

  /// Total owned entities of dimension d across parts (each entity counted
  /// once, on its owner).
  [[nodiscard]] std::size_t globalCount(int d) const;

  /// --- distributed operations -------------------------------------------

  /// Migrate elements per the plan, maintaining part boundaries, remote
  /// copies, ownership and transportable tags. Requires no ghosts.
  void migrate(const MigrationPlan& plan);

  /// Localize `layers` layers of off-part elements adjacent (through
  /// vertices) to each part boundary as read-only ghost copies, including
  /// their closure and transportable tags.
  void ghostLayers(int layers = 1);

  /// Remove all ghost entities. Not transactional, but a commit point when
  /// the integrity armor is active (audit on entry, seal on exit).
  void unghost();

  /// Re-send transportable tag values of ghosted entities from their real
  /// copy to every ghost copy (ghosts are read-only: updates flow one way).
  void syncGhostTags();

  /// Push transportable tag values of every owned shared entity from the
  /// owner to all remote copies (the owner imbues the right to modify; this
  /// re-establishes agreement after owner-side updates, e.g. field
  /// assembly on part boundaries). When `only` is non-empty, restrict to
  /// the tag of that name.
  void syncSharedTags(const std::string& only = "");

  /// Validate all distributed invariants (copy symmetry, ownership
  /// agreement, residence rule, coordinate/classification agreement,
  /// ghost link symmetry, ghost-map consistency). Throws std::logic_error
  /// naming the failed invariant with part/entity context.
  void verify() const;

  /// --- transactional execution ------------------------------------------
  /// When transactional mode is on (or a fault plan is active,
  /// pcu::faults::enabled()), every distributed operation above runs as a
  /// transaction: the per-part state it may write is snapshotted up front,
  /// verify() gates the commit, and any failure — injected fault,
  /// validation error, broken invariant — rolls the mesh back
  /// bit-identically to its pre-op state (fingerprint()-equal), resets the
  /// transport, and rethrows a structured pcu::Error.
  ///  - migrate() and ghostLayers() snapshot each part's flat mesh image
  ///    (core::Mesh::Image) and its boundary and ghost tables.
  ///  - syncGhostTags() and syncSharedTags() write tag values only: they
  ///    snapshot each part's tag registry alone, and an abort restores it
  ///    without moving any topology or table version.
  ///  - The commit gate skips verify() when nothing it reads has moved
  ///    since the last passing gate: same part count and dim, and per part
  ///    the same generation, topoVersion, dataVersion and tableVersion. Any
  ///    moved stamp runs verify() in full; an abort forgets the memo. The
  ///    public verify() always runs in full.
  /// Nesting rule: an operation called while a transaction on this mesh is
  /// open joins it. It runs inline, with no audit, snapshot, commit gate,
  /// seal or retry of its own; a throw propagates to the enclosing
  /// transaction, which rolls the whole of it back.
  /// Caveat: rollback re-creates tag storage, so cached Tag pointers must
  /// be re-find()-ed by name afterwards.
  void setTransactional(bool on) { transactional_ = on; }
  [[nodiscard]] bool transactional() const { return transactional_; }

  /// Run `body` as one operation named `opname` (e.g. "parma:round") under
  /// the protocol above: one armor audit on entry, one snapshot, one commit
  /// gate and one seal on exit, and on failure a rollback of everything
  /// `body` wrote. The distributed operations `body` calls join it, so the
  /// whole of `body` is one commit point.
  void transaction(const char* opname, const std::function<void()>& body) {
    runTransactional(opname, body);
  }

  /// How many times an aborted transactional operation is automatically
  /// replayed (rollback, fault-epoch bump, re-run) before its error
  /// propagates. -1 (default) = automatic: use the PUMI_RELIABLE
  /// `opretries` budget when reliable mode is on, else 0 (historical
  /// abort-on-first-failure). kValidation errors are never retried.
  void setOpRetries(int n) { op_retries_ = n; }
  [[nodiscard]] int opRetries() const { return op_retries_; }
  /// Total operation replays performed by the retry loop so far.
  [[nodiscard]] std::uint64_t opsRetried() const { return ops_retried_; }

  /// Deterministic digest of the full distributed state (entities, coords,
  /// classification, remote/ghost records, tag payloads). Equal before and
  /// after an aborted transaction; valid for comparisons within one
  /// process run.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// --- silent-corruption armor (dist/integrity.hpp) ---------------------
  /// When integrity is active, every transactional commit point audits the
  /// per-part checksum ledgers, repairs what it can (buddy-journal
  /// refetch, checkpoint restore) and reseals, so a flipped bit in
  /// live state is caught at the next boundary instead of propagating into
  /// checkpoints and journals. Activation: setIntegrity(true)/false to
  /// force, else on when a memflip fault plan is armed
  /// (pcu::faults::memEnabled()) or PUMI_INTEGRITY=1 is set.
  void setIntegrity(bool on) { integrity_override_ = on ? 1 : 0; }
  [[nodiscard]] bool integrityEnabled() const;
  /// The armor, created on first use (regardless of integrityEnabled();
  /// explicit callers configure and drive it directly).
  [[nodiscard]] integrity::Armor& armor();
  /// The armor when integrity is active, else nullptr. Lazily created.
  /// This is the hook runTransactional and the balancing/service layers
  /// poll at their boundaries.
  [[nodiscard]] integrity::Armor* armorIfActive();

 private:
  friend struct CheckpointAccess;  ///< pario restore sets dim_
  struct Rollback;
  /// What a transactional operation may write, which sets what its
  /// snapshot holds.
  enum class Writes { kAll, kTagValues };
  /// Run `body` under the transactional protocol described at
  /// setTransactional(); plain pass-through when inactive, inline when a
  /// transaction is already open.
  void runTransactional(const char* opname, const std::function<void()>& body,
                        Writes writes = Writes::kAll);
  /// The commit gate: verify(), unless no stamp it reads moved since the
  /// last passing gate.
  void commitGate();
  /// Part count, dim, then per part generation, topo/data/table versions.
  [[nodiscard]] std::vector<std::uint64_t> gateStamps() const;
  /// Migration phases A0..D (migrate() validates, then runs this
  /// transactionally).
  void migrateBody(const MigrationPlan& plan);
  void ghostLayersBody(int layers);
  /// Send every root's transportable tag values (only the tag `only` when
  /// that is non-empty) to its leaves on `plan`: one payload per lane.
  void bcastTags(const Plan& plan, const std::string& only);

  gmi::Model* model_;
  PartMap map_;
  Network net_;
  OwnerRule rule_;
  int dim_ = -1;
  bool transactional_ = false;
  /// A transaction on this mesh is open (runTransactional is running).
  bool open_ = false;
  int op_retries_ = -1;
  std::uint64_t ops_retried_ = 0;
  int integrity_override_ = -1;  ///< -1 auto (env/fault plan), 0 off, 1 on
  std::unique_ptr<integrity::Armor> armor_;
  std::vector<std::unique_ptr<Part>> parts_;
  /// Per-part rollback images, reused from one transaction to the next.
  std::vector<Rollback> rollback_;
  /// gateStamps() at the last passing commit gate; empty when none.
  std::vector<std::uint64_t> gate_stamps_;
};

}  // namespace dist

#endif  // PUMI_DIST_PARTEDMESH_HPP
