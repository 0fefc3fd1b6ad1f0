#ifndef PUMI_DIST_PARTIO_HPP
#define PUMI_DIST_PARTIO_HPP

/// \file partio.hpp
/// \brief Shared (de)serialization of one part's parallel state.
///
/// Every durability layer serializes a part the same way: a serial mesh
/// stream (core::meshToBytes) plus a metadata stream holding the
/// part-boundary and ghost records with cross-part entity references as
/// (dim, ordinal) pairs — the entity's position in its part's
/// entities(dim) iteration order, which the mesh stream format preserves.
/// pario.cpp writes these streams into checkpoint images; failover.cpp
/// streams them to a buddy rank's journal. This header is the single home
/// of the format and of its one decoder, rebuildParts, which pario's
/// restore, armor repair (tiers 2 and 3) and failover evacuation all call
/// — so every layer consumes every other's bytes (evacuation and repair
/// fall back to the newest checkpoint for parts the journal lacks or holds
/// only a copy failing its CRC).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/partedmesh.hpp"

namespace dist {

/// Private-state backdoor for (de)serialization: checkpointing and
/// rebuilding must read and rebuild the ghost maps, the cached element
/// dimension, and wipe a part in place — none of which should grow public
/// mutators for these internal uses.
struct CheckpointAccess {
  static const common::FlatMap<Ent, Copy, EntHash>& ghostSource(
      const Part& p) {
    return p.ghost_source_;
  }
  static const common::FlatMap<Ent, std::vector<Copy>, EntHash>& ghostedOn(
      const Part& p) {
    return p.ghosted_on_;
  }
  static void setGhost(Part& p, Ent ghost, Copy source) {
    p.ghost_source_[ghost] = source;
    p.touchTables();
  }
  static void setGhostedOn(Part& p, Ent real, std::vector<Copy> copies) {
    p.ghosted_on_[real] = std::move(copies);
    p.touchTables();
  }
  static void setDim(PartedMesh& pm, int dim) { pm.dim_ = dim; }
  /// Replace `p`'s mesh with `content` and drop every boundary/ghost
  /// record — the first step of rebuilding a dead rank's part in place.
  static void resetPart(Part& p, const core::Mesh& content) {
    p.mesh_.copyFrom(content);
    p.remotes_.clear();
    p.ghost_source_.clear();
    p.ghosted_on_.clear();
    p.touchTables();
  }
};

namespace partio {

/// Run fn(0..n-1) on up to 16 worker threads (inline when n <= 1). Each
/// worker inherits the caller's ambient fault domain (DomainScope is
/// thread-local), so a tenant's storage chaos plan follows its I/O onto
/// the pool. Every index runs; once all workers drain, the exception of
/// the lowest failing index is rethrown, so which error surfaces does not
/// depend on scheduling.
void parallelFor(int n, const std::function<void(int)>& fn);

/// Magic word of the part metadata stream ("PUMCPKP1").
inline constexpr std::uint64_t kMetaMagic = 0x50554d43504b5031ull;

/// Cross-restart entity reference: (dim << 48) | ordinal, where ordinal is
/// the entity's position in its part's entities(dim) iteration order.
/// meshToBytes/meshFromBytes preserve that order, so references stay valid
/// after the handle rebuild on restore/evacuation.
constexpr std::uint64_t entref(int dim, std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(dim) << 48) | ordinal;
}

/// entity -> entref for every entity of one mesh: one dense array per
/// topology indexed by Ent::index(), so a lookup is two loads instead of a
/// hash probe (buildMeta resolves every boundary and ghost record through
/// it at every journal refresh and checkpoint).
class OrdinalMap {
 public:
  /// The entref of `e`; throws std::out_of_range when `e` is not a live
  /// entity of the mapped mesh.
  [[nodiscard]] std::uint64_t at(Ent e) const {
    const auto t = static_cast<std::size_t>(e.topo());
    if (t >= refs_.size() || e.index() >= refs_[t].size() ||
        refs_[t][e.index()] == kAbsent)
      throw std::out_of_range("partio::OrdinalMap: entity not in the mesh");
    return refs_[t][e.index()];
  }

 private:
  friend OrdinalMap buildOrdinals(const core::Mesh& m);
  static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
  std::array<std::vector<std::uint64_t>, core::kTopoCount> refs_;
};

/// entity -> entref for every entity of `m`, in one pass over its pools.
OrdinalMap buildOrdinals(const core::Mesh& m);

/// Visit every entry of an Ent-keyed table in ascending Ent::packed()
/// order, with one pass over the table and one over `m`'s pool slots
/// instead of a sort. packed() is (topo << 32) | index and topologies are
/// grouped by dimension, so for live keys this is also entref (ordinal)
/// order. A key no pool slot of `m` can hold — an index at or past
/// slots(topo), or a topology code past the enum — is never written into a
/// slot row: such keys are sorted among themselves and visited at their
/// place in handle order, so the walk equals a sort by handle for any
/// table contents.
template <class Map, class F>
void forEachInSlotOrder(const core::Mesh& m, Map& table, F&& f) {
  using Entry = std::remove_reference_t<decltype(*table.begin())>;
  std::array<std::vector<Entry*>, core::kTopoCount> rows;
  std::vector<Entry*> stray;
  for (Entry& kv : table) {
    const Ent e = kv.first;
    const auto t = static_cast<std::size_t>(e.topo());
    if (t < rows.size() && e.index() < m.slots(e.topo())) {
      auto& row = rows[t];
      if (row.empty()) row.assign(m.slots(e.topo()), nullptr);
      row[e.index()] = &kv;
    } else {
      stray.push_back(&kv);
    }
  }
  std::sort(stray.begin(), stray.end(), [](const Entry* a, const Entry* b) {
    return a->first.packed() < b->first.packed();
  });
  auto next = stray.begin();
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (Entry* kv : rows[t])
      if (kv != nullptr) f(*kv);
    for (; next != stray.end() &&
           static_cast<std::size_t>((*next)->first.topo()) == t;
         ++next)
      f(**next);
  }
  for (; next != stray.end(); ++next) f(**next);
}

/// Bounds-checked (part, entref) -> entity lookup over every part's
/// (re)built mesh: the inverse of buildOrdinals, and the one way a
/// metadata stream's references become live handles.
class EntResolver {
 public:
  explicit EntResolver(int nparts)
      : tables_(static_cast<std::size_t>(nparts)) {}

  /// Index part `p`'s mesh. Distinct parts may be indexed concurrently.
  void index(PartId p, const core::Mesh& m);

  /// The entity `ref` names in part `part`. Throws pcu::Error(kValidation)
  /// naming `ctx` when `part` is out of range or the reference is absent
  /// from that part's indexed mesh.
  [[nodiscard]] Ent at(PartId part, std::uint64_t ref,
                       const std::string& ctx) const;

 private:
  std::vector<std::vector<std::vector<Ent>>> tables_;  // [part][dim][ordinal]
};

/// Serialize one part's boundary/ghost records. All three maps are written
/// in entity reference order (a slot-order walk, forEachInSlotOrder) so
/// the byte stream (and therefore its CRC) is deterministic. `ord` is this
/// part's ordinal map; `all` holds every part's (for cross-part
/// references). A record keyed by an entity not live in the part's mesh
/// throws std::out_of_range (OrdinalMap::at).
std::vector<std::byte> buildMeta(const Part& p, const OrdinalMap& ord,
                                 const std::vector<OrdinalMap>& all);

/// Parse a buildMeta stream and install the records into `part`, resolving
/// each (part, entref) through `ents`. Throws pcu::Error(kValidation)
/// naming `ctx` on malformed input.
///
/// When `lost` (sorted part ids) is not empty (pario, OnLoss::kPartial),
/// those parts no longer exist, so their records are filtered out
/// symmetrically on every surviving part instead of installed:
///  - remote copies on lost parts are dropped; a record whose copies all
///    vanished is skipped (the entity became interior);
///  - a lost owner is deterministically reassigned to the minimum
///    surviving part of the entity's residence set, so every survivor
///    computes the same owner without communicating;
///  - NO ghost records are installed. Ghost sources (and ghost-copy
///    back-pointers) may name lost parts, and a dangling ghost cannot
///    satisfy verify()'s ghost invariants — instead every ghost entity is
///    destroyed (descending dimension, exactly like unghost()).
/// A lost part's references are never resolved.
void applyMeta(Part& part, PartId p, std::vector<std::byte> meta,
               const EntResolver& ents, const std::string& ctx,
               const std::vector<PartId>& lost = {});

/// One part's replica: the two partio streams it is rebuilt from.
struct Replica {
  PartId part = -1;
  std::vector<std::byte> mesh;
  std::vector<std::byte> meta;
};

/// Rebuild the replicas' parts of `pm` in place — the one decoder of part
/// streams, shared by checkpoint restore, armor repair and failover
/// evacuation:
///  1. decode every mesh stream, before any part is wiped;
///  2. reset each part to its decoded mesh;
///  3. install each part's metadata, resolving references against every
///     part's current mesh (survivors must hold the state the replicas
///     recorded ordinals of), filtering the `lost` parts as applyMeta
///     documents;
///  4. patch the mirror records of parts outside the set through copy
///     symmetry: their stored handles into a rebuilt part died with its
///     old mesh, but the rebuilt records name the same links from the
///     other end.
/// Steps 1–3 run per part on parallelFor's workers; step 4 is serial.
/// Errors name `ctx` and the part ("<ctx>: part 3 replica ..."). A stale
/// replica throws pcu::Error(kValidation) after its part was wiped.
void rebuildParts(PartedMesh& pm, std::vector<Replica> replicas,
                  const std::string& ctx,
                  const std::vector<PartId>& lost = {});

}  // namespace partio
}  // namespace dist

#endif  // PUMI_DIST_PARTIO_HPP
