#ifndef PUMI_DIST_CREATION_HPP
#define PUMI_DIST_CREATION_HPP

/// \file creation.hpp
/// \brief The creation record: how ghosting and migration ship one entity
/// to a part that lacks it. Internal to the dist module.
///
/// A record names the entity by its canonical key, then carries what the
/// receiver needs to create it without searching its mesh: the canonical
/// vertices and the one-level boundary, each as a reference the receiver
/// resolves through its key map. Senders ship boundaries first (ghost
/// closures in ascending dimension order, migration one round per
/// dimension), so every reference names an entity the receiver already
/// holds; one that does not resolve is a protocol error.
///
/// Wire layout (pcu::OutBuffer packing):
///
///     key     i32 part, u64 handle     owner-copy key of the entity
///     topo    u8                       core::Topo code
///     cls     i32 dim, i32 tag         model classification (-1: none)
///     vertex: 3 x f64                  coordinates
///     other:  u8 nv, nv refs           canonical vertices, template order
///             u8 nb, nb refs           one-level boundary, template order
///                                      (nb = 0 for an edge: its vertices
///                                      are its boundary)
///     tags    core::TagPlan record
///
///     ref  := i32 part (>= 0), u64 handle   a full key
///           | i32 -1, u32 ordinal           an earlier record of the
///                                           same payload

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/flatmap.hpp"
#include "core/mesh.hpp"
#include "core/tagio.hpp"
#include "dist/network.hpp"
#include "dist/types.hpp"
#include "gmi/model.hpp"
#include "pcu/buffer.hpp"

namespace dist {
class PartedMesh;
}

namespace dist::creation {

using core::Ent;

/// One part's canonical key -> local handle table (remote-owned shared
/// entities plus entities created during the current operation).
using KeyMap = common::FlatMap<GKey, Ent, GKeyHash>;

/// Every part's KeyMap of its remote-owned shared entities, by part.
[[nodiscard]] std::vector<KeyMap> keyMaps(const PartedMesh& pm);

/// Ordinal of "no earlier record in this payload".
inline constexpr std::uint32_t kNoOrdinal = 0xffffffffu;

/// Fewest bytes a record occupies: key, topology, classification and an
/// empty tag record's count. Bounds a record count by the bytes left.
inline constexpr std::size_t kMinRecordBytes =
    sizeof(std::int32_t) + sizeof(std::uint64_t) + sizeof(std::uint8_t) +
    2 * sizeof(std::int32_t) + sizeof(std::uint32_t);

/// One entity a record refers to: an earlier record of the same payload
/// when `ordinal` is set, else the full key.
struct Ref {
  GKey key;
  std::uint32_t ordinal = kNoOrdinal;
};

/// A decoded record. Its tag values are left unread in the buffer.
struct Record {
  GKey key;
  core::Topo topo = core::Topo::Vertex;
  std::int32_t cls_dim = -1;
  std::int32_t cls_tag = -1;
  common::Vec3 x;  ///< vertices only
  int nv = 0;
  int nb = 0;
  std::array<Ref, 8> verts{};
  std::array<Ref, core::kMaxDown> down{};
};

/// Boundary references a record of type `t` carries: its one-level
/// boundary count for faces and regions, 0 for vertices and edges.
[[nodiscard]] int boundaryRefs(core::Topo t);

/// Write the record of entity `e` of `mesh` up to its tag values, one
/// value at a time through `put(const T&)`. `keyOf(Ent) -> GKey` names any
/// entity canonically; `ordinalOf(Ent) -> std::uint32_t` returns the record
/// ordinal of an entity travelling earlier in the same payload, or
/// kNoOrdinal. The one definition of the layout above: pack() appends to an
/// OutBuffer through it, and a summing `put` sizes a record.
template <typename Put, typename KeyOf, typename OrdinalOf>
void writeRecord(Put&& put, const core::Mesh& mesh, Ent e, KeyOf&& keyOf,
                 OrdinalOf&& ordinalOf) {
  auto putKey = [&](const GKey& k) {
    put(std::int32_t{k.part});
    put(k.ent.packed());
  };
  auto putRef = [&](Ent x) {
    const std::uint32_t ord = ordinalOf(x);
    if (ord != kNoOrdinal) {
      put(std::int32_t{-1});
      put(ord);
    } else {
      putKey(keyOf(x));
    }
  };
  putKey(keyOf(e));
  put(static_cast<std::uint8_t>(e.topo()));
  gmi::Entity* cls = mesh.classification(e);
  put(std::int32_t{cls ? cls->dim() : -1});
  put(std::int32_t{cls ? cls->tag() : -1});
  if (e.topo() == core::Topo::Vertex) {
    put(mesh.point(e));
  } else {
    const auto vs = mesh.verts(e);
    put(static_cast<std::uint8_t>(vs.size()));
    for (Ent v : vs) putRef(v);
    const int nb = boundaryRefs(e.topo());
    put(static_cast<std::uint8_t>(nb));
    if (nb > 0) {
      std::array<Ent, core::kMaxDown> down{};
      mesh.downward(e, core::topoDim(e.topo()) - 1, down.data());
      for (int k = 0; k < nb; ++k) putRef(down[static_cast<std::size_t>(k)]);
    }
  }
}

/// Append the record of entity `e` of `mesh` (writeRecord, then its tag
/// values).
template <typename KeyOf, typename OrdinalOf>
void pack(pcu::OutBuffer& b, const core::Mesh& mesh,
          const core::TagPlan& tags, Ent e, KeyOf&& keyOf,
          OrdinalOf&& ordinalOf) {
  writeRecord([&b](const auto& v) { b.pack(v); }, mesh, e, keyOf, ordinalOf);
  tags.pack(e, b);
}

/// Decode one record up to its tag values. A malformed record — a
/// topology code out of range, a vertex or boundary count that does not
/// match the topology, a bad reference tag, a truncated body — throws
/// pcu::Error(kProtocol) naming `part`, the receiving part.
[[nodiscard]] Record decode(pcu::InBuffer& b, PartId part);

/// Create the entity record `r` describes on part `part`'s `mesh`:
/// references resolve through `keys` (a key owned by `part` names its own
/// handle) or, by ordinal, through `earlier` — the local handles of this
/// payload's earlier records. An unresolved reference, or one naming an
/// entity of the wrong type, throws pcu::Error(kProtocol).
Ent create(core::Mesh& mesh, const Record& r, PartId part, const KeyMap& keys,
           std::span<const Ent> earlier, gmi::Model* model);

/// A receiver's answer to one entity it created: the owner's handle and
/// the new local one.
struct Reply {
  PartId owner = -1;
  Ent real;
  Ent local;
};

/// Post every part's replies (replies[p] lists part p's, in creation
/// order) as one payload per (receiver, owner) pair, keeping creation
/// order within each payload, then clear them.
void postReplies(Network& net, std::vector<std::vector<Reply>>& replies);

/// A remote record in flight: how an owner tells one copy its entity's
/// owning part and every copy (the receiver's own included).
///
///     u64 handle, i32 owner, u32 n, n x (i32 part, u64 handle)
void writeRemote(pcu::OutBuffer& b, Ent local, PartId owner,
                 std::span<const Copy> copies);

/// Read one record writeRemote wrote, on part `part`: the receiver's
/// entity and its Remote (the copies on other parts).
[[nodiscard]] std::pair<Ent, Remote> readRemote(pcu::InBuffer& b,
                                                PartId part);

/// Read one payload postReplies wrote, calling fn(real, local) per reply
/// in creation order.
template <typename Fn>
void readReplies(pcu::InBuffer& body, Fn&& fn) {
  while (!body.done()) {
    const Ent real = Ent::unpack(body.unpack<std::uint64_t>());
    const Ent local = Ent::unpack(body.unpack<std::uint64_t>());
    fn(real, local);
  }
}

}  // namespace dist::creation

#endif  // PUMI_DIST_CREATION_HPP
