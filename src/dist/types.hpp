#ifndef PUMI_DIST_TYPES_HPP
#define PUMI_DIST_TYPES_HPP

/// \file types.hpp
/// \brief Basic vocabulary of the distributed mesh: part ids, global entity
/// keys, remote-copy records, ownership rules.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/entity.hpp"

namespace dist {

/// Part identifier P_i, 0 <= i < part count (paper Sec. II-A).
using PartId = std::int32_t;

/// A globally unique name for a mesh entity during one distributed
/// operation: the handle of its copy on its owning part. Keys are only
/// stable between ownership changes, so distributed operations rebuild
/// their key maps on entry.
struct GKey {
  PartId part = -1;
  core::Ent ent;

  friend bool operator==(const GKey& a, const GKey& b) {
    return a.part == b.part && a.ent == b.ent;
  }
  friend bool operator<(const GKey& a, const GKey& b) {
    if (a.part != b.part) return a.part < b.part;
    return a.ent < b.ent;
  }
};

struct GKeyHash {
  std::size_t operator()(const GKey& k) const {
    const std::uint64_t mix =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.part)) << 40) ^
        k.ent.packed();
    std::uint64_t z = mix + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// One remote copy of a part-boundary entity.
struct Copy {
  PartId part = -1;
  core::Ent ent;
  friend bool operator==(const Copy& a, const Copy& b) {
    return a.part == b.part && a.ent == b.ent;
  }
};

/// Parallel metadata of a part-boundary entity as stored by one part:
/// copies on all *other* parts plus the owning part id. Interior entities
/// have no record (implicitly: no copies, owner = resident part).
struct Remote {
  std::vector<Copy> copies;  ///< copies on other parts, sorted by part id
  PartId owner = -1;
};

/// The canonical key of entity `e` of part `self`, given its remote record
/// `r` (nullptr for an interior entity): the owner copy's part and handle.
inline GKey keyOf(PartId self, core::Ent e, const Remote* r) {
  if (r == nullptr || r->owner == self) return GKey{self, e};
  for (const Copy& c : r->copies)
    if (c.part == r->owner) return GKey{c.part, c.ent};
  throw std::logic_error("keyOf: owner copy not found in remote list");
}

/// How the owning part of a shared entity is chosen (paper II-A: "one part
/// is designated as owning part").
enum class OwnerRule {
  MinPartId,   ///< lowest part id in the residence set (FMDB default)
  LeastLoaded, ///< resident part currently holding the fewest elements
};

}  // namespace dist

#endif  // PUMI_DIST_TYPES_HPP
