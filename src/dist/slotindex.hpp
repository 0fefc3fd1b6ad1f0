#ifndef PUMI_DIST_SLOTINDEX_HPP
#define PUMI_DIST_SLOTINDEX_HPP

/// \file slotindex.hpp
/// \brief Slot-indexed view of an Ent-keyed table. Internal to the dist
/// module.
///
/// The per-entity loops of verify() and ghosting ask a part's remote and
/// ghost tables about every entity they visit, several times each. A
/// SlotIndex reads the table once into one pointer per pool slot, so each
/// of those questions is an array load instead of a hash probe.

#include <array>
#include <cstddef>
#include <vector>

#include "core/mesh.hpp"

namespace dist {

template <class V>
class SlotIndex {
 public:
  /// Point every pool slot of `mesh` at its entry in `table` (a map from
  /// Ent to V). A key no slot of `mesh` can hold is left out: find() never
  /// returns it. Any earlier view is dropped; row storage is reused.
  template <class Map>
  void build(const core::Mesh& mesh, const Map& table) {
    for (auto& row : rows_) row.clear();
    for (const auto& [e, v] : table) {
      const auto t = static_cast<std::size_t>(e.topo());
      if (t >= rows_.size() || e.index() >= mesh.slots(e.topo())) continue;
      auto& row = rows_[t];
      if (row.empty()) row.assign(mesh.slots(e.topo()), nullptr);
      row[e.index()] = &v;
    }
  }

  /// The entry of `e`, or nullptr.
  [[nodiscard]] const V* find(core::Ent e) const {
    const auto& row = rows_[static_cast<std::size_t>(e.topo())];
    return e.index() < row.size() ? row[e.index()] : nullptr;
  }

 private:
  std::array<std::vector<const V*>, core::kTopoCount> rows_;
};

}  // namespace dist

#endif  // PUMI_DIST_SLOTINDEX_HPP
