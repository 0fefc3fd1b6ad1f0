#ifndef PUMI_DIST_KEYMAPS_IMPL_HPP
#define PUMI_DIST_KEYMAPS_IMPL_HPP

/// \file keymaps_impl.hpp
/// \brief Shared internal definition of PartedMesh::KeyMaps, the per-part
/// canonical-key -> local-handle resolution tables used by migration and
/// ghosting. Internal to the dist module.

#include <vector>

#include "dist/creation.hpp"
#include "dist/partedmesh.hpp"

namespace dist {

struct PartedMesh::KeyMaps {
  /// Per part: canonical key -> local handle, for remote-owned shared
  /// entities plus entities created during the current operation.
  /// SIMD-probed open addressing: creation::create() probes it once per
  /// vertex and boundary reference of every creation record on the
  /// migration/ghosting hot path.
  std::vector<creation::KeyMap> by_key;
};

}  // namespace dist

#endif  // PUMI_DIST_KEYMAPS_IMPL_HPP
