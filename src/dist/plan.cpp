#include "dist/plan.hpp"

#include <cstdint>
#include <tuple>

#include "dist/partedmesh.hpp"

namespace dist {

namespace {

/// One item of a part's side of a lane: the part at the other end, the
/// root's handle and this part's entity.
using Slot = std::tuple<PartId, std::uint64_t, Ent>;

/// Lay `slots` out as lanes: by peer, each in root-handle order.
std::vector<Plan::Lane> lanesOf(std::vector<Slot>& slots) {
  std::sort(slots.begin(), slots.end());
  std::vector<Plan::Lane> lanes;
  for (const auto& [peer, root, item] : slots) {
    if (lanes.empty() || lanes.back().peer != peer)
      lanes.push_back({peer, {}});
    lanes.back().items.push_back(item);
  }
  return lanes;
}

}  // namespace

/// `slots(part, roots, leaves)` lists a part's root and leaf slots.
template <typename Slots>
Plan Plan::build(const PartedMesh& pm, Slots&& slots) {
  Plan plan;
  std::vector<Slot> roots;
  std::vector<Slot> leaves;
  for (PartId p = 0; p < pm.parts(); ++p) {
    roots.clear();
    leaves.clear();
    slots(pm.part(p), roots, leaves);
    plan.roots_.push_back(lanesOf(roots));
    plan.leaves_.push_back(lanesOf(leaves));
  }
  return plan;
}

Plan Plan::shared(const PartedMesh& pm, int dim) {
  return build(pm, [dim](const Part& part, auto& roots, auto& leaves) {
    for (const auto& [e, r] : part.remotes()) {
      if (dim >= 0 && core::topoDim(e.topo()) != dim) continue;
      if (r.owner == part.id()) {
        for (const Copy& c : r.copies)
          roots.emplace_back(c.part, e.packed(), e);
      } else {
        const GKey root = keyOf(part.id(), e, &r);
        leaves.emplace_back(root.part, root.ent.packed(), e);
      }
    }
  });
}

Plan Plan::ghosts(const PartedMesh& pm) {
  return build(pm, [](const Part& part, auto& roots, auto& leaves) {
    for (const auto& [real, ghosts] : part.ghosted_on_)
      for (const Copy& g : ghosts)
        roots.emplace_back(g.part, real.packed(), real);
    for (const auto& [ghost, real] : part.ghost_source_)
      leaves.emplace_back(real.part, real.ent.packed(), ghost);
  });
}

void Plan::mismatch(PartId to, PartId from, const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kProtocol, static_cast<int>(to),
                   static_cast<int>(from), pcu::Error::kNoTag,
                   "plan lane " + std::to_string(from) + " -> " +
                       std::to_string(to) + ": " + what);
}

}  // namespace dist
