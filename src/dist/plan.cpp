#include "dist/plan.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>

#include "dist/partedmesh.hpp"

namespace dist {

namespace {

/// One item of a part's side of a lane: the part at the other end, the
/// root's entity on it and this part's entity.
using Slot = std::tuple<PartId, Ent, Ent>;

/// Lay `slots` out as lanes: by peer, each in root-handle order (type,
/// then slot), through one LSD radix sort of packed (peer, root type, root
/// slot) keys.
std::vector<Plan::Lane> lanesOf(const std::vector<Slot>& slots) {
  std::uint64_t max_peer = 0;
  std::uint64_t max_topo = 0;
  std::uint64_t max_index = 0;
  for (const auto& [peer, root, item] : slots) {
    max_peer = std::max(max_peer, static_cast<std::uint64_t>(peer));
    max_topo = std::max(max_topo, static_cast<std::uint64_t>(root.topo()));
    max_index = std::max(max_index, std::uint64_t{root.index()});
  }
  const int index_bits = std::bit_width(max_index);
  const int root_bits = index_bits + std::bit_width(max_topo);
  const int key_bits = root_bits + std::bit_width(max_peer);
  struct Keyed {
    std::uint64_t key;
    Ent item;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(slots.size());
  for (const auto& [peer, root, item] : slots)
    keyed.push_back({(static_cast<std::uint64_t>(peer) << root_bits) |
                         (static_cast<std::uint64_t>(root.topo()) << index_bits) |
                         root.index(),
                     item});
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  std::vector<Keyed> next(keyed.size());
  std::vector<std::size_t> count(std::size_t{1} << kDigitBits);
  for (int shift = 0; shift < key_bits; shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (const Keyed& k : keyed) ++count[(k.key >> shift) & kDigitMask];
    std::size_t at = 0;
    for (std::size_t& c : count) at += std::exchange(c, at);
    for (const Keyed& k : keyed) next[count[(k.key >> shift) & kDigitMask]++] = k;
    keyed.swap(next);
  }
  std::vector<Plan::Lane> lanes;
  for (const Keyed& k : keyed) {
    const auto peer = static_cast<PartId>(k.key >> root_bits);
    if (lanes.empty() || lanes.back().peer != peer) lanes.push_back({peer, {}});
    lanes.back().items.push_back(k.item);
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
          roots.emplace_back(c.part, e, e);
      } else {
        const GKey root = keyOf(part.id(), e, &r);
        leaves.emplace_back(root.part, root.ent, e);
      }
    }
  });
}

Plan Plan::ghosts(const PartedMesh& pm) {
  return build(pm, [](const Part& part, auto& roots, auto& leaves) {
    for (const auto& [real, ghosts] : part.ghosted_on_)
      for (const Copy& g : ghosts)
        roots.emplace_back(g.part, real, real);
    for (const auto& [ghost, real] : part.ghost_source_)
      leaves.emplace_back(real.part, real.ent, ghost);
  });
}

void Plan::mismatch(PartId to, PartId from, const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kProtocol, static_cast<int>(to),
                   static_cast<int>(from), pcu::Error::kNoTag,
                   "plan lane " + std::to_string(from) + " -> " +
                       std::to_string(to) + ": " + what);
}

}  // namespace dist
