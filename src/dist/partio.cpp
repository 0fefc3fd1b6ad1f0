#include "dist/partio.hpp"

#include <algorithm>
#include <utility>

#include "core/meshio.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"

namespace dist {
namespace partio {

namespace {

[[noreturn]] void failValidation(const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kValidation, -1, what);
}

}  // namespace

OrdinalMap buildOrdinals(const core::Mesh& m) {
  OrdinalMap ord;
  for (int d = 0; d <= m.dim(); ++d) {
    // entities(d) walks each topology's pool in ascending slot order, so
    // the last entity of a topology sizes its array.
    std::uint64_t k = 0;
    for (Ent e : m.entities(d)) {
      auto& refs = ord.refs_[static_cast<std::size_t>(e.topo())];
      if (e.index() >= refs.size()) {
        if (refs.empty()) refs.reserve(m.countTopo(e.topo()));
        refs.resize(std::size_t{e.index()} + 1, OrdinalMap::kAbsent);
      }
      refs[e.index()] = entref(d, k++);
    }
  }
  return ord;
}

void EntResolver::index(PartId p, const core::Mesh& m) {
  auto& table = tables_[static_cast<std::size_t>(p)];
  table.assign(4, {});
  for (int d = 0; d <= m.dim(); ++d)
    for (Ent e : m.entities(d)) table[static_cast<std::size_t>(d)].push_back(e);
}

Ent EntResolver::at(PartId part, std::uint64_t ref,
                    const std::string& ctx) const {
  if (part < 0 || static_cast<std::size_t>(part) >= tables_.size())
    failValidation(ctx + " references part " + std::to_string(part) +
                   " of a " + std::to_string(tables_.size()) +
                   "-part mesh");
  const auto d = static_cast<std::size_t>(ref >> 48);
  const std::uint64_t k = ref & ((std::uint64_t{1} << 48) - 1);
  const auto& table = tables_[static_cast<std::size_t>(part)];
  if (d >= table.size() || k >= table[d].size())
    failValidation(ctx + " references entity (dim " + std::to_string(d) +
                   ", ordinal " + std::to_string(k) + ") absent from part " +
                   std::to_string(part) + " (stale or malformed stream)");
  return table[d][k];
}

std::vector<std::byte> buildMeta(const Part& p, const OrdinalMap& ord,
                                 const std::vector<OrdinalMap>& all) {
  const auto& remotes = p.remotes();
  const auto& ghosts = CheckpointAccess::ghostSource(p);
  const auto& ghosted = CheckpointAccess::ghostedOn(p);
  constexpr std::size_t kRef = sizeof(std::uint64_t);
  constexpr std::size_t kCount = sizeof(std::uint64_t);
  constexpr std::size_t kCopy = sizeof(std::int32_t) + kRef;
  std::size_t size = sizeof(kMetaMagic) + 3 * kCount +
                     ghosts.size() * (kRef + kCopy);
  for (const auto& [e, r] : remotes)
    size += kRef + sizeof(std::int32_t) + kCount + r.copies.size() * kCopy;
  for (const auto& [e, cps] : ghosted)
    size += kRef + kCount + cps.size() * kCopy;

  pcu::SizedWriter out(size);
  auto putCopy = [&out, &all](const Copy& c) {
    out.put<std::int32_t>(c.part);
    out.put<std::uint64_t>(all[static_cast<std::size_t>(c.part)].at(c.ent));
  };
  const core::Mesh& m = p.mesh();
  out.put(kMetaMagic);
  out.put<std::uint64_t>(remotes.size());
  forEachInSlotOrder(m, remotes, [&](const auto& kv) {
    const Remote& r = kv.second;
    out.put<std::uint64_t>(ord.at(kv.first));
    out.put<std::int32_t>(r.owner);
    out.put<std::uint64_t>(r.copies.size());
    for (const Copy& c : r.copies) putCopy(c);
  });
  out.put<std::uint64_t>(ghosts.size());
  forEachInSlotOrder(m, ghosts, [&](const auto& kv) {
    out.put<std::uint64_t>(ord.at(kv.first));
    putCopy(kv.second);
  });
  out.put<std::uint64_t>(ghosted.size());
  forEachInSlotOrder(m, ghosted, [&](const auto& kv) {
    out.put<std::uint64_t>(ord.at(kv.first));
    out.put<std::uint64_t>(kv.second.size());
    for (const Copy& c : kv.second) putCopy(c);
  });
  return std::move(out).take();
}

void applyMeta(Part& part, PartId p, std::vector<std::byte> meta,
               const EntResolver& ents, const std::string& ctx,
               const std::vector<PartId>& lost) {
  const bool partial = !lost.empty();
  auto isLost = [&lost](std::int32_t q) {
    return std::binary_search(lost.begin(), lost.end(), q);
  };
  auto entOf = [&ents, &ctx](PartId q, std::uint64_t ref) {
    return ents.at(q, ref, ctx);
  };
  pcu::InBuffer b(std::move(meta));
  if (b.remaining() < sizeof(std::uint64_t) ||
      b.unpack<std::uint64_t>() != kMetaMagic)
    failValidation(ctx + " is not a part metadata stream");
  const auto nremotes = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nremotes; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    const auto owner = b.unpack<std::int32_t>();
    const auto ncopies = b.unpack<std::uint64_t>();
    Remote r;
    r.copies.reserve(ncopies);
    for (std::uint64_t c = 0; c < ncopies; ++c) {
      const auto cpart = b.unpack<std::int32_t>();
      const auto ref = b.unpack<std::uint64_t>();
      if (isLost(cpart)) continue;
      r.copies.push_back(Copy{cpart, entOf(cpart, ref)});
    }
    if (partial && r.copies.empty()) continue;  // every copy vanished
    if (!isLost(owner)) {
      r.owner = owner;
    } else {
      // Deterministic symmetric reassignment: the minimum surviving part
      // of the residence set ({self} ∪ copies — identical on every copy).
      r.owner = p;
      for (const Copy& c : r.copies) r.owner = std::min(r.owner, c.part);
    }
    part.setRemote(e, std::move(r));
  }
  std::vector<Ent> dropped_ghosts;
  const auto nghosts = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosts; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    const auto spart = b.unpack<std::int32_t>();
    const auto sref = b.unpack<std::uint64_t>();
    if (partial)
      dropped_ghosts.push_back(e);  // the source may be lost: never resolved
    else
      CheckpointAccess::setGhost(part, e, Copy{spart, entOf(spart, sref)});
  }
  const auto nghosted = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosted; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    const auto ncopies = b.unpack<std::uint64_t>();
    std::vector<Copy> cps;
    if (!partial) cps.reserve(ncopies);
    for (std::uint64_t c = 0; c < ncopies; ++c) {
      const auto cpart = b.unpack<std::int32_t>();
      const auto ref = b.unpack<std::uint64_t>();
      if (!partial) cps.push_back(Copy{cpart, entOf(cpart, ref)});
    }
    if (!partial) CheckpointAccess::setGhostedOn(part, e, std::move(cps));
  }
  if (!b.done()) failValidation(ctx + ": trailing bytes in metadata stream");

  std::sort(dropped_ghosts.begin(), dropped_ghosts.end(), [](Ent x, Ent y) {
    if (core::topoDim(x.topo()) != core::topoDim(y.topo()))
      return core::topoDim(x.topo()) > core::topoDim(y.topo());
    return y < x;
  });
  for (Ent g : dropped_ghosts) part.mesh().destroy(g);
}

void rebuildParts(PartedMesh& pm, std::vector<Replica> replicas,
                  const std::string& ctx) {
  // 1. Decode first: a malformed mesh stream aborts with nothing wiped.
  std::vector<std::unique_ptr<core::Mesh>> decoded;
  decoded.reserve(replicas.size());
  for (Replica& r : replicas)
    decoded.push_back(core::meshFromBytes(std::move(r.mesh), pm.model()));
  // 2. Wipe.
  for (std::size_t i = 0; i < replicas.size(); ++i)
    CheckpointAccess::resetPart(pm.part(replicas[i].part), *decoded[i]);
  decoded.clear();
  // 3. Resolve against every part's current mesh: the rebuilt parts' fresh
  //    handles, and the rest at the state whose ordinals the replicas hold.
  const int nparts = pm.parts();
  EntResolver ents(nparts);
  for (PartId q = 0; q < nparts; ++q) ents.index(q, pm.part(q).mesh());
  for (Replica& r : replicas)
    applyMeta(pm.part(r.part), r.part, std::move(r.meta), ents,
              ctx + ": part " + std::to_string(r.part) + " replica");
  // 4. Patch the mirrors outside the set; a link whose both ends were
  //    rebuilt was installed from both replicas already.
  std::vector<bool> rebuilt(static_cast<std::size_t>(nparts), false);
  for (const Replica& r : replicas)
    rebuilt[static_cast<std::size_t>(r.part)] = true;
  auto inSet = [&rebuilt](PartId q) {
    return rebuilt[static_cast<std::size_t>(q)];
  };
  for (const Replica& r : replicas) {
    const PartId p = r.part;
    const Part& dp = pm.part(p);
    for (const auto& [e, rem] : dp.remotes()) {
      for (const Copy& c : rem.copies) {
        if (inSet(c.part)) continue;
        Part& sq = pm.part(c.part);
        const Remote* mirror = sq.remote(c.ent);
        if (mirror == nullptr) continue;  // verify() reports the asymmetry
        Remote patched = *mirror;
        for (Copy& mc : patched.copies)
          if (mc.part == p) mc.ent = e;
        sq.setRemote(c.ent, std::move(patched));
      }
    }
    for (const auto& [g, src] : CheckpointAccess::ghostSource(dp)) {
      if (inSet(src.part)) continue;
      Part& sq = pm.part(src.part);
      const auto& ghosted = CheckpointAccess::ghostedOn(sq);
      auto it = ghosted.find(src.ent);
      if (it == ghosted.end()) continue;
      std::vector<Copy> patched = it->second;
      for (Copy& mc : patched)
        if (mc.part == p) mc.ent = g;
      CheckpointAccess::setGhostedOn(sq, src.ent, std::move(patched));
    }
    for (const auto& [e, cps] : CheckpointAccess::ghostedOn(dp)) {
      for (const Copy& c : cps) {
        if (inSet(c.part)) continue;
        Part& sq = pm.part(c.part);
        if (sq.isGhost(c.ent))
          CheckpointAccess::setGhost(sq, c.ent, Copy{p, e});
      }
    }
  }
}

}  // namespace partio
}  // namespace dist
