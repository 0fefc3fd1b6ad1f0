#include "dist/partio.hpp"

#include <algorithm>
#include <utility>

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

EntTable buildEntTable(const core::Mesh& m) {
  EntTable table(4);
  for (int d = 0; d <= m.dim(); ++d)
    for (Ent e : m.entities(d))
      table[static_cast<std::size_t>(d)].push_back(e);
  return table;
}

std::vector<std::byte> buildMeta(const Part& p, const OrdinalMap& ord,
                                 const std::vector<OrdinalMap>& all) {
  auto refIn = [&all](PartId part, Ent e) {
    return all[static_cast<std::size_t>(part)].at(e);
  };
  pcu::OutBuffer b;
  b.pack(kMetaMagic);

  std::vector<std::pair<std::uint64_t, const Remote*>> remotes;
  remotes.reserve(p.remotes().size());
  for (const auto& [e, r] : p.remotes()) remotes.emplace_back(ord.at(e), &r);
  std::sort(remotes.begin(), remotes.end());
  b.pack<std::uint64_t>(remotes.size());
  for (const auto& [ref, r] : remotes) {
    b.pack<std::uint64_t>(ref);
    b.pack<std::int32_t>(r->owner);
    b.pack<std::uint64_t>(r->copies.size());
    for (const Copy& c : r->copies) {
      b.pack<std::int32_t>(c.part);
      b.pack<std::uint64_t>(refIn(c.part, c.ent));
    }
  }

  std::vector<std::pair<std::uint64_t, Copy>> ghosts;
  ghosts.reserve(CheckpointAccess::ghostSource(p).size());
  for (const auto& [e, src] : CheckpointAccess::ghostSource(p))
    ghosts.emplace_back(ord.at(e), src);
  std::sort(ghosts.begin(), ghosts.end(),
            [](const auto& a, const auto& b2) { return a.first < b2.first; });
  b.pack<std::uint64_t>(ghosts.size());
  for (const auto& [ref, src] : ghosts) {
    b.pack<std::uint64_t>(ref);
    b.pack<std::int32_t>(src.part);
    b.pack<std::uint64_t>(refIn(src.part, src.ent));
  }

  std::vector<std::pair<std::uint64_t, const std::vector<Copy>*>> ghosted;
  ghosted.reserve(CheckpointAccess::ghostedOn(p).size());
  for (const auto& [e, cps] : CheckpointAccess::ghostedOn(p))
    ghosted.emplace_back(ord.at(e), &cps);
  std::sort(ghosted.begin(), ghosted.end());
  b.pack<std::uint64_t>(ghosted.size());
  for (const auto& [ref, cps] : ghosted) {
    b.pack<std::uint64_t>(ref);
    b.pack<std::uint64_t>(cps->size());
    for (const Copy& c : *cps) {
      b.pack<std::int32_t>(c.part);
      b.pack<std::uint64_t>(refIn(c.part, c.ent));
    }
  }
  return std::move(b).take();
}

void applyMeta(Part& part, PartId p, std::vector<std::byte> meta,
               const std::function<Ent(PartId, std::uint64_t)>& entOf,
               const std::string& ctx) {
  pcu::InBuffer b(std::move(meta));
  if (b.remaining() < sizeof(std::uint64_t) ||
      b.unpack<std::uint64_t>() != kMetaMagic)
    failValidation(ctx + " is not a part metadata stream");
  const auto nremotes = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nremotes; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    Remote r;
    r.owner = b.unpack<std::int32_t>();
    const auto ncopies = b.unpack<std::uint64_t>();
    r.copies.reserve(ncopies);
    for (std::uint64_t c = 0; c < ncopies; ++c) {
      const auto cpart = b.unpack<std::int32_t>();
      r.copies.push_back(Copy{cpart, entOf(cpart, b.unpack<std::uint64_t>())});
    }
    part.setRemote(e, std::move(r));
  }
  const auto nghosts = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosts; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    const auto spart = b.unpack<std::int32_t>();
    CheckpointAccess::setGhost(
        part, e, Copy{spart, entOf(spart, b.unpack<std::uint64_t>())});
  }
  const auto nghosted = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosted; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    const auto ncopies = b.unpack<std::uint64_t>();
    std::vector<Copy> cps;
    cps.reserve(ncopies);
    for (std::uint64_t c = 0; c < ncopies; ++c) {
      const auto cpart = b.unpack<std::int32_t>();
      cps.push_back(Copy{cpart, entOf(cpart, b.unpack<std::uint64_t>())});
    }
    CheckpointAccess::setGhostedOn(part, e, std::move(cps));
  }
  if (!b.done()) failValidation(ctx + ": trailing bytes in metadata stream");
}

void applyMetaPartial(Part& part, PartId p, std::vector<std::byte> meta,
                      const std::function<Ent(PartId, std::uint64_t)>& entOf,
                      const std::string& ctx, const std::vector<bool>& lost,
                      std::vector<Ent>& dropped_ghosts) {
  auto isLost = [&lost](std::int32_t q) {
    return q >= 0 && static_cast<std::size_t>(q) < lost.size() &&
           lost[static_cast<std::size_t>(q)];
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
    if (r.copies.empty()) continue;  // every other copy vanished: interior
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
  const auto nghosts = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosts; ++i) {
    const Ent e = entOf(p, b.unpack<std::uint64_t>());
    (void)b.unpack<std::int32_t>();   // source part (possibly lost)
    (void)b.unpack<std::uint64_t>();  // source entref (never resolved)
    dropped_ghosts.push_back(e);
  }
  const auto nghosted = b.unpack<std::uint64_t>();
  for (std::uint64_t i = 0; i < nghosted; ++i) {
    (void)entOf(p, b.unpack<std::uint64_t>());  // validate the local ref
    const auto ncopies = b.unpack<std::uint64_t>();
    for (std::uint64_t c = 0; c < ncopies; ++c) {
      (void)b.unpack<std::int32_t>();   // ghost part — records dropped
      (void)b.unpack<std::uint64_t>();  // mesh-wide, resolve nothing
    }
  }
  if (!b.done()) failValidation(ctx + ": trailing bytes in metadata stream");
}

}  // namespace partio
}  // namespace dist
