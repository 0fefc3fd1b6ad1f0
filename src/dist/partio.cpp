#include "dist/partio.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/meshio.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"

namespace dist {
namespace partio {

namespace {

[[noreturn]] void failValidation(const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kValidation, -1, what);
}

// Concurrency cap for parallelFor. Every byte written or rebuilt depends
// only on the part count, never on this, so results are machine-independent.
constexpr int kMaxWorkers = 16;

}  // namespace

void parallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int nthreads = std::min(n, kMaxWorkers);
  if (nthreads <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  auto domain = pcu::faults::currentHandle();
  std::atomic<int> next{0};
  std::mutex err_mutex;
  int err_at = n;
  std::exception_ptr err;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back([&] {
      pcu::faults::DomainScope scope(domain);
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mutex);
          if (i < err_at) {
            err_at = i;
            err = std::current_exception();
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (err) std::rethrow_exception(err);
}

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
                  const std::string& ctx, const std::vector<PartId>& lost) {
  const int nrep = static_cast<int>(replicas.size());
  auto at = [&replicas](int i) -> Replica& {
    return replicas[static_cast<std::size_t>(i)];
  };
  // 1. Decode first: a malformed mesh stream aborts with nothing wiped.
  std::vector<std::unique_ptr<core::Mesh>> decoded(replicas.size());
  parallelFor(nrep, [&](int i) {
    decoded[static_cast<std::size_t>(i)] =
        core::meshFromBytes(std::move(at(i).mesh), pm.model());
  });
  // 2. Wipe, and index the rebuilt parts' fresh handles.
  const int nparts = pm.parts();
  EntResolver ents(nparts);
  parallelFor(nrep, [&](int i) {
    auto& mesh = decoded[static_cast<std::size_t>(i)];
    Part& part = pm.part(at(i).part);
    CheckpointAccess::resetPart(part, *mesh);
    mesh.reset();
    ents.index(at(i).part, part.mesh());
  });
  std::vector<bool> rebuilt(static_cast<std::size_t>(nparts), false);
  for (const Replica& r : replicas)
    rebuilt[static_cast<std::size_t>(r.part)] = true;
  auto inSet = [&rebuilt](PartId q) {
    return rebuilt[static_cast<std::size_t>(q)];
  };
  // 3. Resolve against every part's current mesh: the rest are indexed at
  //    the state whose ordinals the replicas hold.
  for (PartId q = 0; q < nparts; ++q)
    if (!inSet(q)) ents.index(q, pm.part(q).mesh());
  parallelFor(nrep, [&](int i) {
    Replica& r = at(i);
    applyMeta(pm.part(r.part), r.part, std::move(r.meta), ents,
              ctx + ": part " + std::to_string(r.part) + " replica", lost);
  });
  // 4. Patch the mirrors outside the set; a link whose both ends were
  //    rebuilt was installed from both replicas already.
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
