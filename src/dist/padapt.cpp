#include "dist/padapt.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>

#include "adapt/collapse.hpp"
#include "common/flatmap.hpp"
#include "adapt/split.hpp"
#include "core/measure.hpp"
#include "dist/creation.hpp"
#include "dist/integrity.hpp"
#include "gmi/model.hpp"
#include "pcu/trace.hpp"

namespace dist {

using core::Ent;
using core::EntHash;

namespace {

/// One split this part must perform.
struct Split {
  GKey key;        ///< the edge's global identity (owner part + handle)
  Ent local_edge;  ///< this part's copy
  common::Vec3 position;

  /// Geometric execution order: the snapped midpoint is identical on every
  /// holding part AND invariant under storage layout (handles differ
  /// across partitionings and pool reorderings, coordinates do not), so
  /// all parts — and all layouts of the same mesh — refine in the same
  /// sequence. Exact midpoint ties (degenerate) fall back to the key.
  friend bool operator<(const Split& a, const Split& b) {
    const auto bits = [](const common::Vec3& x) {
      return std::array<std::uint64_t, 3>{std::bit_cast<std::uint64_t>(x.x),
                                          std::bit_cast<std::uint64_t>(x.y),
                                          std::bit_cast<std::uint64_t>(x.z)};
    };
    const auto ka = bits(a.position);
    const auto kb = bits(b.position);
    if (ka != kb) return ka < kb;
    if (a.key.part != b.key.part) return a.key.part < b.key.part;
    return a.key.ent.packed() < b.key.ent.packed();
  }
};

/// Signature of a candidate shared entity: its sorted vertex keys.
using Signature = std::vector<std::uint64_t>;

std::size_t hashSignature(const Signature& sig) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t v : sig) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

PartedRefineStats refineParted(PartedMesh& pm, const adapt::SizeField& size,
                               const PartedRefineOptions& opts) {
  const int dim = pm.dim();
  if (dim < 2) throw std::logic_error("refineParted: mesh not distributed");
  for (PartId p = 0; p < pm.parts(); ++p)
    if (pm.part(p).ghostCount() > 0)
      throw std::logic_error("refineParted: unghost first");

  // An armored refine is a commit point, like a transactional operation:
  // audit on entry, seal on exit, so its legitimate edits are never read
  // as corruption and the journal replica follows them.
  integrity::Armor* armor = pm.armorIfActive();
  if (armor != nullptr) armor->auditAndRepair("refineParted");

  PartedRefineStats stats;
  Network& net = pm.network();
  const std::size_t nparts = static_cast<std::size_t>(pm.parts());

  pcu::trace::Scope trace_scope("dist:refineParted");
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    pcu::trace::Scope pass_scope("padapt:refine-pass");
    // --- 1. mark & decide ------------------------------------------------
    std::vector<common::FlatSet<Ent, EntHash>> decided(nparts);
    for (PartId p = 0; p < pm.parts(); ++p) {
      auto& part = pm.part(p);
      auto& mesh = part.mesh();
      for (Ent e : mesh.entities(1)) {
        const auto vs = mesh.verts(e);
        const common::Vec3 mid =
            (mesh.point(vs[0]) + mesh.point(vs[1])) * 0.5;
        if (core::measure(mesh, e) <= opts.ratio * size.value(mid)) continue;
        const GKey key = keyOf(part, e);
        if (key.part == p) {
          decided[static_cast<std::size_t>(p)].insert(e);
        } else {
          pcu::OutBuffer b;
          b.pack<std::uint64_t>(key.ent.packed());
          net.send(p, key.part, std::move(b));
        }
      }
    }
    net.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
      decided[static_cast<std::size_t>(to)].insert(
          Ent::unpack(body.unpack<std::uint64_t>()));
    });

    // Owners compute the (snapped) midpoints once and broadcast the splits.
    std::vector<std::vector<Split>> splits(nparts);
    std::size_t global_splits = 0;
    for (PartId p = 0; p < pm.parts(); ++p) {
      auto& part = pm.part(p);
      auto& mesh = part.mesh();
      for (Ent e : decided[static_cast<std::size_t>(p)]) {
        const auto vs = mesh.verts(e);
        common::Vec3 mid = (mesh.point(vs[0]) + mesh.point(vs[1])) * 0.5;
        if (gmi::Entity* cls = mesh.classification(e)) mid = cls->snap(mid);
        splits[static_cast<std::size_t>(p)].push_back(
            Split{GKey{p, e}, e, mid});
        ++global_splits;
        if (const Remote* r = part.remote(e)) {
          for (const Copy& c : r->copies) {
            pcu::OutBuffer b;
            b.pack<std::int32_t>(p);
            b.pack<std::uint64_t>(e.packed());
            b.pack<std::uint64_t>(c.ent.packed());
            b.pack(mid);
            net.send(p, c.part, std::move(b));
          }
        }
      }
    }
    net.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
      Split s;
      s.key.part = body.unpack<std::int32_t>();
      s.key.ent = Ent::unpack(body.unpack<std::uint64_t>());
      s.local_edge = Ent::unpack(body.unpack<std::uint64_t>());
      s.position = body.unpack<common::Vec3>();
      splits[static_cast<std::size_t>(to)].push_back(s);
    });
    if (global_splits == 0) break;
    stats.passes = pass + 1;
    stats.splits += global_splits;

    // --- 2. execute in the global deterministic order ---------------------
    // The order is shared by all parts, so when several edges of one
    // shared face split in a pass, every holding part produces the same
    // triangulation.
    std::vector<std::vector<std::pair<GKey, Ent>>> mids(nparts);
    for (PartId p = 0; p < pm.parts(); ++p) {
      auto& list = splits[static_cast<std::size_t>(p)];
      std::sort(list.begin(), list.end());
      Part& part = pm.part(p);
      auto& mesh = part.mesh();
      for (const Split& s : list) {
        // Drop the boundary records of everything this split destroys (the
        // edge and, in 3D, its adjacent faces) *before* splitting: their
        // storage slots may be reused immediately by new entities, and a
        // stale record would silently attach to the newcomer.
        part.eraseRemote(s.local_edge);
        if (dim == 3)
          for (Ent f : mesh.up(s.local_edge)) part.eraseRemote(f);
        const Ent m =
            adapt::splitEdgeAt(mesh, s.local_edge, s.position, opts.transfer);
        mids[static_cast<std::size_t>(p)].emplace_back(s.key, m);
      }
    }

    // --- 3. link midpoint vertices of shared edges ------------------------
    struct MidGroup {
      std::vector<Copy> copies;  ///< every part's midpoint, incl. owner's
    };
    std::vector<std::map<std::uint64_t, MidGroup>> groups(nparts);
    for (PartId p = 0; p < pm.parts(); ++p) {
      for (const auto& [key, m] : mids[static_cast<std::size_t>(p)]) {
        if (key.part == p) {
          groups[static_cast<std::size_t>(p)][key.ent.packed()]
              .copies.push_back(Copy{p, m});
        } else {
          pcu::OutBuffer b;
          b.pack<std::uint64_t>(key.ent.packed());
          b.pack<std::uint64_t>(m.packed());
          net.send(p, key.part, std::move(b));
        }
      }
    }
    net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      const auto edge_bits = body.unpack<std::uint64_t>();
      const Ent m = Ent::unpack(body.unpack<std::uint64_t>());
      groups[static_cast<std::size_t>(to)][edge_bits].copies.push_back(
          Copy{from, m});
    });
    for (PartId p = 0; p < pm.parts(); ++p) {
      for (auto& [edge_bits, group] : groups[static_cast<std::size_t>(p)]) {
        (void)edge_bits;
        if (group.copies.size() < 2) continue;  // interior midpoint
        std::sort(group.copies.begin(), group.copies.end(),
                  [](const Copy& a, const Copy& b) { return a.part < b.part; });
        const PartId owner = group.copies.front().part;
        for (const Copy& member : group.copies) {
          pcu::OutBuffer b;
          creation::writeRemote(b, member.ent, owner, group.copies);
          net.send(p, member.part, std::move(b));
        }
      }
    }
    auto applyRemote = [&](PartId to, PartId, pcu::InBuffer body) {
      auto [local, r] = creation::readRemote(body, to);
      pm.part(to).setRemote(local, std::move(r));
    };
    net.deliverAll(applyRemote);

    // --- 4. signature rendezvous for the other new boundary entities ------
    for (PartId p = 0; p < pm.parts(); ++p) {
      Part& part = pm.part(p);
      auto& mesh = part.mesh();
      common::FlatSet<Ent, EntHash> seen;
      core::AdjVec adj;
      for (const auto& [key, m] : mids[static_cast<std::size_t>(p)]) {
        (void)key;
        if (!part.isShared(m)) continue;  // interior split: nothing new shared
        for (int d = 1; d < dim; ++d) {
          const int na = mesh.adjacentInto(m, d, adj);
          for (int ai = 0; ai < na; ++ai) {
            const Ent cand = adj[static_cast<std::size_t>(ai)];
            if (!seen.insert(cand).second) continue;
            std::array<Ent, core::kMaxDown> vbuf{};
            const int nv = mesh.downward(cand, 0, vbuf.data());
            bool all_shared = true;
            for (int i = 0; i < nv; ++i)
              all_shared =
                  all_shared && part.isShared(vbuf[static_cast<std::size_t>(i)]);
            if (!all_shared) continue;
            Signature sig;
            sig.reserve(static_cast<std::size_t>(nv) * 2);
            std::vector<std::pair<std::int32_t, std::uint64_t>> vkeys;
            for (int i = 0; i < nv; ++i) {
              const GKey k = keyOf(part, vbuf[static_cast<std::size_t>(i)]);
              vkeys.emplace_back(k.part, k.ent.packed());
            }
            std::sort(vkeys.begin(), vkeys.end());
            for (const auto& [kp, kb] : vkeys) {
              sig.push_back(static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(kp)));
              sig.push_back(kb);
            }
            const PartId rendezvous =
                static_cast<PartId>(hashSignature(sig) % nparts);
            pcu::OutBuffer b;
            b.packVector(sig);
            b.pack<std::uint64_t>(cand.packed());
            net.send(p, rendezvous, std::move(b));
          }
        }
      }
    }
    std::vector<std::map<Signature, std::vector<Copy>>> match(nparts);
    net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      Signature sig = body.unpackVector<std::uint64_t>();
      const Ent handle = Ent::unpack(body.unpack<std::uint64_t>());
      match[static_cast<std::size_t>(to)][std::move(sig)].push_back(
          Copy{from, handle});
    });
    for (PartId r = 0; r < pm.parts(); ++r) {
      for (auto& [sig, members] : match[static_cast<std::size_t>(r)]) {
        (void)sig;
        if (members.size() < 2) continue;
        std::sort(members.begin(), members.end(),
                  [](const Copy& a, const Copy& b) { return a.part < b.part; });
        const PartId owner = members.front().part;
        for (const Copy& member : members) {
          pcu::OutBuffer b;
          creation::writeRemote(b, member.ent, owner, members);
          net.send(r, member.part, std::move(b));
        }
      }
    }
    net.deliverAll(applyRemote);

    // --- 5. sweep boundary records of the split (destroyed) entities ------
    for (PartId p = 0; p < pm.parts(); ++p) pm.part(p).sweepDeadRemotes();
  }
  if (armor != nullptr) armor->sealAndMaybeInject();
  return stats;
}

PartedCoarsenStats coarsenParted(PartedMesh& pm, const adapt::SizeField& size,
                                 const PartedCoarsenOptions& opts) {
  const int dim = pm.dim();
  if (dim < 2) throw std::logic_error("coarsenParted: mesh not distributed");
  for (PartId p = 0; p < pm.parts(); ++p)
    if (pm.part(p).ghostCount() > 0)
      throw std::logic_error("coarsenParted: unghost first");

  // A commit point when armored, like refineParted.
  integrity::Armor* armor = pm.armorIfActive();
  if (armor != nullptr) armor->auditAndRepair("coarsenParted");

  PartedCoarsenStats stats;
  pcu::trace::Scope trace_scope("dist:coarsenParted");
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    std::size_t done = 0;
    for (PartId p = 0; p < pm.parts(); ++p) {
      Part& part = pm.part(p);
      auto& mesh = part.mesh();
      // Short edges whose whole collapse cavity is part-interior: the
      // removed vertex and everything adjacent to it must be unshared.
      // Elements are never shared (verify(): "element is shared"), so the
      // walk stops below the element dimension; "any shared" needs no
      // deduplication, so it walks the up-lists directly.
      std::vector<std::pair<double, Ent>> marked;
      for (Ent e : mesh.entities(1)) {
        const auto vs = mesh.verts(e);
        const common::Vec3 mid =
            (mesh.point(vs[0]) + mesh.point(vs[1])) * 0.5;
        const double len = core::measure(mesh, e);
        if (len < opts.ratio * size.value(mid)) marked.emplace_back(len, e);
      }
      std::sort(marked.begin(), marked.end());
      for (const auto& [len, e] : marked) {
        (void)len;
        if (!mesh.alive(e)) continue;
        const auto vs = mesh.verts(e);
        for (Ent remove : {vs[0], vs[1]}) {
          if (part.isShared(remove)) continue;
          auto sharedAbove = [&](auto&& self, Ent e, int d) -> bool {
            if (d >= dim) return false;
            for (Ent u : mesh.up(e))
              if (part.isShared(u) || self(self, u, d + 1)) return true;
            return false;
          };
          if (sharedAbove(sharedAbove, remove, 1)) continue;
          if (adapt::collapseEdge(mesh, e, remove, opts.transfer)) {
            ++done;
            break;
          }
        }
      }
    }
    if (done == 0) break;
    stats.passes = pass + 1;
    stats.collapses += done;
  }
  if (armor != nullptr) armor->sealAndMaybeInject();
  return stats;
}

adapt::SmoothStats smoothParted(PartedMesh& pm,
                                const adapt::SmoothOptions& opts) {
  adapt::SmoothStats total;
  for (PartId p = 0; p < pm.parts(); ++p) {
    Part& part = pm.part(p);
    adapt::SmoothOptions local = opts;
    local.skip = [&part, base = opts.skip](Ent v) {
      if (part.isShared(v) || part.isGhost(v)) return true;
      return base ? base(v) : false;
    };
    const auto s = adapt::smooth(part.mesh(), local);
    total.moved += s.moved;
    total.rejected += s.rejected;
  }
  return total;
}

}  // namespace dist
