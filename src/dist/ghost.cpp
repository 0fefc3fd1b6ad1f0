/// \file ghost.cpp
/// \brief Ghosting (paper II-C): localize off-part entity copies so
/// computations near part boundaries avoid communication.
///
/// A ghost is a read-only, duplicated, off-part internal entity copy,
/// including tag data. Layers grow from the part boundary: layer 1 is every
/// remote element adjacent (through shared vertices) to the boundary;
/// layer k+1 adds elements adjacent to layer-k vertices. The sending part
/// computes all requested layers locally, then ships each neighbour one
/// self-contained closure payload; receivers deduplicate shared closure
/// entities by their canonical (owner part, owner handle) key.

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "common/flatmap.hpp"
#include "dist/integrity.hpp"
#include "dist/keymaps_impl.hpp"
#include "dist/partedmesh.hpp"
#include "dist/tagio.hpp"
#include "gmi/model.hpp"
#include "pcu/trace.hpp"

namespace dist {

namespace {

void packKey(pcu::OutBuffer& b, const GKey& k) {
  b.pack<std::int32_t>(k.part);
  b.pack<std::uint64_t>(k.ent.packed());
}

GKey unpackKey(pcu::InBuffer& b) {
  GKey k;
  k.part = b.unpack<std::int32_t>();
  k.ent = core::Ent::unpack(b.unpack<std::uint64_t>());
  return k;
}

}  // namespace

void PartedMesh::ghostLayers(int layers) {
  if (layers < 1) throw std::invalid_argument("ghostLayers: layers >= 1");
  for (const auto& pp : parts_)
    if (pp->ghostCount() > 0)
      throw std::logic_error("ghostLayers: already ghosted; unghost first");
  if (dim_ < 2) throw std::logic_error("ghostLayers: mesh not distributed");
  runTransactional("ghostLayers", [&] { ghostLayersBody(layers); });
}

void PartedMesh::ghostLayersBody(int layers) {
  const int dim = dim_;
  pcu::trace::Scope trace_scope("dist:ghostLayers");
  KeyMaps keys;
  buildKeyMaps(keys);
  std::array<Ent, core::kMaxDown> buf{};

  // Post one closure payload per (part, neighbour) pair.
  for (const auto& pp : parts_) {
    Part& p = *pp;
    // Boundary vertices shared with each neighbour.
    common::FlatMap<PartId, std::vector<Ent>> seeds;
    for (const auto& [e, r] : p.remotes_) {
      if (e.topo() != core::Topo::Vertex) continue;
      for (const Copy& c : r.copies) seeds[c.part].push_back(e);
    }
    const TagPlan tag_plan(p.mesh());
    core::AdjVec adj;
    for (auto& [q, verts] : seeds) {
      // Grow `layers` element layers from the seed vertices.
      common::FlatSet<Ent, EntHash> elems;
      common::FlatSet<Ent, EntHash> known_verts(verts.begin(), verts.end());
      std::vector<Ent> frontier(verts.begin(), verts.end());
      for (int layer = 0; layer < layers && !frontier.empty(); ++layer) {
        std::vector<Ent> new_elems;
        for (Ent v : frontier) {
          const int na = p.mesh().adjacentInto(v, dim, adj);
          for (int k = 0; k < na; ++k) {
            const Ent elem = adj[static_cast<std::size_t>(k)];
            if (elems.insert(elem).second) new_elems.push_back(elem);
          }
        }
        frontier.clear();
        for (Ent elem : new_elems) {
          const int nv = p.mesh().downward(elem, 0, buf.data());
          for (int k = 0; k < nv; ++k)
            if (known_verts.insert(buf[static_cast<std::size_t>(k)]).second)
              frontier.push_back(buf[static_cast<std::size_t>(k)]);
        }
      }
      if (elems.empty()) continue;
      // Closure of the element set, dimension-ascending, skipping entities
      // the neighbour already holds as real copies.
      auto held_by_q = [&](Ent e) {
        const Remote* r = p.remote(e);
        if (r == nullptr) return false;
        return std::any_of(r->copies.begin(), r->copies.end(),
                           [&](const Copy& c) { return c.part == q; });
      };
      std::vector<std::vector<Ent>> closure(static_cast<std::size_t>(dim) + 1);
      common::FlatSet<Ent, EntHash> in_closure;
      for (Ent elem : elems) {
        for (int d = 0; d < dim; ++d) {
          const int n = p.mesh().downward(elem, d, buf.data());
          for (int k = 0; k < n; ++k) {
            const Ent e = buf[static_cast<std::size_t>(k)];
            if (held_by_q(e)) continue;
            if (in_closure.insert(e).second)
              closure[static_cast<std::size_t>(d)].push_back(e);
          }
        }
        closure[static_cast<std::size_t>(dim)].push_back(elem);
      }
      pcu::OutBuffer b;
      std::uint32_t total = 0;
      for (const auto& level : closure)
        total += static_cast<std::uint32_t>(level.size());
      b.pack(total);
      for (int d = 0; d <= dim; ++d) {
        for (Ent e : closure[static_cast<std::size_t>(d)]) {
          packKey(b, keyOf(p, e));
          b.pack<std::uint8_t>(static_cast<std::uint8_t>(e.topo()));
          gmi::Entity* cls = p.mesh().classification(e);
          b.pack<std::int32_t>(cls ? cls->dim() : -1);
          b.pack<std::int32_t>(cls ? cls->tag() : -1);
          if (e.topo() == core::Topo::Vertex) {
            b.pack(p.mesh().point(e));
          } else {
            const int nv = p.mesh().downward(e, 0, buf.data());
            b.pack<std::uint32_t>(static_cast<std::uint32_t>(nv));
            for (int k = 0; k < nv; ++k)
              packKey(b, keyOf(p, buf[static_cast<std::size_t>(k)]));
          }
          tag_plan.pack(e, b);
        }
      }
      net_.send(p.id(), q, std::move(b));
    }
  }

  // Receivers create ghosts (deduplicating by key) and notify owners.
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    auto& by_key = keys.by_key[static_cast<std::size_t>(to)];
    std::array<Ent, 8> lv{};
    const auto total = body.unpack<std::uint32_t>();
    for (std::uint32_t i = 0; i < total; ++i) {
      const GKey key = unpackKey(body);
      const auto topo = static_cast<core::Topo>(body.unpack<std::uint8_t>());
      const auto cls_dim = body.unpack<std::int32_t>();
      const auto cls_tag = body.unpack<std::int32_t>();
      gmi::Entity* cls =
          cls_dim >= 0 ? model_->find(cls_dim, cls_tag) : nullptr;
      // Consume the geometric payload regardless of deduplication.
      common::Vec3 x;
      std::uint32_t nv = 0;
      std::array<GKey, 8> vkeys{};
      if (topo == core::Topo::Vertex) {
        x = body.unpack<common::Vec3>();
      } else {
        nv = body.unpack<std::uint32_t>();
        for (std::uint32_t k = 0; k < nv; ++k) vkeys[k] = unpackKey(body);
      }
      const bool duplicate = key.part == to || by_key.count(key) > 0;
      if (duplicate) {
        skipTags(body);
        continue;
      }
      Ent local;
      if (topo == core::Topo::Vertex) {
        local = p.mesh().createVertex(x, cls);
      } else {
        for (std::uint32_t k = 0; k < nv; ++k)
          lv[k] = keys.resolve(to, vkeys[k]);
        local = p.mesh().buildElement(topo, {lv.data(), nv}, cls);
      }
      unpackTags(p.mesh(), local, body);
      by_key.emplace(key, local);
      p.ghost_source_.emplace(local, Copy{key.part, key.ent});
      p.touchTables();
      pcu::OutBuffer reply;
      reply.pack<std::uint64_t>(key.ent.packed());
      reply.pack<std::uint64_t>(local.packed());
      net_.send(to, key.part, std::move(reply));
    }
  });

  // Owners record where their entities are ghosted (for tag sync).
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const Ent real = Ent::unpack(body.unpack<std::uint64_t>());
    const Ent ghost = Ent::unpack(body.unpack<std::uint64_t>());
    p.ghosted_on_[real].push_back(Copy{from, ghost});
    p.touchTables();
  });
}

void PartedMesh::unghost() {
  pcu::trace::Scope trace_scope("dist:unghost");
  // A commit point when armored (unghost is not transactional): audit on
  // entry, seal on exit, as runTransactional does for inactive operations.
  integrity::Armor* armor = armorIfActive();
  if (armor != nullptr) armor->auditAndRepair("unghost");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    std::vector<Ent> ghosts;
    ghosts.reserve(p.ghost_source_.size());
    for (const auto& [e, src] : p.ghost_source_) {
      (void)src;
      ghosts.push_back(e);
    }
    std::sort(ghosts.begin(), ghosts.end(), [](Ent a, Ent b) {
      if (core::topoDim(a.topo()) != core::topoDim(b.topo()))
        return core::topoDim(a.topo()) > core::topoDim(b.topo());
      return b < a;
    });
    if (ghosts.empty() && p.ghosted_on_.empty()) continue;
    for (Ent e : ghosts) p.mesh().destroy(e);
    p.ghost_source_.clear();
    p.ghosted_on_.clear();
    p.touchTables();
  }
  if (armor != nullptr) armor->sealAndMaybeInject();
}

void PartedMesh::syncSharedTags(const std::string& only) {
  runTransactional("syncSharedTags", [&] { syncSharedTagsBody(only); });
}

void PartedMesh::syncSharedTagsBody(const std::string& only) {
  pcu::trace::Scope trace_scope("dist:syncSharedTags");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    const TagPlan tag_plan(p.mesh(), only);
    for (const auto& [e, r] : p.remotes_) {
      if (r.owner != p.id()) continue;
      for (const Copy& c : r.copies) {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(c.ent.packed());
        tag_plan.pack(e, b);
        net_.send(p.id(), c.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const Ent local = Ent::unpack(body.unpack<std::uint64_t>());
    unpackTags(p.mesh(), local, body);
  });
}

void PartedMesh::syncGhostTags() {
  runTransactional("syncGhostTags", [&] { syncGhostTagsBody(); });
}

void PartedMesh::syncGhostTagsBody() {
  pcu::trace::Scope trace_scope("dist:syncGhostTags");
  for (const auto& pp : parts_) {
    Part& p = *pp;
    const TagPlan tag_plan(p.mesh());
    for (const auto& [real, ghosts] : p.ghosted_on_) {
      for (const Copy& g : ghosts) {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(g.ent.packed());
        tag_plan.pack(real, b);
        net_.send(p.id(), g.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const Ent ghost = Ent::unpack(body.unpack<std::uint64_t>());
    unpackTags(p.mesh(), ghost, body);
  });
}

}  // namespace dist
