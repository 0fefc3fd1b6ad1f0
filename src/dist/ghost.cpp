/// \file ghost.cpp
/// \brief Ghosting (paper II-C): localize off-part entity copies so
/// computations near part boundaries avoid communication.
///
/// A ghost is a read-only, duplicated, off-part internal entity copy,
/// including tag data. Layers grow from the part boundary: layer 1 is every
/// remote element adjacent (through shared vertices) to the boundary;
/// layer k+1 adds elements adjacent to layer-k vertices. The sending part
/// computes all requested layers locally, then ships each neighbour one
/// self-contained closure payload of creation records (dist/creation.hpp)
/// in ascending dimension order; receivers deduplicate shared closure
/// entities by their canonical (owner part, owner handle) key, create the
/// rest directly from their boundary references, and answer each owner
/// with one payload of new ghost handles.

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/flatmap.hpp"
#include "dist/creation.hpp"
#include "dist/integrity.hpp"
#include "dist/keymaps_impl.hpp"
#include "dist/partedmesh.hpp"
#include "dist/tagio.hpp"
#include "pcu/trace.hpp"

namespace dist {

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
      // Closure entity -> its index within its dimension's list; records go
      // out dimension-ascending, so boundaries travel before the entities
      // they bound and can be named by record ordinal.
      common::FlatMap<Ent, std::uint32_t, EntHash> in_closure;
      for (Ent elem : elems) {
        for (int d = 0; d < dim; ++d) {
          const int n = p.mesh().downward(elem, d, buf.data());
          for (int k = 0; k < n; ++k) {
            const Ent e = buf[static_cast<std::size_t>(k)];
            if (held_by_q(e)) continue;
            auto& level = closure[static_cast<std::size_t>(d)];
            if (in_closure.emplace(e, static_cast<std::uint32_t>(level.size()))
                    .second)
              level.push_back(e);
          }
        }
        closure[static_cast<std::size_t>(dim)].push_back(elem);
      }
      std::array<std::uint32_t, 4> first{};  // ordinal of each level's head
      std::uint32_t total = 0;
      for (int d = 0; d <= dim; ++d) {
        first[static_cast<std::size_t>(d)] = total;
        total += static_cast<std::uint32_t>(
            closure[static_cast<std::size_t>(d)].size());
      }
      auto ordinalOf = [&](Ent e) {
        const auto it = in_closure.find(e);
        if (it == in_closure.end()) return creation::kNoOrdinal;
        return first[static_cast<std::size_t>(core::topoDim(e.topo()))] +
               it->second;
      };
      auto key = [&](Ent e) { return keyOf(p, e); };
      pcu::OutBuffer b;
      b.pack(total);
      for (const auto& level : closure)
        for (Ent e : level)
          creation::pack(b, p.mesh(), tag_plan, e, key, ordinalOf);
      net_.send(p.id(), q, std::move(b));
    }
  }

  // Receivers create ghosts (deduplicating by key) and collect one handle
  // reply per created ghost for its owner.
  std::vector<std::vector<Ent>> earlier(parts_.size());
  std::vector<std::vector<creation::Reply>> replies(parts_.size());
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    auto& by_key = keys.by_key[static_cast<std::size_t>(to)];
    auto& local = earlier[static_cast<std::size_t>(to)];
    local.clear();
    const auto total = body.unpack<std::uint32_t>();
    for (std::uint32_t i = 0; i < total; ++i) {
      const creation::Record rec = creation::decode(body, to);
      Ent e;
      if (rec.key.part == to) {
        e = rec.key.ent;
      } else if (const auto it = by_key.find(rec.key); it != by_key.end()) {
        e = it->second;
      }
      if (e) {  // already held: a real copy or an earlier payload's ghost
        skipTags(body);
        local.push_back(e);
        continue;
      }
      e = creation::create(p.mesh(), rec, to, by_key, local, model_);
      unpackTags(p.mesh(), e, body);
      by_key.emplace(rec.key, e);
      p.ghost_source_.emplace(e, Copy{rec.key.part, rec.key.ent});
      p.touchTables();
      replies[static_cast<std::size_t>(to)].push_back(
          creation::Reply{rec.key.part, rec.key.ent, e});
      local.push_back(e);
    }
  });
  creation::postReplies(net_, replies);

  // Owners record where their entities are ghosted (for tag sync).
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    creation::readReplies(body, [&](Ent real, Ent ghost) {
      p.ghosted_on_[real].push_back(Copy{from, ghost});
    });
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
  // One payload per (real part, ghost part) pair, in ghosted_on_ order.
  std::vector<pcu::OutBuffer> out(parts_.size());
  for (const auto& pp : parts_) {
    Part& p = *pp;
    const TagPlan tag_plan(p.mesh());
    for (const auto& [real, ghosts] : p.ghosted_on_) {
      for (const Copy& g : ghosts) {
        auto& b = out[static_cast<std::size_t>(g.part)];
        b.pack<std::uint64_t>(g.ent.packed());
        tag_plan.pack(real, b);
      }
    }
    for (std::size_t q = 0; q < out.size(); ++q)
      if (out[q].size() > 0)
        net_.send(p.id(), static_cast<PartId>(q),
                  std::exchange(out[q], pcu::OutBuffer{}));
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    while (!body.done()) {
      const Ent ghost = Ent::unpack(body.unpack<std::uint64_t>());
      unpackTags(p.mesh(), ghost, body);
    }
  });
}

}  // namespace dist
