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
#include "core/tagio.hpp"
#include "dist/creation.hpp"
#include "dist/integrity.hpp"
#include "dist/partedmesh.hpp"
#include "dist/slotindex.hpp"
#include "dist/plan.hpp"
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
  auto keys = creation::keyMaps(*this);
  std::array<Ent, core::kMaxDown> buf{};
  // Per-part scratch, reused for every part: the slot-indexed remote
  // records, each vertex's "reached while growing layers toward q" stamp,
  // and each closure entity's ordinal within its dimension's list
  // (kNoOrdinal outside the current payload's closure).
  SlotIndex<Remote> remote_of;
  std::vector<std::uint32_t> reached;
  std::uint32_t stamp = 0;
  std::array<std::vector<std::uint32_t>, core::kTopoCount> ordinal;
  std::vector<std::vector<Ent>> closure(static_cast<std::size_t>(dim) + 1);
  std::vector<Ent> frontier;
  std::vector<Ent> new_elems;

  // Post one closure payload per (part, neighbour) pair.
  for (const auto& pp : parts_) {
    Part& p = *pp;
    remote_of.build(p.mesh(), p.remotes_);
    reached.assign(p.mesh().slots(core::Topo::Vertex), 0);
    for (int d = 0; d < dim; ++d)
      for (core::Topo t : core::toposOfDim(d))
        ordinal[static_cast<std::size_t>(t)].assign(p.mesh().slots(t),
                                                    creation::kNoOrdinal);
    // Boundary vertices shared with each neighbour.
    common::FlatMap<PartId, std::vector<Ent>> seeds;
    for (const auto& [e, r] : p.remotes_) {
      if (e.topo() != core::Topo::Vertex) continue;
      for (const Copy& c : r.copies) seeds[c.part].push_back(e);
    }
    const core::TagPlan tag_plan(p.mesh());
    const core::TagPlan::SlotView tags(tag_plan, p.mesh());
    core::AdjVec adj;
    for (auto& [q, verts] : seeds) {
      // Grow `layers` element layers from the seed vertices.
      ++stamp;
      for (Ent v : verts) reached[v.index()] = stamp;
      common::FlatSet<Ent, EntHash> elems;
      frontier.assign(verts.begin(), verts.end());
      for (int layer = 0; layer < layers && !frontier.empty(); ++layer) {
        new_elems.clear();
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
          for (int k = 0; k < nv; ++k) {
            const Ent v = buf[static_cast<std::size_t>(k)];
            if (reached[v.index()] == stamp) continue;
            reached[v.index()] = stamp;
            frontier.push_back(v);
          }
        }
      }
      if (elems.empty()) continue;
      // Closure of the element set, dimension-ascending, skipping entities
      // the neighbour already holds as real copies.
      auto held_by_q = [&](const Remote* r) {
        return r != nullptr &&
               std::any_of(r->copies.begin(), r->copies.end(),
                           [&](const Copy& c) { return c.part == q; });
      };
      for (auto& level : closure) level.clear();
      for (Ent elem : elems) {
        for (int d = 0; d < dim; ++d) {
          const int n = p.mesh().downward(elem, d, buf.data());
          for (int k = 0; k < n; ++k) {
            const Ent e = buf[static_cast<std::size_t>(k)];
            auto& ord = ordinal[static_cast<std::size_t>(e.topo())][e.index()];
            if (ord != creation::kNoOrdinal || held_by_q(remote_of.find(e)))
              continue;
            auto& level = closure[static_cast<std::size_t>(d)];
            ord = static_cast<std::uint32_t>(level.size());
            level.push_back(e);
          }
        }
        closure[static_cast<std::size_t>(dim)].push_back(elem);
      }
      // Records go out dimension-ascending, so boundaries travel before
      // the entities they bound and can be named by record ordinal.
      std::array<std::uint32_t, 4> first{};  // ordinal of each level's head
      std::uint32_t total = 0;
      for (int d = 0; d <= dim; ++d) {
        first[static_cast<std::size_t>(d)] = total;
        total += static_cast<std::uint32_t>(
            closure[static_cast<std::size_t>(d)].size());
      }
      auto ordinalOf = [&](Ent e) {
        const std::uint32_t ord =
            ordinal[static_cast<std::size_t>(e.topo())][e.index()];
        if (ord == creation::kNoOrdinal) return ord;
        return first[static_cast<std::size_t>(core::topoDim(e.topo()))] + ord;
      };
      auto key = [&](Ent e) { return keyOf(p.id(), e, remote_of.find(e)); };
      // Size the payload, then fill it. A record's size depends only on
      // which references travel as ordinals, so sizing resolves no keys.
      std::size_t bytes = sizeof(total);
      for (const auto& level : closure)
        for (Ent e : level) {
          creation::writeRecord(
              [&bytes](const auto& v) { bytes += sizeof(v); }, p.mesh(), e,
              [](Ent) { return GKey{}; }, ordinalOf);
          bytes += tags.recordBytes(e);
        }
      pcu::SizedWriter out(bytes);
      out.put(total);
      for (const auto& level : closure)
        for (Ent e : level) {
          creation::writeRecord([&out](const auto& v) { out.put(v); },
                                p.mesh(), e, key, ordinalOf);
          tags.write(e, out);
        }
      net_.send(p.id(), q, pcu::OutBuffer(std::move(out).take()));
      for (int d = 0; d < dim; ++d)
        for (Ent e : closure[static_cast<std::size_t>(d)])
          ordinal[static_cast<std::size_t>(e.topo())][e.index()] =
              creation::kNoOrdinal;
    }
  }

  // Receivers create ghosts (deduplicating by key) and collect one handle
  // reply per created ghost for its owner.
  std::vector<std::vector<Ent>> earlier(parts_.size());
  std::vector<std::vector<creation::Reply>> replies(parts_.size());
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    auto& by_key = keys[static_cast<std::size_t>(to)];
    auto& local = earlier[static_cast<std::size_t>(to)];
    local.clear();
    const auto total = body.unpack<std::uint32_t>();
    // Reserve for every record the payload can hold, so a hostile count
    // cannot size the tables.
    const std::size_t fit = std::min<std::size_t>(
        total, body.remaining() / creation::kMinRecordBytes);
    by_key.reserve(by_key.size() + fit);
    p.ghost_source_.reserve(p.ghost_source_.size() + fit);
    local.reserve(fit);
    bool touched = false;
    for (std::uint32_t i = 0; i < total; ++i) {
      const creation::Record rec = creation::decode(body, to);
      Ent e;
      if (rec.key.part == to) {
        e = rec.key.ent;
      } else if (const auto it = by_key.find(rec.key); it != by_key.end()) {
        e = it->second;
      }
      if (e) {  // already held: a real copy or an earlier payload's ghost
        core::skipTags(body);
        local.push_back(e);
        continue;
      }
      e = creation::create(p.mesh(), rec, to, by_key, local, model_);
      core::unpackTags(p.mesh(), e, body);
      by_key.emplace(rec.key, e);
      if (!touched) {  // one fresh table version covers the whole payload
        p.touchTables();
        touched = true;
      }
      p.ghost_source_.emplace(e, Copy{rec.key.part, rec.key.ent});
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
  std::array<std::vector<char>, core::kTopoCount> is_ghost;
  for (const auto& pp : parts_) {
    Part& p = *pp;
    if (p.ghost_source_.empty() && p.ghosted_on_.empty()) continue;
    for (auto& row : is_ghost) row.assign(row.size(), 0);
    for (const auto& [e, src] : p.ghost_source_) {
      (void)src;
      auto& row = is_ghost[static_cast<std::size_t>(e.topo())];
      if (row.size() <= e.index())
        row.resize(std::max<std::size_t>(p.mesh().slots(e.topo()),
                                         std::size_t{e.index()} + 1),
                   0);
      row[e.index()] = 1;
    }
    // Destroy dimension-descending, then handle-descending (type, then
    // slot): elements before their boundary, and every freed slot enters
    // its free list in one fixed order.
    for (int d = 3; d >= 0; --d) {
      const auto topos = core::toposOfDim(d);
      for (auto t = topos.rbegin(); t != topos.rend(); ++t) {
        const auto& row = is_ghost[static_cast<std::size_t>(*t)];
        for (std::size_t i = row.size(); i-- > 0;)
          if (row[i]) p.mesh().destroy(Ent(*t, static_cast<std::uint32_t>(i)));
      }
    }
    p.ghost_source_.clear();
    p.ghosted_on_.clear();
    p.touchTables();
  }
  if (armor != nullptr) armor->sealAndMaybeInject();
}

void PartedMesh::syncSharedTags(const std::string& only) {
  runTransactional("syncSharedTags", [&] {
    pcu::trace::Scope trace_scope("dist:syncSharedTags");
    bcastTags(Plan::shared(*this), only);
  }, Writes::kTagValues);
}

void PartedMesh::syncGhostTags() {
  runTransactional("syncGhostTags", [&] {
    pcu::trace::Scope trace_scope("dist:syncGhostTags");
    bcastTags(Plan::ghosts(*this), "");
  }, Writes::kTagValues);
}

void PartedMesh::bcastTags(const Plan& plan, const std::string& only) {
  // Every sender's tags are resolved before the first delivery, which may
  // create tags on its receiver.
  std::vector<core::TagPlan> tags;
  tags.reserve(parts_.size());
  for (const auto& pp : parts_) tags.emplace_back(pp->mesh(), only);
  plan.bcast(
      net_,
      [&](PartId p, Ent e, pcu::OutBuffer& out) {
        tags[static_cast<std::size_t>(p)].pack(e, out);
      },
      [&](PartId p, Ent e, pcu::InBuffer& in) {
        core::unpackTags(parts_[static_cast<std::size_t>(p)]->mesh(), e, in);
      });
}

}  // namespace dist
