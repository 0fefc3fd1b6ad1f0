/// \file migrate.cpp
/// \brief Mesh migration (paper II-C): move elements between parts while
/// maintaining the full distributed representation.
///
/// The algorithm follows FMDB's residence-based migration, expressed as
/// bulk-synchronous message phases over dist::Network:
///
///   A. Every part computes, for each participating entity (shared, or in
///      the closure of a moving element), the destinations of its adjacent
///      elements, and reports them to the entity's owner. The union at the
///      owner is the entity's *new residence* (paper II-B).
///   B. (per dimension, ascending) Owners send creation records
///      (dist/creation.hpp: vertex and one-level boundary keys,
///      coordinates, classification, tags) to residence parts lacking a
///      copy; receivers create each entity directly from its resolved
///      boundary and reply to each owner, in one payload, with the new
///      local handles.
///   C. Owners broadcast the final copy lists and the new owning part to
///      every residence part; parts dropped from the residence receive a
///      release message instead.
///   D. Each part deletes moved-out elements, then released entities in
///      descending dimension order (at which point nothing bounds them).

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "common/flatmap.hpp"
#include "core/tagio.hpp"
#include "dist/creation.hpp"
#include "dist/partedmesh.hpp"
#include "pcu/error.hpp"
#include "pcu/trace.hpp"

namespace dist {

namespace {

void addUnique(std::vector<PartId>& v, PartId p) {
  if (std::find(v.begin(), v.end(), p) == v.end()) v.push_back(p);
}

/// Owner-side bookkeeping for one participating entity.
struct Record {
  std::vector<PartId> new_res;   // accumulating union of contributions
  std::vector<Copy> new_copies;  // copies created this migration
};

}  // namespace

void PartedMesh::migrate(const MigrationPlan& plan) {
  const int dim = dim_;
  if (dim < 2) throw std::logic_error("migrate: mesh not distributed");
  if (plan.size() != parts_.size())
    throw std::invalid_argument("migrate: plan must cover every part");
  for (const auto& pp : parts_)
    if (pp->ghostCount() > 0)
      throw std::logic_error("migrate: unghost before migrating");

  // Validate plan contents up front, before any message or mutation: a bad
  // plan is a structured validation error naming the offending part and
  // entry, and the mesh is untouched.
  for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
    const Part& p = *parts_[pi];
    for (const auto& [elem, dest] : plan[pi]) {
      const auto where = std::string(core::topoName(elem.topo())) + " #" +
                         std::to_string(elem.index());
      if (dest < 0 || dest >= static_cast<PartId>(parts_.size()))
        throw pcu::Error(pcu::ErrorCode::kValidation,
                         static_cast<int>(pi),
                         "migrate: destination part " + std::to_string(dest) +
                             " out of range [0, " +
                             std::to_string(parts_.size()) + ") for " + where);
      if (!p.mesh().alive(elem))
        throw pcu::Error(pcu::ErrorCode::kValidation, static_cast<int>(pi),
                         "migrate: plan names dead entity " + where);
      if (core::topoDim(elem.topo()) != dim)
        throw pcu::Error(
            pcu::ErrorCode::kValidation, static_cast<int>(pi),
            "migrate: plan entry " + where + " is not an element (dim " +
                std::to_string(core::topoDim(elem.topo())) + ", expected " +
                std::to_string(dim) + ")");
    }
  }

  runTransactional("migrate", [&] { migrateBody(plan); });
}

void PartedMesh::migrateBody(const MigrationPlan& plan) {
  const int dim = dim_;
  pcu::trace::Scope trace_scope("dist:migrate");
  const std::size_t nparts = parts_.size();
  auto keys = creation::keyMaps(*this);

  // Element loads before migration (for the LeastLoaded owner rule).
  std::vector<std::size_t> load(nparts, 0);
  for (std::size_t p = 0; p < nparts; ++p) load[p] = parts_[p]->elementCount();
  auto chooseOwner = [&](const std::vector<PartId>& res) -> PartId {
    assert(!res.empty());
    if (rule_ == OwnerRule::MinPartId)
      return *std::min_element(res.begin(), res.end());
    PartId best = res.front();
    for (PartId p : res)
      if (load[static_cast<std::size_t>(p)] <
          load[static_cast<std::size_t>(best)])
        best = p;
    return best;
  };

  // Per-part element destinations (defaulting to stay).
  auto destOf = [&](PartId p, Ent elem) -> PartId {
    const auto& m = plan[static_cast<std::size_t>(p)];
    auto it = m.find(elem);
    return it == m.end() ? p : it->second;
  };

  // --- Phase A0: find the participating entities ---------------------------
  pcu::trace::begin("migrate:A0-participants");
  // Only entities in the closure of a moving element ("touched"), plus
  // every copy of a touched shared entity, take part in the protocol. This
  // keeps migration cost proportional to the data moved, not to the part
  // boundary size.
  std::vector<common::FlatMap<Ent, Record, EntHash>> records(nparts);
  std::vector<std::vector<Ent>> to_delete(nparts);
  std::vector<std::vector<std::pair<Ent, PartId>>> moving(nparts);
  std::vector<common::FlatSet<Ent, EntHash>> participating(nparts);

  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    std::array<Ent, core::kMaxDown> buf{};
    for (const auto& [elem, dest] : plan[pi]) {
      if (dest == p.id()) continue;  // contents validated by migrate()
      moving[pi].emplace_back(elem, dest);
      for (int d = 0; d < dim; ++d) {
        const int n = p.mesh().downward(elem, d, buf.data());
        for (int k = 0; k < n; ++k)
          participating[pi].insert(buf[static_cast<std::size_t>(k)]);
      }
    }
    // Notify owners of touched shared entities.
    for (Ent e : participating[pi]) {
      const GKey key = keyOf(p, e);
      if (key.part == p.id()) continue;
      pcu::OutBuffer b;
      b.pack<std::uint64_t>(key.ent.packed());
      net_.send(p.id(), key.part, std::move(b));
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    participating[static_cast<std::size_t>(to)].insert(
        Ent::unpack(body.unpack<std::uint64_t>()));
  });
  // Owners pull every copy of a touched shared entity into the protocol.
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (Ent e : participating[pi]) {
      const Remote* r = p.remote(e);
      if (r == nullptr || r->owner != p.id()) continue;
      for (const Copy& c : r->copies) {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(c.ent.packed());
        net_.send(p.id(), c.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    participating[static_cast<std::size_t>(to)].insert(
        Ent::unpack(body.unpack<std::uint64_t>()));
  });
  pcu::trace::end("migrate:A0-participants");

  // --- Phase A: local residence contributions -> owners -------------------
  pcu::trace::begin("migrate:A-residence");
  core::AdjVec adj;
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    common::FlatMap<Ent, std::vector<PartId>, EntHash> local_res;
    local_res.reserve(participating[pi].size());
    for (Ent e : participating[pi]) local_res.emplace(e, std::vector<PartId>{});
    // Destinations of adjacent elements.
    for (auto& [e, res] : local_res) {
      const int na = p.mesh().adjacentInto(e, dim, adj);
      for (int k = 0; k < na; ++k)
        addUnique(res, destOf(p.id(), adj[static_cast<std::size_t>(k)]));
      assert(!res.empty() && "entity with no adjacent element");
      const GKey key = keyOf(p, e);
      if (key.part == p.id()) {
        auto& rec = records[pi][e];
        for (PartId d : res) addUnique(rec.new_res, d);
      } else {
        pcu::OutBuffer b;
        b.pack<std::uint64_t>(key.ent.packed());
        b.packVector(res);
        net_.send(p.id(), key.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    const Ent e = Ent::unpack(body.unpack<std::uint64_t>());
    auto res = body.unpackVector<PartId>();
    auto& rec = records[static_cast<std::size_t>(to)][e];
    for (PartId d : res) addUnique(rec.new_res, d);
  });
  for (auto& m : records)
    for (auto& [e, rec] : m) std::sort(rec.new_res.begin(), rec.new_res.end());
  pcu::trace::end("migrate:A-residence");

  // --- Phase B: creation payloads per dimension ----------------------------
  pcu::trace::begin("migrate:B-create");
  // One tag plan per part, rebuilt for every dimension's payloads: a
  // delivery may create tags on the receiving parts.
  std::vector<core::TagPlan> tag_plans;
  // Every boundary entity of a round-d record exists on the receiver by
  // then (held before, or created in an earlier round), so each payload is
  // one record naming its references by full key.
  auto packCreation = [&](Part& p, Ent e, pcu::OutBuffer& b) {
    creation::pack(
        b, p.mesh(), tag_plans[static_cast<std::size_t>(p.id())], e,
        [&](Ent x) { return keyOf(p, x); },
        [](Ent) { return creation::kNoOrdinal; });
  };
  std::vector<std::vector<creation::Reply>> replies(nparts);
  auto createFromPayload = [&](PartId to, pcu::InBuffer& body) {
    const creation::Record rec = creation::decode(body, to);
    Part& p = *parts_[static_cast<std::size_t>(to)];
    auto& by_key = keys[static_cast<std::size_t>(to)];
    const Ent local = creation::create(p.mesh(), rec, to, by_key, {}, model_);
    core::unpackTags(p.mesh(), local, body);
    by_key[rec.key] = local;
    return creation::Reply{rec.key.part, rec.key.ent, local};
  };

  for (int d = 0; d <= dim; ++d) {
    tag_plans.clear();
    for (const auto& pp : parts_) tag_plans.emplace_back(pp->mesh());
    // Post creation payloads.
    if (d < dim) {
      for (std::size_t pi = 0; pi < nparts; ++pi) {
        Part& p = *parts_[pi];
        for (auto& [e, rec] : records[pi]) {
          if (core::topoDim(e.topo()) != d) continue;
          const auto current = p.residence(e);
          for (PartId t : rec.new_res) {
            if (std::find(current.begin(), current.end(), t) != current.end())
              continue;
            pcu::OutBuffer b;
            packCreation(p, e, b);
            net_.send(p.id(), t, std::move(b));
          }
        }
      }
    } else {
      for (std::size_t pi = 0; pi < nparts; ++pi) {
        Part& p = *parts_[pi];
        // Element counts per destination are known exactly — pre-size the
        // transport staging so the send loop never regrows a group.
        std::vector<std::size_t> ndest(nparts, 0);
        for (const auto& [elem, dest] : moving[pi])
          ++ndest[static_cast<std::size_t>(dest)];
        for (std::size_t t = 0; t < nparts; ++t)
          net_.reserveStage(p.id(), static_cast<PartId>(t), ndest[t]);
        for (const auto& [elem, dest] : moving[pi]) {
          pcu::OutBuffer b;
          packCreation(p, elem, b);
          net_.send(p.id(), dest, std::move(b));
        }
      }
    }
    // Deliver creations; receivers reply with their new handles, one
    // payload per (receiver, owner) pair.
    net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
      const creation::Reply reply = createFromPayload(to, body);
      if (d < dim) replies[static_cast<std::size_t>(to)].push_back(reply);
    });
    creation::postReplies(net_, replies);
    // Deliver handle replies to owners.
    net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      auto& recs = records[static_cast<std::size_t>(to)];
      creation::readReplies(body, [&](Ent e, Ent handle) {
        recs.at(e).new_copies.push_back(Copy{from, handle});
      });
    });
  }
  pcu::trace::end("migrate:B-create");

  // --- Phase C: finalize copies & ownership --------------------------------
  pcu::trace::begin("migrate:C-finalize");
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (auto& [e, rec] : records[pi]) {
      // All copies: pre-existing (self + remotes) plus newly created.
      std::vector<Copy> all{Copy{p.id(), e}};
      if (const Remote* r = p.remote(e))
        all.insert(all.end(), r->copies.begin(), r->copies.end());
      all.insert(all.end(), rec.new_copies.begin(), rec.new_copies.end());
      // Filter to the new residence and sort by part.
      std::vector<Copy> final_copies;
      for (const Copy& c : all)
        if (std::find(rec.new_res.begin(), rec.new_res.end(), c.part) !=
            rec.new_res.end())
          final_copies.push_back(c);
      std::sort(final_copies.begin(), final_copies.end(),
                [](const Copy& a, const Copy& b) { return a.part < b.part; });
      const PartId new_owner = chooseOwner(rec.new_res);
      // Retained residence parts get the final record.
      for (const Copy& c : final_copies) {
        pcu::OutBuffer b;
        b.pack<std::uint8_t>(1);  // kind: finalize
        creation::writeRemote(b, c.ent, new_owner, final_copies);
        net_.send(p.id(), c.part, std::move(b));
      }
      // Dropped parts get a release.
      for (const Copy& c : all) {
        if (std::find(rec.new_res.begin(), rec.new_res.end(), c.part) !=
            rec.new_res.end())
          continue;
        pcu::OutBuffer b;
        b.pack<std::uint8_t>(0);  // kind: release
        b.pack<std::uint64_t>(c.ent.packed());
        net_.send(p.id(), c.part, std::move(b));
      }
    }
  }
  net_.deliverAll([&](PartId to, PartId, pcu::InBuffer body) {
    Part& p = *parts_[static_cast<std::size_t>(to)];
    const auto kind = body.unpack<std::uint8_t>();
    p.touchTables();
    if (kind == 0) {
      const Ent local = Ent::unpack(body.unpack<std::uint64_t>());
      p.remotes_.erase(local);
      to_delete[static_cast<std::size_t>(to)].push_back(local);
      return;
    }
    auto [local, r] = creation::readRemote(body, to);
    if (r.copies.empty())
      p.remotes_.erase(local);  // became interior
    else
      p.remotes_[local] = std::move(r);
  });
  pcu::trace::end("migrate:C-finalize");

  // --- Phase D: deletion ----------------------------------------------------
  pcu::trace::Scope delete_scope("migrate:D-delete");
  for (std::size_t pi = 0; pi < nparts; ++pi) {
    Part& p = *parts_[pi];
    for (const auto& [elem, dest] : moving[pi]) {
      (void)dest;
      p.mesh().destroy(elem);
    }
    auto& dels = to_delete[pi];
    std::sort(dels.begin(), dels.end(), [](Ent a, Ent b) {
      return core::topoDim(a.topo()) > core::topoDim(b.topo());
    });
    for (Ent e : dels) p.mesh().destroy(e);
  }
}

}  // namespace dist
