#include "dist/failover.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "common/crc32.hpp"
#include "core/meshio.hpp"
#include "dist/pario.hpp"
#include "pcu/error.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace dist {
namespace failover {

namespace {

[[noreturn]] void failValidation(const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kValidation, -1, what);
}

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void BuddyJournal::record(const PartedMesh& pm) {
  const int nparts = pm.parts();
  MetaStamp meta_stamp;
  meta_stamp.parts.reserve(static_cast<std::size_t>(nparts));
  for (PartId p = 0; p < nparts; ++p)
    meta_stamp.parts.emplace_back(pm.part(p).generation(),
                                  pm.part(p).mesh().topoVersion());
  // Ordinal maps of every part, built only if some metadata stream must be.
  std::vector<partio::OrdinalMap> ords;
  ++records_;
  std::uint64_t streamed = 0;
  for (PartId p = 0; p < nparts; ++p) {
    const Part& part = pm.part(p);
    const core::Mesh& m = part.mesh();
    MeshStamp mesh_stamp{part.generation(), m.topoVersion(), m.dataVersion(),
                         {}};
    for (const auto* tag : m.tags().list())
      mesh_stamp.tags.emplace_back(tag->name(), tag->version());
    meta_stamp.tables = part.tableVersion();

    auto it = parts_.find(p);
    Snapshot* old = it == parts_.end() ? nullptr : &it->second;
    const bool mesh_same = old != nullptr && old->mesh_stamp == mesh_stamp;
    const bool meta_same = old != nullptr && old->meta_stamp == meta_stamp;
    if (mesh_same && meta_same) {
      ++records_skipped_;  // provably unchanged: nothing to serialize
      continue;
    }
    std::vector<std::byte> mesh;
    std::vector<std::byte> meta;
    if (!mesh_same) mesh = core::meshToBytes(m);
    if (!meta_same) {
      if (ords.empty())
        for (PartId q = 0; q < nparts; ++q)
          ords.push_back(partio::buildOrdinals(pm.part(q).mesh()));
      meta = partio::buildMeta(part, ords[static_cast<std::size_t>(p)], ords);
    }
    const std::uint32_t mesh_crc =
        mesh_same ? old->mesh_crc : common::crc32(mesh.data(), mesh.size());
    const std::uint32_t meta_crc =
        meta_same ? old->meta_crc : common::crc32(meta.data(), meta.size());
    if (old != nullptr && old->mesh_crc == mesh_crc &&
        old->meta_crc == meta_crc &&
        (mesh_same || old->mesh.size() == mesh.size()) &&
        (meta_same || old->meta.size() == meta.size())) {
      ++records_skipped_;  // unchanged since the last record: no traffic
      // The stored bytes are the current state's: key them on its stamps.
      old->mesh_stamp = std::move(mesh_stamp);
      old->meta_stamp = meta_stamp;
      continue;
    }
    if (mesh_same) mesh = std::move(old->mesh);
    if (meta_same) meta = std::move(old->meta);
    streamed += mesh.size() + meta.size();
    parts_[p] = Snapshot{std::move(mesh), std::move(meta), mesh_crc,
                         meta_crc,        std::move(mesh_stamp),
                         meta_stamp};
  }
  bytes_streamed_ += streamed;
  if (pcu::trace::enabled() && streamed > 0)
    pcu::trace::counter("fo:journal_bytes",
                        static_cast<std::int64_t>(streamed));
}

std::optional<partio::Replica> BuddyJournal::replica(
    PartId p, std::string* fault) const {
  auto it = parts_.find(p);
  std::string why = "no journal replica";
  if (it != parts_.end()) {
    const Snapshot& s = it->second;
    const std::uint32_t mesh = common::crc32(s.mesh.data(), s.mesh.size());
    const std::uint32_t meta = common::crc32(s.meta.data(), s.meta.size());
    if (mesh == s.mesh_crc && meta == s.meta_crc)
      return partio::Replica{p, s.mesh, s.meta};
    const bool mesh_bad = mesh != s.mesh_crc;
    char crcs[64];
    std::snprintf(crcs, sizeof crcs,
                  "%s stream CRC (recorded 0x%08X, now 0x%08X)",
                  mesh_bad ? "mesh" : "metadata",
                  mesh_bad ? s.mesh_crc : s.meta_crc, mesh_bad ? mesh : meta);
    why = std::string("journal replica fails its ") + crcs;
  }
  if (fault != nullptr) *fault = "part " + std::to_string(p) + ": " + why;
  return std::nullopt;
}

int buddyOf(int r, int nranks, const std::vector<int>& dead) {
  const std::set<int> gone(dead.begin(), dead.end());
  for (int step = 1; step <= nranks; ++step) {
    const int cand = (r + step) % nranks;
    if (gone.count(cand) == 0) return cand;
  }
  failValidation("buddyOf: all " + std::to_string(nranks) +
                 " ranks are dead; nothing can adopt rank " +
                 std::to_string(r) + "'s parts");
}

EvacuationReport evacuate(PartedMesh& pm, const BuddyJournal& journal,
                          const std::string& checkpoint_dir) {
  const auto t0 = std::chrono::steady_clock::now();
  EvacuationReport rep;
  rep.ranks_lost = pm.network().deadRanks();
  if (rep.ranks_lost.empty())
    failValidation("evacuate: no rank is dead");
  const std::set<int> gone(rep.ranks_lost.begin(), rep.ranks_lost.end());

  const PartMap& map = pm.network().partMap();
  const int nparts = pm.parts();
  for (PartId p = 0; p < nparts; ++p)
    if (gone.count(map.rankOf(p)) > 0) rep.parts_evacuated.push_back(p);
  if (rep.parts_evacuated.empty())
    failValidation("evacuate: dead ranks host no parts");

  // 1. Fetch every dead part's newest replica — the buddy journal first,
  //    the checkpoint directory as fallback — BEFORE touching the mesh, so
  //    a missing or corrupt replica aborts with nothing wiped.
  std::vector<partio::Replica> replicas;
  for (PartId p : rep.parts_evacuated) {
    std::string fault;
    std::optional<partio::Replica> r = journal.replica(p, &fault);
    if (!r && !checkpoint_dir.empty()) {
      r = partio::Replica{p, {}, {}};
      std::tie(r->mesh, r->meta) = pario::partBytes(checkpoint_dir, p);
    }
    if (!r)
      failValidation("evacuate: " + fault + ", and no checkpoint fallback (" +
                     "dead rank " + std::to_string(map.rankOf(p)) + ")");
    rep.journal_bytes_replayed += r->mesh.size() + r->meta.size();
    replicas.push_back(std::move(*r));
  }
  // 2. Rebuild them in place and patch the survivors' mirror records.
  //    Survivors resolve at their CURRENT state: the transactional
  //    rollback landed them on the quiescent state the journal recorded.
  partio::rebuildParts(pm, std::move(replicas), "evacuate");

  // 3. Re-pin every evacuated part to its buddy rank. This is what lifts
  //    the transport's dead-rank gate: from here on the whole mesh lives
  //    on surviving ranks only.
  const int nranks = map.machine().totalCores();
  std::vector<int> ranks(static_cast<std::size_t>(nparts));
  for (PartId p = 0; p < nparts; ++p) {
    const int r = map.rankOf(p);
    ranks[static_cast<std::size_t>(p)] =
        gone.count(r) > 0 ? buddyOf(r, nranks, rep.ranks_lost) : r;
  }
  pm.network().setPartRanks(std::move(ranks));

  for (PartId p : rep.parts_evacuated) {
    const core::Mesh& m = pm.part(p).mesh();
    for (int d = 0; d <= m.dim(); ++d) rep.entities_adopted += m.count(d);
  }

  pm.verify();

  rep.detect_ms =
      static_cast<double>(pcu::failure::stats().last_detect_us) / 1000.0;
  rep.evacuate_ms = msSince(t0);
  if (pcu::trace::enabled()) {
    pcu::trace::counter(
        "fo:parts_evacuated",
        static_cast<std::int64_t>(rep.parts_evacuated.size()));
    pcu::trace::counter("fo:entities_adopted",
                        static_cast<std::int64_t>(rep.entities_adopted));
    pcu::trace::counter(
        "fo:bytes_replayed",
        static_cast<std::int64_t>(rep.journal_bytes_replayed));
  }
  return rep;
}

}  // namespace failover
}  // namespace dist
