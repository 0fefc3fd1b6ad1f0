#include "dist/partedmesh.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"
#include "common/smallvec.hpp"
#include "core/order.hpp"
#include "core/tagio.hpp"
#include "dist/integrity.hpp"
#include "dist/slotindex.hpp"
#include "gmi/model.hpp"
#include "pcu/arq.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace dist {

/// --- Part ------------------------------------------------------------------

std::uint64_t Part::nextStamp() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::vector<PartId> Part::residence(Ent e) const {
  std::vector<PartId> res{id_};
  if (const Remote* r = remote(e))
    for (const Copy& c : r->copies) res.push_back(c.part);
  std::sort(res.begin(), res.end());
  return res;
}

std::size_t Part::countLocal(int d) const {
  if (ghost_source_.empty()) return mesh_.count(d);  // O(1) fast path
  std::size_t n = 0;
  for (Ent e : mesh_.entities(d))
    if (!isGhost(e)) ++n;
  return n;
}

std::size_t Part::countOwned(int d) const {
  std::size_t n = 0;
  for (Ent e : mesh_.entities(d))
    if (!isGhost(e) && isOwned(e)) ++n;
  return n;
}

std::vector<Ent> Part::elements() const { return locals(mesh_.dim()); }

std::size_t Part::elementCount() const {
  const int d = mesh_.dim();
  return d < 0 ? 0 : countLocal(d);
}

std::vector<Ent> Part::locals(int d) const {
  std::vector<Ent> out;
  out.reserve(mesh_.count(d));
  for (Ent e : mesh_.entities(d))
    if (!isGhost(e)) out.push_back(e);
  return out;
}

std::vector<PartId> Part::neighborParts(int d) const {
  std::vector<PartId> out;
  for (const auto& [e, r] : remotes_) {
    if (core::topoDim(e.topo()) != d) continue;
    for (const Copy& c : r.copies)
      if (std::find(out.begin(), out.end(), c.part) == out.end())
        out.push_back(c.part);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// --- PartedMesh basics ------------------------------------------------------

/// One part's rollback snapshot for an operation that may write anything:
/// the flat mesh image and copies of the three tables.
struct PartedMesh::Rollback {
  core::Mesh::Image mesh;
  common::FlatMap<Ent, Remote, EntHash> remotes;
  common::FlatMap<Ent, Copy, EntHash> ghost_source;
  common::FlatMap<Ent, std::vector<Copy>, EntHash> ghosted_on;
};

PartedMesh::PartedMesh(gmi::Model* model, int nparts, PartMap map,
                       OwnerRule rule)
    : model_(model), map_(map), net_(map), rule_(rule) {
  assert(nparts > 0);
  parts_.reserve(static_cast<std::size_t>(nparts));
  for (PartId p = 0; p < nparts; ++p)
    parts_.push_back(std::make_unique<Part>(p, model));
}

PartedMesh::~PartedMesh() = default;

bool PartedMesh::integrityEnabled() const {
  if (integrity_override_ >= 0) return integrity_override_ != 0;
  if (pcu::faults::memEnabled()) return true;
  const char* env = std::getenv("PUMI_INTEGRITY");
  return env != nullptr && *env != '\0' && *env != '0';
}

integrity::Armor& PartedMesh::armor() {
  if (!armor_) armor_ = std::make_unique<integrity::Armor>(*this);
  return *armor_;
}

integrity::Armor* PartedMesh::armorIfActive() {
  if (!integrityEnabled()) return nullptr;
  return &armor();
}

PartId PartedMesh::addPart() {
  const PartId p = static_cast<PartId>(parts_.size());
  parts_.push_back(std::make_unique<Part>(p, model_));
  net_.addPart();
  return p;
}

std::size_t PartedMesh::globalCount(int d) const {
  std::size_t n = 0;
  for (const auto& p : parts_) n += p->countOwned(d);
  return n;
}

/// --- distribute --------------------------------------------------------------

std::unique_ptr<PartedMesh> PartedMesh::distribute(
    const core::Mesh& serial, gmi::Model* model,
    const std::vector<PartId>& elem_dest, PartMap map, OwnerRule rule) {
  const int dim = serial.dim();
  if (dim < 2) throw std::invalid_argument("distribute: mesh has no elements");
  if (elem_dest.size() != serial.count(dim))
    throw std::invalid_argument("distribute: one destination per element");
  auto out = std::make_unique<PartedMesh>(model, map.parts(), map, rule);
  out->dim_ = dim;

  // Residence of every serial entity: the parts of its adjacent elements
  // (paper II-B). Sorted unique lists. Computed on serial iteration order
  // either way — elem_dest[i] is bound to it by contract.
  common::FlatMap<Ent, std::vector<PartId>, EntHash> res;
  res.reserve(serial.count(0) + serial.count(1) + serial.count(2) +
              serial.count(3));
  {
    std::size_t i = 0;
    std::array<Ent, core::kMaxDown> buf{};
    for (Ent elem : serial.entities(dim)) {
      const PartId dest = elem_dest[i++];
      if (dest < 0 || dest >= map.parts())
        throw std::invalid_argument("distribute: destination out of range");
      res[elem].push_back(dest);
      for (int d = 0; d < dim; ++d) {
        const int n = serial.downward(elem, d, buf.data());
        for (int k = 0; k < n; ++k) {
          auto& r = res[buf[static_cast<std::size_t>(k)]];
          if (std::find(r.begin(), r.end(), dest) == r.end())
            r.push_back(dest);
        }
      }
    }
  }
  for (auto& [e, r] : res) std::sort(r.begin(), r.end());

  // Entity creation order per dimension. By default each part's pools are
  // laid out in locality (RCM) order — adjacency walks over the SoA pools
  // reward neighbours that sit close in memory — with element order
  // following the vertex order. PUMI_NO_REORDER=1 restores serial iteration order (the
  // A/B baseline for the layout benches); the two layouts are digest- and
  // fingerprint-identical, only handle assignment differs.
  const bool reorder = std::getenv("PUMI_NO_REORDER") == nullptr;
  std::vector<std::vector<Ent>> order(static_cast<std::size_t>(dim) + 1);
  if (reorder) {
    pcu::trace::Scope span("layout:reorder");
    const auto vorder = core::order::rcmVertices(serial);
    const auto vranks = core::order::ranksOf(serial, vorder);
    order[0] = vorder;
    for (int d = 1; d <= dim; ++d)
      order[static_cast<std::size_t>(d)] =
          core::order::byMinVertexRank(serial, d, vranks);
  } else {
    for (int d = 0; d <= dim; ++d)
      order[static_cast<std::size_t>(d)] = serial.all(d);
  }

  // Per-part copies of each serial entity, created dimension-ascending.
  const core::TagPlan serial_tags(serial);
  common::FlatMap<Ent, std::vector<Copy>, EntHash> copies;
  copies.reserve(res.size());
  std::array<Ent, core::kMaxDown> vbuf{};
  for (int d = 0; d <= dim; ++d) {
    for (Ent e : order[static_cast<std::size_t>(d)]) {
      auto rit = res.find(e);
      if (rit == res.end()) continue;  // entity not in any element's closure
      auto& cps = copies[e];
      for (PartId pid : rit->second) {
        Part& part = out->part(pid);
        Ent local;
        if (d == 0) {
          local = part.mesh_.createVertex(serial.point(e),
                                          serial.classification(e));
        } else {
          const int nv = serial.downward(e, 0, vbuf.data());
          std::array<Ent, 8> lverts{};
          for (int k = 0; k < nv; ++k) {
            const auto& vcopies = copies.at(vbuf[static_cast<std::size_t>(k)]);
            auto it = std::find_if(
                vcopies.begin(), vcopies.end(),
                [&](const Copy& c) { return c.part == pid; });
            assert(it != vcopies.end());
            lverts[static_cast<std::size_t>(k)] = it->ent;
          }
          local = part.mesh_.buildElement(
              e.topo(), {lverts.data(), static_cast<std::size_t>(nv)},
              serial.classification(e));
        }
        // Transport serial tags to each copy.
        pcu::OutBuffer tags;
        serial_tags.pack(e, tags);
        pcu::InBuffer in(std::move(tags).take());
        core::unpackTags(part.mesh_, local, in);
        cps.push_back(Copy{pid, local});
      }
    }
  }

  // Remote-copy records and ownership for shared entities.
  for (const auto& [e, cps] : copies) {
    if (cps.size() < 2) continue;
    const PartId owner = cps.front().part;  // lists are sorted by part id
    for (const Copy& self : cps) {
      Remote r;
      r.owner = owner;
      for (const Copy& other : cps)
        if (other.part != self.part) r.copies.push_back(other);
      out->part(self.part).remotes_.emplace(self.ent, std::move(r));
    }
  }
  for (const auto& p : out->parts_) p->touchTables();
  return out;
}

/// --- transactional execution -------------------------------------------------

void PartedMesh::runTransactional(const char* opname,
                                  const std::function<void()>& body,
                                  Writes writes) {
  if (open_) {
    // Nesting rule: join the enclosing transaction, whose snapshot, gate,
    // seal and retries cover this operation too.
    body();
    return;
  }
  open_ = true;
  struct Close {
    bool& open;
    ~Close() { open = false; }
  } close{open_};
  const bool active = transactional_ || pcu::faults::enabled();
  // Armor entry audit: catch (and repair) any bit flipped since the last
  // boundary BEFORE the snapshot below copies it, and before the operation
  // masks it under legitimate version bumps. The exit seal after the commit
  // gate re-keys the ledgers against the new state, then plants any memflip
  // scheduled for this boundary — so an injected flip sits in *sealed* live
  // state until the next entry audit finds it.
  integrity::Armor* armor = armorIfActive();
  if (armor != nullptr) armor->auditAndRepair(opname);
  if (!active) {
    body();
    if (armor != nullptr) armor->sealAndMaybeInject();
    return;
  }
  // Retry budget: explicit setOpRetries() wins; otherwise reliable mode
  // (PUMI_RELIABLE) supplies a default, and plain transactional mode keeps
  // the historical abort-on-first-failure behaviour.
  const int retries =
      op_retries_ >= 0
          ? op_retries_
          : (pcu::arq::enabled() ? pcu::arq::config().op_retries : 0);
  const bool values_only = writes == Writes::kTagValues;
  for (int attempt = 0;; ++attempt) {
    // Stage: snapshot what the operation may write so an abort can restore
    // it exactly — each part's tag registry for a values-only operation,
    // else each part's flat mesh image and its boundary and ghost tables.
    std::vector<core::Mesh::Tags> saved_tags;
    if (values_only) {
      saved_tags.reserve(parts_.size());
      for (const auto& pp : parts_) saved_tags.push_back(pp->mesh_.tags());
    } else {
      rollback_.resize(parts_.size());
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        const Part& p = *parts_[i];
        Rollback& r = rollback_[i];
        p.mesh_.saveImage(r.mesh);
        r.remotes = p.remotes_;
        r.ghost_source = p.ghost_source_;
        r.ghosted_on = p.ghosted_on_;
      }
    }
    const auto nparts_before = parts_.size();
    const int dim_before = dim_;
    try {
      body();
      commitGate();  // structural invariants must hold
      if (armor != nullptr) armor->sealAndMaybeInject();
      return;
    } catch (...) {
      // Abort: restore every part, drop parts added mid-operation, and
      // clear any messages or channel state the failed phases left behind.
      gate_stamps_.clear();
      while (parts_.size() > nparts_before) parts_.pop_back();
      for (std::size_t i = 0; i < nparts_before; ++i) {
        Part& p = *parts_[i];
        if (values_only) {
          p.mesh_.tags() = std::move(saved_tags[i]);
          continue;
        }
        Rollback& r = rollback_[i];
        p.mesh_.restoreImage(r.mesh);
        p.remotes_ = std::move(r.remotes);
        p.ghost_source_ = std::move(r.ghost_source);
        p.ghosted_on_ = std::move(r.ghosted_on);
        p.touchTables();
      }
      dim_ = dim_before;
      net_.resetTransport();
      std::optional<pcu::Error> err;
      try {
        throw;
      } catch (const pcu::Error& e) {
        err.emplace(e);
      } catch (const std::exception& e) {
        err.emplace(pcu::ErrorCode::kProtocol, -1,
                    std::string(opname) + " aborted: " + e.what());
      }
      // Validation errors reject the operation's *input* — retrying can
      // never succeed. A rank failure is not transient either: the dead
      // rank stays dead, so the rolled-back state must propagate to the
      // caller for evacuation instead of burning the retry budget.
      // Everything else may be a transient fault: roll the fault epoch (so
      // the replay does not deterministically re-draw the same injected
      // failures) and try again while budget remains.
      if (err->code() == pcu::ErrorCode::kValidation ||
          err->code() == pcu::ErrorCode::kRankFailed || attempt >= retries)
        throw *err;
      ++ops_retried_;
      net_.bumpFaultEpoch();
    }
  }
}

std::vector<std::uint64_t> PartedMesh::gateStamps() const {
  std::vector<std::uint64_t> out;
  out.reserve(2 + 4 * parts_.size());
  out.push_back(parts_.size());
  out.push_back(static_cast<std::uint64_t>(dim_ + 1));
  for (const auto& pp : parts_) {
    out.push_back(pp->generation());
    out.push_back(pp->mesh_.topoVersion());
    out.push_back(pp->mesh_.dataVersion());
    out.push_back(pp->tableVersion());
  }
  return out;
}

void PartedMesh::commitGate() {
  // verify() reads only state these stamps cover, and every legitimate
  // write moves one of them; corruption that moves none is the armor's to
  // find, at the audit that opens every commit point.
  std::vector<std::uint64_t> now = gateStamps();
  if (now == gate_stamps_) return;
  verify();
  gate_stamps_ = std::move(now);
}

std::uint64_t PartedMesh::fingerprint() const {
  auto mix = [](std::uint64_t& h, std::uint64_t v) {
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 32;
    h = (h ^ v) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  };
  std::uint64_t h = 0x243f6a8885a308d3ull;
  mix(h, parts_.size());
  mix(h, static_cast<std::uint64_t>(dim_ + 1));
  // The digest must survive a checkpoint/restore (entity handles and
  // classification pointers are rebuilt) AND a change of storage layout
  // (distribute's locality reordering assigns different handles/iteration
  // positions to the same mesh). Entities are therefore named by content:
  // vertices by the bit patterns of their coordinates, higher entities by
  // (type, sorted vertex names) — invariant under any relabeling.
  // Classification is named by its model (dim, tag). Exact-coordinate ties
  // fall back to iteration order, which keeps the digest deterministic for
  // a fixed layout (duplicate vertex positions do not occur within a part
  // of a verified distributed mesh).
  //
  // Names live in slot-indexed rows: ord[part][topo][slot], kNoName for a
  // slot that holds no live entity.
  constexpr std::uint64_t kNoName = ~std::uint64_t{0};
  using Names = std::array<std::vector<std::uint64_t>, core::kTopoCount>;
  std::vector<Names> ord(parts_.size());
  std::vector<std::array<std::vector<Ent>, 4>> canon(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const core::Mesh& m = parts_[i]->mesh();
    for (int t = 0; t < core::kTopoCount; ++t)
      ord[i][static_cast<std::size_t>(t)].assign(
          m.slots(static_cast<core::Topo>(t)), kNoName);
    // Vertices: sorted by coordinate bits, then slot (iteration order).
    struct VertexKey {
      std::array<std::uint64_t, 3> x;
      std::uint32_t slot;
    };
    std::vector<VertexKey> vkeys;
    vkeys.reserve(m.count(0));
    for (Ent v : m.entities(0)) {
      const common::Vec3 x = m.point(v);
      vkeys.push_back({{std::bit_cast<std::uint64_t>(x.x),
                        std::bit_cast<std::uint64_t>(x.y),
                        std::bit_cast<std::uint64_t>(x.z)},
                       v.index()});
    }
    std::sort(vkeys.begin(), vkeys.end(),
              [](const VertexKey& a, const VertexKey& b) {
                return a.x != b.x ? a.x < b.x : a.slot < b.slot;
              });
    auto& vnames = ord[i][static_cast<std::size_t>(core::Topo::Vertex)];
    auto& vlist = canon[i][0];
    vlist.reserve(vkeys.size());
    for (std::uint32_t k = 0; k < vkeys.size(); ++k) {
      vnames[vkeys[k].slot] = k;
      vlist.push_back(Ent(core::Topo::Vertex, vkeys[k].slot));
    }
    // Higher entities: ordered by (type, sorted vertex names), then slot,
    // through an LSD counting sort over the key words. Every pass is
    // stable, so iteration (slot) order breaks ties. Words past a type's
    // vertex count hold nv_names, above every vertex name; the type word
    // comes first, so they never decide an order.
    const auto nv_names = static_cast<std::uint32_t>(vkeys.size());
    std::vector<Ent> ents;
    std::vector<std::uint32_t> words;
    std::vector<std::uint32_t> perm;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> count;
    std::array<Ent, core::kMaxDown> vbuf{};
    for (int d = 1; d <= m.dim(); ++d) {
      std::size_t width = 1;
      for (core::Topo t : core::toposOfDim(d))
        if (m.countTopo(t) > 0)
          width = std::max(width, std::size_t{1} + static_cast<std::size_t>(
                                                       core::topoVertexCount(t)));
      ents.clear();
      words.clear();
      for (Ent e : m.entities(d)) {
        ents.push_back(e);
        const std::size_t at = words.size();
        words.resize(at + width, nv_names);
        words[at] = static_cast<std::uint32_t>(e.topo());
        const int nv = m.downward(e, 0, vbuf.data());
        for (int v = 0; v < nv; ++v)
          words[at + 1 + static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(
              vnames[vbuf[static_cast<std::size_t>(v)].index()]);
        std::sort(words.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                  words.begin() + static_cast<std::ptrdiff_t>(at) + 1 + nv);
      }
      const std::size_t n = ents.size();
      perm.resize(n);
      next.resize(n);
      for (std::uint32_t k = 0; k < n; ++k) perm[k] = k;
      count.assign(std::max<std::size_t>(nv_names, core::kTopoCount) + 2, 0);
      for (std::size_t w = width; w-- > 0;) {
        std::fill(count.begin(), count.end(), 0);
        for (std::uint32_t k : perm) ++count[words[k * width + w] + 1];
        if (std::find(count.begin(), count.end(), n) != count.end())
          continue;  // one value throughout: the pass would not move anything
        for (std::size_t b = 1; b < count.size(); ++b) count[b] += count[b - 1];
        for (std::uint32_t k : perm) next[count[words[k * width + w]]++] = k;
        perm.swap(next);
      }
      auto& list = canon[i][static_cast<std::size_t>(d)];
      list.reserve(n);
      std::uint64_t kk = 0;
      for (std::uint32_t k : perm) {
        const Ent e = ents[k];
        ord[i][static_cast<std::size_t>(e.topo())][e.index()] =
            (static_cast<std::uint64_t>(d) << 48) | kk++;
        list.push_back(e);
      }
    }
  }
  auto refOf = [&ord](PartId part, Ent e) -> std::uint64_t {
    const auto& row =
        ord[static_cast<std::size_t>(part)][static_cast<std::size_t>(e.topo())];
    const std::uint64_t name =
        e.index() < row.size() ? row[e.index()] : kNoName;
    // Dead cross-part handle (never in a verified mesh): fall back to the
    // raw handle so the digest stays total instead of crashing.
    return name == kNoName ? e.packed() : name;
  };
  SlotIndex<Remote> remotes;
  SlotIndex<Copy> ghost_source;
  SlotIndex<std::vector<Copy>> ghosted_on;
  pcu::OutBuffer tags;
  std::vector<Copy> gs;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Part& p = *parts_[i];
    const core::Mesh& m = p.mesh();
    const core::TagPlan tag_plan(m);
    const core::TagPlan::SlotView tag_values(tag_plan, m);
    remotes.build(m, p.remotes_);
    ghost_source.build(m, p.ghost_source_);
    ghosted_on.build(m, p.ghosted_on_);
    for (int d = 0; d <= m.dim(); ++d) {
      // Entities are visited in canonical-name order, so the byte stream
      // mixed below is identical for any storage layout of the same mesh.
      for (Ent e : canon[i][static_cast<std::size_t>(d)]) {
        mix(h, static_cast<std::uint64_t>(e.topo()) + 1);
        if (d == 0) {
          const common::Vec3 x = m.point(e);
          mix(h, std::bit_cast<std::uint64_t>(x.x));
          mix(h, std::bit_cast<std::uint64_t>(x.y));
          mix(h, std::bit_cast<std::uint64_t>(x.z));
        }
        const gmi::Entity* cls = m.classification(e);
        mix(h, cls ? static_cast<std::uint64_t>(cls->dim()) + 1 : 0);
        mix(h, cls ? static_cast<std::uint64_t>(cls->tag()) + 1 : 0);
        if (const Remote* r = remotes.find(e)) {
          mix(h, static_cast<std::uint64_t>(r->owner) + 1);
          for (const Copy& c : r->copies) {
            mix(h, static_cast<std::uint64_t>(c.part));
            mix(h, refOf(c.part, c.ent));
          }
        }
        if (const Copy* src = ghost_source.find(e)) {
          mix(h, static_cast<std::uint64_t>(src->part) + 2);
          mix(h, refOf(src->part, src->ent));
        }
        if (const auto* gcopies = ghosted_on.find(e)) {
          // The tracked list accumulates in message-arrival order, which is
          // layout-dependent; mix it in canonical (part, name) order.
          gs.assign(gcopies->begin(), gcopies->end());
          std::sort(gs.begin(), gs.end(), [&](const Copy& a, const Copy& b) {
            if (a.part != b.part) return a.part < b.part;
            return refOf(a.part, a.ent) < refOf(b.part, b.ent);
          });
          for (const Copy& c : gs) {
            mix(h, static_cast<std::uint64_t>(c.part) + 3);
            mix(h, refOf(c.part, c.ent));
          }
        }
        tags.clear();
        tag_values.write(e, tags);
        mix(h, tags.size());
        mix(h, common::crc32(tags.data(), tags.size()));
      }
    }
  }
  return h;
}

/// --- verify -------------------------------------------------------------------

namespace {

[[noreturn]] void vfail(const std::string& what, PartId p, Ent e,
                        const std::string& detail = "") {
  std::ostringstream os;
  os << "parallel verify failed: " << what << " [part " << p << ", "
     << core::topoName(e.topo()) << " #" << e.index() << "]";
  if (!detail.empty()) os << " (" << detail << ")";
  throw std::logic_error(os.str());
}

/// Residence set of a shared entity from its remote record, as
/// Part::residence() builds it (own part plus every copy's part, sorted),
/// without allocating.
using ResidenceVec = common::SmallVec<PartId, 16>;

void residenceOf(PartId self, const Remote& r, ResidenceVec& out) {
  out.clear();
  out.push_back(self);
  for (const Copy& c : r.copies) out.push_back(c.part);
  std::sort(out.begin(), out.end());
}

}  // namespace

void PartedMesh::verify() const {
  const int dim = dim_;
  // Slot-indexed views of every part's remote, ghost-source and ghosted-on
  // records, read once: the per-entity loop below asks them about its own
  // part and about each copy's part.
  struct Views {
    SlotIndex<Remote> remote;
    SlotIndex<Copy> ghost_source;
    SlotIndex<std::vector<Copy>> ghosted_on;
  };
  std::vector<Views> views(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Part& p = *parts_[i];
    views[i].remote.build(p.mesh(), p.remotes_);
    views[i].ghost_source.build(p.mesh(), p.ghost_source_);
    views[i].ghosted_on.build(p.mesh(), p.ghosted_on_);
  }
  auto viewOf = [&views](PartId q) -> const Views& {
    return views.at(static_cast<std::size_t>(q));
  };
  // Residence rule support: per topology, slot-indexed marks of the
  // downward closure of this part's non-ghost elements.
  std::array<std::vector<char>, core::kTopoCount> in_closure;
  std::array<Ent, core::kMaxDown> buf{};
  ResidenceVec res;
  ResidenceVec qres;
  for (const auto& pp : parts_) {
    const Part& p = *pp;
    const Views& pv = viewOf(p.id());
    auto mark = [&in_closure](Ent b) {
      in_closure[static_cast<std::size_t>(b.topo())][b.index()] = 1;
    };
    for (int d = 0; d < dim; ++d)
      for (core::Topo t : core::toposOfDim(d))
        in_closure[static_cast<std::size_t>(t)].assign(p.mesh().slots(t), 0);
    if (dim >= 1) {
      // Mark the closure level by level: the non-ghost elements' boundary,
      // then the boundary of every marked entity, one dimension down.
      for (Ent elem : p.mesh().entities(dim)) {
        if (pv.ghost_source.find(elem) != nullptr) continue;
        const int n = p.mesh().downward(elem, dim - 1, buf.data());
        for (int k = 0; k < n; ++k) mark(buf[static_cast<std::size_t>(k)]);
      }
      for (int d = dim - 1; d >= 1; --d) {
        for (core::Topo t : core::toposOfDim(d)) {
          const auto& marks = in_closure[static_cast<std::size_t>(t)];
          for (std::uint32_t i = 0; i < marks.size(); ++i) {
            const Ent e(t, i);
            if (!marks[i] || !p.mesh().alive(e)) continue;
            const int n = p.mesh().downward(e, d - 1, buf.data());
            for (int k = 0; k < n; ++k) mark(buf[static_cast<std::size_t>(k)]);
          }
        }
      }
    }
    for (int d = 0; d <= dim; ++d) {
      for (Ent e : p.mesh().entities(d)) {
        const Remote* r = pv.remote.find(e);
        if (const Copy* src = pv.ghost_source.find(e)) {
          if (r != nullptr) vfail("ghost entity has remote record", p.id(), e);
          const Part& sp = part(src->part);
          if (!sp.mesh().alive(src->ent))
            vfail("ghost source entity is dead", p.id(), e);
          const auto* gcopies = viewOf(src->part).ghosted_on.find(src->ent);
          if (gcopies == nullptr ||
              std::find(gcopies->begin(), gcopies->end(),
                        Copy{p.id(), e}) == gcopies->end())
            vfail("ghost source does not track this ghost", p.id(), e);
          continue;
        }
        if (r != nullptr) {
          if (r->copies.empty())
            vfail("shared entity with empty copy list", p.id(), e);
          // Copies sorted by part, unique, and symmetric.
          for (std::size_t i = 0; i + 1 < r->copies.size(); ++i)
            if (!(r->copies[i].part < r->copies[i + 1].part))
              vfail("copy list not sorted/unique", p.id(), e);
          residenceOf(p.id(), *r, res);
          if (std::find(res.begin(), res.end(), r->owner) == res.end())
            vfail("owner not in residence set", p.id(), e);
          for (const Copy& c : r->copies) {
            if (c.part == p.id()) vfail("copy list contains self", p.id(), e);
            const Part& q = part(c.part);
            if (!q.mesh().alive(c.ent)) vfail("dead remote copy", p.id(), e);
            if (c.ent.topo() != e.topo())
              vfail("remote copy topology mismatch", p.id(), e);
            const Remote* rq = viewOf(c.part).remote.find(c.ent);
            if (rq == nullptr) vfail("remote copy not shared", p.id(), e);
            if (rq->owner != r->owner)
              vfail("owner disagreement across copies", p.id(), e);
            const bool back =
                std::find(rq->copies.begin(), rq->copies.end(),
                          Copy{p.id(), e}) != rq->copies.end();
            if (!back) vfail("copy symmetry broken", p.id(), e);
            residenceOf(q.id(), *rq, qres);
            if (!std::equal(qres.begin(), qres.end(), res.begin(),
                            res.end()))
              vfail("residence disagreement across copies", p.id(), e);
            // Geometric agreement.
            if (d == 0 && !(q.mesh().point(c.ent) == p.mesh().point(e)))
              vfail("vertex coordinate disagreement", p.id(), e);
            if (q.mesh().classification(c.ent) != p.mesh().classification(e))
              vfail("classification disagreement", p.id(), e);
          }
        }
        // Residence rule: this part must host an adjacent non-ghost element
        // (entities exist exactly where adjacent elements are).
        if (d < dim) {
          if (!in_closure[static_cast<std::size_t>(e.topo())][e.index()])
            vfail("entity resides on part without adjacent element", p.id(),
                  e);
        } else {
          if (r != nullptr) vfail("element is shared", p.id(), e);
        }
        // Owned ghost-copy tracking only on real entities; checked above.
      }
    }
    // Ghost-map consistency beyond what live-entity iteration covers: the
    // maps themselves must not reference dead entities or invalid parts,
    // and every tracked ghost copy (a syncGhostTags target) must exist, be
    // a ghost, and point back at its source.
    for (const auto& [g, src] : p.ghost_source_) {
      if (!p.mesh().alive(g))
        vfail("ghost-source record for dead entity", p.id(), g);
      if (src.part < 0 || src.part >= parts() || src.part == p.id())
        vfail("ghost source names invalid part", p.id(), g,
              "source part " + std::to_string(src.part));
    }
    for (const auto& [e, gcopies] : p.ghosted_on_) {
      if (!p.mesh().alive(e))
        vfail("ghost-copy record for dead entity", p.id(), e);
      if (pv.ghost_source.find(e) != nullptr)
        vfail("ghost entity tracks ghost copies of its own", p.id(), e);
      for (const Copy& c : gcopies) {
        if (c.part < 0 || c.part >= parts() || c.part == p.id())
          vfail("tracked ghost copy names invalid part", p.id(), e,
                "ghost part " + std::to_string(c.part));
        const Part& q = part(c.part);
        if (!q.mesh().alive(c.ent))
          vfail("tracked ghost copy is dead", p.id(), e,
                "on part " + std::to_string(c.part));
        const Copy* back = viewOf(c.part).ghost_source.find(c.ent);
        if (back == nullptr)
          vfail("tracked ghost copy is not a ghost", p.id(), e,
                "on part " + std::to_string(c.part));
        if (back->part != p.id() || !(back->ent == e))
          vfail("ghost copy does not point back at its source", p.id(), e,
                "on part " + std::to_string(c.part));
      }
    }
  }
}

}  // namespace dist
