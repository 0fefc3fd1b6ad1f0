#include "core/mesh.hpp"

#include <algorithm>
#include <stdexcept>

#include "gmi/model.hpp"

namespace core {

namespace {

/// True when every vertex of `want` is among `have`. Vertex lists are at
/// most 8 long (hex), so a quadratic containment check beats sorting.
bool holdsAll(std::span<const Ent> want, std::span<const Ent> have) {
  for (const Ent& x : want)
    if (std::find(have.begin(), have.end(), x) == have.end()) return false;
  return true;
}

/// For each region type and template edge, the index of one template face
/// holding that edge. downward(region, 1) reads the edge among that face's
/// stored edges; which of them it is depends on how the face was created,
/// so the last step compares vertex pairs.
struct EdgeFaces {
  std::array<std::array<std::uint8_t, kMaxDown>, kTopoCount> face{};
};

EdgeFaces buildEdgeFaces() {
  EdgeFaces t;
  for (Topo r : toposOfDim(3)) {
    const int nf = topoBoundaryCount(r, 2);
    for (int i = 0; i < topoBoundaryCount(r, 1); ++i) {
      const auto ev = topoBoundaryVerts(r, 1, i);
      int found = -1;
      for (int j = 0; j < nf && found < 0; ++j) {
        const auto fv = topoBoundaryVerts(r, 2, j);
        if (std::find(fv.begin(), fv.end(), ev[0]) != fv.end() &&
            std::find(fv.begin(), fv.end(), ev[1]) != fv.end())
          found = j;
      }
      assert(found >= 0 && "region template edge on no template face");
      t.face[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(found);
    }
  }
  return t;
}

const EdgeFaces& edgeFaces() {
  static const EdgeFaces table = buildEdgeFaces();
  return table;
}

/// Order-preserving membership test for one level of an upward closure:
/// linear-probing hash set over packed handles, sized from an upper bound
/// on the level's size (at most half full, never rehashed). Up to
/// kInline / 2 entries probe a table on the stack; a larger star spills
/// to the heap.
class LevelSet {
 public:
  static constexpr std::size_t kInline = 256;

  void reset(std::size_t bound) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * bound) ++bits;
    const std::size_t cap = std::size_t{1} << bits;
    shift_ = 64 - bits;
    mask_ = cap - 1;
    if (cap <= kInline) {
      slots_ = inline_.data();
      std::fill(slots_, slots_ + cap, kEmpty);
    } else {
      heap_.assign(cap, kEmpty);
      slots_ = heap_.data();
    }
  }

  /// True when `e` was not in the set yet.
  bool insert(Ent e) {
    const std::uint64_t key = e.packed();
    std::size_t i = static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  // Deliberately left uninitialized: reset() fills the prefix it probes
  // before any read, and most queries touch far less than the whole table.
  std::array<std::uint64_t, kInline> inline_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t* slots_ = nullptr;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace

Ent Mesh::createVertex(const Vec3& x, gmi::Entity* cls) {
  Pool& p = pool(Topo::Vertex);
  std::uint32_t idx;
  if (!p.free_list.empty()) {
    idx = p.free_list.back();
    p.free_list.pop_back();
    p.alive[idx] = 1;
    p.up[idx].clear();
    p.cls[idx] = cls;
    coords_[idx] = x;
  } else {
    idx = p.slots();
    p.alive.push_back(1);
    p.up.emplace_back();
    p.cls.push_back(cls);
    coords_.push_back(x);
  }
  p.live += 1;
  ++topo_version_;
  return Ent(Topo::Vertex, idx);
}

Ent Mesh::allocate(Topo t, std::span<const Ent> vs, std::span<const Ent> down,
                   gmi::Entity* cls) {
  Pool& p = pool(t);
  if (p.stride_verts == 0) {
    p.stride_verts = topoVertexCount(t);
    p.stride_down = topoBoundaryCount(t, topoDim(t) - 1);
  }
  assert(static_cast<int>(vs.size()) == p.stride_verts);
  assert(static_cast<int>(down.size()) == p.stride_down);
  std::uint32_t idx;
  if (!p.free_list.empty()) {
    idx = p.free_list.back();
    p.free_list.pop_back();
    p.alive[idx] = 1;
    p.up[idx].clear();
    p.cls[idx] = cls;
    std::copy(vs.begin(), vs.end(),
              p.verts.begin() + std::size_t{idx} * p.stride_verts);
    std::copy(down.begin(), down.end(),
              p.down.begin() + std::size_t{idx} * p.stride_down);
  } else {
    idx = p.slots();
    p.alive.push_back(1);
    p.up.emplace_back();
    p.cls.push_back(cls);
    p.verts.insert(p.verts.end(), vs.begin(), vs.end());
    p.down.insert(p.down.end(), down.begin(), down.end());
  }
  p.live += 1;
  ++topo_version_;
  const Ent e(t, idx);
  for (Ent b : down) {
    Pool& bp = pool(b.topo());
    bp.up[b.index()].push_back(e);
  }
  return e;
}

Ent Mesh::buildElement(Topo t, std::span<const Ent> vs, gmi::Entity* cls) {
  assert(static_cast<int>(vs.size()) == topoVertexCount(t));
  if (t == Topo::Vertex) return vs[0];
  if (Ent found = findEntity(t, vs)) return found;
  const int d = topoDim(t);
  if (d == 1) {
    // An edge's one-level boundary is its vertices.
    return allocate(t, vs, vs, cls);
  }
  std::array<Ent, kMaxDown> down{};
  const int nb = topoBoundaryCount(t, d - 1);
  for (int i = 0; i < nb; ++i) {
    const Topo bt = topoBoundaryTopo(t, d - 1, i);
    const auto idxs = topoBoundaryVerts(t, d - 1, i);
    std::array<Ent, 4> bverts{};
    for (std::size_t k = 0; k < idxs.size(); ++k) bverts[k] = vs[idxs[k]];
    down[i] = buildElement(bt, {bverts.data(), idxs.size()}, cls);
  }
  return allocate(t, vs, {down.data(), static_cast<std::size_t>(nb)}, cls);
}

Ent Mesh::createEntity(Topo t, std::span<const Ent> vs,
                       std::span<const Ent> down, gmi::Entity* cls) {
  assert(t != Topo::Vertex);
  assert(static_cast<int>(vs.size()) == topoVertexCount(t));
  assert(static_cast<int>(down.size()) ==
         topoBoundaryCount(t, topoDim(t) - 1));
  return allocate(t, vs, down, cls);
}

void Mesh::destroy(Ent e) {
  assert(alive(e));
  Pool& p = pool(e.topo());
  if (!p.up[e.index()].empty())
    throw std::logic_error("destroy: entity still bounds higher entities");
  if (e.topo() != Topo::Vertex) {
    const std::span<const Ent> down{
        p.down.data() + std::size_t{e.index()} * p.stride_down,
        static_cast<std::size_t>(p.stride_down)};
    for (Ent b : down) {
      Pool& bp = pool(b.topo());
      bp.up[b.index()].eraseValue(e);
    }
  }
  tags_.removeAll(e);
  p.alive[e.index()] = 0;
  p.cls[e.index()] = nullptr;
  p.free_list.push_back(e.index());
  p.live -= 1;
  ++topo_version_;
}

void Mesh::saveImage(Image& out) const {
  for (std::size_t t = 0; t < pools_.size(); ++t) {
    const Pool& p = pools_[t];
    Image::PoolImage& o = out.pools_[t];
    o.stride_verts = p.stride_verts;
    o.stride_down = p.stride_down;
    o.verts.assign(p.verts.begin(), p.verts.end());
    o.down.assign(p.down.begin(), p.down.end());
    o.cls.assign(p.cls.begin(), p.cls.end());
    o.alive.assign(p.alive.begin(), p.alive.end());
    o.free_list.assign(p.free_list.begin(), p.free_list.end());
    o.live = p.live;
    o.up_first.resize(p.up.size() + 1);
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < p.up.size(); ++i) {
      o.up_first[i] = at;
      at += p.up[i].size();
    }
    o.up_first[p.up.size()] = at;
    o.up.resize(at);
    Ent* dst = o.up.data();
    for (const UpList& u : p.up) dst = std::copy(u.begin(), u.end(), dst);
  }
  out.coords_.assign(coords_.begin(), coords_.end());
  out.model_ = model_;
  out.tags_ = tags_;
  out.sets_ = sets_;
}

void Mesh::restoreImage(const Image& in) {
  for (std::size_t t = 0; t < pools_.size(); ++t) {
    Pool& p = pools_[t];
    const Image::PoolImage& o = in.pools_[t];
    p.stride_verts = o.stride_verts;
    p.stride_down = o.stride_down;
    p.verts.assign(o.verts.begin(), o.verts.end());
    p.down.assign(o.down.begin(), o.down.end());
    p.cls.assign(o.cls.begin(), o.cls.end());
    p.alive.assign(o.alive.begin(), o.alive.end());
    p.free_list.assign(o.free_list.begin(), o.free_list.end());
    p.live = o.live;
    const std::size_t n = o.up_first.size() - 1;
    p.up.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      p.up[i].assign(o.up.data() + o.up_first[i],
                     o.up_first[i + 1] - o.up_first[i]);
  }
  coords_.assign(in.coords_.begin(), in.coords_.end());
  model_ = in.model_;
  tags_ = in.tags_;
  sets_ = in.sets_;
  ++topo_version_;  // as copyFrom: the ledger re-hashes all
  ++data_version_;
}

std::size_t Mesh::count(int d) const {
  std::size_t n = 0;
  for (Topo t : toposOfDim(d)) n += pool(t).live;
  return n;
}

std::size_t Mesh::countTopo(Topo t) const { return pool(t).live; }

int Mesh::dim() const {
  for (int d = 3; d >= 0; --d)
    if (count(d) > 0) return d;
  return -1;
}

void Mesh::setPoint(Ent v, const Vec3& x) {
  assert(v.topo() == Topo::Vertex && alive(v));
  coords_[v.index()] = x;
  ++data_version_;
}

void Mesh::classify(Ent e, gmi::Entity* cls) {
  assert(alive(e));
  pool(e.topo()).cls[e.index()] = cls;
  ++data_version_;
}

int Mesh::downward(Ent e, int d, Ent* out) const {
  assert(alive(e));
  const int ed = topoDim(e.topo());
  assert(d <= ed);
  if (d == ed) {
    out[0] = e;
    return 1;
  }
  if (e.topo() == Topo::Vertex) {
    out[0] = e;
    return 1;
  }
  if (d == 0) {
    const auto vs = verts(e);
    std::copy(vs.begin(), vs.end(), out);
    return static_cast<int>(vs.size());
  }
  const Pool& p = pool(e.topo());
  if (d == ed - 1) {
    const Ent* src = p.down.data() + std::size_t{e.index()} * p.stride_down;
    std::copy(src, src + p.stride_down, out);
    return p.stride_down;
  }
  // Regions asked for edges: template edge i lies on template face
  // edgeFaces()[i]; pick it out of that face's stored edges by its vertex
  // pair. Output stays in template order.
  assert(ed == 3 && d == 1);
  const auto vs = verts(e);
  const Ent* faces = p.down.data() + std::size_t{e.index()} * p.stride_down;
  const auto& face_of = edgeFaces().face[static_cast<std::size_t>(e.topo())];
  const Pool& edges = pool(Topo::Edge);
  const int ne = topoBoundaryCount(e.topo(), 1);
  for (int i = 0; i < ne; ++i) {
    const auto idxs = topoBoundaryVerts(e.topo(), 1, i);
    const Ent a = vs[idxs[0]];
    const Ent b = vs[idxs[1]];
    const Ent f = faces[face_of[static_cast<std::size_t>(i)]];
    const Pool& fp = pool(f.topo());
    const Ent* fedges = fp.down.data() + std::size_t{f.index()} * fp.stride_down;
    out[i] = Ent();
    for (int k = 0; k < fp.stride_down; ++k) {
      const Ent* ev = edges.verts.data() + std::size_t{fedges[k].index()} * 2;
      if ((ev[0] == a && ev[1] == b) || (ev[0] == b && ev[1] == a)) {
        out[i] = fedges[k];
        break;
      }
    }
    assert(out[i] && "mesh incomplete: missing edge of region");
  }
  return ne;
}

std::vector<Ent> Mesh::adjacent(Ent e, int d) const {
  assert(alive(e));
  const int ed = topoDim(e.topo());
  if (d == ed) return {e};
  if (d < ed) {
    std::array<Ent, kMaxDown> buf{};
    const int n = downward(e, d, buf.data());
    return {buf.begin(), buf.begin() + n};
  }
  // Upward traversal with deduplication, one level at a time.
  std::vector<Ent> current{e};
  for (int level = ed; level < d; ++level) {
    std::vector<Ent> next;
    for (Ent c : current) {
      for (Ent u : up(c)) {
        if (std::find(next.begin(), next.end(), u) == next.end())
          next.push_back(u);
      }
    }
    current = std::move(next);
  }
  return current;
}

int Mesh::adjacentInto(Ent e, int d, AdjVec& out) const {
  assert(alive(e));
  out.clear();
  const int ed = topoDim(e.topo());
  if (d == ed) {
    out.push_back(e);
    return 1;
  }
  if (d < ed) {
    std::array<Ent, kMaxDown> buf{};
    const int n = downward(e, d, buf.data());
    for (int i = 0; i < n; ++i) out.push_back(buf[i]);
    return n;
  }
  // Upward level by level, keeping first occurrences in discovery order
  // (the order adjacent() produces); ping-pong between `out` and one
  // scratch vector — no heap traffic while the lists stay inline. The
  // first level is up(e) itself: an entity bounds another at most once.
  AdjVec scratch;
  AdjVec* cur = &scratch;
  AdjVec* nxt = &out;
  for (Ent u : up(e)) cur->push_back(u);
  LevelSet seen;
  for (int level = ed + 1; level < d; ++level) {
    nxt->clear();
    std::size_t bound = 0;
    for (Ent c : *cur) bound += up(c).size();
    seen.reset(bound);
    for (Ent c : *cur) {
      for (Ent u : up(c)) {
        if (seen.insert(u)) nxt->push_back(u);
      }
    }
    std::swap(cur, nxt);
  }
  if (cur != &out) out = *cur;
  return static_cast<int>(out.size());
}

Ent Mesh::findEntity(Topo t, std::span<const Ent> vs) const {
  assert(static_cast<int>(vs.size()) == topoVertexCount(t));
  const int d = topoDim(t);
  if (d == 0) return vs[0];
  if (d == 1) {
    for (Ent e : up(vs[0])) {
      const auto ev = verts(e);
      if ((ev[0] == vs[0] && ev[1] == vs[1]) ||
          (ev[0] == vs[1] && ev[1] == vs[0]))
        return e;
    }
    return {};
  }
  // Find one boundary entity from the canonical template, then scan its
  // upward adjacency. Bounded work: upward lists are O(1) in mesh size.
  // Every entity in up(b) holds b's vertices, and has as many vertices as
  // vs when its type is t, so it is the one when it holds the rest of vs.
  const Topo bt = topoBoundaryTopo(t, d - 1, 0);
  const auto idxs = topoBoundaryVerts(t, d - 1, 0);
  std::array<Ent, 4> bverts{};
  for (std::size_t k = 0; k < idxs.size(); ++k) bverts[k] = vs[idxs[k]];
  const Ent b = findEntity(bt, {bverts.data(), idxs.size()});
  if (!b) return {};
  std::array<Ent, 8> rest{};
  std::size_t nrest = 0;
  for (std::size_t k = 0; k < vs.size(); ++k)
    if (std::find(idxs.begin(), idxs.end(), static_cast<int>(k)) == idxs.end())
      rest[nrest++] = vs[k];
  for (Ent e : up(b))
    if (e.topo() == t && holdsAll({rest.data(), nrest}, verts(e)))
      return e;
  return {};
}

/// --- iteration ------------------------------------------------------------

Mesh::EntIter::EntIter(const Mesh* mesh, int dim, bool at_end)
    : mesh_(mesh), topos_(toposOfDim(dim)), topo_pos_(0), index_(0) {
  if (at_end) {
    topo_pos_ = topos_.size();
    index_ = 0;
    return;
  }
  settle();
}

std::vector<Ent> Mesh::all(int d) const {
  std::vector<Ent> out;
  out.reserve(count(d));
  for (Ent e : entities(d)) out.push_back(e);
  return out;
}

Mesh::Set& Mesh::createSet(const std::string& name) {
  auto [it, inserted] = sets_.emplace(name, Set(name));
  if (!inserted) throw std::invalid_argument("set already exists: " + name);
  return it->second;
}

Mesh::Set* Mesh::findSet(const std::string& name) {
  auto it = sets_.find(name);
  return it == sets_.end() ? nullptr : &it->second;
}

void Mesh::destroySet(const std::string& name) { sets_.erase(name); }

}  // namespace core
