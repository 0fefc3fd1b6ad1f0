#include "adapt/collapse.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "core/measure.hpp"
#include "gmi/model.hpp"

namespace adapt {

using common::Vec3;
using core::Ent;
using core::Mesh;
using core::Topo;

namespace {

/// Other endpoint of an edge.
Ent otherVertex(const Mesh& mesh, Ent edge, Ent v) {
  const auto vs = mesh.verts(edge);
  return vs[0] == v ? vs[1] : vs[0];
}

bool containsVertex(const Mesh& mesh, Ent e, Ent v) {
  const auto vs = mesh.verts(e);
  return std::find(vs.begin(), vs.end(), v) != vs.end();
}

/// Signed orientation measure of an element given explicit coordinates:
/// signed volume for tets, signed (z-projected onto its own normal) area
/// vector for tris.
double signedTet(const std::array<Vec3, 8>& p) {
  return core::tetVolume(p[0], p[1], p[2], p[3]);
}

/// Geometric validity: the rebuilt element keeps its orientation and does
/// not degenerate.
bool replacementKeepsShape(const Mesh& mesh, Ent elem, Ent remove,
                           const Vec3& target) {
  const auto vs = mesh.verts(elem);
  std::array<Vec3, 8> old_p{}, new_p{};
  for (std::size_t i = 0; i < vs.size(); ++i) {
    old_p[i] = mesh.point(vs[i]);
    new_p[i] = vs[i] == remove ? target : old_p[i];
  }
  if (elem.topo() == Topo::Tet) {
    const double before = signedTet(old_p);
    const double after = signedTet(new_p);
    return before * after > 0.0 && std::fabs(after) > 1e-14;
  }
  if (elem.topo() == Topo::Tri) {
    const Vec3 before =
        common::cross(old_p[1] - old_p[0], old_p[2] - old_p[0]);
    const Vec3 after =
        common::cross(new_p[1] - new_p[0], new_p[2] - new_p[0]);
    return common::dot(before, after) > 0.0 &&
           common::norm(after) > 1e-14;
  }
  return false;  // collapse supports simplex meshes only
}

/// Vertices joined to v by an edge (one per edge: an edge is unique per
/// vertex pair). A vertex has a few dozen edges at most, so a linear
/// search of an inline list beats hashing.
core::AdjVec vertexLink(const Mesh& mesh, Ent v) {
  core::AdjVec link;
  for (Ent e : mesh.up(v)) link.push_back(otherVertex(mesh, e, v));
  return link;
}

}  // namespace

bool canCollapse(const Mesh& mesh, Ent edge, Ent remove) {
  if (!mesh.alive(edge) || edge.topo() != Topo::Edge) return false;
  if (!containsVertex(mesh, edge, remove)) return false;
  const int dim = mesh.dim();
  const Ent keep = otherVertex(mesh, edge, remove);

  // Classification: the removed vertex must slide along the feature the
  // edge lies on (never off a model vertex/edge/face it represents).
  if (mesh.classification(remove) != mesh.classification(edge)) return false;

  // Link condition: every vertex adjacent to both endpoints must belong to
  // a face containing the edge, otherwise the collapse pinches the mesh.
  const auto keep_link = vertexLink(mesh, keep);
  for (Ent e : mesh.up(remove)) {
    const Ent c = otherVertex(mesh, e, remove);
    if (c == keep || !keep_link.contains(c)) continue;
    std::array<Ent, 3> tri{mesh.verts(edge)[0], mesh.verts(edge)[1], c};
    if (!mesh.findEntity(Topo::Tri, tri)) return false;
  }

  const Vec3 target = mesh.point(keep);
  core::AdjVec star;
  const int nstar = mesh.adjacentInto(remove, dim, star);
  for (int si = 0; si < nstar; ++si) {
    const Ent elem = star[static_cast<std::size_t>(si)];
    if (containsVertex(mesh, elem, keep)) continue;  // dies with the edge
    if (elem.topo() != Topo::Tet && elem.topo() != Topo::Tri) return false;
    if (!replacementKeepsShape(mesh, elem, remove, target)) return false;
    // The rebuilt element must not already exist.
    std::array<Ent, 8> nv{};
    const auto vs = mesh.verts(elem);
    for (std::size_t i = 0; i < vs.size(); ++i)
      nv[i] = vs[i] == remove ? keep : vs[i];
    if (mesh.findEntity(elem.topo(), {nv.data(), vs.size()})) return false;
  }
  return true;
}

bool collapseEdge(Mesh& mesh, Ent edge, Ent remove,
                  SolutionTransfer* transfer) {
  if (!canCollapse(mesh, edge, remove)) return false;
  const int dim = mesh.dim();
  const Ent keep = otherVertex(mesh, edge, remove);
  if (transfer != nullptr) transfer->onCollapse(mesh, keep, remove);

  struct Spec {
    Topo topo;
    std::array<Ent, 8> verts{};
    std::size_t nv = 0;
    gmi::Entity* cls = nullptr;
    Ent old;
  };

  // Elements to rebuild (contain remove but not keep) and to garbage
  // collect (everything adjacent to remove).
  std::vector<Spec> rebuilds;
  std::vector<Ent> gc_elems;
  core::AdjVec star;
  const int nstar = mesh.adjacentInto(remove, dim, star);
  for (int si = 0; si < nstar; ++si) {
    const Ent elem = star[static_cast<std::size_t>(si)];
    gc_elems.push_back(elem);
    if (containsVertex(mesh, elem, keep)) continue;
    Spec s;
    s.topo = elem.topo();
    const auto vs = mesh.verts(elem);
    s.nv = vs.size();
    for (std::size_t i = 0; i < vs.size(); ++i)
      s.verts[i] = vs[i] == remove ? keep : vs[i];
    s.cls = mesh.classification(elem);
    s.old = elem;
    rebuilds.push_back(s);
  }

  // Lower-dimension entities adjacent to `remove` whose substituted
  // counterpart does not exist yet: they will be created as intermediates
  // of the rebuilds, then need the old classification and tags.
  std::vector<Spec> lower_fixes;
  std::vector<std::vector<Ent>> gc_lower(static_cast<std::size_t>(dim));
  for (int d = 1; d < dim; ++d) {
    const int nl = mesh.adjacentInto(remove, d, star);
    for (int li = 0; li < nl; ++li) {
      const Ent e = star[static_cast<std::size_t>(li)];
      gc_lower[static_cast<std::size_t>(d)].push_back(e);
      if (containsVertex(mesh, e, keep)) continue;
      Spec s;
      s.topo = e.topo();
      const auto vs = mesh.verts(e);
      s.nv = vs.size();
      for (std::size_t i = 0; i < vs.size(); ++i)
        s.verts[i] = vs[i] == remove ? keep : vs[i];
      if (mesh.findEntity(s.topo, {s.verts.data(), s.nv})) continue;
      s.cls = mesh.classification(e);
      s.old = e;
      lower_fixes.push_back(s);
    }
  }

  // 1. Create the rebuilt elements (intermediates auto-created) and carry
  //    element tags over.
  for (const Spec& s : rebuilds) {
    const Ent fresh =
        mesh.buildElement(s.topo, {s.verts.data(), s.nv}, s.cls);
    mesh.tags().copyAll(s.old, fresh);
  }
  // 2. Fix classification/tags of freshly created lower entities.
  for (const Spec& s : lower_fixes) {
    const Ent fresh = mesh.findEntity(s.topo, {s.verts.data(), s.nv});
    assert(fresh && "substituted entity must exist after rebuild");
    mesh.classify(fresh, s.cls);
    mesh.tags().copyAll(s.old, fresh);
  }
  // 3. Delete the old cavity, dimension-descending.
  for (Ent elem : gc_elems) mesh.destroy(elem);
  for (int d = dim - 1; d >= 1; --d)
    for (Ent e : gc_lower[static_cast<std::size_t>(d)]) mesh.destroy(e);
  mesh.destroy(remove);
  return true;
}

CoarsenStats coarsen(Mesh& mesh, const SizeField& size,
                     const CoarsenOptions& opts) {
  CoarsenStats stats;
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    std::vector<std::pair<double, Ent>> marked;
    for (Ent e : mesh.entities(1)) {
      const auto vs = mesh.verts(e);
      const Vec3 mid = (mesh.point(vs[0]) + mesh.point(vs[1])) * 0.5;
      const double len = core::measure(mesh, e);
      if (len < opts.ratio * size.value(mid)) marked.emplace_back(len, e);
    }
    if (marked.empty()) break;
    std::sort(marked.begin(), marked.end());
    std::size_t done = 0;
    for (const auto& [len, e] : marked) {
      (void)len;
      if (!mesh.alive(e)) continue;
      // Prefer removing the endpoint classified like the edge (free to
      // slide); try the other endpoint as a fallback.
      const auto vs = mesh.verts(e);
      const Ent a = vs[0], b = vs[1];
      const Ent first =
          mesh.classification(b) == mesh.classification(e) ? b : a;
      const Ent second = first == a ? b : a;
      if (collapseEdge(mesh, e, first, opts.transfer) ||
          collapseEdge(mesh, e, second, opts.transfer))
        ++done;
    }
    if (done == 0) break;
    stats.passes = pass + 1;
    stats.collapses += done;
  }
  return stats;
}

}  // namespace adapt
