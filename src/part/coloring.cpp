#include "part/coloring.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/flatmap.hpp"

namespace part {

using core::Ent;
using core::EntHash;

namespace {

/// Conflicting neighbours of an element under the relation, written to
/// `out` (cleared first); `adj` is reused adjacency scratch.
void conflicts(const core::Mesh& mesh, Ent e, ColorRelation relation,
               core::AdjVec& adj, std::vector<Ent>& out) {
  const int dim = core::topoDim(e.topo());
  const int bridge = relation == ColorRelation::SharedVertex ? 0 : dim - 1;
  out.clear();
  std::array<Ent, core::kMaxDown> buf{};
  const int n = mesh.downward(e, bridge, buf.data());
  for (int i = 0; i < n; ++i) {
    mesh.adjacentInto(buf[static_cast<std::size_t>(i)], dim, adj);
    for (Ent other : adj)
      if (other != e &&
          std::find(out.begin(), out.end(), other) == out.end())
        out.push_back(other);
  }
}

}  // namespace

Coloring colorElements(const core::Mesh& mesh, ColorRelation relation) {
  const int dim = mesh.dim();
  Coloring c;
  c.color.assign(mesh.count(dim), -1);
  common::FlatMap<Ent, std::size_t, EntHash> index;
  std::vector<Ent> elems;
  elems.reserve(mesh.count(dim));
  for (Ent e : mesh.entities(dim)) {
    index.emplace(e, elems.size());
    elems.push_back(e);
  }
  std::vector<char> used;  // feasibility scratch per element
  core::AdjVec adj;
  std::vector<Ent> nbs;
  for (std::size_t i = 0; i < elems.size(); ++i) {
    used.assign(static_cast<std::size_t>(c.colors) + 1, 0);
    conflicts(mesh, elems[i], relation, adj, nbs);
    for (Ent nb : nbs) {
      const int nb_color = c.color[index.at(nb)];
      if (nb_color >= 0) used[static_cast<std::size_t>(nb_color)] = 1;
    }
    int pick = 0;
    while (used[static_cast<std::size_t>(pick)]) ++pick;
    c.color[i] = pick;
    c.colors = std::max(c.colors, pick + 1);
  }
  return c;
}

void verifyColoring(const core::Mesh& mesh, const Coloring& coloring,
                    ColorRelation relation) {
  const int dim = mesh.dim();
  common::FlatMap<Ent, std::size_t, EntHash> index;
  std::vector<Ent> elems;
  for (Ent e : mesh.entities(dim)) {
    index.emplace(e, elems.size());
    elems.push_back(e);
  }
  if (coloring.color.size() != elems.size())
    throw std::logic_error("coloring: wrong element count");
  core::AdjVec adj;
  std::vector<Ent> nbs;
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (coloring.color[i] < 0 || coloring.color[i] >= coloring.colors)
      throw std::logic_error("coloring: color id out of range");
    conflicts(mesh, elems[i], relation, adj, nbs);
    for (Ent nb : nbs)
      if (coloring.color[index.at(nb)] == coloring.color[i])
        throw std::logic_error("coloring: conflicting elements share a color");
  }
}

}  // namespace part
