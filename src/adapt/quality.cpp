#include "adapt/quality.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/measure.hpp"
#include "gmi/model.hpp"

namespace adapt {

using common::Vec3;
using core::Ent;
using core::Topo;

double quality(const core::Mesh& mesh, Ent elem) {
  std::array<Ent, core::kMaxDown> buf{};
  const int ne = mesh.downward(elem, 1, buf.data());
  double sum_sq = 0.0;
  for (int i = 0; i < ne; ++i) {
    const double l = core::measure(mesh, buf[static_cast<std::size_t>(i)]);
    sum_sq += l * l;
  }
  if (sum_sq <= 0.0) return 0.0;
  if (elem.topo() == Topo::Tet) {
    const double v = core::measure(mesh, elem);
    return std::clamp(12.0 * std::pow(3.0 * v, 2.0 / 3.0) / sum_sq, 0.0, 1.0);
  }
  if (elem.topo() == Topo::Tri) {
    const double a = core::measure(mesh, elem);
    return std::clamp(4.0 * std::sqrt(3.0) * a / sum_sq, 0.0, 1.0);
  }
  return 0.0;  // quality defined for simplices
}

QualityStats meshQuality(const core::Mesh& mesh) {
  QualityStats s;
  std::size_t n = 0;
  double sum = 0.0;
  for (Ent e : mesh.entities(mesh.dim())) {
    const double q = quality(mesh, e);
    s.min = std::min(s.min, q);
    sum += q;
    if (q < 0.3) ++s.below_03;
    ++n;
  }
  s.mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
  return s;
}

SmoothStats smooth(core::Mesh& mesh, const SmoothOptions& opts) {
  SmoothStats stats;
  const int dim = mesh.dim();
  core::AdjVec cavity;
  for (int pass = 0; pass < opts.passes; ++pass) {
    for (Ent v : mesh.entities(0)) {
      gmi::Entity* cls = mesh.classification(v);
      if (cls == nullptr || cls->dim() < dim) continue;  // boundary fixed
      if (opts.skip && opts.skip(v)) continue;
      // Centroid of edge neighbours.
      Vec3 target{};
      int n = 0;
      for (Ent e : mesh.up(v)) {
        const auto vs = mesh.verts(e);
        target += mesh.point(vs[0] == v ? vs[1] : vs[0]);
        ++n;
      }
      if (n == 0) continue;
      target /= static_cast<double>(n);
      const Vec3 old = mesh.point(v);
      const Vec3 proposal = old + (target - old) * opts.relaxation;

      // Quality guard: the move must not lower the cavity's worst quality.
      mesh.adjacentInto(v, dim, cavity);
      double worst_before = 1.0;
      for (Ent e : cavity) worst_before = std::min(worst_before, quality(mesh, e));
      mesh.setPoint(v, proposal);
      double worst_after = 1.0;
      for (Ent e : cavity) worst_after = std::min(worst_after, quality(mesh, e));
      // Volume sign must also survive (quality alone is unsigned).
      bool inverted = false;
      for (Ent e : cavity)
        if (core::measure(mesh, e) <= 0.0) inverted = true;
      if (worst_after + 1e-15 < worst_before || inverted) {
        mesh.setPoint(v, old);
        ++stats.rejected;
      } else {
        ++stats.moved;
      }
    }
  }
  return stats;
}

}  // namespace adapt
