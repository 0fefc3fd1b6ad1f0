#include "solver/poisson.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/measure.hpp"
#include "dist/plan.hpp"
#include "field/field.hpp"
#include "gmi/model.hpp"
#include "pcu/buffer.hpp"

namespace solver {

using common::Vec3;
using core::Ent;
using dist::PartId;

namespace {

/// P1 shape-function gradients of a simplex element; returns the element
/// measure (volume/area).
double shapeGradients(const core::Mesh& mesh, Ent elem,
                      std::array<Vec3, 4>& grad, int& nv) {
  const auto vs = mesh.verts(elem);
  nv = static_cast<int>(vs.size());
  if (elem.topo() == core::Topo::Tet) {
    const Vec3 p0 = mesh.point(vs[0]);
    const Vec3 e1 = mesh.point(vs[1]) - p0;
    const Vec3 e2 = mesh.point(vs[2]) - p0;
    const Vec3 e3 = mesh.point(vs[3]) - p0;
    const double det = common::dot(e1, common::cross(e2, e3));
    if (det == 0.0) throw std::runtime_error("poisson: degenerate tet");
    grad[1] = common::cross(e2, e3) / det;
    grad[2] = common::cross(e3, e1) / det;
    grad[3] = common::cross(e1, e2) / det;
    grad[0] = -(grad[1] + grad[2] + grad[3]);
    return std::fabs(det) / 6.0;
  }
  if (elem.topo() == core::Topo::Tri) {
    const Vec3 p0 = mesh.point(vs[0]);
    const Vec3 e1 = mesh.point(vs[1]) - p0;
    const Vec3 e2 = mesh.point(vs[2]) - p0;
    const double a11 = common::dot(e1, e1), a12 = common::dot(e1, e2),
                 a22 = common::dot(e2, e2);
    const double det = a11 * a22 - a12 * a12;
    if (det == 0.0) throw std::runtime_error("poisson: degenerate tri");
    // grad lambda_k solves the Gram system for the barycentric basis.
    grad[1] = (e1 * a22 - e2 * a12) / det;
    grad[2] = (e2 * a11 - e1 * a12) / det;
    grad[0] = -(grad[1] + grad[2]);
    return 0.5 * std::sqrt(det);
  }
  throw std::invalid_argument("poisson: simplex meshes only");
}

/// All per-part solver state.
struct PartData {
  std::vector<Ent> verts;
  /// Vertex pool slot -> its row in `verts`; -1 for slots not in `verts`.
  std::vector<int> slot_row;
  [[nodiscard]] int row(Ent v) const {
    if (v.topo() != core::Topo::Vertex || v.index() >= slot_row.size() ||
        slot_row[v.index()] < 0)
      throw std::out_of_range("poisson: vertex not held by this part");
    return slot_row[v.index()];
  }
  // CSR stiffness.
  std::vector<int> row_ptr;
  std::vector<int> col;
  std::vector<double> val;
  std::vector<char> fixed;
  std::vector<char> owned;
  // Vectors.
  std::vector<double> u, b, r, p, q, z, diag;
};

class Context {
 public:
  explicit Context(dist::PartedMesh& pm)
      : pm_(pm), plan_(dist::Plan::shared(pm, 0)) {}

  std::vector<PartData> data;

  /// Sum partial values of shared vertices across parts, then broadcast
  /// the totals back so every copy agrees: one payload of doubles per
  /// lane and direction. Each row appears at most once in a lane, so an
  /// owner row adds its copies' values in delivery order, by ascending
  /// copy part: the additions of a per-vertex exchange, whatever the
  /// order of rows within a lane.
  void accumulate(std::vector<double> PartData::* vec) {
    auto value = [&](PartId p, Ent v) -> double& {
      auto& d = data[static_cast<std::size_t>(p)];
      return (d.*vec)[static_cast<std::size_t>(d.row(v))];
    };
    auto write = [&](PartId p, Ent v, pcu::OutBuffer& out) {
      out.pack<double>(value(p, v));
    };
    plan_.reduce(pm_.network(), write, [&](PartId p, Ent v, pcu::InBuffer& in) {
      value(p, v) += in.unpack<double>();
    });
    plan_.bcast(pm_.network(), write, [&](PartId p, Ent v, pcu::InBuffer& in) {
      value(p, v) = in.unpack<double>();
    });
  }

  /// Global dot product, counting each vertex once (on its owner).
  [[nodiscard]] double dot(std::vector<double> PartData::* a,
                           std::vector<double> PartData::* b) const {
    double sum = 0.0;
    for (const auto& d : data)
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        if (d.owned[i]) sum += (d.*a)[i] * (d.*b)[i];
    return sum;
  }

  /// q = K p on every part, accumulated across copies, zeroed at Dirichlet
  /// rows (projected operator).
  void applyStiffness() {
    for (auto& d : data) {
      for (std::size_t i = 0; i < d.verts.size(); ++i) {
        double acc = 0.0;
        for (int k = d.row_ptr[i]; k < d.row_ptr[i + 1]; ++k)
          acc += d.val[static_cast<std::size_t>(k)] *
                 d.p[static_cast<std::size_t>(
                     d.col[static_cast<std::size_t>(k)])];
        d.q[i] = acc;
      }
    }
    accumulate(&PartData::q);
    for (auto& d : data)
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        if (d.fixed[i]) d.q[i] = 0.0;
  }

 private:
  dist::PartedMesh& pm_;
  const dist::Plan plan_;  ///< shared vertices
};

}  // namespace

PoissonReport solvePoisson(dist::PartedMesh& pm,
                           const std::function<double(const Vec3&)>& f,
                           const std::function<double(const Vec3&)>& g,
                           const PoissonOptions& opts) {
  const int dim = pm.dim();
  for (PartId p = 0; p < pm.parts(); ++p)
    if (pm.part(p).ghostCount() > 0)
      throw std::logic_error("poisson: unghost before solving");

  Context ctx(pm);
  ctx.data.resize(static_cast<std::size_t>(pm.parts()));

  // --- per-part setup & assembly -----------------------------------------
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& part = pm.part(p);
    auto& mesh = part.mesh();
    auto& d = ctx.data[static_cast<std::size_t>(p)];
    d.slot_row.assign(mesh.slots(core::Topo::Vertex), -1);
    for (Ent v : mesh.entities(0)) {
      d.slot_row[v.index()] = static_cast<int>(d.verts.size());
      d.verts.push_back(v);
    }
    const std::size_t n = d.verts.size();
    d.fixed.assign(n, 0);
    d.owned.assign(n, 0);
    d.u.assign(n, 0.0);
    d.b.assign(n, 0.0);
    d.r.assign(n, 0.0);
    d.p.assign(n, 0.0);
    d.q.assign(n, 0.0);
    d.z.assign(n, 0.0);
    d.diag.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const Ent v = d.verts[i];
      d.owned[i] = part.isOwned(v) ? 1 : 0;
      gmi::Entity* cls = mesh.classification(v);
      if (cls != nullptr && cls->dim() < dim) {
        d.fixed[i] = 1;
        d.u[i] = g(mesh.point(v));
      }
    }

    // CSR pattern from the P1 stencil (self + edge neighbours).
    d.row_ptr.assign(n + 1, 0);
    std::vector<std::vector<int>> cols(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols[i].push_back(static_cast<int>(i));
      for (Ent e : mesh.up(d.verts[i])) {
        const auto vs = mesh.verts(e);
        const Ent other = vs[0] == d.verts[i] ? vs[1] : vs[0];
        cols[i].push_back(d.row(other));
      }
      std::sort(cols[i].begin(), cols[i].end());
      d.row_ptr[i + 1] = d.row_ptr[i] + static_cast<int>(cols[i].size());
    }
    d.col.reserve(static_cast<std::size_t>(d.row_ptr[n]));
    for (auto& c : cols) d.col.insert(d.col.end(), c.begin(), c.end());
    d.val.assign(static_cast<std::size_t>(d.row_ptr[n]), 0.0);
    auto entry = [&](int row, int column) -> double& {
      const auto begin = d.col.begin() + d.row_ptr[row];
      const auto end = d.col.begin() + d.row_ptr[row + 1];
      const auto it = std::lower_bound(begin, end, column);
      assert(it != end && *it == column);
      return d.val[static_cast<std::size_t>(it - d.col.begin())];
    };

    // Element loop (ghost-free by precondition).
    std::array<Vec3, 4> grad{};
    for (Ent elem : mesh.entities(dim)) {
      int nv = 0;
      const double measure = shapeGradients(mesh, elem, grad, nv);
      const auto vs = mesh.verts(elem);
      std::array<int, 4> li{};
      for (int a = 0; a < nv; ++a)
        li[static_cast<std::size_t>(a)] = d.row(vs[static_cast<std::size_t>(a)]);
      for (int a = 0; a < nv; ++a) {
        for (int bcol = 0; bcol < nv; ++bcol)
          entry(li[static_cast<std::size_t>(a)], li[static_cast<std::size_t>(bcol)]) +=
              measure * common::dot(grad[static_cast<std::size_t>(a)],
                                    grad[static_cast<std::size_t>(bcol)]);
        // Lumped load.
        d.b[static_cast<std::size_t>(li[static_cast<std::size_t>(a)])] +=
            f(mesh.point(vs[static_cast<std::size_t>(a)])) * measure / nv;
      }
    }
  }
  ctx.accumulate(&PartData::b);
  // Jacobi preconditioner: the accumulated stiffness diagonal.
  for (auto& d : ctx.data) {
    for (std::size_t i = 0; i < d.verts.size(); ++i) {
      for (int k = d.row_ptr[i]; k < d.row_ptr[i + 1]; ++k)
        if (d.col[static_cast<std::size_t>(k)] == static_cast<int>(i))
          d.diag[i] = d.val[static_cast<std::size_t>(k)];
    }
  }
  ctx.accumulate(&PartData::diag);

  // --- projected conjugate gradients ---------------------------------------
  // r = b - K u (u holds Dirichlet data), zeroed on fixed rows.
  for (auto& d : ctx.data) d.p = d.u;
  ctx.applyStiffness();  // q = K u projected... but we need the raw product:
  // recompute without projection: the projection only zeroed fixed rows of
  // q, which we zero in r anyway.
  auto precondition = [&]() {  // z = diag^-1 r on free rows
    for (auto& d : ctx.data)
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        d.z[i] = (d.fixed[i] || d.diag[i] == 0.0) ? 0.0 : d.r[i] / d.diag[i];
  };
  for (auto& d : ctx.data) {
    for (std::size_t i = 0; i < d.verts.size(); ++i)
      d.r[i] = d.fixed[i] ? 0.0 : d.b[i] - d.q[i];
  }
  precondition();
  for (auto& d : ctx.data) d.p = d.z;
  double rz = ctx.dot(&PartData::r, &PartData::z);
  double rr = ctx.dot(&PartData::r, &PartData::r);
  const double rr0 = rr > 0.0 ? rr : 1.0;

  PoissonReport report;
  for (int it = 0; it < opts.max_iterations; ++it) {
    if (std::sqrt(rr / rr0) < opts.tolerance) {
      report.converged = true;
      break;
    }
    ctx.applyStiffness();
    const double pq = ctx.dot(&PartData::p, &PartData::q);
    if (pq <= 0.0) break;  // matrix not SPD on the free space: give up
    const double alpha = rz / pq;
    for (auto& d : ctx.data) {
      for (std::size_t i = 0; i < d.verts.size(); ++i) {
        d.u[i] += alpha * d.p[i];
        d.r[i] -= alpha * d.q[i];
      }
    }
    precondition();
    const double rz_new = ctx.dot(&PartData::r, &PartData::z);
    const double beta = rz_new / rz;
    for (auto& d : ctx.data)
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        d.p[i] = d.z[i] + beta * d.p[i];
    rz = rz_new;
    rr = ctx.dot(&PartData::r, &PartData::r);
    report.iterations = it + 1;
  }
  report.residual = std::sqrt(rr / rr0);
  if (std::sqrt(rr / rr0) < opts.tolerance) report.converged = true;

  // --- publish the solution as the vertex field "u" ------------------------
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& d = ctx.data[static_cast<std::size_t>(p)];
    field::Field u(pm.part(p).mesh(), "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (std::size_t i = 0; i < d.verts.size(); ++i)
      u.setScalar(d.verts[i], d.u[i]);
  }
  return report;
}

}  // namespace solver
