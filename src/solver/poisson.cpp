#include "solver/poisson.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/measure.hpp"
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

/// The rows of one part whose values travel on one (part, peer) lane, in
/// the order the exchange adds or assigns them.
struct Lane {
  PartId peer = -1;
  std::vector<int> rows;
};

/// A part's lanes: outbound in send order, inbound sorted by peer.
struct PartLanes {
  std::vector<Lane> reduce_out;  ///< copy rows -> their owner part
  std::vector<Lane> reduce_in;   ///< owned rows <- a copy part
  std::vector<Lane> bcast_out;   ///< owned rows -> a copy part
  std::vector<Lane> bcast_in;    ///< copy rows <- their owner part
};

const Lane& laneOf(const std::vector<Lane>& lanes, PartId peer) {
  const auto it = std::lower_bound(
      lanes.begin(), lanes.end(), peer,
      [](const Lane& l, PartId q) { return l.peer < q; });
  if (it == lanes.end() || it->peer != peer)
    throw std::logic_error("poisson: message from a part with no lane");
  return *it;
}

class Context {
 public:
  Context(dist::PartedMesh& pm) : pm_(pm), parts_(pm.parts()) {}

  std::vector<PartData> data;

  /// Build the per-solve exchange plan: one round of entity handles per
  /// direction names, for every (part, peer) lane, the rows its values
  /// land in. Shared vertices are walked in the part's remote-table order,
  /// so each lane lists its rows in the order the per-vertex exchange
  /// posted them. Requires `data` (the vertex rows) to be set up.
  void buildPlan() {
    auto& net = pm_.network();
    lanes_.assign(static_cast<std::size_t>(parts_), {});
    // Copies name their owner's handle; owners name each copy's handle.
    for (const bool reduce : {true, false}) {
      for (PartId p = 0; p < parts_; ++p) {
        auto& out = reduce ? lanes_[static_cast<std::size_t>(p)].reduce_out
                           : lanes_[static_cast<std::size_t>(p)].bcast_out;
        std::vector<std::vector<std::uint64_t>> names;  // per lane
        std::vector<int> lane_of(static_cast<std::size_t>(parts_), -1);
        auto add = [&](PartId peer, int row, Ent remote) {
          int& k = lane_of[static_cast<std::size_t>(peer)];
          if (k < 0) {
            k = static_cast<int>(out.size());
            out.push_back({peer, {}});
            names.emplace_back();
          }
          out[static_cast<std::size_t>(k)].rows.push_back(row);
          names[static_cast<std::size_t>(k)].push_back(remote.packed());
        };
        const auto& d = data[static_cast<std::size_t>(p)];
        for (const auto& [e, rem] : pm_.part(p).remotes()) {
          if (e.topo() != core::Topo::Vertex) continue;
          if (reduce != (rem.owner != p)) continue;
          for (const dist::Copy& c : rem.copies)
            if (!reduce || c.part == rem.owner) add(c.part, d.row(e), c.ent);
        }
        for (std::size_t k = 0; k < out.size(); ++k) {
          pcu::OutBuffer msg;
          msg.packVector(names[k]);
          net.send(p, out[k].peer, std::move(msg));
        }
      }
      net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
        const auto names = body.unpackVector<std::uint64_t>();
        const auto& d = data[static_cast<std::size_t>(to)];
        Lane lane{from, {}};
        lane.rows.reserve(names.size());
        for (std::uint64_t h : names)
          lane.rows.push_back(d.row(Ent::unpack(h)));
        auto& in = reduce ? lanes_[static_cast<std::size_t>(to)].reduce_in
                          : lanes_[static_cast<std::size_t>(to)].bcast_in;
        in.push_back(std::move(lane));
      });
    }
    for (auto& l : lanes_) {
      auto byPeer = [](const Lane& a, const Lane& b) {
        return a.peer < b.peer;
      };
      std::sort(l.reduce_in.begin(), l.reduce_in.end(), byPeer);
      std::sort(l.bcast_in.begin(), l.bcast_in.end(), byPeer);
    }
  }

  /// Sum partial values of shared vertices across parts, then broadcast
  /// the totals back so every copy agrees: one payload of doubles per
  /// (part, peer) lane and direction. Owners add the copies' values in
  /// delivery order (source part, then the source's lane order), exactly
  /// the additions of a per-vertex exchange, so results are bitwise
  /// independent of the plan.
  void accumulate(std::vector<double> PartData::* vec) {
    exchange(vec, &PartLanes::reduce_out, &PartLanes::reduce_in,
             [](double& into, double v) { into += v; });
    exchange(vec, &PartLanes::bcast_out, &PartLanes::bcast_in,
             [](double& into, double v) { into = v; });
  }

  /// Global dot product, counting each vertex once (on its owner).
  [[nodiscard]] double dot(std::vector<double> PartData::* a,
                           std::vector<double> PartData::* b) const {
    double sum = 0.0;
    for (PartId p = 0; p < parts_; ++p) {
      const auto& d = data[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < d.verts.size(); ++i)
        if (d.owned[i]) sum += (d.*a)[i] * (d.*b)[i];
    }
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
  /// Post every `out` lane's values of `vec`, then apply each arrival to
  /// the rows of the receiver's `in` lane for its source part.
  template <typename Apply>
  void exchange(std::vector<double> PartData::* vec,
                std::vector<Lane> PartLanes::* out,
                std::vector<Lane> PartLanes::* in, Apply apply) {
    auto& net = pm_.network();
    for (PartId p = 0; p < parts_; ++p) {
      const auto& values = data[static_cast<std::size_t>(p)].*vec;
      for (const Lane& lane : lanes_[static_cast<std::size_t>(p)].*out) {
        pcu::OutBuffer msg;
        msg.reserve(lane.rows.size() * sizeof(double));
        for (int r : lane.rows)
          msg.pack<double>(values[static_cast<std::size_t>(r)]);
        net.send(p, lane.peer, std::move(msg));
      }
    }
    net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      const Lane& lane =
          laneOf(lanes_[static_cast<std::size_t>(to)].*in, from);
      if (body.size() != lane.rows.size() * sizeof(double))
        throw std::logic_error("poisson: lane payload does not match its plan");
      auto& values = data[static_cast<std::size_t>(to)].*vec;
      for (int r : lane.rows)
        apply(values[static_cast<std::size_t>(r)], body.unpack<double>());
    });
  }

  dist::PartedMesh& pm_;
  int parts_;
  std::vector<PartLanes> lanes_;
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
  ctx.buildPlan();
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
