#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"

#include "core/measure.hpp"
#include "dist/partedmesh.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "solver/poisson.hpp"

namespace {

using common::Vec3;
using core::Ent;
using dist::PartId;

std::unique_ptr<dist::PartedMesh> parted(meshgen::Generated& gen, int nparts) {
  const auto assign =
      part::partition(*gen.mesh, nparts, part::Method::GraphRB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

/// Max |u - exact| over all parts' vertices.
double maxError(dist::PartedMesh& pm,
                const std::function<double(const Vec3&)>& exact) {
  double err = 0.0;
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& mesh = pm.part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0))
      err = std::max(err, std::fabs(u.getScalar(v) - exact(mesh.point(v))));
  }
  return err;
}

class PoissonParts : public ::testing::TestWithParam<int> {};

TEST_P(PoissonParts, LinearSolutionIsExact) {
  // Harmonic linear field: P1 elements represent it exactly, so the solver
  // must reproduce it to solver tolerance for any partition.
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = parted(gen, nparts);
  auto exact = [](const Vec3& x) { return 1.0 + 2.0 * x.x - x.y + 0.5 * x.z; };
  const auto report = solver::solvePoisson(
      *pm, [](const Vec3&) { return 0.0; }, exact, {.tolerance = 1e-12});
  EXPECT_TRUE(report.converged);
  EXPECT_LT(maxError(*pm, exact), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PoissonParts, ::testing::Values(1, 2, 4, 8));

TEST(Poisson, SolutionConsistentAcrossCopies) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = parted(gen, 4);
  solver::solvePoisson(
      *pm, [](const Vec3&) { return 1.0; }, [](const Vec3&) { return 0.0; },
      {.tolerance = 1e-11});
  for (PartId p = 0; p < pm->parts(); ++p) {
    auto& mesh = pm->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const dist::Remote* r = pm->part(p).remote(v);
      if (r == nullptr) continue;
      for (const dist::Copy& c : r->copies) {
        field::Field uq(pm->part(c.part).mesh(), "u",
                        field::ValueType::Scalar, field::Location::Vertex);
        EXPECT_NEAR(uq.getScalar(c.ent), u.getScalar(v), 1e-12);
      }
    }
  }
}

TEST(Poisson, PartitionIndependence) {
  // The discrete solution is a property of the mesh, not the partition:
  // different part counts must agree at matching locations.
  auto gen1 = meshgen::boxTets(3, 3, 3);
  auto gen2 = meshgen::boxTets(3, 3, 3);
  auto pm1 = parted(gen1, 2);
  auto pm2 = parted(gen2, 7);
  auto f = [](const Vec3& x) { return x.x + 1.0; };
  auto g = [](const Vec3& x) { return x.y; };
  solver::solvePoisson(*pm1, f, g, {.tolerance = 1e-12});
  solver::solvePoisson(*pm2, f, g, {.tolerance = 1e-12});
  // Collect position -> value from both and compare.
  std::map<std::tuple<double, double, double>, double> sol1;
  for (PartId p = 0; p < pm1->parts(); ++p) {
    auto& mesh = pm1->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const auto x = mesh.point(v);
      sol1[{x.x, x.y, x.z}] = u.getScalar(v);
    }
  }
  for (PartId p = 0; p < pm2->parts(); ++p) {
    auto& mesh = pm2->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) {
      const auto x = mesh.point(v);
      EXPECT_NEAR(u.getScalar(v), sol1.at({x.x, x.y, x.z}), 1e-8);
    }
  }
}

TEST(Poisson, ManufacturedSolutionConverges) {
  // u = sin(pi x) sin(pi y) sin(pi z), f = 3 pi^2 u, u = 0 on the boundary.
  auto exact = [](const Vec3& x) {
    return std::sin(M_PI * x.x) * std::sin(M_PI * x.y) * std::sin(M_PI * x.z);
  };
  auto f = [&](const Vec3& x) { return 3.0 * M_PI * M_PI * exact(x); };
  auto zero = [](const Vec3&) { return 0.0; };
  double prev_err = 1e300;
  for (int n : {4, 8}) {
    auto gen = meshgen::boxTets(n, n, n);
    auto pm = parted(gen, 4);
    const auto report =
        solver::solvePoisson(*pm, f, zero, {.max_iterations = 2000,
                                            .tolerance = 1e-10});
    EXPECT_TRUE(report.converged);
    const double err = maxError(*pm, exact);
    EXPECT_LT(err, prev_err * 0.45);  // ~2nd order: 4x fewer error per halving
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.03);
}

TEST(Poisson, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(8, 8);
  auto pm = parted(gen, 3);
  auto exact = [](const Vec3& x) { return 2.0 * x.x + 3.0 * x.y; };
  const auto report = solver::solvePoisson(
      *pm, [](const Vec3&) { return 0.0; }, exact, {.tolerance = 1e-12});
  EXPECT_TRUE(report.converged);
  EXPECT_LT(maxError(*pm, exact), 1e-9);
}

TEST(Poisson, RefusesGhostedMesh) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = parted(gen, 2);
  pm->ghostLayers(1);
  EXPECT_THROW(solver::solvePoisson(
                   *pm, [](const Vec3&) { return 0.0; },
                   [](const Vec3&) { return 0.0; }),
               std::logic_error);
}

/// --- exchange plan ----------------------------------------------------------

/// The fixed 4-part mesh and problem of the exchange-plan tests.
std::unique_ptr<dist::PartedMesh> exchangeCase(meshgen::Generated& gen,
                                               int delivery_threads) {
  auto pm = parted(gen, 4);
  pm->network().setDeliveryThreads(delivery_threads);
  return pm;
}

solver::PoissonReport solveExchangeCase(dist::PartedMesh& pm) {
  return solver::solvePoisson(
      pm, [](const Vec3& x) { return 1.0 + x.z; },
      [](const Vec3& x) { return x.x + 2.0 * x.y; }, {.tolerance = 1e-10});
}

/// CRC of every part's "u" values, part by part in vertex iteration order.
std::uint32_t solutionCrc(dist::PartedMesh& pm) {
  std::vector<double> values;
  for (PartId p = 0; p < pm.parts(); ++p) {
    auto& mesh = pm.part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0)) values.push_back(u.getScalar(v));
  }
  return common::crc32(reinterpret_cast<const std::byte*>(values.data()),
                       values.size() * sizeof(double));
}

TEST(PoissonExchange, SolutionBitsArePinnedUnderAnyDeliveryThreads) {
  // Recorded with the per-vertex exchange the plan replaced: the plan keeps
  // every addition in its old order, so the iterates match bit for bit.
  constexpr std::uint32_t kSolutionCrc = 0x543878F7u;
  for (int threads : {0, 4}) {
    auto gen = meshgen::boxTets(4, 4, 4);
    auto pm = exchangeCase(gen, threads);
    const auto report = solveExchangeCase(*pm);
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(solutionCrc(*pm), kSolutionCrc) << threads << " threads";
  }
}

TEST(PoissonExchange, EachAccumulatePostsOnePayloadPerLane) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = exchangeCase(gen, 0);
  // Lanes: copy part -> owner for the sums, owner -> copy part for the
  // totals, over shared vertices.
  std::set<std::pair<PartId, PartId>> up;
  std::set<std::pair<PartId, PartId>> down;
  for (PartId p = 0; p < pm->parts(); ++p) {
    for (const auto& [e, rem] : pm->part(p).remotes()) {
      if (e.topo() != core::Topo::Vertex) continue;
      for (const dist::Copy& c : rem.copies) {
        if (rem.owner == p) down.emplace(p, c.part);
        else if (c.part == rem.owner) up.emplace(p, c.part);
      }
    }
  }
  ASSERT_FALSE(up.empty());
  ASSERT_FALSE(down.empty());
  const auto before = pm->network().stats().messages_sent;
  const auto report = solveExchangeCase(*pm);
  ASSERT_TRUE(report.converged);
  const auto posted = pm->network().stats().messages_sent - before;
  // The plan is built from the part tables, without a message; the load
  // vector, the diagonal, the initial residual and every iteration
  // accumulate once.
  const auto accumulates = static_cast<std::uint64_t>(report.iterations) + 3;
  EXPECT_EQ(posted, accumulates * (up.size() + down.size()));
}

TEST(PoissonExchange, MigratedMeshWithLeafOrderUnlikeRootOrderIsPinned) {
  // A seeded migration creates copies in arrival order, so on some lane a
  // leaf's handle order differs from its owner's: a plan whose leaf side
  // followed the leaf's own handles would add sums into the wrong vertices.
  constexpr std::uint32_t kSolutionCrc = 0x506DC54Cu;
  constexpr std::uint64_t kPosted = 120;
  for (int threads : {0, 4}) {
    auto gen = meshgen::boxTets(4, 4, 4);
    auto pm = exchangeCase(gen, threads);
    common::Rng rng(31);
    dist::MigrationPlan plan(static_cast<std::size_t>(pm->parts()));
    for (PartId p = 0; p < pm->parts(); ++p)
      for (Ent e : pm->part(p).elements())
        if (rng.uniform() < 0.2) {
          const auto dest = static_cast<PartId>(
              rng.below(static_cast<std::uint64_t>(pm->parts())));
          if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
        }
    pm->migrate(plan);
    // Precondition: some (leaf part, owner part) lane of shared vertices
    // lists its leaf handles out of order when read in owner-handle order.
    bool inverted = false;
    for (PartId p = 0; p < pm->parts(); ++p) {
      std::vector<std::tuple<PartId, std::uint64_t, std::uint64_t>> lane;
      for (const auto& [e, rem] : pm->part(p).remotes()) {
        if (e.topo() != core::Topo::Vertex || rem.owner == p) continue;
        for (const dist::Copy& c : rem.copies)
          if (c.part == rem.owner)
            lane.emplace_back(c.part, c.ent.packed(), e.packed());
      }
      std::sort(lane.begin(), lane.end());
      for (std::size_t k = 1; k < lane.size(); ++k)
        inverted = inverted || (std::get<0>(lane[k]) == std::get<0>(lane[k - 1]) &&
                                std::get<2>(lane[k]) < std::get<2>(lane[k - 1]));
    }
    ASSERT_TRUE(inverted) << "every lane's leaf order matches its root order";
    const auto before = pm->network().stats().messages_sent;
    const auto report = solveExchangeCase(*pm);
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(solutionCrc(*pm), kSolutionCrc) << threads << " threads";
    EXPECT_EQ(pm->network().stats().messages_sent - before, kPosted)
        << threads << " threads";
  }
}

}  // namespace
