#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <thread>

#include "adapt/sizefield.hpp"
#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "dist/padapt.hpp"
#include "dist/partedmesh.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "parma/metrics.hpp"
#include "part/coloring.hpp"
#include "part/partition.hpp"
#include "pcu/arq.hpp"
#include "pcu/faults.hpp"
#include "solver/poisson.hpp"

namespace {

using core::Ent;
using dist::PartId;

/// All distributed operations must produce semantically identical results
/// under threaded part processing (paper Sec. II-D: "part manipulations
/// take place in parallel threads").

std::unique_ptr<dist::PartedMesh> parted(meshgen::Generated& gen, int nparts,
                                         int threads) {
  const auto assign =
      part::partition(*gen.mesh, nparts, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine(2, (nparts + 1) / 2)));
  pm->network().setDeliveryThreads(threads);
  return pm;
}

class ThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCounts, MigrationUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  dist::MigrationPlan plan(4);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).x > 0.4) plan[0][e] = 2;
  for (Ent e : pm->part(1).elements())
    if (core::centroid(pm->part(1).mesh(), e).y > 0.6) plan[1][e] = 3;
  pm->migrate(plan);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST_P(ThreadCounts, GhostingUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  pm->ghostLayers(1);
  pm->verify();
  std::size_t ghosts = 0;
  for (PartId p = 0; p < 4; ++p) ghosts += pm->part(p).ghostCount();
  EXPECT_GT(ghosts, 0u);
  // Round trip through the batched tag sync: owners stamp every real
  // element after ghosting, and each ghost must mirror its source's stamp.
  for (PartId p = 0; p < 4; ++p) {
    auto& mesh = pm->part(p).mesh();
    auto* stamp = mesh.tags().create<int>("stamp");
    for (Ent e : pm->part(p).elements())
      mesh.tags().setScalar<int>(stamp, e,
                                 1000 * p + static_cast<int>(e.index()));
  }
  pm->syncGhostTags();
  pm->verify();
  for (PartId p = 0; p < 4; ++p) {
    const auto& part = pm->part(p);
    auto* stamp = part.mesh().tags().find("stamp");
    for (Ent e : part.mesh().entities(3)) {
      if (!part.isGhost(e)) continue;
      const dist::Copy src = part.ghostSource(e);
      EXPECT_EQ(part.mesh().tags().getScalar<int>(stamp, e),
                1000 * src.part + static_cast<int>(src.ent.index()));
    }
  }
  pm->unghost();
  pm->verify();
}

TEST_P(ThreadCounts, ParallelAdaptUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = parted(gen, 3, threads);
  dist::refineParted(*pm, adapt::UniformSize(0.3), {.max_passes = 6});
  pm->verify();
  for (PartId p = 0; p < 3; ++p)
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
}

TEST_P(ThreadCounts, BalanceUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  // Spiked distribution.
  std::vector<PartId> dest(gen.mesh->count(3));
  std::size_t i = 0;
  for (Ent e : gen.mesh->entities(3)) {
    (void)e;
    dest[i] = static_cast<PartId>(i * 8 / dest.size());
    ++i;
  }
  for (auto& d : dest)
    if (d == 3) d = 2;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), dest,
      dist::PartMap(8, pcu::Machine(2, 4)));
  pm->network().setDeliveryThreads(threads);
  const auto report = parma::balance(*pm, "Rgn", {.tolerance = 0.05});
  pm->verify();
  EXPECT_LE(report.final_imbalance, 1.10);
}

TEST_P(ThreadCounts, SolverUnderThreadedDelivery) {
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  auto exact = [](const common::Vec3& x) { return x.x + 2.0 * x.y - x.z; };
  const auto report = solver::solvePoisson(
      *pm, [](const common::Vec3&) { return 0.0; }, exact,
      {.tolerance = 1e-11});
  EXPECT_TRUE(report.converged);
  for (PartId p = 0; p < 4; ++p) {
    auto& mesh = pm->part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (Ent v : mesh.entities(0))
      EXPECT_NEAR(u.getScalar(v), exact(mesh.point(v)), 1e-8);
  }
}

TEST_P(ThreadCounts, ReliableChaosUnderThreadedDelivery) {
  // The transport's resend queues are written while stages flush and read
  // while batches verify; under threaded delivery the handlers of every
  // destination post concurrently in between. A transient plan of every
  // fault kind must still let every operation commit.
  const int threads = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = parted(gen, 4, threads);
  pcu::faults::FaultPlan plan;
  plan.seed = 13;
  plan.corrupt = plan.drop = plan.duplicate = plan.delay = 0.05;
  struct ChaosScope {
    explicit ChaosScope(const pcu::faults::FaultPlan& p) {
      pcu::arq::resetStats();
      pcu::arq::setReliable(true);
      pcu::faults::setPlan(p);
    }
    ~ChaosScope() {
      pcu::faults::clearPlan();
      pcu::arq::setReliable(false);
    }
  };
  common::Rng rng(31);
  {
    ChaosScope chaos(plan);
    for (int round = 0; round < 3; ++round) {
      dist::MigrationPlan moves(4);
      for (PartId p = 0; p < 4; ++p)
        for (Ent e : pm->part(p).elements()) {
          if (rng.uniform() >= 0.2) continue;
          const auto dest = static_cast<PartId>(rng.below(4));
          if (dest != p) moves[static_cast<std::size_t>(p)][e] = dest;
        }
      EXPECT_NO_THROW(pm->migrate(moves)) << "round " << round;
      EXPECT_NO_THROW(pm->ghostLayers(1)) << "round " << round;
      EXPECT_NO_THROW(pm->syncGhostTags()) << "round " << round;
      EXPECT_NO_THROW(pm->unghost()) << "round " << round;
    }
  }
  EXPECT_GT(pcu::arq::stats().recovered, 0u) << "no fault was recovered";
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCounts, ::testing::Values(2, 4, 8));

TEST(ThreadedDelivery, SameGlobalCountsAsSequential) {
  adapt::UniformSize size(0.3);
  auto gen_seq = meshgen::boxTets(2, 2, 2);
  auto pm_seq = parted(gen_seq, 4, 0);
  dist::refineParted(*pm_seq, size, {.max_passes = 6});
  auto gen_thr = meshgen::boxTets(2, 2, 2);
  auto pm_thr = parted(gen_thr, 4, 4);
  dist::refineParted(*pm_thr, size, {.max_passes = 6});
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm_thr->globalCount(d), pm_seq->globalCount(d)) << "dim " << d;
}

// Const mesh queries have no hidden write path (no lazily filled cache), so
// threads may share one const mesh without priming anything first.
TEST(ConstMeshQueries, ConcurrentColoringOfOneSharedMesh) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const core::Mesh& mesh = *gen.mesh;
  using part::ColorRelation;
  struct Result {
    part::Coloring by_vertex, by_face;
    std::string error;
  };
  std::array<Result, 2> results;
  auto work = [&mesh](Result& r) {
    try {
      r.by_vertex = part::colorElements(mesh, ColorRelation::SharedVertex);
      part::verifyColoring(mesh, r.by_vertex, ColorRelation::SharedVertex);
      r.by_face = part::colorElements(mesh, ColorRelation::SharedFace);
      part::verifyColoring(mesh, r.by_face, ColorRelation::SharedFace);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
  };
  std::thread a(work, std::ref(results[0]));
  std::thread b(work, std::ref(results[1]));
  a.join();
  b.join();
  for (const Result& r : results) EXPECT_EQ(r.error, "");
  EXPECT_EQ(results[0].by_vertex.color, results[1].by_vertex.color);
  EXPECT_EQ(results[0].by_face.color, results[1].by_face.color);
}

}  // namespace
