#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/verify.hpp"
#include "dist/creation.hpp"
#include "dist/numbering.hpp"
#include "dist/partedmesh.hpp"
#include "dist/plan.hpp"
#include "dist/ptnmodel.hpp"
#include "meshgen/boxmesh.hpp"
#include "pcu/error.hpp"

namespace {

using common::Vec3;
using core::Ent;
using dist::PartId;

/// Stripe elements across parts by iteration order.
std::vector<PartId> stripe(const core::Mesh& serial, int nparts) {
  const std::size_t n = serial.count(serial.dim());
  std::vector<PartId> dest(n);
  for (std::size_t i = 0; i < n; ++i)
    dest[i] = static_cast<PartId>(i * static_cast<std::size_t>(nparts) / n);
  return dest;
}

/// Geometric striping along x (produces contiguous chunks).
std::vector<PartId> stripeByX(const core::Mesh& serial, int nparts) {
  const int dim = serial.dim();
  std::vector<std::pair<double, std::size_t>> order;
  std::size_t i = 0;
  for (Ent e : serial.entities(dim))
    order.emplace_back(core::centroid(serial, e).x, i++);
  std::sort(order.begin(), order.end());
  std::vector<PartId> dest(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    dest[order[k].second] =
        static_cast<PartId>(k * static_cast<std::size_t>(nparts) / order.size());
  return dest;
}

dist::PartMap flatMap(int nparts) {
  return dist::PartMap(nparts, pcu::Machine::flat(nparts));
}

class DistributeParts : public ::testing::TestWithParam<int> {};

TEST_P(DistributeParts, GlobalCountsMatchSerial) {
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d)) << "dim " << d;
  // Every part's local mesh is structurally valid.
  std::size_t total_elems = 0;
  for (PartId p = 0; p < pm->parts(); ++p) {
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
    total_elems += pm->part(p).elementCount();
  }
  EXPECT_EQ(total_elems, gen.mesh->count(3));
}

TEST_P(DistributeParts, SharedEntitiesHaveSymmetricCopies) {
  const int nparts = GetParam();
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  std::size_t shared_seen = 0;
  for (PartId p = 0; p < pm->parts(); ++p) {
    const auto& part = pm->part(p);
    for (int d = 0; d < 3; ++d) {
      for (Ent e : part.mesh().entities(d)) {
        if (const dist::Remote* r = part.remote(e)) {
          ++shared_seen;
          EXPECT_GE(r->owner, 0);
          // Owner is the smallest residence part (MinPartId rule).
          const auto res = part.residence(e);
          EXPECT_EQ(r->owner, res.front());
        }
      }
    }
  }
  if (nparts > 1) {
    EXPECT_GT(shared_seen, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DistributeParts,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(Distribute, RejectsBadInput) {
  auto gen = meshgen::boxTets(2, 2, 2);
  EXPECT_THROW(dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                            {0, 1, 2},  // wrong length
                                            flatMap(3)),
               std::invalid_argument);
  auto dest = stripe(*gen.mesh, 2);
  dest[0] = 7;  // out of range
  EXPECT_THROW(dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                            flatMap(2)),
               std::invalid_argument);
}

TEST(PaperFigure3, ThreePartMeshOnTwoNodes) {
  // The paper's running example: a 2D mesh on three parts over two nodes.
  auto gen = meshgen::boxTris(4, 4);
  auto& serial = *gen.mesh;
  // Assign left/mid/right thirds of triangles to parts 0/1/2.
  std::vector<PartId> dest;
  for (Ent e : serial.entities(2)) {
    const double x = core::centroid(serial, e).x;
    dest.push_back(x < 1.0 / 3 ? 0 : (x < 2.0 / 3 ? 1 : 2));
  }
  // Two nodes: parts 0,1 on node i; part 2 on node j (2 ranks/node).
  dist::PartMap map(3, pcu::Machine(2, 2));
  auto pm = dist::PartedMesh::distribute(serial, gen.model.get(), dest, map);
  pm->verify();
  EXPECT_EQ(map.nodeOf(0), map.nodeOf(1));
  EXPECT_NE(map.nodeOf(0), map.nodeOf(2));

  dist::PtnModel ptn(*pm);
  // Partition faces: one per part interior.
  EXPECT_EQ(ptn.count(2), 3u);
  // Partition edges: interfaces 0|1 and 1|2 (parts 0 and 2 do not touch).
  EXPECT_EQ(ptn.count(1), 2u);
  EXPECT_NE(ptn.find({0, 1}), nullptr);
  EXPECT_NE(ptn.find({1, 2}), nullptr);
  EXPECT_EQ(ptn.find({0, 2}), nullptr);
  // Partition classification of a shared vertex: residence {0,1} -> the
  // partition edge; owner is part 0.
  const auto* pe01 = ptn.find({0, 1});
  EXPECT_EQ(pe01->dim, 1);
  EXPECT_EQ(pe01->owner, 0);
}

TEST(PtnModel, TripleJunctionIsPartitionVertex) {
  // Quadrant partition of a 2D mesh: the center vertex is shared by >= 3
  // parts and must classify on a dim-0 partition entity (paper Fig. 4).
  auto gen = meshgen::boxTris(4, 4);
  auto& serial = *gen.mesh;
  std::vector<PartId> dest;
  for (Ent e : serial.entities(2)) {
    const Vec3 c = core::centroid(serial, e);
    dest.push_back((c.x < 0.5 ? 0 : 1) + (c.y < 0.5 ? 0 : 2));
  }
  auto pm = dist::PartedMesh::distribute(serial, gen.model.get(), dest,
                                         flatMap(4));
  pm->verify();
  dist::PtnModel ptn(*pm);
  const auto* center = ptn.find({0, 1, 2, 3});
  ASSERT_NE(center, nullptr);
  EXPECT_EQ(center->dim, 0);
  EXPECT_EQ(ptn.count(2), 4u);
  // Four pairwise interfaces: 0|1, 0|2, 1|3, 2|3.
  EXPECT_EQ(ptn.count(1), 4u);
}

TEST(Migrate, MoveOneElement) {
  auto gen = meshgen::boxTets(2, 2, 2);
  const std::size_t serial_counts[4] = {gen.mesh->count(0), gen.mesh->count(1),
                                        gen.mesh->count(2), gen.mesh->count(3)};
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const std::size_t before0 = pm->part(0).elementCount();
  dist::MigrationPlan plan(2);
  const Ent victim = pm->part(0).elements().front();
  plan[0][victim] = 1;
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), before0 - 1);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), serial_counts[d]) << "dim " << d;
  for (PartId p = 0; p < 2; ++p) core::verify(pm->part(p).mesh());
}

TEST(Migrate, EmptyPlanIsNoOp) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  const std::size_t e0 = pm->part(0).elementCount();
  pm->migrate(dist::MigrationPlan(3));
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), e0);
}

TEST(Migrate, EvacuateWholePart) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  dist::MigrationPlan plan(3);
  for (Ent e : pm->part(1).elements()) plan[1][e] = 2;
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(1).elementCount(), 0u);
  EXPECT_EQ(pm->part(1).mesh().count(0), 0u);  // closure fully released
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, RoundTripRestoresCounts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const std::size_t e0 = pm->part(0).elementCount();
  const std::size_t e1 = pm->part(1).elementCount();
  // Move a slab of part 0's elements to part 1 and back.
  std::vector<Ent> moved;
  dist::MigrationPlan plan(2);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).x > 0.25) plan[0][e] = 1;
  const std::size_t nmoved = plan[0].size();
  ASSERT_GT(nmoved, 0u);
  pm->migrate(plan);
  pm->verify();
  EXPECT_EQ(pm->part(0).elementCount(), e0 - nmoved);
  EXPECT_EQ(pm->part(1).elementCount(), e1 + nmoved);
  // Move everything with x < 0.5 back to part 0.
  dist::MigrationPlan back(2);
  for (Ent e : pm->part(1).elements())
    if (core::centroid(pm->part(1).mesh(), e).x < 0.5) back[1][e] = 0;
  pm->migrate(back);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, TagsTravelWithElements) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  auto& m0 = pm->part(0).mesh();
  auto* w = m0.tags().create<double>("weight");
  const Ent victim = pm->part(0).elements().front();
  m0.tags().setScalar<double>(w, victim, 42.5);
  const std::size_t before1 = pm->part(1).elementCount();
  dist::MigrationPlan plan(2);
  plan[0][victim] = 1;
  pm->migrate(plan);
  // Find the tagged element on part 1.
  auto& m1 = pm->part(1).mesh();
  auto* w1 = m1.tags().find("weight");
  ASSERT_NE(w1, nullptr);
  std::size_t tagged = 0;
  for (Ent e : pm->part(1).elements())
    if (w1->has(e)) {
      ++tagged;
      EXPECT_EQ(m1.tags().getScalar<double>(w1, e), 42.5);
    }
  EXPECT_EQ(tagged, 1u);
  EXPECT_EQ(pm->part(1).elementCount(), before1 + 1);
}

TEST(Migrate, RandomChurnPreservesInvariants) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const int nparts = 4;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  common::Rng rng(2026);
  for (int round = 0; round < 6; ++round) {
    dist::MigrationPlan plan(nparts);
    for (PartId p = 0; p < nparts; ++p) {
      for (Ent e : pm->part(p).elements()) {
        if (rng.uniform() < 0.15)
          plan[p][e] = static_cast<PartId>(rng.below(nparts));
      }
    }
    pm->migrate(plan);
    pm->verify();
    for (int d = 0; d <= 3; ++d)
      EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d))
          << "round " << round << " dim " << d;
  }
  for (PartId p = 0; p < nparts; ++p)
    core::verify(pm->part(p).mesh(), {.check_volumes = true});
}

TEST(Migrate, IntoFreshlyAddedPart) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const PartId fresh = pm->addPart();
  EXPECT_EQ(fresh, 2);
  dist::MigrationPlan plan(3);
  int i = 0;
  for (Ent e : pm->part(0).elements())
    if (i++ % 2 == 0) plan[0][e] = fresh;
  pm->migrate(plan);
  pm->verify();
  EXPECT_GT(pm->part(fresh).elementCount(), 0u);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Migrate, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(6, 6);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  pm->verify();
  dist::MigrationPlan plan(3);
  for (Ent e : pm->part(0).elements())
    if (core::centroid(pm->part(0).mesh(), e).y > 0.5) plan[0][e] = 2;
  ASSERT_FALSE(plan[0].empty());
  pm->migrate(plan);
  pm->verify();
  for (int d = 0; d <= 2; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Neighbors, DetectedPerDimension) {
  auto gen = meshgen::boxTets(4, 1, 1);
  // Parts along x: 0 | 1 | 2 | 3; only consecutive parts are face-neighbors.
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), flatMap(4));
  pm->verify();
  const auto n1 = pm->part(1).neighborParts(2);
  EXPECT_EQ(n1, (std::vector<PartId>{0, 2}));
  const auto n0 = pm->part(0).neighborParts(0);
  EXPECT_TRUE(std::find(n0.begin(), n0.end(), 1) != n0.end());
  // Part 0 and part 3 share nothing.
  const auto n0v = pm->part(0).neighborParts(0);
  EXPECT_TRUE(std::find(n0v.begin(), n0v.end(), 3) == n0v.end());
}

TEST(Ghost, OneLayerCreatesReadOnlyCopies) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  const std::size_t local_before = pm->part(1).mesh().count(3);
  pm->ghostLayers(1);
  pm->verify();
  EXPECT_GT(pm->part(1).ghostCount(), 0u);
  // Ghosts do not change owned counts.
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
  // elementCount excludes ghosts; raw mesh count includes them.
  EXPECT_EQ(pm->part(1).elementCount(), local_before);
  EXPECT_GT(pm->part(1).mesh().count(3), local_before);
  for (PartId p = 0; p < 3; ++p) core::verify(pm->part(p).mesh());
}

TEST(Ghost, UnghostRestoresLocalCounts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), flatMap(4));
  std::vector<std::size_t> counts;
  for (PartId p = 0; p < 4; ++p)
    for (int d = 0; d <= 3; ++d) counts.push_back(pm->part(p).mesh().count(d));
  pm->ghostLayers(1);
  pm->unghost();
  pm->verify();
  std::size_t i = 0;
  for (PartId p = 0; p < 4; ++p)
    for (int d = 0; d <= 3; ++d)
      EXPECT_EQ(pm->part(p).mesh().count(d), counts[i++])
          << "part " << p << " dim " << d;
}

TEST(Ghost, TwoLayersStrictlyLarger) {
  auto gen = meshgen::boxTets(6, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 3), flatMap(3));
  pm->ghostLayers(1);
  const std::size_t one = pm->part(0).ghostCount();
  pm->unghost();
  pm->ghostLayers(2);
  pm->verify();
  const std::size_t two = pm->part(0).ghostCount();
  EXPECT_GT(two, one);
  pm->unghost();
  pm->verify();
}

TEST(Ghost, TagsSyncToGhosts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  // Tag every element on its home part before ghosting.
  for (PartId p = 0; p < 2; ++p) {
    auto& m = pm->part(p).mesh();
    auto* t = m.tags().create<int>("home");
    for (Ent e : pm->part(p).elements()) m.tags().setScalar<int>(t, e, p);
  }
  pm->ghostLayers(1);
  // Ghost copies carried the tag at creation.
  for (PartId p = 0; p < 2; ++p) {
    const auto& part = pm->part(p);
    auto* t = part.mesh().tags().find("home");
    ASSERT_NE(t, nullptr);
    for (Ent e : part.mesh().entities(3)) {
      if (!part.isGhost(e)) continue;
      EXPECT_EQ(part.mesh().tags().getScalar<int>(t, e),
                part.ghostSource(e).part);
    }
  }
  //

  // Owner updates a value; syncGhostTags pushes it to ghosts.
  auto& m0 = pm->part(0).mesh();
  auto* t0 = m0.tags().find("home");
  for (Ent e : pm->part(0).elements()) m0.tags().setScalar<int>(t0, e, 100);
  pm->syncGhostTags();
  const auto& part1 = pm->part(1);
  auto* t1 = part1.mesh().tags().find("home");
  for (Ent e : part1.mesh().entities(3)) {
    if (!part1.isGhost(e)) continue;
    if (part1.ghostSource(e).part == 0) {
      EXPECT_EQ(part1.mesh().tags().getScalar<int>(t1, e), 100);
    }
  }
}

TEST(Ghost, MigrateRefusesWhileGhosted) {
  auto gen = meshgen::boxTets(2, 2, 2);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  pm->ghostLayers(1);
  dist::MigrationPlan plan(2);
  plan[0][pm->part(0).elements().front()] = 1;
  EXPECT_THROW(pm->migrate(plan), std::logic_error);
  pm->unghost();
  EXPECT_NO_THROW(pm->migrate(plan));
  pm->verify();
}

/// The pool slots `mesh`'s free lists hand out next, per type in enum
/// order: drains a copy by allocating every free slot (the last freed slot
/// comes back first), so free-list order is observed through the public
/// API alone.
std::vector<std::uint32_t> drainFreeSlots(const core::Mesh& mesh) {
  core::Mesh scratch;
  scratch.copyFrom(mesh);
  std::vector<std::uint32_t> out;
  for (int d = 0; d <= 3; ++d) {
    for (core::Topo t : core::toposOfDim(d)) {
      const std::size_t n = scratch.slots(t) - scratch.countTopo(t);
      for (std::size_t i = 0; i < n; ++i) {
        Ent e;
        if (d == 0) {
          e = scratch.createVertex({0, 0, 0});
        } else {
          std::array<Ent, 8> verts{};
          const auto vs = scratch.all(0);
          for (int k = 0; k < core::topoVertexCount(t); ++k)
            verts[static_cast<std::size_t>(k)] = vs[static_cast<std::size_t>(k)];
          std::array<Ent, core::kMaxDown> down{};
          const int nb = d == 1 ? 2 : core::topoBoundaryCount(t, d - 1);
          for (int k = 0; k < nb; ++k) {
            const core::Topo bt =
                d == 1 ? core::Topo::Vertex : core::topoBoundaryTopo(t, d - 1, k);
            for (Ent b : scratch.entities(core::topoDim(bt)))
              if (b.topo() == bt) {
                down[static_cast<std::size_t>(k)] = b;
                break;
              }
          }
          e = scratch.createEntity(
              t, {verts.data(), static_cast<std::size_t>(core::topoVertexCount(t))},
              {down.data(), static_cast<std::size_t>(nb)});
        }
        out.push_back(e.index());
      }
    }
  }
  return out;
}

TEST(Ghost, RoundTripKeepsHandlesAndFreeListOrderPinned) {
  // Seeded churn (a random migration), then two ghost round trips. The
  // ghosts' handles while ghosted and every pool's free-list order after
  // unghost are pinned by one CRC-32C per case: ghost creation and
  // deletion must reuse pool slots in exactly this order.
  auto pinOf = [](bool three_d) {
    auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(8, 8);
    const int nparts = 4;
    auto pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
        flatMap(nparts));
    pm->setTransactional(true);
    for (PartId p = 0; p < nparts; ++p) {
      auto& m = pm->part(p).mesh();
      auto* t = m.tags().create<double>("u");
      for (Ent v : m.entities(0)) m.tags().setScalar<double>(t, v, p + 0.5);
    }
    common::Rng rng(28);
    dist::MigrationPlan plan(nparts);
    for (PartId p = 0; p < nparts; ++p)
      for (Ent e : pm->part(p).elements())
        if (rng.uniform() < 0.2) {
          const auto dest = static_cast<PartId>(rng.below(nparts));
          if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
        }
    pm->migrate(plan);
    std::uint32_t crc = 0;
    auto mix = [&crc](std::uint64_t v) { crc = common::crc32cOf(v, crc); };
    for (int layers = 1; layers <= 2; ++layers) {
      pm->ghostLayers(layers);
      pm->syncGhostTags();
      pm->verify();
      for (PartId p = 0; p < nparts; ++p) {
        const auto& part = pm->part(p);
        for (int d = 0; d <= part.mesh().dim(); ++d)
          for (Ent e : part.mesh().entities(d))
            if (part.isGhost(e)) {
              mix(e.packed());
              mix(part.ghostSource(e).ent.packed());
            }
      }
      pm->unghost();
      pm->verify();
      for (PartId p = 0; p < nparts; ++p) {
        mix(0xf7eeu);
        for (std::uint32_t slot : drainFreeSlots(pm->part(p).mesh()))
          mix(slot);
      }
    }
    return crc;
  };
  const std::uint32_t tets = pinOf(true);
  const std::uint32_t tris = pinOf(false);
  EXPECT_EQ(tets, 0x9399b08bu);
  EXPECT_EQ(tris, 0x11813116u);
}

TEST(Network, TwoLevelTrafficAccounting) {
  auto gen = meshgen::boxTets(4, 2, 2);
  // 4 parts on 2 nodes x 2 cores: parts {0,1} on node 0, {2,3} on node 1.
  dist::PartMap map(4, pcu::Machine(2, 2));
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 4), map);
  pm->network().resetStats();
  pm->ghostLayers(1);
  const auto& s = pm->network().stats();
  EXPECT_GT(s.on_node_messages, 0u);
  EXPECT_GT(s.off_node_messages, 0u);
  EXPECT_EQ(s.messages_sent, s.on_node_messages + s.off_node_messages);
  EXPECT_EQ(s.bytes_sent, s.on_node_bytes + s.off_node_bytes);
}

TEST(OwnerRule, LeastLoadedPicksLighterPart) {
  auto gen = meshgen::boxTets(4, 2, 2);
  // Unbalanced distribution: part 0 heavy, part 1 light.
  std::vector<PartId> dest(gen.mesh->count(3), 0);
  for (std::size_t i = dest.size() - 12; i < dest.size(); ++i) dest[i] = 1;
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         flatMap(2), dist::OwnerRule::LeastLoaded);
  // distribute() uses MinPartId; migrations re-choose owners for entities
  // they touch. Move a slab so most of the part boundary is touched.
  dist::MigrationPlan plan(2);
  int i = 0;
  for (Ent e : pm->part(0).elements())
    if (i++ % 2 == 0) plan[0][e] = 1;
  pm->migrate(plan);
  pm->verify();
  // Touched shared entities are now owned by the lighter part (part 1),
  // per LeastLoaded; untouched ones keep their previous owner.
  std::size_t owned_by_1 = 0, shared_total = 0;
  for (int d = 0; d < 3; ++d) {
    for (Ent e : pm->part(1).mesh().entities(d)) {
      if (const dist::Remote* r = pm->part(1).remote(e)) {
        ++shared_total;
        if (r->owner == 1) ++owned_by_1;
      }
    }
  }
  ASSERT_GT(shared_total, 0u);
  EXPECT_GT(owned_by_1, shared_total / 2);
}

/// --- creation records (the shared ghost/migration codec) -----------------

/// A full key reference to part 1's entity (t, i).
void packFullRef(pcu::OutBuffer& b, core::Topo t, std::uint32_t i) {
  b.pack<std::int32_t>(1);
  b.pack<std::uint64_t>(Ent(t, i).packed());
}

/// A record header: key, topology code, classification.
pcu::OutBuffer recordHeader(std::uint8_t topo) {
  pcu::OutBuffer b;
  packFullRef(b, core::Topo::Tet, 7);
  b.pack<std::uint8_t>(topo);
  b.pack<std::int32_t>(-1);
  b.pack<std::int32_t>(-1);
  return b;
}

/// Decode must reject `b` with a structured protocol error whose detail
/// contains `what` (never read past the record or overflow its arrays).
void expectRejected(pcu::OutBuffer b, const std::string& what) {
  pcu::InBuffer in(std::move(b).take());
  try {
    (void)dist::creation::decode(in, 3);
    FAIL() << "decoder accepted a record with: " << what;
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kProtocol);
    EXPECT_EQ(e.rank(), 3);
    EXPECT_NE(e.detail().find(what), std::string::npos) << e.detail();
  }
}

TEST(CreationRecord, RejectsTopologyCodeOutOfRange) {
  expectRejected(recordHeader(core::kTopoCount), "topology code 8 out of range");
  expectRejected(recordHeader(0xff), "topology code 255 out of range");
}

TEST(CreationRecord, RejectsVertexCountThatDoesNotMatchTheTopology) {
  // Nine vertex keys would overflow an eight-entry vertex table.
  auto b = recordHeader(static_cast<std::uint8_t>(core::Topo::Tri));
  b.pack<std::uint8_t>(9);
  for (std::uint32_t k = 0; k < 9; ++k) packFullRef(b, core::Topo::Vertex, k);
  expectRejected(std::move(b), "9 vertices for topology tri");
  auto hex = recordHeader(static_cast<std::uint8_t>(core::Topo::Hex));
  hex.pack<std::uint8_t>(200);
  expectRejected(std::move(hex), "200 vertices for topology hex");
}

TEST(CreationRecord, RejectsBoundaryCountThatDoesNotMatchTheTopology) {
  auto tet = recordHeader(static_cast<std::uint8_t>(core::Topo::Tet));
  tet.pack<std::uint8_t>(4);
  for (std::uint32_t k = 0; k < 4; ++k) packFullRef(tet, core::Topo::Vertex, k);
  tet.pack<std::uint8_t>(13);  // past a 12-entry boundary table
  expectRejected(std::move(tet), "13 boundary entities for topology tet");
  // An edge's boundary is its vertex list: it carries no boundary refs.
  auto edge = recordHeader(static_cast<std::uint8_t>(core::Topo::Edge));
  edge.pack<std::uint8_t>(2);
  packFullRef(edge, core::Topo::Vertex, 0);
  packFullRef(edge, core::Topo::Vertex, 1);
  edge.pack<std::uint8_t>(2);
  expectRejected(std::move(edge), "2 boundary entities for topology edge");
}

TEST(CreationRecord, RejectsBadReferenceTagAndTruncation) {
  auto b = recordHeader(static_cast<std::uint8_t>(core::Topo::Edge));
  b.pack<std::uint8_t>(2);
  b.pack<std::int32_t>(-7);
  expectRejected(std::move(b), "bad reference tag -7");
  auto cut = recordHeader(static_cast<std::uint8_t>(core::Topo::Quad));
  cut.pack<std::uint8_t>(4);
  packFullRef(cut, core::Topo::Vertex, 0);
  expectRejected(std::move(cut), "truncated");
}

TEST(CreationRecord, RoundTripCreatesWithoutSearchAndRejectsUnknownRefs) {
  core::Mesh src;
  const Ent v0 = src.createVertex({0, 0, 0});
  const Ent v1 = src.createVertex({1, 0, 0});
  const Ent v2 = src.createVertex({0, 1, 0});
  const Ent tri = src.buildElement(core::Topo::Tri, std::array{v0, v1, v2});
  const core::TagPlan tags(src);
  // Records in ascending dimension, boundaries named by ordinal.
  std::vector<Ent> order{v0, v1, v2};
  std::array<Ent, core::kMaxDown> edges{};
  src.downward(tri, 1, edges.data());
  order.insert(order.end(), edges.begin(), edges.begin() + 3);
  order.push_back(tri);
  auto ordinalOf = [&](Ent e) {
    const auto it = std::find(order.begin(), order.end(), e);
    return static_cast<std::uint32_t>(it - order.begin());
  };
  auto keyOf = [](Ent e) { return dist::GKey{0, e}; };
  pcu::OutBuffer b;
  for (Ent e : order) dist::creation::pack(b, src, tags, e, keyOf, ordinalOf);

  core::Mesh dst;
  const dist::creation::KeyMap keys;
  std::vector<Ent> local;
  pcu::InBuffer in(std::move(b).take());
  for (Ent e : order) {
    const auto rec = dist::creation::decode(in, 1);
    EXPECT_EQ(rec.key.ent, e);
    local.push_back(
        dist::creation::create(dst, rec, 1, keys, local, nullptr));
    core::skipTags(in);
  }
  EXPECT_TRUE(in.done());
  EXPECT_EQ(dst.count(0), 3u);
  EXPECT_EQ(dst.count(1), 3u);
  EXPECT_EQ(dst.count(2), 1u);
  core::verify(dst);
  std::array<Ent, core::kMaxDown> got{};
  dst.downward(local.back(), 1, got.data());
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(got[static_cast<std::size_t>(k)],
              local[static_cast<std::size_t>(3 + k)]);

  // The same face on a part that holds none of its boundary: a full key
  // the key map does not know is a protocol error, not a search.
  pcu::OutBuffer lone;
  dist::creation::pack(lone, src, tags, tri, keyOf,
                       [](Ent) { return dist::creation::kNoOrdinal; });
  pcu::InBuffer lone_in(std::move(lone).take());
  const auto rec = dist::creation::decode(lone_in, 2);
  core::Mesh empty;
  try {
    (void)dist::creation::create(empty, rec, 2, keys, {}, nullptr);
    FAIL() << "created a face over unresolved references";
  } catch (const pcu::Error& e) {
    EXPECT_EQ(e.code(), pcu::ErrorCode::kProtocol);
    EXPECT_NE(e.detail().find("unresolved vertex reference in a tri record"),
              std::string::npos)
        << e.detail();
  }
  EXPECT_EQ(empty.count(2), 0u);
}

/// --- exchange plans ------------------------------------------------------------

/// A churned mesh: `nparts` x-striped parts, then one seeded migration.
std::unique_ptr<dist::PartedMesh> churned(const meshgen::Generated& gen,
                                          int nparts, std::uint64_t seed) {
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  common::Rng rng(seed);
  dist::MigrationPlan plan(static_cast<std::size_t>(nparts));
  for (PartId p = 0; p < nparts; ++p)
    for (Ent e : pm->part(p).elements())
      if (rng.uniform() < 0.2) {
        const auto dest = static_cast<PartId>(rng.below(nparts));
        if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
      }
  pm->migrate(plan);
  return pm;
}

/// Every root lane has its leaf's lane and every leaf lane its root's, of
/// the same length; slot k of both names one entity, as the leaf's own
/// record (`rootOf(leaf part, leaf entity)`) says; and each lane runs in
/// root-handle order. Returns the items on root lanes.
template <typename RootOf>
std::size_t expectLanesAgree(const dist::PartedMesh& pm,
                             const dist::Plan& plan, RootOf&& rootOf) {
  std::size_t items = 0;
  std::size_t root_lanes = 0;
  std::size_t leaf_lanes = 0;
  for (PartId r = 0; r < pm.parts(); ++r) {
    leaf_lanes += plan.leafLanes(r).size();
    for (const auto& lane : plan.rootLanes(r)) {
      ++root_lanes;
      const auto& leaves = plan.leafLanes(lane.peer);
      const auto it = std::find_if(leaves.begin(), leaves.end(),
                                   [&](const auto& l) { return l.peer == r; });
      if (it == leaves.end() || it->items.size() != lane.items.size()) {
        ADD_FAILURE() << "lane " << r << " -> " << lane.peer
                      << " has no leaf side of its length";
        continue;
      }
      EXPECT_FALSE(lane.items.empty());
      for (std::size_t k = 0; k < lane.items.size(); ++k) {
        const dist::Copy root = rootOf(lane.peer, it->items[k]);
        EXPECT_EQ(root.part, r) << "slot " << k;
        EXPECT_EQ(root.ent, lane.items[k]) << r << " -> " << lane.peer
                                           << " slot " << k;
        if (k > 0) {
          EXPECT_LT(lane.items[k - 1].packed(), lane.items[k].packed());
        }
      }
      items += lane.items.size();
    }
  }
  EXPECT_EQ(root_lanes, leaf_lanes);
  return items;
}

TEST(PlanExchange, RootAndLeafNameTheSameEntitiesSlotBySlot) {
  for (const bool three_d : {false, true}) {
    for (const int nparts : {2, 4, 7}) {
      SCOPED_TRACE(std::string(three_d ? "tets" : "tris") + " x" +
                   std::to_string(nparts));
      auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(8, 8);
      auto pm = churned(gen, nparts, 29 + static_cast<std::uint64_t>(nparts));
      auto ownerCopy = [&](PartId p, Ent e) {
        const dist::GKey k = dist::keyOf(pm->part(p), e);
        return dist::Copy{k.part, k.ent};
      };
      // Shared: one slot per (owner, other copy); the vertex plan is the
      // full plan's vertex items.
      std::size_t copies = 0;
      std::size_t vertex_copies = 0;
      for (PartId p = 0; p < nparts; ++p)
        for (const auto& [e, r] : pm->part(p).remotes())
          if (r.owner == p) {
            copies += r.copies.size();
            if (e.topo() == core::Topo::Vertex) vertex_copies += r.copies.size();
          }
      ASSERT_GT(copies, 0u);
      EXPECT_EQ(expectLanesAgree(*pm, dist::Plan::shared(*pm), ownerCopy),
                copies);
      const dist::Plan vertices = dist::Plan::shared(*pm, 0);
      EXPECT_EQ(expectLanesAgree(*pm, vertices, ownerCopy), vertex_copies);
      for (PartId p = 0; p < nparts; ++p)
        for (const auto& lane : vertices.leafLanes(p))
          for (Ent e : lane.items) EXPECT_EQ(e.topo(), core::Topo::Vertex);

      pm->ghostLayers(1);
      std::size_t ghosts = 0;
      for (PartId p = 0; p < nparts; ++p) ghosts += pm->part(p).ghostCount();
      ASSERT_GT(ghosts, 0u);
      EXPECT_EQ(expectLanesAgree(*pm, dist::Plan::ghosts(*pm),
                                 [&](PartId p, Ent e) {
                                   return pm->part(p).ghostSource(e);
                                 }),
                ghosts);
      EXPECT_EQ(expectLanesAgree(*pm, dist::Plan::shared(*pm), ownerCopy),
                copies);
    }
  }
}

TEST(PlanExchange, BuildingAPlanSendsNothing) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = churned(gen, 4, 7);
  pm->ghostLayers(1);
  const pcu::CommStats before = pm->network().stats();
  (void)dist::Plan::shared(*pm);
  (void)dist::Plan::shared(*pm, 0);
  (void)dist::Plan::ghosts(*pm);
  const pcu::CommStats& after = pm->network().stats();
  EXPECT_EQ(after.messages_sent, before.messages_sent);
  EXPECT_EQ(after.bytes_sent, before.bytes_sent);
  EXPECT_EQ(after.physical_messages, before.physical_messages);
  EXPECT_EQ(after.physical_bytes, before.physical_bytes);
  EXPECT_FALSE(pm->network().pending());
}

TEST(PlanExchange, PayloadThatDoesNotMatchItsLaneIsAProtocolError) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(),
                                         stripeByX(*gen.mesh, 2), flatMap(2));
  const dist::Plan plan = dist::Plan::shared(*pm);
  ASSERT_EQ(plan.rootLanes(0).size(), 1u);
  const Ent last = plan.rootLanes(0).front().items.back();
  // Part 0's payload to part 1 drops its last value (delta -1) or carries
  // one more (delta +1).
  for (const int delta : {-1, 1}) {
    auto write = [&](PartId p, Ent e, pcu::OutBuffer& out) {
      if (p == 0 && e == last && delta < 0) return;
      out.pack<double>(1.0);
      if (p == 0 && e == last && delta > 0) out.pack<double>(2.0);
    };
    auto read = [](PartId, Ent, pcu::InBuffer& in) {
      (void)in.unpack<double>();
    };
    try {
      plan.bcast(pm->network(), write, read);
      FAIL() << "a payload of delta " << delta << " was read";
    } catch (const pcu::Error& e) {
      EXPECT_EQ(e.code(), pcu::ErrorCode::kProtocol) << e.what();
      EXPECT_EQ(e.rank(), 1) << e.what();
      EXPECT_EQ(e.peer(), 0) << e.what();
      EXPECT_NE(e.detail().find("plan lane 0 -> 1"), std::string::npos)
          << e.detail();
    }
    pm->network().resetTransport();
  }
  // The matching payload moves every value.
  double sum = 0.0;
  plan.bcast(
      pm->network(),
      [](PartId, Ent, pcu::OutBuffer& out) { out.pack<double>(0.5); },
      [&](PartId, Ent, pcu::InBuffer& in) { sum += in.unpack<double>(); });
  EXPECT_EQ(sum, 0.5 * static_cast<double>(
                           plan.rootLanes(0).front().items.size()));
}

/// --- tag-sync pins ------------------------------------------------------------

/// Every part's tags in name order, each with its component count and
/// every value, entity by entity in iteration order, folded into `crc`.
std::uint32_t tagValuesCrc(const dist::PartedMesh& pm, std::uint32_t crc) {
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& m = pm.part(p).mesh();
    auto tags = m.tags().list();
    std::sort(tags.begin(), tags.end(),
              [](const auto* a, const auto* b) { return a->name() < b->name(); });
    for (const auto* t : tags) {
      crc = common::crc32c(reinterpret_cast<const std::byte*>(t->name().data()),
                           t->name().size(), crc);
      crc = common::crc32cOf(std::uint64_t{t->components()}, crc);
      for (int d = 0; d <= m.dim(); ++d)
        for (Ent e : m.entities(d)) {
          const auto bytes = t->valueBytes(e);
          crc = common::crc32cOf(std::uint64_t{t->has(e)}, crc);
          crc = common::crc32c(bytes.data(), bytes.size(), crc);
        }
    }
  }
  return crc;
}

/// Every part's tag names in registry (creation) order, one line a part.
std::string registryOrder(const dist::PartedMesh& pm) {
  std::string out;
  for (PartId p = 0; p < pm.parts(); ++p) {
    out += std::to_string(p) + ":";
    for (const auto* t : pm.part(p).mesh().tags().list()) out += " " + t->name();
    out += "\n";
  }
  return out;
}

/// A 4-part tets mesh with int, long and double multi-component tags: two
/// on every part, two created on the even parts only and set sparsely on
/// what those parts own. Numbers the vertices, syncs every shared tag, then
/// ghosts one layer, moves the owners' values on and syncs the ghosts,
/// folding every part's tags into the CRC and appending its
/// registryOrder() to `registry` after each step. Returns the CRC.
std::uint32_t syncPin(int threads, std::string& registry) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const int nparts = 4;
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), stripeByX(*gen.mesh, nparts),
      flatMap(nparts));
  pm->network().setDeliveryThreads(threads);
  for (PartId p = 0; p < nparts; ++p) {
    auto& part = pm->part(p);
    auto& m = part.mesh();
    auto* dense_i = m.tags().create<int>("i2", 2);
    auto* dense_d = m.tags().create<double>("d3", 3);
    // Odd parts lack both sparse tags: each one creates them on the first
    // record that carries one, so record order shows in its registry.
    auto* sparse_l = p % 2 == 0 ? m.tags().create<long>("l2", 2) : nullptr;
    auto* sparse_d = p % 2 == 0 ? m.tags().create<double>("s1", 1) : nullptr;
    for (int d = 0; d <= 3; ++d)
      for (Ent e : m.entities(d)) {
        if (!part.isOwned(e)) continue;
        const auto i = static_cast<int>(e.index());
        m.tags().set<int>(dense_i, e, {p * 1000 + i, d});
        m.tags().set<double>(dense_d, e, {i + 0.25, p + 0.5, d * 1.5});
        if (sparse_l != nullptr && i % 3 == 0)
          m.tags().set<long>(sparse_l, e, {7L * i, -1L - p});
        if (sparse_d != nullptr && i % 4 == 1)
          m.tags().set<double>(sparse_d, e, {i / 8.0});
      }
  }
  std::uint32_t crc = 0;
  dist::numberEntities(*pm, 0, "gid");
  crc = tagValuesCrc(*pm, crc);
  registry += registryOrder(*pm);
  pm->syncSharedTags("");
  crc = tagValuesCrc(*pm, crc);
  registry += registryOrder(*pm);
  pm->ghostLayers(1);
  for (PartId p = 0; p < nparts; ++p) {
    auto& part = pm->part(p);
    auto& m = part.mesh();
    auto* dense_d = m.tags().find("d3");
    for (int d = 0; d <= 3; ++d)
      for (Ent e : m.entities(d))
        if (!part.isGhost(e) && part.isOwned(e))
          m.tags().set<double>(dense_d, e, {-1.0 * e.index(), p * 2.0, 0.5});
  }
  pm->syncGhostTags();
  crc = tagValuesCrc(*pm, crc);
  registry += registryOrder(*pm);
  pm->verify();
  return crc;
}

TEST(SyncPins, TagRegistriesAndValuesArePinnedUnderAnyDeliveryThreads) {
  // Recorded with the per-entity shared sync and the handle-prefixed ghost
  // sync: receivers now read each lane's records in root-handle order, and
  // every value must come out the same.
  constexpr std::uint32_t kValuesCrc = 0xc72bcfb8u;
  // An odd part creates the sparse tags in the order their first records
  // arrive: part 3's first record from part 2 carrying one of them, in
  // part 2's root-handle order, carries s1. The per-entity sync gave part
  // 3 "l2 s1", the iteration order of part 2's remote hash table.
  const std::string kNumbered =
      "0: i2 d3 l2 s1 gid\n"
      "1: i2 d3 gid\n"
      "2: i2 d3 l2 s1 gid\n"
      "3: i2 d3 gid\n";
  const std::string kSynced =
      "0: i2 d3 l2 s1 gid\n"
      "1: i2 d3 gid s1 l2\n"
      "2: i2 d3 l2 s1 gid\n"
      "3: i2 d3 gid s1 l2\n";
  for (int threads : {0, 4}) {
    std::string registry;
    EXPECT_EQ(syncPin(threads, registry), kValuesCrc) << threads << " threads";
    EXPECT_EQ(registry, kNumbered + kSynced + kSynced)
        << threads << " threads";
  }
}

/// --- fingerprint pins ------------------------------------------------------

/// fingerprint() of a churned mesh with a dense vertex tag and a sparse
/// multi-component element tag, then of the same mesh ghosted one layer.
std::pair<std::uint64_t, std::uint64_t> fingerprintPin(bool three_d) {
  auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(8, 8);
  const int nparts = 4;
  auto pm = churned(gen, nparts, 41);
  for (PartId p = 0; p < nparts; ++p) {
    auto& m = pm->part(p).mesh();
    auto* u = m.tags().create<double>("u");
    for (Ent v : m.entities(0))
      m.tags().setScalar<double>(u, v, m.point(v).x + 2.0 * m.point(v).y);
    auto* w = m.tags().create<int>("w", 2);
    for (Ent e : m.entities(m.dim()))
      if (e.index() % 3 == 0)
        m.tags().set<int>(w, e, {static_cast<int>(e.index()), p});
  }
  const std::uint64_t plain = pm->fingerprint();
  pm->ghostLayers(1);
  pm->syncGhostTags();
  return {plain, pm->fingerprint()};
}

TEST(FingerprintPins, SeededMeshesGhostedAndUnghosted) {
  // Checkpoint MANIFESTs store fingerprint() values, so the digest must
  // not change with its implementation. Recorded with the FlatMap-ordinal,
  // per-entity-buffer implementation.
  const auto [tets, tets_ghosted] = fingerprintPin(true);
  const auto [tris, tris_ghosted] = fingerprintPin(false);
  EXPECT_EQ(tets, 0xfc4a71c778fb2ef3ull);
  EXPECT_EQ(tets_ghosted, 0x352d980751c268aaull);
  EXPECT_EQ(tris, 0x241bd9faf0efe5b5ull);
  EXPECT_EQ(tris_ghosted, 0xc0397ed027616833ull);
}

}  // namespace
