/// \file test_layout.cpp
/// \brief The data-layout overhaul must be semantics-free.
///
/// Three gates:
///  1. The no-allocation adjacentInto() answers every (dim -> dim)
///     interrogation identically to the allocating adjacent().
///  2. RCM reordering actually improves vertex-graph bandwidth.
///  3. Locality reordering on vs off (PUMI_NO_REORDER) leaves the full
///     distributed pipeline — distribute, random migration, ghosting,
///     unghosting, diffusive balancing — bit-identical in both the
///     geometric element-digest multiset and the canonical fingerprint,
///     across the 20-seed chaos matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adapt/collapse.hpp"
#include "adapt/refine.hpp"
#include "adapt/sizefield.hpp"
#include "common/rng.hpp"
#include "core/order.hpp"
#include "core/verify.hpp"
#include "dist/digest.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/improve.hpp"
#include "part/partition.hpp"

namespace {

using core::Ent;
using dist::PartId;

std::vector<Ent> sorted(std::vector<Ent> es) {
  std::sort(es.begin(), es.end());
  return es;
}

// --- gate 1: adjacentInto vs allocating accessor -------------------------

void checkAllPairs(const core::Mesh& mesh, int dim) {
  for (int from = 0; from <= dim; ++from) {
    for (int to = 0; to <= dim; ++to) {
      if (from == to) continue;
      core::AdjVec adj;
      for (Ent e : mesh.all(from)) {
        const auto legacy = sorted(mesh.adjacent(e, to));
        const int n = mesh.adjacentInto(e, to, adj);
        ASSERT_EQ(static_cast<std::size_t>(n), legacy.size());
        ASSERT_EQ(legacy, sorted({adj.begin(), adj.begin() + n}))
            << "into mismatch at (" << from << "->" << to << ")";
      }
    }
  }
}

TEST(AdjacentInto, MatchesAllocatingAccessorAcrossAllDimPairs3D) {
  auto gen = meshgen::boxTets(4, 4, 4);
  checkAllPairs(*gen.mesh, 3);
}

TEST(AdjacentInto, MatchesAllocatingAccessorAcrossAllDimPairs2D) {
  auto gen = meshgen::boxTris(6, 6);
  checkAllPairs(*gen.mesh, 2);
}

// --- kernel oracles: stored-adjacency walks vs searches -------------------

/// downward(region, 1) walks the edges stored on the region's faces; it
/// must name exactly the edge a vertex search finds for each template
/// edge, in template order.
void checkRegionEdges(const core::Mesh& mesh) {
  std::array<Ent, core::kMaxDown> buf{};
  for (Ent r : mesh.all(3)) {
    const int n = mesh.downward(r, 1, buf.data());
    ASSERT_EQ(n, core::topoBoundaryCount(r.topo(), 1));
    const auto vs = mesh.verts(r);
    for (int i = 0; i < n; ++i) {
      const auto idx = core::topoBoundaryVerts(r.topo(), 1, i);
      const Ent want = mesh.findEntity(
          core::Topo::Edge,
          std::array{vs[static_cast<std::size_t>(idx[0])],
                     vs[static_cast<std::size_t>(idx[1])]});
      ASSERT_TRUE(want);
      ASSERT_EQ(buf[static_cast<std::size_t>(i)], want)
          << core::topoName(r.topo()) << " #" << r.index() << " edge " << i;
    }
  }
}

/// adjacentInto must equal adjacent() in contents AND order for every
/// (entity, target dimension) pair: consumers' iteration order decides
/// entity creation order downstream.
void checkAdjacentIntoOrder(const core::Mesh& mesh) {
  core::AdjVec adj;
  for (int from = 0; from <= mesh.dim(); ++from) {
    for (Ent e : mesh.all(from)) {
      for (int to = 0; to <= mesh.dim(); ++to) {
        const auto legacy = mesh.adjacent(e, to);
        const int n = mesh.adjacentInto(e, to, adj);
        ASSERT_EQ(std::vector<Ent>(adj.begin(), adj.begin() + n), legacy)
            << core::topoName(e.topo()) << " #" << e.index() << " -> dim "
            << to;
      }
    }
  }
}

/// Destroy every element touching the first `k` vertices, sweep the
/// boundary entities that became unused, then rebuild the elements from
/// their vertex lists rotated by one step of `ring` (a symmetry of the
/// element's canonical ordering): the rebuilt elements land in free-list
/// slots, and faces they recreate take a new orientation relative to
/// their neighbours. Returns how many elements were rebuilt.
std::size_t churn(core::Mesh& mesh, int k, std::span<const int> ring) {
  const auto verts = mesh.all(0);
  std::vector<Ent> doomed;
  for (int i = 0; i < k && i < static_cast<int>(verts.size()); ++i)
    for (Ent r : mesh.adjacent(verts[static_cast<std::size_t>(i)], 3))
      if (std::find(doomed.begin(), doomed.end(), r) == doomed.end())
        doomed.push_back(r);
  std::vector<std::pair<core::Topo, std::vector<Ent>>> rebuild;
  std::vector<gmi::Entity*> cls;
  for (Ent r : doomed) {
    const auto vs = mesh.verts(r);
    std::vector<Ent> rotated(vs.size());
    for (std::size_t j = 0; j < vs.size(); ++j)
      rotated[j] = vs[static_cast<std::size_t>(ring[j])];
    rebuild.emplace_back(r.topo(), std::move(rotated));
    cls.push_back(mesh.classification(r));
    mesh.destroy(r);
  }
  for (int d = 2; d >= 1; --d)
    for (Ent e : mesh.all(d))
      if (mesh.up(e).empty()) mesh.destroy(e);
  for (std::size_t i = 0; i < rebuild.size(); ++i)
    mesh.buildElement(rebuild[i].first, rebuild[i].second, cls[i]);
  core::verify(mesh);
  return rebuild.size();
}

TEST(KernelOracle, TetsAfterRefineCoarsenChurn) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto& mesh = *gen.mesh;
  adapt::refine(mesh, adapt::UniformSize(0.2));
  adapt::coarsen(mesh, adapt::UniformSize(0.45));
  adapt::refine(mesh, adapt::UniformSize(0.25));
  // Even permutation of a tet's vertices: keeps the orientation.
  constexpr std::array<int, 4> kTetRing{1, 2, 0, 3};
  ASSERT_GT(churn(mesh, 10, kTetRing), 0u);
  checkRegionEdges(mesh);
  checkAdjacentIntoOrder(mesh);
}

TEST(KernelOracle, HexesAfterChurn) {
  auto gen = meshgen::boxHexes(3, 3, 3);
  auto& mesh = *gen.mesh;
  // Quarter turn about the hex's vertical axis.
  constexpr std::array<int, 8> kHexRing{1, 2, 3, 0, 5, 6, 7, 4};
  const std::size_t hexes = mesh.count(3);
  ASSERT_GT(churn(mesh, 12, kHexRing), 0u);
  ASSERT_GT(churn(mesh, 5, kHexRing), 0u);
  ASSERT_EQ(mesh.count(3), hexes);
  checkRegionEdges(mesh);
  checkAdjacentIntoOrder(mesh);
}

TEST(KernelOracle, MixedRegionsSharingFacesInAnyOrientation) {
  core::Mesh mesh;
  std::vector<Ent> v;
  const std::array<common::Vec3, 12> xs{{{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                         {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                         {1, 1, 1}, {0, 1, 1}, {0.5, 0.5, 2},
                                         {1.5, 1.5, 2}, {2, 0.5, 0},
                                         {2, 0.5, 1}}};
  for (const auto& x : xs) v.push_back(mesh.createVertex(x));
  mesh.buildElement(core::Topo::Hex,
                    std::array{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]});
  // Pyramid on the hex's top face, base ring rotated against the hex's.
  mesh.buildElement(core::Topo::Pyramid,
                    std::array{v[6], v[7], v[4], v[5], v[8]});
  // Tet on a pyramid side face; prism on the hex's +x face.
  mesh.buildElement(core::Topo::Tet, std::array{v[6], v[5], v[8], v[9]});
  mesh.buildElement(core::Topo::Prism,
                    std::array{v[1], v[2], v[10], v[5], v[6], v[11]});
  ASSERT_EQ(mesh.count(3), 4u);
  checkRegionEdges(mesh);
  checkAdjacentIntoOrder(mesh);
}

TEST(KernelOracle, LargeStarSpillsTheDedupSetToTheHeap) {
  // A fan of 2N tets around the centre vertex: its edge -> face level has
  // 6N = 480 candidate entries, more than the stack table holds.
  constexpr int kRing = 80;
  core::Mesh mesh;
  const Ent c = mesh.createVertex({0, 0, 0});
  const Ent top = mesh.createVertex({0, 0, 1});
  const Ent bottom = mesh.createVertex({0, 0, -1});
  std::vector<Ent> ring;
  for (int i = 0; i < kRing; ++i) {
    const double a = 2.0 * 3.141592653589793 * i / kRing;
    ring.push_back(mesh.createVertex({std::cos(a), std::sin(a), 0}));
  }
  for (int i = 0; i < kRing; ++i) {
    const Ent a = ring[static_cast<std::size_t>(i)];
    const Ent b = ring[static_cast<std::size_t>((i + 1) % kRing)];
    mesh.buildElement(core::Topo::Tet, std::array{c, a, b, top});
    mesh.buildElement(core::Topo::Tet, std::array{c, b, a, bottom});
  }
  ASSERT_EQ(mesh.adjacent(c, 3).size(), 2u * kRing);
  ASSERT_EQ(mesh.adjacent(c, 2).size(), 3u * kRing);
  checkRegionEdges(mesh);
  checkAdjacentIntoOrder(mesh);
}

// --- gate 2: RCM bandwidth -----------------------------------------------

TEST(Reorder, RcmBeatsShuffledBandwidth) {
  auto gen = meshgen::boxTets(6, 6, 6);
  const auto& mesh = *gen.mesh;
  const auto rcm = core::order::rcmVertices(mesh);
  const auto rcm_ranks = core::order::ranksOf(mesh, rcm);

  auto shuffled = mesh.all(0);
  common::Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  const auto shuf_ranks = core::order::ranksOf(mesh, shuffled);

  EXPECT_LT(core::order::bandwidth(mesh, rcm_ranks),
            core::order::bandwidth(mesh, shuf_ranks));
}

// --- gate 3: reorder on/off equality over the chaos matrix ---------------

struct LayoutCase {
  bool three_d;
  std::uint64_t seed;
};

/// One stage checkpoint: the geometric element-digest multiset (content:
/// no element lost, duplicated or mis-partitioned) plus the canonical
/// structural fingerprint (partition + remotes + ghosts, relabeling-proof).
struct Checkpoint {
  std::multiset<std::uint64_t> digests;
  std::uint64_t print = 0;

  bool operator==(const Checkpoint&) const = default;
};

Checkpoint checkpoint(dist::PartedMesh& pm) {
  return {dist::digest::elementDigests(pm), pm.fingerprint()};
}

/// Random migration plan chosen by *content*, not by handle: elements are
/// visited in element-digest order (identical between layouts), so the two
/// runs draw the same rng decisions for the same geometric elements.
dist::MigrationPlan contentPlan(dist::PartedMesh& pm, common::Rng& rng,
                                double prob) {
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p) {
    const auto& mesh = pm.part(p).mesh();
    std::vector<std::pair<std::uint64_t, Ent>> keyed;
    for (Ent e : pm.part(p).elements())
      keyed.emplace_back(dist::digest::elementDigest(mesh, e), e);
    std::sort(keyed.begin(), keyed.end());
    for (const auto& [key, e] : keyed) {
      (void)key;
      if (rng.uniform() < prob)
        plan[static_cast<std::size_t>(p)][e] =
            static_cast<PartId>(rng.below(static_cast<std::uint64_t>(pm.parts())));
    }
  }
  return plan;
}

/// Full pipeline under one layout; returns a checkpoint per stage.
std::vector<Checkpoint> runScenario(const LayoutCase& c, bool reorder) {
  if (reorder)
    unsetenv("PUMI_NO_REORDER");
  else
    setenv("PUMI_NO_REORDER", "1", 1);

  auto gen = c.three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(6, 6);
  const int nparts = c.three_d ? 5 : 4;
  const auto assignment =
      part::partition(*gen.mesh, nparts, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assignment,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
  unsetenv("PUMI_NO_REORDER");

  std::vector<Checkpoint> out;
  out.push_back(checkpoint(*pm));  // distribute

  common::Rng rng(c.seed * 0x9e3779b97f4a7c15ull + 1);
  for (int round = 0; round < 4; ++round) {
    pm->migrate(contentPlan(*pm, rng, 0.15));
    out.push_back(checkpoint(*pm));  // migrate
  }

  pm->ghostLayers(1);
  out.push_back(checkpoint(*pm));  // ghost

  pm->unghost();
  out.push_back(checkpoint(*pm));  // unghost

  parma::improve(*pm, c.three_d ? "Rgn" : "Face", {.tolerance = 0.05});
  out.push_back(checkpoint(*pm));  // balance

  pm->verify();  // throws on any broken invariant
  return out;
}

class ReorderEquality : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(ReorderEquality, DigestsAndFingerprintsBitIdenticalOnVsOff) {
  const auto on = runScenario(GetParam(), true);
  const auto off = runScenario(GetParam(), false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].digests, off[i].digests) << "digest drift at stage " << i;
    EXPECT_EQ(on[i].print, off[i].print) << "fingerprint drift at stage " << i;
  }
}

std::vector<LayoutCase> chaosMatrix() {
  std::vector<LayoutCase> cases;
  for (std::uint64_t s = 0; s < 10; ++s) cases.push_back({true, s});
  for (std::uint64_t s = 0; s < 10; ++s) cases.push_back({false, s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ChaosMatrix, ReorderEquality, ::testing::ValuesIn(chaosMatrix()),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::string(info.param.three_d ? "tets" : "tris") + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
