/// \file bench_adjacency.cpp
/// \brief Validates the complete-representation claim (paper Sec. I): "the
/// complexity of any mesh adjacency interrogation is O(1) (i.e., not a
/// function of mesh size)".
///
/// Measures per-query time of upward, downward and derived adjacency
/// interrogations on box tet meshes from ~1.3k to ~380k elements. The
/// numbers should stay flat as the mesh grows (modulo cache effects).

#include <benchmark/benchmark.h>

#include <map>

#include "core/measure.hpp"
#include "meshgen/boxmesh.hpp"

namespace {

/// Cache of generated meshes so each size is built once.
meshgen::Generated& meshOfSize(int n) {
  static std::map<int, meshgen::Generated> cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, meshgen::boxTets(n, n, n)).first;
  return it->second;
}

void BM_VertexToRegions(benchmark::State& state) {
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto verts = gen.mesh->all(0);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto adj = gen.mesh->adjacent(verts[i], 3);
    benchmark::DoNotOptimize(adj.size());
    i = (i + 97) % verts.size();  // stride to defeat cache-friendly order
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_VertexToRegions)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_VertexToRegionsInto(benchmark::State& state) {
  // Same query through the no-allocation scratch-vector path.
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto verts = gen.mesh->all(0);
  core::AdjVec adj;
  std::size_t i = 0;
  for (auto _ : state) {
    const int n = gen.mesh->adjacentInto(verts[i], 3, adj);
    benchmark::DoNotOptimize(n);
    i = (i + 97) % verts.size();
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_VertexToRegionsInto)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_RegionToVertices(benchmark::State& state) {
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto elems = gen.mesh->all(3);
  std::array<core::Ent, core::kMaxDown> buf{};
  std::size_t i = 0;
  for (auto _ : state) {
    const int n = gen.mesh->downward(elems[i], 0, buf.data());
    benchmark::DoNotOptimize(n);
    i = (i + 97) % elems.size();
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_RegionToVertices)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_RegionToEdgesDerived(benchmark::State& state) {
  // Second-order downward adjacency: each template edge is read from the
  // edges stored on one of the region's faces.
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto elems = gen.mesh->all(3);
  std::array<core::Ent, core::kMaxDown> buf{};
  std::size_t i = 0;
  for (auto _ : state) {
    const int n = gen.mesh->downward(elems[i], 1, buf.data());
    benchmark::DoNotOptimize(n);
    i = (i + 97) % elems.size();
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_RegionToEdgesDerived)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_EdgeToFacesUpward(benchmark::State& state) {
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto edges = gen.mesh->all(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& up = gen.mesh->up(edges[i]);
    benchmark::DoNotOptimize(up.size());
    i = (i + 97) % edges.size();
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_EdgeToFacesUpward)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_FindEntityByVertices(benchmark::State& state) {
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  const auto elems = gen.mesh->all(3);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto vs = gen.mesh->verts(elems[i]);
    const core::Ent found = gen.mesh->findEntity(core::Topo::Tet, vs);
    benchmark::DoNotOptimize(found);
    i = (i + 97) % elems.size();
  }
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_FindEntityByVertices)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

void BM_IterateElements(benchmark::State& state) {
  auto& gen = meshOfSize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t n = 0;
    for (core::Ent e : gen.mesh->entities(3)) {
      benchmark::DoNotOptimize(e);
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gen.mesh->count(3)));
  state.SetLabel(std::to_string(gen.mesh->count(3)) + " tets");
}
BENCHMARK(BM_IterateElements)->Arg(6)->Arg(12)->Arg(24)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
