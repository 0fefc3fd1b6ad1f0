/// \file bench_migration.cpp
/// \brief Migration performance (paper II-C): cost of moving elements
/// between parts while maintaining the distributed representation.
///
/// Measures end-to-end migrate() time for (a) a fixed-fraction boundary
/// shift at several part counts and (b) several moved fractions at a fixed
/// part count — migration cost should track the amount of data moved, not
/// the mesh size (the touched-entity protocol).

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>

#include "common/flatmap.hpp"
#include "core/measure.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "pcu/arq.hpp"
#include "pcu/faults.hpp"
#include "pcu/stats.hpp"
#include "pcu/trace.hpp"

namespace {

std::unique_ptr<dist::PartedMesh> makeParted(meshgen::Generated& gen,
                                             int nparts) {
  const auto assignment =
      part::partition(*gen.mesh, nparts, part::Method::RCB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assignment,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

/// Plan moving `fraction` of part 0's elements (geometric slab) to part 1.
dist::MigrationPlan slabPlan(dist::PartedMesh& pm, double fraction) {
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  auto elems = pm.part(0).elements();
  std::vector<std::pair<double, core::Ent>> order;
  for (core::Ent e : elems)
    order.emplace_back(core::centroid(pm.part(0).mesh(), e).x, e);
  std::sort(order.begin(), order.end());
  const auto target = pm.parts() > 1 ? 1 : 0;
  const std::size_t n = static_cast<std::size_t>(fraction * order.size());
  for (std::size_t i = order.size() - n; i < order.size(); ++i)
    plan[0][order[i].second] = target;
  return plan;
}

void BM_MigrateSlabAcrossParts(benchmark::State& state) {
  const int nparts = static_cast<int>(state.range(0));
  auto gen = meshgen::boxTets(16, 16, 16);  // 24576 tets
  std::size_t moved = 0;
  std::uint64_t logical_msgs = 0, physical_msgs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pm = makeParted(gen, nparts);
    auto plan = slabPlan(*pm, 0.25);
    moved = plan[0].size();
    pm->network().resetStats();
    state.ResumeTiming();
    pm->migrate(plan);
    benchmark::DoNotOptimize(pm->part(0).elementCount());
    logical_msgs = pm->network().stats().messages_sent;
    physical_msgs = pm->network().stats().physical_messages;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(moved));
  state.SetLabel(std::to_string(moved) + " elems moved");
  // Migration posts one tiny payload per touched entity; coalescing folds
  // them into one physical message per neighbour pair per superstep.
  state.counters["logical_msgs"] =
      benchmark::Counter(static_cast<double>(logical_msgs));
  state.counters["physical_msgs"] =
      benchmark::Counter(static_cast<double>(physical_msgs));
}
BENCHMARK(BM_MigrateSlabAcrossParts)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_MigrateFraction(benchmark::State& state) {
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  auto gen = meshgen::boxTets(16, 16, 16);
  std::size_t moved = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pm = makeParted(gen, 8);
    auto plan = slabPlan(*pm, fraction);
    moved = plan[0].size();
    state.ResumeTiming();
    pm->migrate(plan);
    benchmark::DoNotOptimize(pm->part(1).elementCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(moved));
  state.SetLabel(std::to_string(moved) + " elems moved");
}
BENCHMARK(BM_MigrateFraction)
    ->Arg(5)
    ->Arg(25)
    ->Arg(75)
    ->Unit(benchmark::kMillisecond);

/// --- plan application: legacy node-based tables vs flat layout -----------
///
/// The phase-A inner loop of migrate(): for every entity in the closure of
/// a moving element, union the destinations of its adjacent elements. The
/// legacy variant uses std::unordered_map/set and the allocating adjacent();
/// the flat variant uses the SIMD open-addressing tables and adjacentInto()
/// — exactly what migrate() runs today. Both fold to one order-independent
/// checksum, compared at setup so the variants are proven equivalent.

struct PlanFixture {
  meshgen::Generated gen;
  std::unique_ptr<dist::PartedMesh> pm;
  // Plan as plain sorted (element, destination) lists per part.
  std::vector<std::vector<std::pair<core::Ent, dist::PartId>>> entries;
};

PlanFixture& planFixture() {
  static PlanFixture* f = [] {
    auto* x = new PlanFixture{meshgen::boxTets(16, 16, 16), nullptr, {}};
    x->pm = makeParted(x->gen, 8);
    auto plan = slabPlan(*x->pm, 0.25);
    x->entries.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      for (const auto& [e, d] : plan[i]) x->entries[i].emplace_back(e, d);
      std::sort(x->entries[i].begin(), x->entries[i].end());
    }
    return x;
  }();
  return *f;
}

template <class Map, class Set, bool kUseInto>
std::uint64_t planApply(const PlanFixture& f) {
  const int dim = f.pm->dim();
  std::uint64_t acc = 0;
  core::AdjVec adj;
  std::array<core::Ent, core::kMaxDown> buf{};
  for (std::size_t pi = 0; pi < f.entries.size(); ++pi) {
    const auto& mesh = f.pm->part(static_cast<dist::PartId>(pi)).mesh();
    Map m;
    for (const auto& [e, d] : f.entries[pi]) m.emplace(e, d);
    Set participating;
    for (const auto& [elem, dest] : f.entries[pi]) {
      (void)dest;
      for (int d = 0; d < dim; ++d) {
        const int n = mesh.downward(elem, d, buf.data());
        for (int k = 0; k < n; ++k)
          participating.insert(buf[static_cast<std::size_t>(k)]);
      }
    }
    for (core::Ent e : participating) {
      std::uint64_t r = 0;
      auto fold = [&](core::Ent elem) {
        auto it = m.find(elem);
        const dist::PartId d =
            it == m.end() ? static_cast<dist::PartId>(pi) : it->second;
        r = r * 31 + static_cast<std::uint64_t>(d) + 1;
      };
      if constexpr (kUseInto) {
        const int n = mesh.adjacentInto(e, dim, adj);
        for (int k = 0; k < n; ++k) fold(adj[static_cast<std::size_t>(k)]);
      } else {
        for (core::Ent elem : mesh.adjacent(e, dim)) fold(elem);
      }
      // Commutative fold: set iteration order differs between table types.
      acc += r * (core::EntHash{}(e) | 1);
    }
  }
  return acc;
}

using LegacyMap = std::unordered_map<core::Ent, dist::PartId, core::EntHash>;
using LegacySet = std::unordered_set<core::Ent, core::EntHash>;
using FlatMap = common::FlatMap<core::Ent, dist::PartId, core::EntHash>;
using FlatSet = common::FlatSet<core::Ent, core::EntHash>;

void BM_PlanApplyLegacy(benchmark::State& state) {
  auto& f = planFixture();
  if (planApply<LegacyMap, LegacySet, false>(f) !=
      planApply<FlatMap, FlatSet, true>(f)) {
    state.SkipWithError("legacy/flat plan application disagree");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(planApply<LegacyMap, LegacySet, false>(f));
  }
  state.SetLabel(std::to_string(f.entries[0].size()) + " plan entries");
}
BENCHMARK(BM_PlanApplyLegacy)->Unit(benchmark::kMillisecond);

void BM_PlanApplyFlat(benchmark::State& state) {
  auto& f = planFixture();
  if (planApply<LegacyMap, LegacySet, false>(f) !=
      planApply<FlatMap, FlatSet, true>(f)) {
    state.SkipWithError("legacy/flat plan application disagree");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(planApply<FlatMap, FlatSet, true>(f));
  }
  state.SetLabel(std::to_string(f.entries[0].size()) + " plan entries");
}
BENCHMARK(BM_PlanApplyFlat)->Unit(benchmark::kMillisecond);

void BM_DistributeFromSerial(benchmark::State& state) {
  // Initial distribution cost (mesh loading path).
  const int nparts = static_cast<int>(state.range(0));
  auto gen = meshgen::boxTets(12, 12, 12);
  const auto assignment =
      part::partition(*gen.mesh, nparts, part::Method::RCB);
  for (auto _ : state) {
    auto pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), assignment,
        dist::PartMap(nparts, pcu::Machine::flat(nparts)));
    benchmark::DoNotOptimize(pm->parts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gen.mesh->count(3)));
}
BENCHMARK(BM_DistributeFromSerial)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Reliable-delivery (ARQ) overhead guard on the transport the mesh stack
/// runs on. Args are {payload bytes, drop probability in permille}. A bare
/// two-part dist::Network exchanges one payload each way per deliverAll
/// phase with reliable mode on. At 0 permille a checksum-only plan frames
/// every segment, so the row measures framing plus the resend-queue
/// bookkeeping; at 10 permille (the 1% acceptance point) drops are live and
/// the phase boundary pulls each lost segment from its resend queue.
/// tools/bench_recovery.sh compares the two rows of one payload (the
/// retransmit tax, asserted under 10%). The Network outlives the loop, so
/// channel sequence numbers advance and each phase draws fresh decisions;
/// the counters export the recovery activity so a run that injected no
/// loss is visible. Every run of the function (each repetition) salts the
/// plan seed: a fixed seed would replay one decision stream per
/// repetition. A 1% drop costs about one lost frame per 50 exchanges, so
/// the 256 KiB rows, which fit only a few dozen iterations into the
/// minimum time, run a fixed iteration count instead: their expected loss
/// no longer hinges on how fast the host is.
void BM_NetExchangeReliable(benchmark::State& state) {
  static std::uint64_t runs = 0;
  const auto payload = static_cast<std::size_t>(state.range(0));
  const double drop = static_cast<double>(state.range(1)) / 1000.0;
  pcu::faults::FaultPlan plan;
  plan.seed = 12 + runs++;
  if (drop > 0.0)
    plan.drop = drop;
  else
    plan.checksum_only = true;  // frame either way: isolate the ARQ tax
  pcu::faults::setPlan(plan);
  pcu::arq::resetStats();
  pcu::arq::setReliable(true);
  dist::Network net(dist::PartMap(2, pcu::Machine::flat(2)));
  const std::vector<std::byte> data(payload, std::byte{7});
  std::size_t received = 0;
  for (auto _ : state) {
    for (dist::PartId from = 0; from < 2; ++from) {
      pcu::OutBuffer b;
      b.packBytes(data.data(), data.size());
      net.send(from, 1 - from, std::move(b));
    }
    net.deliverAll([&](dist::PartId, dist::PartId, pcu::InBuffer body) {
      received += body.size();
    });
  }
  pcu::arq::setReliable(false);
  pcu::faults::clearPlan();
  if (received != static_cast<std::size_t>(state.iterations()) * 2 * payload)
    state.SkipWithError("a payload was lost or duplicated");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(payload));
  const auto st = pcu::arq::stats();
  state.counters["retransmits"] =
      benchmark::Counter(static_cast<double>(st.retransmits));
  state.counters["recovered"] =
      benchmark::Counter(static_cast<double>(st.recovered));
}
BENCHMARK(BM_NetExchangeReliable)
    ->Args({64, 0})
    ->Args({64, 10})
    ->Args({4096, 0})
    ->Args({4096, 10});
BENCHMARK(BM_NetExchangeReliable)
    ->Args({262144, 0})
    ->Args({262144, 10})
    ->Iterations(200);

}  // namespace

// BENCHMARK_MAIN, plus trace surfacing: under PUMI_TRACE=1 the benchmark
// run doubles as a profiling session — print the per-phase imbalance
// report and flush the Chrome trace on exit.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (pcu::trace::enabled()) {
    pcu::printTraceReport(pcu::buildTraceReport());
    pcu::trace::flushNow();
  }
  return 0;
}
