/// \file bench_adapt_workflow.cpp
/// \brief Timing of the full parallel adaptive workflow the paper motivates
/// (Sec. I: generation -> analysis -> adaptation -> dynamic load balancing
/// -> analysis). Reports per-stage wall time and the balance trajectory;
/// the point of ParMA's speed (Table III) is that the "balance" stage is a
/// negligible slice of this loop.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "adapt/sizefield.hpp"
#include "dist/padapt.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/workloads.hpp"
#include "parma/balance.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"
#include "pcu/counters.hpp"
#include "repro/table.hpp"
#include "repro/workloads.hpp"
#include "solver/poisson.hpp"

int main() {
  const auto scale = repro::scaleFromEnv();
  meshgen::VesselSpec spec{.circumferential = 8, .axial = 32};
  int nparts = 32;
  if (scale == repro::Scale::Small) {
    spec = {.circumferential = 6, .axial = 20};
    nparts = 16;
  } else if (scale == repro::Scale::Large) {
    spec = {.circumferential = 10, .axial = 48};
    nparts = 64;
  }
  std::cout << "== Parallel adaptive workflow (Sec. I), scale: "
            << repro::scaleName(scale) << " ==\n\n";

  // (stage, seconds) in run order.
  std::vector<std::pair<std::string, double>> stages;
  auto timed = [&stages](const char* stage, auto&& body) {
    const double t0 = pcu::now();
    body();
    stages.emplace_back(stage, pcu::now() - t0);
  };
  auto gen = meshgen::vessel(spec);
  std::cout << "vessel mesh: " << gen.mesh->count(3) << " tets, " << nparts
            << " parts\n\n";

  std::unique_ptr<dist::PartedMesh> pm;
  timed("1 partition+distribute", [&] {
    const auto assign =
        part::partition(*gen.mesh, nparts, part::Method::GraphRB);
    pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), assign,
        dist::PartMap(nparts, pcu::Machine(4, 8)));
  });
  timed("2 analysis (Poisson)", [&] {
    solver::solvePoisson(
        *pm, [](const common::Vec3&) { return 1.0; },
        [](const common::Vec3&) { return 0.0; },
        {.max_iterations = 600, .tolerance = 1e-6});
  });
  const double zc = 0.55 * spec.length;
  adapt::AnalyticSize size([&](const common::Vec3& x) {
    const double dz = (x.z - zc) / (0.12 * spec.length);
    return 1.1 - 0.62 * std::exp(-dz * dz);
  });
  timed("3 distributed adaptation", [&] {
    dist::refineParted(*pm, size, {.max_passes = 6});
  });
  const double imb_after_adapt = parma::entityBalance(*pm, 3).imbalance;
  timed("4 ParMA rebalance", [&] {
    parma::BalanceOptions b{.tolerance = 0.05};
    b.improve.max_iterations = 60;
    parma::balance(*pm, "Rgn", b);
  });
  const double imb_after_parma = parma::entityBalance(*pm, 3).imbalance;
  timed("5 analysis on adapted mesh", [&] {
    solver::solvePoisson(
        *pm, [](const common::Vec3&) { return 1.0; },
        [](const common::Vec3&) { return 0.0; },
        {.max_iterations = 1500, .tolerance = 1e-6});
  });
  pm->verify();

  repro::Table t({"Stage", "time (s)"});
  double total = 0.0;
  double balance = 0.0;
  for (const auto& [name, seconds] : stages) {
    t.row({name, repro::fmt(seconds, 2)});
    total += seconds;
    if (name == "4 ParMA rebalance") balance = seconds;
  }
  t.row({"total", repro::fmt(total, 2)});
  t.print();
  std::cout << "\nadapted to " << pm->globalCount(3)
            << " tets; element imbalance " << repro::fmt(imb_after_adapt, 2)
            << " after adaptation, " << repro::fmt(imb_after_parma, 2)
            << " after ParMA (" << repro::fmt(100.0 * balance / total, 1)
            << "% of the workflow spent balancing)\n";
  return 0;
}
