/// \file failover_demo.cpp
/// \brief Rank-failure tolerance demo + MTTR measurement.
///
/// The ISSUE acceptance scenario, end to end: a 16-part tet mesh survives
/// two rank failures without losing an element or restarting.
///   1. rank 5 is killed mid-migrate — dist::Network declares it dead at
///      the scheduled phase boundary, the migration aborts
///      transactionally (kRankFailed naming the rank), and
///      dist::failover::evacuate rebuilds its parts from the buddy journal
///      onto the next surviving rank;
///   2. rank 11 hangs mid-balance — same detection, evacuation, then
///      parma::balanceAfterEvacuation repairs the adoption imbalance.
///
/// Human-readable progress goes to stderr; stdout carries one JSON object
/// with the measured mean-time-to-recovery breakdown (detect, evacuate,
/// rebalance) that tools/bench_recovery.sh merges into BENCH_RECOVERY.json.
///
///   ./build/examples/failover_demo
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "dist/failover.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Arm `plan`, run `op` expecting it to abort with kRankFailed, then
/// evacuate. Returns the evacuation report; `op_ms` gets the time from the
/// operation start to the completed evacuation (the full outage window).
template <class Op>
dist::failover::EvacuationReport incident(
    dist::PartedMesh& pm, const dist::failover::BuddyJournal& journal,
    const pcu::faults::FaultPlan& plan, Op&& op, double& op_ms) {
  pcu::faults::setPlan(plan);
  const auto t0 = Clock::now();
  try {
    op();
    std::cerr << "ERROR: operation crossing the dead rank completed\n";
    std::exit(1);
  } catch (const pcu::Error& e) {
    if (e.code() != pcu::ErrorCode::kRankFailed) throw;
    std::cerr << "  detected: " << e.what() << "\n";
  }
  auto rep = dist::failover::evacuate(pm, journal);
  op_ms = msSince(t0);
  pcu::faults::clearPlan();
  return rep;
}

}  // namespace

int main() {
  auto gen = meshgen::boxTets(6, 6, 6);
  const int nparts = 16;
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));

  std::size_t total_elems = 0;
  for (dist::PartId p = 0; p < pm->parts(); ++p)
    total_elems += pm->part(p).elements().size();
  std::cerr << "mesh: " << total_elems << " tets on " << nparts
            << " parts, one rank each\n";

  dist::failover::BuddyJournal journal;

  // Incident 1: kill rank 5 at migration phase 2.
  journal.record(*pm);
  pcu::faults::FaultPlan plan;
  plan.seed = 2026;
  plan.kill = {5, 2};
  plan.deadline_ms = 30;
  std::cerr << "incident 1: kill rank 5 mid-migrate (deadline 30 ms)\n";
  double mttr1 = 0.0;
  dist::MigrationPlan skew(static_cast<std::size_t>(nparts));
  int i = 0;
  for (core::Ent e : pm->part(2).elements())
    if (i++ % 3 == 0) skew[2][e] = 9;
  const auto rep1 = incident(
      *pm, journal, plan, [&] { pm->migrate(skew); }, mttr1);
  pm->verify();
  std::cerr << "  evacuated " << rep1.entities_adopted << " entities of part "
            << rep1.parts_evacuated.front() << " onto rank "
            << pm->network().partMap().rankOf(rep1.parts_evacuated.front())
            << " (detect " << rep1.detect_ms << " ms, evacuate "
            << rep1.evacuate_ms << " ms)\n";

  // The run continues: the survivors commit the migration that the dead
  // rank aborted.
  pm->migrate(skew);
  pm->verify();

  // Incident 2: rank 11 hangs at balance phase 1.
  journal.record(*pm);
  plan = {};
  plan.seed = 2027;
  plan.hang = {11, 1};
  plan.deadline_ms = 30;
  std::cerr << "incident 2: hang rank 11 mid-balance (deadline 30 ms)\n";
  double mttr2 = 0.0;
  parma::BalanceOptions opts;
  opts.max_rounds = 2;
  const auto rep2 = incident(
      *pm, journal, plan, [&] { parma::balance(*pm, "Rgn", opts); }, mttr2);
  pm->verify();

  // Post-evacuation repair on the 14 survivors.
  const auto t0 = Clock::now();
  const auto bal = parma::balanceAfterEvacuation(*pm, "Rgn", rep2, opts);
  const double rebalance_ms = msSince(t0);
  pm->verify();
  std::cerr << "  evacuated " << rep2.entities_adopted
            << " entities, rebalance " << bal.initial_imbalance << " -> "
            << bal.final_imbalance << " (" << rebalance_ms << " ms), "
            << bal.ranks_lost << " ranks lost total\n";

  std::size_t final_elems = 0;
  for (dist::PartId p = 0; p < pm->parts(); ++p)
    final_elems += pm->part(p).elements().size();
  if (final_elems != total_elems) {
    std::cerr << "ERROR: element count changed: " << total_elems << " -> "
              << final_elems << "\n";
    return 1;
  }
  std::cerr << "failover demo: OK (" << final_elems
            << " elements, zero lost)\n";

  std::cout << "{\n"
            << "  \"parts\": " << nparts << ",\n"
            << "  \"elements\": " << total_elems << ",\n"
            << "  \"deadline_ms\": 30,\n"
            << "  \"kill_mid_migrate\": {\"detect_ms\": " << rep1.detect_ms
            << ", \"evacuate_ms\": " << rep1.evacuate_ms
            << ", \"entities_adopted\": " << rep1.entities_adopted
            << ", \"mttr_ms\": " << mttr1 << "},\n"
            << "  \"hang_mid_balance\": {\"detect_ms\": " << rep2.detect_ms
            << ", \"evacuate_ms\": " << rep2.evacuate_ms
            << ", \"entities_adopted\": " << rep2.entities_adopted
            << ", \"mttr_ms\": " << mttr2
            << ", \"rebalance_ms\": " << rebalance_ms << "},\n"
            << "  \"elements_lost\": " << (total_elems - final_elems) << "\n"
            << "}\n";
  return 0;
}
