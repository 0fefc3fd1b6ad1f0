/// \file recovery_demo.cpp
/// \brief Kill-and-restart recovery demo: the three self-healing tiers.
///
/// Runs dynamic load balancing on a distributed tet mesh while a transient
/// fault plan drops and corrupts transport messages, with all three
/// recovery tiers on:
///   1. reliable delivery (pcu::arq) re-fetches lost/corrupt segments, so
///      rounds complete instead of aborting;
///   2. the transactional layer retries any round the faults still manage
///      to abort;
///   3. a checkpoint is written after every balancing round, alternating
///      between two directories — then the process "crashes" mid-way
///      through writing the next checkpoint, and the restart path picks
///      the newest directory that still validates, restores a
///      fingerprint-identical mesh, and resumes balancing to completion.
///
///   ./build/examples/recovery_demo
#include <cassert>
#include <filesystem>
#include <iostream>

#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/arq.hpp"
#include "pcu/faults.hpp"

int main() {
  namespace fs = std::filesystem;

  // --- build and distribute the mesh --------------------------------------
  auto gen = meshgen::boxTets(8, 8, 8);
  const int nparts = 4;
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  const dist::PartMap map(nparts, pcu::Machine(2, 2));
  auto pm =
      dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign, map);

  // --- arm the fault plan and the recovery stack ---------------------------
  pcu::arq::setReliable(true);  // tier 1 (and tier 2's default retry budget)
  pcu::faults::FaultPlan plan;
  plan.seed = 2026;
  plan.drop = 0.02;
  plan.corrupt = 0.02;
  pcu::faults::setPlan(plan);

  // Skew the partition so balancing has real work — and real transport
  // traffic crossing the faulty links. This migration itself runs under
  // the fault plan: tier 1 is already recovering segments here.
  dist::MigrationPlan skew(static_cast<std::size_t>(nparts));
  int i = 0;
  for (core::Ent e : pm->part(1).elements())
    if (i++ % 2 == 0) skew[1][e] = 0;
  for (core::Ent e : pm->part(3).elements()) skew[3][e] = 2;
  pm->migrate(skew);

  const fs::path base = fs::temp_directory_path() / "pumi_recovery_demo";
  fs::remove_all(base);
  const std::string dirs[2] = {(base / "ckpt-A").string(),
                               (base / "ckpt-B").string()};

  parma::BalanceOptions opts;
  opts.tolerance = 0.05;
  opts.max_rounds = 1;  // one round per call so we checkpoint between rounds

  // --- rounds with per-round checkpoints, then a simulated crash -----------
  auto report = parma::balance(*pm, "Rgn", opts);
  dist::pario::checkpointImage(*pm, dirs[0]);
  std::cout << "round 1: imbalance " << report.initial_imbalance << " -> "
            << report.final_imbalance << ", checkpoint -> " << dirs[0]
            << "\n";
  const std::uint64_t fp_committed = pm->fingerprint();

  report = parma::balance(*pm, "Rgn", opts);
  // The crash: the process dies while writing round 2's checkpoint. We
  // emulate it by removing the MANIFEST — exactly the state a real kill
  // leaves, since the MANIFEST is renamed in last.
  dist::pario::checkpointImage(*pm, dirs[1]);
  fs::remove(fs::path(dirs[1]) / "MANIFEST");
  std::cout << "round 2: checkpoint to " << dirs[1]
            << " interrupted (no MANIFEST)\n";
  pm.reset();  // the dead process took its in-memory mesh with it

  // --- restart: pick the newest directory that validates -------------------
  std::string latest;
  for (const auto& d : dirs)
    if (dist::pario::valid(d)) latest = d;
  assert(!latest.empty() && "no valid checkpoint to restart from");
  std::cout << "restart: restoring from " << latest << "\n";
  auto restored = dist::pario::restoreImage(latest, gen.model.get(), map);
  assert(restored->fingerprint() == fp_committed &&
         "restored mesh must be fingerprint-identical to the checkpoint");
  restored->verify();

  // --- resume balancing on the restored mesh to completion -----------------
  opts.max_rounds = 3;
  report = parma::balance(*restored, "Rgn", opts);
  restored->verify();
  pcu::faults::clearPlan();

  const auto st = pcu::arq::stats();
  std::cout << "resume:  imbalance " << report.initial_imbalance << " -> "
            << report.final_imbalance << " in " << report.rounds
            << " round(s), " << report.rounds_retried << " retried, "
            << report.rounds_faulted << " faulted\n"
            << "arq:     " << st.retransmits << " retransmit(s), "
            << st.recovered << " recovered, " << st.corrupt_dropped
            << " corrupt dropped, " << st.duplicates_dropped
            << " duplicate(s) dropped\n"
            << "recovery demo: OK\n";
  return 0;
}
