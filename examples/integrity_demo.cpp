/// \file integrity_demo.cpp
/// \brief Memory-integrity benchmark: the cost of wearing the armor, and
/// the seeded memflip repair matrix.
///
/// Two measurements over the same timestep loop (per step: a seeded
/// random migration, a bounded balance pass, a Poisson solve — the shape
/// of a svc job) on an RCB-partitioned tet mesh:
///
///   * audit overhead — the loop runs bare (integrity off) and armored
///     (per-part checksum ledgers audited and resealed at every
///     transactional commit point). Commit points bound the
///     mesh-modifying operations; the solve compute between them is what
///     amortizes the audits, exactly as in a production timestep loop.
///     The version-gated incremental rehash keeps each boundary paying
///     only for sections the operation actually touched. The headline is
///     the armored run's relative overhead, asserted <= 5% by
///     tools/bench_integrity.sh. A third run adds the buddy-journal
///     replica refresh at each seal (the failover feature the repair
///     ladder's tier 2 draws on); its cost is reported separately as
///     full_armor — replication is priced by the failover bench, not by
///     the audit claim.
///
///   * repair matrix — 20 seeds, each planting a deterministic memflip
///     burst (target family and boundary phase cycled from the seed)
///     into live sealed state mid-workload. Every seed must end with all
///     injected flips detected, repaired through the ladder (CSR rebuild
///     -> buddy journal -> checkpoint), and an element-digest multiset
///     identical to the pristine mesh: 20/20 or the demo exits nonzero.
///
/// Prints one JSON object on stdout; tools/bench_integrity.sh asserts
/// the headline claims and merges the numbers into BENCH_INTEGRITY.json.
/// Scale via PUMI_REPRO_SCALE=small|default|large.
///
///   ./build/examples/integrity_demo
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/mesh.hpp"
#include "dist/failover.hpp"
#include "dist/integrity.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/faults.hpp"
#include "pcu/machine.hpp"
#include "repro/workloads.hpp"
#include "solver/poisson.hpp"

namespace {

using core::Ent;
using dist::PartId;
namespace faults = pcu::faults;

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::unique_ptr<dist::PartedMesh> makeMesh(const meshgen::Generated& gen,
                                           int nparts) {
  const auto assign = part::partition(*gen.mesh, nparts, part::Method::RCB);
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

dist::MigrationPlan randomPlan(dist::PartedMesh& pm, common::Rng& rng,
                               double move_prob) {
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent e : pm.part(p).elements()) {
      if (rng.uniform() >= move_prob) continue;
      const auto dest = static_cast<PartId>(
          rng.below(static_cast<std::uint64_t>(pm.parts())));
      if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
    }
  return plan;
}

/// A valued vertex tag so the `tag` memflip family has eligible bytes.
void primeTags(dist::PartedMesh& pm) {
  for (PartId p = 0; p < pm.parts(); ++p) {
    core::Mesh& m = pm.part(p).mesh();
    auto tag = m.tags().create<double>("weight", 1);
    for (Ent v : m.entities(0))
      m.tags().setScalar<double>(tag, v, 1.0 + static_cast<double>(p));
  }
}

/// Geometric digest multiset: the "nothing lost, nothing mutated" witness,
/// invariant under migration, balancing and in-place repair.
std::uint64_t elementDigest(const core::Mesh& m, Ent e) {
  std::vector<std::array<double, 3>> pts;
  for (Ent v : m.verts(e)) {
    const auto x = m.point(v);
    pts.push_back({x.x, x.y, x.z});
  }
  std::sort(pts.begin(), pts.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& pt : pts)
    for (double d : pt) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ull;
    }
  return h;
}

std::multiset<std::uint64_t> elementDigests(const dist::PartedMesh& pm) {
  std::multiset<std::uint64_t> out;
  for (PartId p = 0; p < pm.parts(); ++p) {
    const core::Mesh& m = pm.part(p).mesh();
    for (Ent e : pm.part(p).elements()) out.insert(elementDigest(m, e));
  }
  return out;
}

struct WorkloadSpec {
  int nx = 0, ny = 0, nz = 0;
  int nparts = 0;
  int epochs = 0;  ///< rebalance epochs: migrate + balance + K solves each
  int solves = 0;  ///< solver timesteps per epoch
};

/// One rebalance epoch of an adaptive application: a migration, a bounded
/// balance pass, then K solver timesteps — adaptive codes solve every
/// step and rebalance every ten-or-so. When armored, the armor audits at
/// each operation entry and seals at each commit; the solver compute
/// between commit points is what amortizes them, exactly as in
/// production. The solves run a fixed iteration count (tolerance 0) so
/// both sides of the A/B do identical arithmetic.
void runWorkload(dist::PartedMesh& pm, std::uint64_t seed, int epochs,
                 int solves, dist::integrity::Armor* armor) {
  common::Rng rng(seed);
  for (int s = 0; s < epochs; ++s) {
    if (armor != nullptr) armor->auditAndRepair("bench:plan");
    pm.migrate(randomPlan(pm, rng, 0.05));
    parma::BalanceOptions bopts;
    bopts.max_rounds = 2;
    parma::balance(pm, "Rgn", bopts);
    // Audit-before-read: a flip planted at balance's final commit point
    // must be repaired before the solve walks the pools.
    if (armor != nullptr) armor->auditAndRepair("bench:solve");
    for (int k = 0; k < solves; ++k) {
      solver::PoissonOptions popts;
      popts.max_iterations = 120;
      popts.tolerance = 0.0;  // fixed work per timestep
      solver::solvePoisson(
          pm, [](const common::Vec3&) { return 1.0; },
          [](const common::Vec3&) { return 0.0; }, popts);
    }
  }
}

}  // namespace

int main() {
  const auto scale = repro::scaleFromEnv();
  WorkloadSpec spec;
  switch (scale) {
    case repro::Scale::Small:
      spec = {10, 10, 10, 8, 2, 10};
      break;
    case repro::Scale::Default:
      spec = {12, 12, 12, 8, 2, 14};
      break;
    case repro::Scale::Large:
      spec = {16, 16, 16, 16, 3, 16};
      break;
  }

  auto gen = meshgen::boxTets(spec.nx, spec.ny, spec.nz);

  // --- A/B/C: the same loop bare, armored, and armored + replication ------
  //
  // The headline overhead is measured directly: the armor accumulates its
  // own wall time (audit_ms + seal_ms, on every exit path), so
  // overhead = armor_self / (armored_total - armor_self). An A/B
  // subtraction of two multi-second runs is reported as a cross-check but
  // is too noisy on a shared CI core to assert against.
  const int reps = scale == repro::Scale::Large ? 2 : 3;
  double bare_ms = 1e30, armored_ms = 1e30, full_ms = 1e30;
  double armor_self_ms = 0, full_self_ms = 0;
  std::uint64_t bytes_hashed = 0, sections_rehashed = 0, audits = 0,
                seals = 0;
  const auto timeArmored = [&](bool with_journal, double& best_total,
                               double& best_self) {
    auto pm = makeMesh(gen, spec.nparts);
    primeTags(*pm);
    pm->setIntegrity(true);
    dist::failover::BuddyJournal journal;
    dist::integrity::Armor& armor = pm->armor();
    if (with_journal) armor.setJournal(&journal);
    armor.sealAndMaybeInject();  // boundary 0: baseline seal
    const auto before = armor.report();
    const auto t0 = std::chrono::steady_clock::now();
    runWorkload(*pm, 42, spec.epochs, spec.solves, &armor);
    armor.auditAndRepair("bench:final");
    const double total = msSince(t0);
    const auto after = armor.report();
    if (total < best_total) {
      best_total = total;
      best_self = (after.audit_ms + after.seal_ms) -
                  (before.audit_ms + before.seal_ms);
      if (!with_journal) {
        bytes_hashed = after.bytes_hashed;
        sections_rehashed = after.sections_rehashed;
        audits = after.audits;
        seals = after.seals;
      }
    }
  };
  for (int rep = 0; rep < reps; ++rep) {
    {
      auto pm = makeMesh(gen, spec.nparts);
      primeTags(*pm);
      const auto t0 = std::chrono::steady_clock::now();
      runWorkload(*pm, 42, spec.epochs, spec.solves, nullptr);
      bare_ms = std::min(bare_ms, msSince(t0));
    }
    timeArmored(false, armored_ms, armor_self_ms);
    timeArmored(true, full_ms, full_self_ms);
  }
  const double overhead_pct =
      100.0 * armor_self_ms / (armored_ms - armor_self_ms);
  const double full_pct = 100.0 * full_self_ms / (full_ms - full_self_ms);
  const double ab_delta_pct = 100.0 * (armored_ms - bare_ms) / bare_ms;

  // --- the 20-seed memflip repair matrix ----------------------------------
  // The fourth slot is an untargeted burst: the armor picks the family.
  static const char* kTargets[] = {":pool", ":tag", ":remotes", ""};
  const int kSeeds = 20;
  int repaired_ok = 0;
  std::uint64_t flips_injected = 0, mismatches = 0;
  std::uint64_t tier_journal = 0, tier_checkpoint = 0;
  auto matrix_gen = meshgen::boxTets(3, 3, 3);
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const std::string target = kTargets[seed % 4];
    const int phase = seed % 3;
    const int bits = 1 + seed % 4;

    auto pm = makeMesh(matrix_gen, 4);
    primeTags(*pm);
    pm->setIntegrity(true);
    const auto pristine = elementDigests(*pm);

    dist::failover::BuddyJournal journal;
    dist::integrity::Armor& armor = pm->armor();
    armor.setJournal(&journal);

    faults::setPlan(faults::parsePlan(
        "seed=" + std::to_string(seed) + ",memflip=" + std::to_string(bits) +
        "@" + std::to_string(phase) + target));
    armor.sealAndMaybeInject();  // boundary 0

    bool ok = true;
    try {
      runWorkload(*pm, static_cast<std::uint64_t>(seed), 2, 1, &armor);
      armor.auditAndRepair("matrix:final");
      pm->verify();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "seed %d: %s\n", seed, e.what());
      ok = false;
    }
    faults::clearPlan();

    const auto rep = armor.report();
    flips_injected += rep.flips_injected;
    mismatches += rep.mismatches;
    for (const auto& c : rep.detected) {
      if (c.repair_tier == 2) ++tier_journal;
      if (c.repair_tier == 3) ++tier_checkpoint;
    }
    ok = ok && rep.parts_unrepaired.empty() &&
         rep.flips_injected + rep.flips_skipped ==
             static_cast<std::uint64_t>(bits) &&
         (rep.flips_injected == 0 || rep.mismatches >= 1) &&
         elementDigests(*pm) == pristine;
    if (ok) ++repaired_ok;
  }

  // --- report -------------------------------------------------------------
  std::printf("{\n");
  std::printf("  \"scale\": \"%s\",\n", repro::scaleName(scale));
  std::printf("  \"workload\": {\"box\": [%d, %d, %d], \"parts\": %d, "
              "\"epochs\": %d, \"solves_per_epoch\": %d, \"per_epoch\": "
              "\"migrate + balance + %d fixed-iteration solves\"},\n",
              spec.nx, spec.ny, spec.nz, spec.nparts, spec.epochs,
              spec.solves, spec.solves);
  std::printf("  \"audit\": {\"bare_ms\": %.3f, \"armored_ms\": %.3f, "
              "\"armor_self_ms\": %.3f, \"overhead_pct\": %.2f, "
              "\"ab_delta_pct\": %.2f, \"audits\": %llu, \"seals\": %llu, "
              "\"bytes_hashed\": %llu, \"sections_rehashed\": %llu},\n",
              bare_ms, armored_ms, armor_self_ms, overhead_pct, ab_delta_pct,
              static_cast<unsigned long long>(audits),
              static_cast<unsigned long long>(seals),
              static_cast<unsigned long long>(bytes_hashed),
              static_cast<unsigned long long>(sections_rehashed));
  std::printf("  \"full_armor\": {\"armored_journal_ms\": %.3f, "
              "\"armor_self_ms\": %.3f, \"overhead_pct\": %.2f, \"note\": "
              "\"adds the buddy-journal replica refresh at every seal; "
              "replication cost, priced by the failover bench\"},\n",
              full_ms, full_self_ms, full_pct);
  std::printf("  \"repair\": {\"seeds\": %d, \"successes\": %d, "
              "\"flips_injected\": %llu, \"mismatches\": %llu, "
              "\"tier_journal\": %llu, "
              "\"tier_checkpoint\": %llu, \"success_rate\": %.2f}\n",
              kSeeds, repaired_ok,
              static_cast<unsigned long long>(flips_injected),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(tier_journal),
              static_cast<unsigned long long>(tier_checkpoint),
              static_cast<double>(repaired_ok) / kSeeds);
  std::printf("}\n");
  return repaired_ok == kSeeds ? 0 : 1;
}
