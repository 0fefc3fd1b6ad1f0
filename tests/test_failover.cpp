/// \file test_failover.cpp
/// \brief Tests for rank-failure tolerance: kill/hang detection at
/// dist::Network phase boundaries and live part evacuation.
///
/// Contract under test: a run completes even when ranks die or hang
/// mid-operation. A kill=/hang= fault fires at a Network phase boundary:
/// the operation aborts with a structured kRankFailed naming the dead rank
/// (a hang only after the configured deadline), rolls back, and the
/// transport poisons the dead rank's parts; failover::evacuate then
/// rebuilds them from the buddy journal (or checkpoint) bit-identically —
/// zero lost elements — before parma repairs the post-adoption imbalance.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dist/failover.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/arq.hpp"
#include "pcu/error.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"

namespace {

using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;
namespace failure = pcu::failure;
namespace failover = dist::failover;
namespace faults = pcu::faults;
namespace arq = pcu::arq;

/// Installs a plan for the scope of one test body; always clears on exit so
/// a failing assertion cannot leak fault state into later tests.
struct PlanGuard {
  explicit PlanGuard(const faults::FaultPlan& p) { faults::setPlan(p); }
  ~PlanGuard() { faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

/// Turns reliable delivery on for one test body (fresh stats), off on exit.
struct ReliableGuard {
  ReliableGuard() {
    arq::resetStats();
    arq::setReliable(true);
  }
  ~ReliableGuard() { arq::setReliable(false); }
  ReliableGuard(const ReliableGuard&) = delete;
  ReliableGuard& operator=(const ReliableGuard&) = delete;
};

/// --- PUMI_FAULTS kill/hang parsing (strict) ------------------------------

TEST(RankFaultSpec, ParsesKillHangAndDeadline) {
  const auto p = faults::parsePlan("seed=7,kill=3@2,hang=1@0,deadline=25");
  EXPECT_EQ(p.kill.rank, 3);
  EXPECT_EQ(p.kill.phase, 2);
  EXPECT_TRUE(p.kill.scheduled());
  EXPECT_EQ(p.hang.rank, 1);
  EXPECT_EQ(p.hang.phase, 0);
  EXPECT_TRUE(p.hang.scheduled());
  EXPECT_EQ(p.deadline_ms, 25);
  EXPECT_TRUE(p.injects()) << "a scheduled rank fault must arm the framing";
}

TEST(RankFaultSpec, DefaultDeadlineAppliesWhileRankFaultScheduled) {
  // No deadline= token: the detector still needs one, so installing a plan
  // with a scheduled kill supplies the documented default.
  PlanGuard g(faults::parsePlan("kill=2@1"));
  EXPECT_TRUE(faults::hasRankFault());
  EXPECT_EQ(faults::deadlineMs(), faults::kDefaultRankFaultDeadlineMs);
}

TEST(RankFaultSpec, NoRankFaultLeavesDetectorDisarmed) {
  PlanGuard g(faults::parsePlan("drop=0.01"));
  EXPECT_FALSE(faults::hasRankFault());
  EXPECT_EQ(faults::deadlineMs(), 0) << "historical plans must not arm "
                                        "failure detection";
}

TEST(RankFaultSpec, MalformedTokensAreRejectedByName) {
  for (const char* bad :
       {"kill=3", "kill=@2", "kill=3@", "kill=x@2", "kill=3@y", "kill=-1@2",
        "kill=3@2x", "kill=3@@2", "hang=", "hang=1:2", "deadline=abc",
        "deadline=-5", "deadline="}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted malformed PUMI_FAULTS token: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      const std::string spec(bad);
      const std::string key = spec.substr(0, spec.find('='));
      EXPECT_NE(e.detail().find(key), std::string::npos)
          << "error must name the bad token: " << bad << " -> " << e.what();
    }
  }
}

/// --- dist: the evacuation matrix -----------------------------------------

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

/// Geometric digest of one element: hash of its sorted vertex coordinates.
/// Stable across handle rebuilds and part moves, so the multiset over the
/// whole mesh is the "no element lost or duplicated" witness.
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

struct FailoverCase {
  bool hang;      ///< kill vs hang
  bool coalesce;  ///< transport coalescing on/off
  bool reliable;  ///< PUMI_RELIABLE-style ARQ on/off
  bool three_d;   ///< tets vs tris
};

class FailoverMatrix : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(FailoverMatrix, DeadRankIsEvacuatedWithZeroElementLoss) {
  const auto [hang, coalesce, reliable, three_d] = GetParam();
  failure::resetStats();
  auto gen = three_d ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
  const int nparts = 8;  // flat(8) machine: rank r hosts exactly part r
  auto pm = makeMesh(gen, nparts);
  pm->network().setCoalescing(coalesce);
  std::optional<ReliableGuard> rel;
  if (reliable) rel.emplace();

  const std::uint64_t fp = pm->fingerprint();
  const auto covered = elementDigests(*pm);

  // Quiescent point: the journal records exactly the state a transactional
  // rollback will land the survivors on.
  failover::BuddyJournal journal;
  journal.record(*pm);
  EXPECT_GT(journal.bytesStreamed(), 0u);

  const int victim = 3;
  faults::FaultPlan p;
  p.seed = 29;
  if (hang)
    p.hang = {victim, 2};
  else
    p.kill = {victim, 2};
  p.deadline_ms = 30;
  PlanGuard g(p);

  common::Rng rng(7 + static_cast<std::uint64_t>(three_d));
  try {
    pm->migrate(randomPlan(*pm, rng, 0.2));
    FAIL() << "migration crossing a dead rank committed";
  } catch (const Error& e) {
    ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
    EXPECT_EQ(e.peer(), victim) << "the error must name the dead rank";
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  }

  // Rolled back bit-exactly, but the transport is poisoned: nothing may
  // communicate while a part is still pinned to the dead rank.
  EXPECT_EQ(pm->fingerprint(), fp);
  ASSERT_EQ(pm->network().deadRanks(), std::vector<int>{victim});
  try {
    pm->ghostLayers(1);
    FAIL() << "operation on a poisoned part map committed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
  }

  const auto rep = failover::evacuate(*pm, journal);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(pm->fingerprint(), fp)
      << "evacuation must reproduce the pre-fault state exactly";
  EXPECT_EQ(elementDigests(*pm), covered) << "zero lost elements";
  ASSERT_EQ(rep.ranks_lost, std::vector<int>{victim});
  ASSERT_EQ(rep.parts_evacuated, std::vector<PartId>{victim});
  EXPECT_GT(rep.entities_adopted, 0u);
  EXPECT_GT(rep.journal_bytes_replayed, 0u);
  // The dead rank's part now lives on its buddy (the next surviving rank).
  EXPECT_EQ(pm->network().partMap().rankOf(victim), victim + 1);
  if (hang) {
    EXPECT_GE(rep.detect_ms, 30.0)
        << "a hang is only detectable by waiting out the deadline";
  }

  // Fully operational on the survivors: a real migration commits clean.
  common::Rng rng2(99);
  EXPECT_NO_THROW(pm->migrate(randomPlan(*pm, rng2, 0.15)));
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), covered);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FailoverMatrix, ::testing::ValuesIn([] {
      std::vector<FailoverCase> cases;
      for (bool hang : {false, true})
        for (bool coalesce : {true, false})
          for (bool reliable : {false, true})
            for (bool three_d : {false, true})
              cases.push_back({hang, coalesce, reliable, three_d});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<FailoverCase>& info) {
      return std::string(info.param.hang ? "hang" : "kill") +
             (info.param.coalesce ? "_coalesced" : "_uncoalesced") +
             (info.param.reliable ? "_reliable" : "_plain") +
             (info.param.three_d ? "_tets" : "_tris");
    });

/// --- the buddy journal ----------------------------------------------------

TEST(BuddyJournal, DedupsUnchangedParts) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  failover::BuddyJournal j;
  j.record(*pm);
  const auto bytes1 = j.bytesStreamed();
  EXPECT_GT(bytes1, 0u);
  for (PartId p = 0; p < 4; ++p) EXPECT_TRUE(j.hasPart(p));

  j.record(*pm);  // nothing changed: every part dedups, zero traffic
  EXPECT_EQ(j.bytesStreamed(), bytes1);
  EXPECT_EQ(j.recordsSkipped(), 4u);

  common::Rng rng(2);
  pm->migrate(randomPlan(*pm, rng, 0.3));
  j.record(*pm);  // the migration touched parts: they stream again
  EXPECT_GT(j.bytesStreamed(), bytes1);
  EXPECT_EQ(j.records(), 3u);
}

TEST(Failover, FallsBackToCheckpointWhenJournalLacksThePart) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_failover" / "fallback";
  fs::remove_all(dirp);
  const std::string dir = dirp.string();

  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 6);
  const std::uint64_t fp = pm->fingerprint();
  dist::pario::checkpointImage(*pm, dir);

  faults::FaultPlan p;
  p.seed = 5;
  p.kill = {2, 1};
  p.deadline_ms = 25;
  PlanGuard g(p);
  common::Rng rng(9);
  try {
    pm->migrate(randomPlan(*pm, rng, 0.25));
    FAIL() << "migration crossing a dead rank committed";
  } catch (const Error& e) {
    ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
  }

  failover::BuddyJournal empty;
  // No replica anywhere: the evacuation must refuse, naming the part, and
  // leave the (rolled-back) mesh untouched.
  try {
    failover::evacuate(*pm, empty);
    FAIL() << "evacuation invented a replica";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("part 2"), std::string::npos) << e.what();
  }
  EXPECT_EQ(pm->fingerprint(), fp);

  // With the checkpoint as fallback the same evacuation completes.
  const auto rep = failover::evacuate(*pm, empty, dir);
  EXPECT_EQ(pm->fingerprint(), fp);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(rep.parts_evacuated, std::vector<PartId>{2});
}

/// The journal lives in the same fallible memory as the mesh: a bit that
/// flips in a replica after it was recorded must never be decoded into a
/// part. The flip below (bit 4 of byte 5560 of part 2's 7,292-byte mesh
/// stream) decodes into a verify()-clean mesh with a different
/// fingerprint, so only the CRC recorded with the stream can catch it.
/// Evacuation then takes the checkpoint, and without one refuses, naming
/// the part and its failed CRC, with the mesh untouched.
TEST(Failover, CorruptJournalReplicaFallsBackToCheckpoint) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_failover" / "corrupt_replica";
  fs::remove_all(dirp);
  const std::string dir = dirp.string();

  auto gen = meshgen::boxTris(16, 16);
  auto pm = makeMesh(gen, 6);
  const std::uint64_t fp = pm->fingerprint();
  dist::pario::checkpointImage(*pm, dir);
  failover::BuddyJournal journal;
  journal.record(*pm);
  const failover::BuddyJournal::Snapshot* snap = journal.find(2);
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->mesh.size(), 7292u);
  auto& mesh_stream = const_cast<std::vector<std::byte>&>(snap->mesh);
  mesh_stream[5560] ^= std::byte{1 << 4};

  faults::FaultPlan p;
  p.seed = 5;
  p.kill = {2, 1};
  p.deadline_ms = 25;
  PlanGuard g(p);
  common::Rng rng(9);
  try {
    pm->migrate(randomPlan(*pm, rng, 0.25));
    FAIL() << "migration crossing a dead rank committed";
  } catch (const Error& e) {
    ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
  }
  ASSERT_EQ(pm->fingerprint(), fp);

  try {
    failover::evacuate(*pm, journal);
    FAIL() << "evacuation decoded a replica that fails its CRC";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("part 2"), std::string::npos) << e.what();
    EXPECT_NE(e.detail().find("CRC"), std::string::npos) << e.what();
  }
  EXPECT_EQ(pm->fingerprint(), fp);

  const auto rep = failover::evacuate(*pm, journal, dir);
  EXPECT_EQ(pm->fingerprint(), fp)
      << "the checkpoint, not the corrupt replica, must be decoded";
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(rep.parts_evacuated, std::vector<PartId>{2});
  fs::remove_all(dirp);
}

TEST(Failover, EvacuatesTwoNeighbouringPartsFromOneDeadRank) {
  // Two parts sharing a boundary pinned to the same rank: when it dies,
  // links between them are rebuilt from both replicas, so the mirror
  // patch must leave them alone and patch only the survivors.
  for (bool three_d : {false, true}) {
    SCOPED_TRACE(three_d ? "tets" : "tris");
    auto gen = three_d ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
    const int nparts = 8;
    auto pm = makeMesh(gen, nparts);
    const int victim = 3;
    const auto nbrs = pm->part(victim).neighborParts(pm->dim() - 1);
    ASSERT_FALSE(nbrs.empty());
    const PartId buddy_part = nbrs.front();
    std::vector<int> ranks(static_cast<std::size_t>(nparts));
    for (PartId q = 0; q < nparts; ++q) ranks[static_cast<std::size_t>(q)] = q;
    ranks[static_cast<std::size_t>(buddy_part)] = victim;
    pm->network().setPartRanks(ranks);

    const std::uint64_t fp = pm->fingerprint();
    const auto covered = elementDigests(*pm);
    failover::BuddyJournal journal;
    journal.record(*pm);

    faults::FaultPlan p;
    p.seed = 31;
    p.kill = {victim, 2};
    p.deadline_ms = 30;
    PlanGuard g(p);
    common::Rng rng(13 + static_cast<std::uint64_t>(three_d));
    try {
      pm->migrate(randomPlan(*pm, rng, 0.2));
      FAIL() << "migration crossing a dead rank committed";
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
    }

    const auto rep = failover::evacuate(*pm, journal);
    EXPECT_EQ(pm->fingerprint(), fp);
    EXPECT_NO_THROW(pm->verify());
    EXPECT_EQ(elementDigests(*pm), covered) << "zero lost elements";
    std::vector<PartId> both = {victim, buddy_part};
    std::sort(both.begin(), both.end());
    EXPECT_EQ(rep.parts_evacuated, both);
  }
}

/// --- checkpoint restore onto fewer ranks ---------------------------------

TEST(CheckpointShrink, RestoresOntoFewerRanksDeterministically) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_failover" / "shrink";
  fs::remove_all(dirp);
  const std::string dir = dirp.string();

  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 8);
  common::Rng rng(3);
  pm->migrate(randomPlan(*pm, rng, 0.2));
  const std::uint64_t fp = pm->fingerprint();
  dist::pario::checkpointImage(*pm, dir);

  // A checkpoint written by 8 ranks restores onto the 5 survivors: every
  // part keeps its identity, orphans land at p % 5 — the deterministic
  // assignment every survivor computes without communicating.
  auto restored = dist::pario::restoreImage(dir, gen.model.get(), 5);
  EXPECT_EQ(restored->parts(), 8);
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_NO_THROW(restored->verify());
  const auto& map = restored->network().partMap();
  EXPECT_EQ(map.machine().totalCores(), 5);
  for (PartId p = 0; p < restored->parts(); ++p)
    EXPECT_EQ(map.rankOf(p), p % 5) << "part " << p;

  // Operational, not just structurally equal.
  common::Rng rng2(4);
  EXPECT_NO_THROW(restored->migrate(randomPlan(*restored, rng2, 0.2)));
  EXPECT_NO_THROW(restored->verify());

  EXPECT_THROW(dist::pario::restoreImage(dir, gen.model.get(), 0), Error);
}

/// --- the acceptance scenario ---------------------------------------------

TEST(FailoverAcceptance, SixteenPartsKillMidMigrateThenHangMidBalance) {
  failure::resetStats();
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 16);
  const auto covered = elementDigests(*pm);
  failover::BuddyJournal journal;

  // Incident 1: rank 5 dies mid-migrate.
  journal.record(*pm);
  {
    faults::FaultPlan p;
    p.seed = 101;
    p.kill = {5, 2};
    p.deadline_ms = 30;
    PlanGuard g(p);
    common::Rng rng(55);
    try {
      pm->migrate(randomPlan(*pm, rng, 0.15));
      FAIL() << "migration crossing the killed rank committed";
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
      EXPECT_EQ(e.peer(), 5);
    }
    const auto rep = failover::evacuate(*pm, journal);
    EXPECT_EQ(rep.ranks_lost, std::vector<int>{5});
    EXPECT_EQ(rep.parts_evacuated, std::vector<PartId>{5});
  }
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), covered);

  // The run continues on the 15 survivors: a real migration commits.
  {
    common::Rng rng(56);
    EXPECT_NO_THROW(pm->migrate(randomPlan(*pm, rng, 0.1)));
  }

  // Incident 2: rank 11 goes silent mid-balance.
  journal.record(*pm);
  const auto covered2 = elementDigests(*pm);
  failover::EvacuationReport rep2;
  {
    faults::FaultPlan p;
    p.seed = 102;
    p.hang = {11, 1};
    p.deadline_ms = 30;
    PlanGuard g(p);
    parma::BalanceOptions opts;
    opts.max_rounds = 2;
    try {
      parma::balance(*pm, "Rgn", opts);
      FAIL() << "balance crossing the hung rank completed";
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
      EXPECT_EQ(e.peer(), 11)
          << "balance must propagate the rank failure, not absorb it";
    }
    rep2 = failover::evacuate(*pm, journal);
  }
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), covered2) << "zero lost elements";
  // Both incidents are on the books; only rank 11's parts needed moving.
  EXPECT_EQ(rep2.ranks_lost, (std::vector<int>{5, 11}));
  EXPECT_EQ(rep2.parts_evacuated, std::vector<PartId>{11});
  EXPECT_GE(rep2.detect_ms, 30.0)
      << "hang detection pays the configured deadline";
  EXPECT_LE(rep2.detect_ms, 30.0 * 100);

  // Post-evacuation repair: parma rebalances and reports the incident.
  const auto report = parma::balanceAfterEvacuation(*pm, "Rgn", rep2);
  EXPECT_EQ(report.ranks_lost, 2);
  EXPECT_EQ(report.entities_adopted, rep2.entities_adopted);
  EXPECT_GE(report.rounds, 1);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(elementDigests(*pm), covered2)
      << "balancing moves elements, never loses them";
}

}  // namespace
