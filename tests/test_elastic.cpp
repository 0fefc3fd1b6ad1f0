/// \file test_elastic.cpp
/// \brief Elastic scale-OUT: rank join plus heavy-part splitting, verified
/// by a grow/shrink property suite.
///
/// Contract under test: a run can absorb new ranks mid-flight. A join=K@P
/// fault-plan token knocks at a deterministic dist::Network phase
/// boundary; parma::elasticJoin then admits the newcomers into the parted
/// mesh (Network::growRanks renumbers densely), carves the heaviest parts
/// onto their empty parts (graph-free RIB), diffuses to tolerance, and
/// gates the result on verify() plus geometric-digest conservation —
/// zero lost or duplicated elements, ever.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dist/checkpoint.hpp"
#include "dist/digest.hpp"
#include "dist/elastic.hpp"
#include "dist/failover.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "parma/elastic.hpp"
#include "parma/heavysplit.hpp"
#include "parma/improve.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"
#include "part/ribsplit.hpp"
#include "pcu/arq.hpp"
#include "pcu/error.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"
#include "pcu/stats.hpp"
#include "pcu/trace.hpp"

namespace {

using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;
namespace digest = dist::digest;
namespace failure = pcu::failure;
namespace faults = pcu::faults;
namespace arq = pcu::arq;

/// Installs a plan for the scope of one test body; always clears on exit.
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

/// --- PUMI_FAULTS join token parsing (strict) -----------------------------

TEST(JoinSpec, ParsesJoinToken) {
  const auto p = faults::parsePlan("seed=7,join=4@2");
  EXPECT_EQ(p.join.count, 4);
  EXPECT_EQ(p.join.phase, 2);
  EXPECT_TRUE(p.join.scheduled());
  EXPECT_FALSE(p.injects())
      << "a join is a scale-out event, not an injected fault";
}

TEST(JoinSpec, JoinAloneArmsFramingButNotFailureDetection) {
  PlanGuard g(faults::parsePlan("join=2@1"));
  EXPECT_TRUE(faults::hasJoin());
  EXPECT_TRUE(faults::hasPhaseEvent());
  EXPECT_TRUE(faults::framingEnabled())
      << "join needs hardened phase boundaries to count phases";
  EXPECT_FALSE(faults::hasRankFault());
  EXPECT_EQ(faults::deadlineMs(), 0)
      << "a join must not arm the failure detector by itself";
}

TEST(JoinSpec, MalformedJoinTokensAreRejectedByName) {
  for (const char* bad :
       {"join=4", "join=@2", "join=4@", "join=x@2", "join=0@2", "join=-1@2",
        "join=4@-1", "join=4@2x", "join=4@@2", "join="}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted malformed PUMI_FAULTS token: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      EXPECT_NE(e.detail().find("join"), std::string::npos)
          << "error must name the bad token: " << bad << " -> " << e.what();
    }
  }
}

TEST(JoinSpec, JoinComposesWithRankFaults) {
  const auto p = faults::parsePlan("join=2@3,kill=1@5,deadline=25");
  EXPECT_TRUE(p.join.scheduled());
  EXPECT_TRUE(p.kill.scheduled());
  PlanGuard g(p);
  EXPECT_TRUE(faults::hasJoin());
  EXPECT_TRUE(faults::hasRankFault());
}

/// --- dist: admission mechanism -------------------------------------------

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

/// Dense rank numbering: every part lives on a valid rank and every rank
/// hosts at least one part.
void expectDenseRanks(const dist::PartedMesh& pm) {
  const auto& map = pm.network().partMap();
  const int cores = map.machine().totalCores();
  std::vector<int> hosted(static_cast<std::size_t>(cores), 0);
  for (PartId p = 0; p < pm.parts(); ++p) {
    const int r = map.rankOf(p);
    ASSERT_GE(r, 0) << "part " << p;
    ASSERT_LT(r, cores) << "part " << p;
    hosted[static_cast<std::size_t>(r)] += 1;
  }
  for (int r = 0; r < cores; ++r)
    EXPECT_GE(hosted[static_cast<std::size_t>(r)], 1)
        << "rank " << r << " hosts no part: numbering not dense";
}

TEST(DistElastic, AdmitRanksGrowsMachineAndPinsNewParts) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  const auto before = digest::elementDigests(*pm);
  std::vector<int> old_ranks;
  for (PartId p = 0; p < 4; ++p)
    old_ranks.push_back(pm->network().partMap().rankOf(p));

  const auto rep = dist::elastic::admitRanks(*pm, 2);
  EXPECT_EQ(rep.ranks_before, 4);
  EXPECT_EQ(rep.ranks_after, 6);
  ASSERT_EQ(rep.new_parts, (std::vector<PartId>{4, 5}));
  EXPECT_EQ(pm->parts(), 6);
  EXPECT_EQ(pm->network().partMap().machine().totalCores(), 6);
  // Existing parts must not have moved when the machine grew.
  for (PartId p = 0; p < 4; ++p)
    EXPECT_EQ(pm->network().partMap().rankOf(p),
              old_ranks[static_cast<std::size_t>(p)]);
  // Newcomer parts are pinned onto the newcomer ranks, initially empty.
  EXPECT_EQ(pm->network().partMap().rankOf(4), 4);
  EXPECT_EQ(pm->network().partMap().rankOf(5), 5);
  EXPECT_EQ(pm->part(4).elementCount(), 0u);
  EXPECT_EQ(pm->part(5).elementCount(), 0u);
  EXPECT_EQ(digest::elementDigests(*pm), before)
      << "admission is pure mechanism: no element moves";
  EXPECT_NO_THROW(pm->verify());
}

TEST(DistElastic, AdmitRanksRejectsInvalidCount) {
  auto gen = meshgen::boxTris(3, 3);
  auto pm = makeMesh(gen, 2);
  for (int k : {0, -3}) {
    try {
      dist::elastic::admitRanks(*pm, k);
      FAIL() << "admitRanks(" << k << ") must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation);
    }
  }
}

TEST(DistElastic, AddPartsOnIdleRanksIsIdempotent) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  EXPECT_TRUE(dist::elastic::addPartsOnIdleRanks(*pm).empty())
      << "no idle rank on a flat(4)/4-part mesh";
  dist::elastic::admitRanks(*pm, 3);
  EXPECT_TRUE(dist::elastic::addPartsOnIdleRanks(*pm).empty())
      << "admitRanks already populated the newcomers";
}

/// --- part: the graph-free RIB splitter -----------------------------------

TEST(RibSplit, SplitsIntoBalancedNonEmptyPieces) {
  auto gen = meshgen::boxTris(8, 8);
  auto pm = makeMesh(gen, 1);
  const auto elems = pm->part(0).elements();
  const auto sub = part::ribSplit(pm->part(0).mesh(), elems, 4);
  ASSERT_EQ(sub.size(), elems.size());
  std::array<int, 4> sizes{};
  for (int s : sub) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    sizes[static_cast<std::size_t>(s)] += 1;
  }
  const int n = static_cast<int>(elems.size());
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(sizes[static_cast<std::size_t>(s)], 0);
    // Weighted-median cuts: each piece within 30% of the even share.
    EXPECT_NEAR(sizes[static_cast<std::size_t>(s)], n / 4.0, 0.3 * n / 4.0);
  }
  EXPECT_EQ(part::ribSplit(pm->part(0).mesh(), elems, 4), sub)
      << "RIB must be deterministic";
}

TEST(RibSplit, RespectsWeights) {
  auto gen = meshgen::boxTris(8, 8);
  auto pm = makeMesh(gen, 1);
  const auto elems = pm->part(0).elements();
  // All weight on the first half: the 2-way cut must land the heavy half
  // alone-ish — piece loads (by weight) stay near 50/50.
  std::vector<double> w(elems.size(), 1.0);
  for (std::size_t i = 0; i < w.size() / 2; ++i) w[i] = 10.0;
  const auto sub = part::ribSplit(pm->part(0).mesh(), elems, 2, w);
  double load0 = 0.0, total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    total += w[i];
    if (sub[i] == 0) load0 += w[i];
  }
  EXPECT_NEAR(load0 / total, 0.5, 0.15);
}

TEST(RibSplit, ValidatesItsInputs) {
  auto gen = meshgen::boxTris(3, 3);
  auto pm = makeMesh(gen, 1);
  const auto elems = pm->part(0).elements();
  try {
    part::ribSplit(pm->part(0).mesh(), elems, 0);
    FAIL() << "pieces < 1 must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
  }
  try {
    part::ribSplit(pm->part(0).mesh(), elems, 2, {1.0});
    FAIL() << "weights length mismatch must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
  }
}

/// --- parma: heavy-part splitting onto injected targets -------------------

TEST(HeavySplitTargets, CarvesOntoInjectedEmptyParts) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  const auto before = digest::elementDigests(*pm);
  const auto rep0 = dist::elastic::admitRanks(*pm, 2);

  parma::HeavySplitOptions opts;
  opts.tolerance = 0.10;
  opts.split_method = part::Method::RIB;
  opts.targets = rep0.new_parts;
  const auto rep = parma::heavyPartSplit(*pm, opts);
  EXPECT_EQ(pm->parts(), 6) << "injected targets never change part count";
  EXPECT_EQ(rep.merges, 0) << "injected targets skip the merge phase";
  EXPECT_GT(rep.parts_split, 0);
  for (PartId t : rep0.new_parts)
    EXPECT_GT(pm->part(t).elementCount(), 0u)
        << "target part " << t << " stayed empty";
  EXPECT_EQ(digest::elementDigests(*pm), before);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_LT(rep.final_imbalance, rep.initial_imbalance);
}

TEST(HeavySplitTargets, RejectsNonEmptyOrOutOfRangeTargets) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  parma::HeavySplitOptions opts;
  opts.targets = {0};  // part 0 holds elements
  try {
    parma::heavyPartSplit(*pm, opts);
    FAIL() << "non-empty target must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("not empty"), std::string::npos) << e.what();
  }
  opts.targets = {99};
  try {
    parma::heavyPartSplit(*pm, opts);
    FAIL() << "out-of-range target must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
  }
}

TEST(HeavySplitTargets, LegacyPathKeepsPartCount) {
  // Regression for the injectable-targets change: the historical no-target
  // call must still merge-then-split with an unchanged part count.
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 6);
  common::Rng rng(17);
  // Skew the load so the splitter has actual work.
  dist::MigrationPlan skew(static_cast<std::size_t>(pm->parts()));
  for (PartId p = 1; p < pm->parts(); ++p)
    for (Ent e : pm->part(p).elements())
      if (rng.uniform() < 0.5) skew[static_cast<std::size_t>(p)][e] = 0;
  pm->migrate(skew);
  const int nparts = pm->parts();
  const auto before = digest::elementDigests(*pm);
  const auto rep = parma::heavyPartSplit(*pm, {.tolerance = 0.10});
  EXPECT_EQ(pm->parts(), nparts);
  EXPECT_EQ(digest::elementDigests(*pm), before);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_LT(rep.final_imbalance, rep.initial_imbalance);
}

/// --- parma: the full elastic join ----------------------------------------

TEST(ElasticJoin, EightToTwelveMeetsTheAcceptanceBar) {
  // The ISSUE's acceptance scenario: an 8-rank mesh receives 4 joiners and
  // must end at 12 dense ranks, zero lost elements, element imbalance at
  // or below 1.10, with the join-to-rebalanced latency reported.
  auto gen = meshgen::boxTets(6, 6, 6);
  auto pm = makeMesh(gen, 8);
  const auto before = digest::elementDigests(*pm);

  const auto rep = parma::elasticJoin(*pm, 4, {.tolerance = 0.10});
  EXPECT_EQ(rep.ranks_before, 8);
  EXPECT_EQ(rep.ranks_after, 12);
  ASSERT_EQ(rep.new_parts.size(), 4u);
  EXPECT_EQ(pm->parts(), 12);
  EXPECT_EQ(digest::elementDigests(*pm), before) << "zero lost elements";
  EXPECT_NO_THROW(pm->verify());
  expectDenseRanks(*pm);
  for (PartId t : rep.new_parts) EXPECT_GT(pm->part(t).elementCount(), 0u);
  EXPECT_LE(rep.imbalance_after, 1.10 + 1e-9);
  EXPECT_GT(rep.elements_moved, 0u);
  EXPECT_GE(rep.total_ms, rep.admit_ms);
  EXPECT_GE(rep.total_ms, rep.split_ms);
}

TEST(ElasticJoin, RejectsInvalidCount) {
  auto gen = meshgen::boxTris(3, 3);
  auto pm = makeMesh(gen, 2);
  EXPECT_THROW(parma::elasticJoin(*pm, 0), Error);
}

TEST(ElasticJoin, NoPendingJoinIsANoop) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 2);
  const auto maybe = parma::admitPendingJoin(*pm);
  EXPECT_FALSE(maybe.admitted);
  EXPECT_EQ(pm->parts(), 2);
}

/// --- the grow/shrink property suite --------------------------------------

struct CycleCase {
  std::uint64_t seed;
  bool three_d;
};

class GrowShrinkCycle : public ::testing::TestWithParam<CycleCase> {};

TEST_P(GrowShrinkCycle, ConservesEveryElementThroughTheCycle) {
  const auto [seed, three_d] = GetParam();
  namespace fs = std::filesystem;
  const fs::path dirp = fs::temp_directory_path() / "pumi_test_elastic" /
                        ("cycle_" + std::to_string(seed) +
                         (three_d ? "_3d" : "_2d"));
  fs::remove_all(dirp);

  auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(8, 8);
  auto pm = makeMesh(gen, 4);
  const auto covered = digest::elementDigests(*pm);
  common::Rng rng(seed);

  // Perturb: a seeded random migration makes every cycle distinct.
  pm->migrate(randomPlan(*pm, rng, 0.10));
  EXPECT_EQ(digest::elementDigests(*pm), covered);

  // GROW 4 -> 6.
  const auto j1 = parma::elasticJoin(*pm, 2, {.tolerance = 0.20});
  EXPECT_EQ(j1.ranks_after, 6);
  EXPECT_EQ(digest::elementDigests(*pm), covered) << "grow lost elements";
  EXPECT_NO_THROW(pm->verify());
  expectDenseRanks(*pm);

  // BALANCE on the grown machine.
  parma::improve(*pm, three_d ? "Rgn" : "Face", {.tolerance = 0.20});
  EXPECT_EQ(digest::elementDigests(*pm), covered) << "balance lost elements";
  EXPECT_NO_THROW(pm->verify());

  // SHRINK 6 -> 3 ranks: checkpoint, restart on half the machine.
  const std::uint64_t fp = pm->fingerprint();
  dist::checkpoint(*pm, dirp.string());
  auto pm2 = dist::restore(dirp.string(), gen.model.get(), 3);
  ASSERT_NE(pm2, nullptr);
  EXPECT_EQ(pm2->fingerprint(), fp)
      << "restore must reproduce part contents fingerprint-exactly";
  EXPECT_EQ(pm2->network().partMap().machine().totalCores(), 3);
  EXPECT_EQ(digest::elementDigests(*pm2), covered) << "shrink lost elements";
  EXPECT_NO_THROW(pm2->verify());
  expectDenseRanks(*pm2);

  // GROW again 3 -> 5.
  const auto j2 = parma::elasticJoin(*pm2, 2, {.tolerance = 0.20});
  EXPECT_EQ(j2.ranks_after, 5);
  EXPECT_EQ(digest::elementDigests(*pm2), covered) << "regrow lost elements";
  EXPECT_NO_THROW(pm2->verify());
  expectDenseRanks(*pm2);

  fs::remove_all(dirp);
}

INSTANTIATE_TEST_SUITE_P(
    Property, GrowShrinkCycle, ::testing::ValuesIn([] {
      std::vector<CycleCase> cases;
      for (std::uint64_t seed = 0; seed < 10; ++seed)
        for (bool three_d : {false, true}) cases.push_back({seed, three_d});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<CycleCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.three_d ? "_tets" : "_tris");
    });

/// --- join x chaos matrix --------------------------------------------------

struct JoinChaosCase {
  bool corrupt;   ///< corrupt= vs drop= running alongside the join
  bool coalesce;  ///< transport coalescing on/off
  bool reliable;  ///< PUMI_RELIABLE-style ARQ on/off
};

class JoinChaosMatrix : public ::testing::TestWithParam<JoinChaosCase> {};

/// Run the full chaos-join scenario once; returns (fingerprint, digests)
/// for the determinism comparison.
std::pair<std::uint64_t, std::multiset<std::uint64_t>> runJoinChaos(
    const JoinChaosCase& cse) {
  auto gen = meshgen::boxTris(6, 6);
  auto pm = makeMesh(gen, 6);
  pm->network().setCoalescing(cse.coalesce);
  std::optional<ReliableGuard> rel;
  if (cse.reliable) rel.emplace();
  // Without ARQ the transactional retry loop (epoch bump per replay) is
  // the recovery mechanism. Uncoalesced mode sends one physical message
  // per payload, so a migration crosses hundreds of fault draws per
  // attempt — keep the probability low and the budget generous or the
  // plain cases exhaust their retries.
  pm->setOpRetries(25);

  const std::string spec = std::string("seed=21,") +
                           (cse.corrupt ? "corrupt=0.005" : "drop=0.005") +
                           ",join=2@2";
  PlanGuard g(faults::parsePlan(spec));
  const auto covered = digest::elementDigests(*pm);

  common::Rng rng(5);
  int rounds = 0;
  while (pm->network().pendingJoin() == 0 && rounds < 16) {
    try {
      pm->migrate(randomPlan(*pm, rng, 0.08));
    } catch (const Error&) {
      // An exhausted retry budget under chaos aborts the op cleanly; the
      // rollback keeps the mesh intact and the knock, once fired, stays.
    }
    ++rounds;
  }
  EXPECT_GT(pm->network().pendingJoin(), 0)
      << "the join knock must fire at its phase under " << spec;
  EXPECT_EQ(digest::elementDigests(*pm), covered);

  const auto joined = parma::admitPendingJoin(*pm, {.tolerance = 0.20});
  EXPECT_TRUE(joined.admitted);
  EXPECT_EQ(joined.report.ranks_before, 6);
  EXPECT_EQ(joined.report.ranks_after, 8);
  EXPECT_EQ(pm->network().pendingJoin(), 0);
  EXPECT_EQ(digest::elementDigests(*pm), covered) << "chaos join lost elements";
  EXPECT_NO_THROW(pm->verify());
  expectDenseRanks(*pm);

  // The grown mesh keeps operating under the same chaos plan: the new
  // peers inherited the fault epoch and the framed channels.
  common::Rng rng2(11);
  try {
    pm->migrate(randomPlan(*pm, rng2, 0.08));
  } catch (const Error&) {
  }
  EXPECT_EQ(digest::elementDigests(*pm), covered);
  EXPECT_NO_THROW(pm->verify());
  return {pm->fingerprint(), digest::elementDigests(*pm)};
}

TEST_P(JoinChaosMatrix, JoinSurvivesActiveFaultPlanDeterministically) {
  const auto once = runJoinChaos(GetParam());
  // Identical seeds, identical chaos, identical join: the entire run —
  // fault decisions on the new peers included — must replay bit-equal.
  const auto twice = runJoinChaos(GetParam());
  EXPECT_EQ(once.first, twice.first)
      << "join under chaos must be deterministic (fault-epoch inheritance)";
  EXPECT_EQ(once.second, twice.second);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JoinChaosMatrix, ::testing::ValuesIn([] {
      std::vector<JoinChaosCase> cases;
      for (bool corrupt : {false, true})
        for (bool coalesce : {true, false})
          for (bool reliable : {false, true})
            cases.push_back({corrupt, coalesce, reliable});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<JoinChaosCase>& info) {
      return std::string(info.param.corrupt ? "corrupt" : "drop") +
             (info.param.coalesce ? "_coalesced" : "_uncoalesced") +
             (info.param.reliable ? "_reliable" : "_plain");
    });

/// --- restore onto MORE ranks ---------------------------------------------

TEST(RestoreOntoMore, IdentityAssignmentLeavesNewRanksIdle) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_elastic" / "more_identity";
  fs::remove_all(dirp);
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  const std::uint64_t fp = pm->fingerprint();
  dist::checkpoint(*pm, dirp.string());

  auto pm2 = dist::restore(dirp.string(), gen.model.get(), 6);
  ASSERT_NE(pm2, nullptr);
  EXPECT_EQ(pm2->fingerprint(), fp);
  EXPECT_EQ(pm2->parts(), 4);
  EXPECT_EQ(pm2->network().partMap().machine().totalCores(), 6);
  for (PartId p = 0; p < 4; ++p)
    EXPECT_EQ(pm2->network().partMap().rankOf(p), p)
        << "restore onto more ranks is the identity assignment";
  fs::remove_all(dirp);
}

TEST(RestoreOntoMore, ExpandRebalancesOntoTheIdleRanks) {
  namespace fs = std::filesystem;
  const fs::path dirp =
      fs::temp_directory_path() / "pumi_test_elastic" / "more_expand";
  fs::remove_all(dirp);
  auto gen = meshgen::boxTets(5, 5, 5);
  auto pm = makeMesh(gen, 8);
  const auto covered = digest::elementDigests(*pm);
  dist::checkpoint(*pm, dirp.string());

  auto pm2 = dist::restore(dirp.string(), gen.model.get(), 12);
  ASSERT_NE(pm2, nullptr);
  const auto rep = parma::expandToIdleRanks(*pm2, {.tolerance = 0.10});
  EXPECT_EQ(rep.ranks_before, 12);
  EXPECT_EQ(rep.ranks_after, 12);
  ASSERT_EQ(rep.new_parts.size(), 4u);
  EXPECT_EQ(pm2->parts(), 12);
  EXPECT_EQ(digest::elementDigests(*pm2), covered)
      << "expansion after restore lost elements";
  EXPECT_NO_THROW(pm2->verify());
  expectDenseRanks(*pm2);
  EXPECT_LE(rep.imbalance_after, 1.10 + 1e-9)
      << "restored-then-rebalanced mesh must match the N-rank balance bar";
  fs::remove_all(dirp);
}

/// --- grow x failover composition -----------------------------------------

TEST(GrowFailoverComposition, KillingAFreshlyJoinedRankMidBalanceEvacuates) {
  // The elastic x failover composition: grow the machine, then lose one of
  // the ranks that just joined while parma is still balancing onto it. The
  // survivors must evacuate the newcomer's parts from the buddy journal and
  // finish the rebalance with zero element loss.
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 6);
  const auto covered = digest::elementDigests(*pm);

  // GROW 6 -> 8: ranks 6 and 7 join and receive load.
  const auto join = parma::elasticJoin(*pm, 2, {.tolerance = 0.20});
  ASSERT_EQ(join.ranks_after, 8);
  EXPECT_EQ(digest::elementDigests(*pm), covered);
  EXPECT_NO_THROW(pm->verify());

  // Quiescent point after the join: the journal now covers the newcomers'
  // parts too — a buddy holds their state before the incident.
  dist::failover::BuddyJournal journal;
  journal.record(*pm);

  // Newly joined rank 6 dies at the next phase boundary, mid-balance.
  dist::failover::EvacuationReport evac;
  {
    faults::FaultPlan p;
    p.seed = 9;
    p.kill = {6, 1};
    p.deadline_ms = 30;
    PlanGuard g(p);
    try {
      parma::balance(*pm, "Rgn", {.tolerance = 0.10, .max_rounds = 2});
      FAIL() << "balance crossing the dead newcomer completed";
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
      EXPECT_EQ(e.peer(), 6) << "the error must name the dead newcomer";
    }
    evac = dist::failover::evacuate(*pm, journal);
  }
  ASSERT_EQ(evac.ranks_lost, std::vector<int>{6});
  ASSERT_EQ(evac.parts_evacuated, std::vector<PartId>{6});
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(digest::elementDigests(*pm), covered)
      << "evacuating a newcomer lost elements";

  // Post-evacuation repair completes the interrupted rebalance on the
  // 7 survivors (the other newcomer keeps its load).
  const auto rep = parma::balanceAfterEvacuation(*pm, "Rgn", evac);
  EXPECT_EQ(rep.ranks_lost, 1);
  EXPECT_GE(rep.rounds, 1);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(digest::elementDigests(*pm), covered)
      << "repair after the composed incident lost elements";
  // The corpse hosts nothing; every part lives on a survivor.
  for (PartId p = 0; p < pm->parts(); ++p)
    EXPECT_NE(pm->network().partMap().rankOf(p), 6)
        << "part " << p << " is still pinned to the dead rank";
}

/// --- fd:* counters through the Network path ------------------------------

TEST(DistFailureCounters, GrowAndSuspicionCountersReachTheTraceReport) {
  // The fd:* counters flow through pcu::trace into the per-phase report
  // (and so into the Chrome export, which serializes the same counter
  // events): fd:grow_events / fd:ranks_joined from Network::growRanks,
  // fd:suspicions / fd:suspicion_latency_us from the Network declaring a
  // hung rank dead.
  pcu::trace::clear();
  pcu::trace::setEnabled(true);
  failure::resetStats();
  auto gen = meshgen::boxTris(6, 6);
  auto pm = makeMesh(gen, 4);
  const auto join = parma::elasticJoin(*pm, 2, {.tolerance = 0.20});
  EXPECT_EQ(join.ranks_after, 6);
  {
    faults::FaultPlan p;
    p.seed = 4;
    p.hang = {1, 0};
    p.deadline_ms = 20;
    PlanGuard g(p);
    common::Rng rng(3);
    try {
      pm->migrate(randomPlan(*pm, rng, 0.2));
      ADD_FAILURE() << "migration crossing the hung rank committed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
      EXPECT_EQ(e.peer(), 1);
    }
  }
  const auto report = pcu::buildTraceReport();
  pcu::trace::setEnabled(false);
  pcu::trace::clear();
  std::map<std::string, std::int64_t> last;
  for (const auto& c : report.counters) last[c.name] = c.last;
  ASSERT_TRUE(last.count("fd:grow_events")) << "grow counter missing";
  ASSERT_TRUE(last.count("fd:ranks_joined"));
  ASSERT_TRUE(last.count("fd:suspicions")) << "suspicion counter missing";
  ASSERT_TRUE(last.count("fd:suspicion_latency_us"));
  EXPECT_EQ(last["fd:grow_events"], 1);
  EXPECT_EQ(last["fd:ranks_joined"], 2);
  EXPECT_EQ(last["fd:suspicions"], 1);
  EXPECT_GE(last["fd:suspicion_latency_us"], 20 * 1000)
      << "the latency counter must carry the hang's silence span";
}

TEST(RestoreOntoMore, ExpandWithNoIdleRankIsANoop) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 4);
  const std::uint64_t fp = pm->fingerprint();
  const auto rep = parma::expandToIdleRanks(*pm);
  EXPECT_TRUE(rep.new_parts.empty());
  EXPECT_EQ(pm->parts(), 4);
  EXPECT_EQ(pm->fingerprint(), fp);
}

}  // namespace
