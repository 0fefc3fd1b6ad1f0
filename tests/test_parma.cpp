#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>

#include "core/measure.hpp"
#include "dist/failover.hpp"
#include "dist/integrity.hpp"
#include "meshgen/boxmesh.hpp"
#include "meshgen/workloads.hpp"
#include "parma/balance.hpp"
#include "parma/heavysplit.hpp"
#include "parma/improve.hpp"
#include "parma/metrics.hpp"
#include "parma/priority.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace {

using core::Ent;
using dist::PartId;

TEST(Priority, ParseSingle) {
  const auto p = parma::parsePriority("Rgn");
  ASSERT_EQ(p.levels.size(), 1u);
  EXPECT_EQ(p.levels[0], (parma::Level{3}));
  EXPECT_EQ(p.describe(), "Rgn");
}

TEST(Priority, ParsePaperExamples) {
  const auto t1 = parma::parsePriority("Vtx>Rgn");
  ASSERT_EQ(t1.levels.size(), 2u);
  EXPECT_EQ(t1.levels[0], (parma::Level{0}));
  EXPECT_EQ(t1.levels[1], (parma::Level{3}));

  const auto t2 = parma::parsePriority("Vtx=Edge>Rgn");
  ASSERT_EQ(t2.levels.size(), 2u);
  EXPECT_EQ(t2.levels[0], (parma::Level{0, 1}));  // ascending dim

  const auto big = parma::parsePriority("Rgn > Face = Edge > Vtx");
  ASSERT_EQ(big.levels.size(), 3u);
  EXPECT_EQ(big.levels[0], (parma::Level{3}));
  EXPECT_EQ(big.levels[1], (parma::Level{1, 2}));
  EXPECT_EQ(big.levels[2], (parma::Level{0}));
  EXPECT_EQ(big.describe(), "Rgn > Edge = Face > Vtx");
}

TEST(Priority, HigherLowerQueries) {
  const auto p = parma::parsePriority("Rgn>Face=Edge>Vtx");
  EXPECT_EQ(p.higherThan(0), (std::vector<int>{}));
  EXPECT_EQ(p.higherThan(1), (std::vector<int>{3}));
  EXPECT_EQ(p.lowerThan(1), (std::vector<int>{0}));
  EXPECT_EQ(p.lowerThan(0), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(p.allDims(), (std::vector<int>{3, 1, 2, 0}));
}

TEST(Priority, RejectsMalformed) {
  EXPECT_THROW(parma::parsePriority(""), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>>Rgn"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Blob"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>Vtx"), std::invalid_argument);
  EXPECT_THROW(parma::parsePriority("Vtx>"), std::invalid_argument);
}

TEST(Metrics, BalanceOfUniformStripes) {
  auto gen = meshgen::boxTets(4, 2, 2);
  std::vector<PartId> dest(gen.mesh->count(3));
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = static_cast<PartId>(i * 4 / dest.size());
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const auto b = parma::entityBalance(*pm, 3);
  EXPECT_EQ(b.per_part.size(), 4u);
  EXPECT_EQ(b.peak, 24u);
  EXPECT_DOUBLE_EQ(b.mean, 24.0);
  EXPECT_DOUBLE_EQ(b.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(b.imbalancePercent(), 0.0);
  // Vertex balance counts duplicated boundary copies.
  const auto bv = parma::entityBalance(*pm, 0);
  std::size_t local_sum = 0;
  for (auto c : bv.per_part) local_sum += c;
  EXPECT_GT(local_sum, gen.mesh->count(0));  // duplication
  EXPECT_GT(parma::boundaryCopies(*pm, 0), 0u);
}

TEST(Metrics, HistogramBinsCoverParts) {
  parma::Balance b;
  b.per_part = {10, 10, 10, 10, 40, 2};
  b.mean = 82.0 / 6.0;
  b.peak = 40;
  b.imbalance = 40.0 / b.mean;
  const auto h = parma::imbalanceHistogram(b, 5);
  ASSERT_EQ(h.frequency.size(), 5u);
  std::size_t total = 0;
  for (auto f : h.frequency) total += f;
  EXPECT_EQ(total, 6u);
  // The peak lands in the last bin.
  EXPECT_GE(h.frequency.back(), 1u);
}

/// Build a deliberately element-imbalanced partition: part 0 takes an extra
/// slab of part 1's elements.
std::unique_ptr<dist::PartedMesh> imbalancedPartition(
    const meshgen::Generated& gen, int nparts, double spike_frac) {
  const auto g = part::buildElemGraph(*gen.mesh);
  auto base = part::partitionGraph(g, nparts, part::Method::GraphRB);
  // Steal elements from part 1 into part 0 until part 0 holds
  // (1 + spike_frac) of its fair share.
  const std::size_t fair = gen.mesh->count(3) / static_cast<std::size_t>(nparts);
  std::size_t want = static_cast<std::size_t>(spike_frac * fair);
  for (std::size_t i = 0; i < base.size() && want > 0; ++i) {
    if (base[i] == 1) {
      base[i] = 0;
      --want;
    }
  }
  return dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), base,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
}

TEST(Improve, RegionBalanceConverges) {
  auto gen = meshgen::boxTets(6, 6, 6);
  auto pm = imbalancedPartition(gen, 8, 0.5);
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 1.2);
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 1u);
  EXPECT_EQ(report.levels[0].dim, 3);
  EXPECT_LE(report.levels[0].final_imbalance, 1.05 + 1e-9);
  EXPECT_TRUE(report.levels[0].converged);
  EXPECT_GT(report.totalMigrated(), 0u);
  // Mesh integrity preserved.
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Improve, VertexBalanceConverges) {
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 24});
  auto pm = imbalancedPartition(gen, 8, 0.4);
  const double before = parma::entityBalance(*pm, 0).imbalance;
  ASSERT_GT(before, 1.1);
  const auto report = parma::improve(*pm, "Vtx>Rgn", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 2u);
  // An adversarial stolen-slab spike at this granularity plateaus slightly
  // above the 5% tolerance; require a large reduction and a sane endpoint.
  // (The paper-shaped experiment, bench_parma_tables, reaches ~5%.)
  EXPECT_LE(report.levels[0].final_imbalance, 1.09) << "vertex imbalance";
  EXPECT_LT(report.levels[0].final_imbalance,
            report.levels[0].initial_imbalance - 0.03);
  // Region imbalance may grow, but stays moderate (paper: 4.3% -> ~6%).
  EXPECT_LE(report.levels[1].final_imbalance, 1.15);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(Improve, MultiCriteriaRespectsHigherPriority) {
  auto gen = meshgen::boxTets(6, 6, 6);
  auto pm = imbalancedPartition(gen, 8, 0.5);
  // First balance regions strictly, then edges without harming regions.
  const auto report = parma::improve(*pm, "Rgn>Edge", {.tolerance = 0.05});
  pm->verify();
  ASSERT_EQ(report.levels.size(), 2u);
  EXPECT_EQ(report.levels[0].dim, 3);
  EXPECT_EQ(report.levels[1].dim, 1);
  // After everything, region balance still within tolerance (+ slack for
  // boundary-entity churn during edge balancing).
  EXPECT_LE(parma::entityBalance(*pm, 3).imbalance, 1.10);
}

TEST(Improve, AlreadyBalancedIsNoOp) {
  auto gen = meshgen::boxTets(4, 4, 4);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const double rgn_before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_LE(rgn_before, 1.05);
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.05});
  EXPECT_EQ(report.levels[0].iterations, 0);
  EXPECT_EQ(report.totalMigrated(), 0u);
}

TEST(Improve, ReducesBoundaryOrKeepsItModerate) {
  auto gen = meshgen::vessel({.circumferential = 6, .axial = 20});
  auto pm = imbalancedPartition(gen, 6, 0.4);
  const std::size_t boundary_before = parma::boundaryCopies(*pm, 0);
  parma::improve(*pm, "Vtx>Rgn", {.tolerance = 0.05});
  const std::size_t boundary_after = parma::boundaryCopies(*pm, 0);
  // Careful element selection must not blow the boundary up (paper: the
  // total number of boundary entities is *reduced*).
  EXPECT_LE(boundary_after, boundary_before * 11 / 10);
}

TEST(Improve, TwoDimensionalMesh) {
  auto gen = meshgen::boxTris(16, 16);
  const auto g = part::buildElemGraph(*gen.mesh);
  auto assign = part::partitionGraph(g, 6, part::Method::GraphRB);
  // Spike part 0.
  std::size_t steal = 30;
  for (std::size_t i = 0; i < assign.size() && steal > 0; ++i)
    if (assign[i] == 1) {
      assign[i] = 0;
      --steal;
    }
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(6, pcu::Machine::flat(6)));
  const auto report = parma::improve(*pm, "Face", {.tolerance = 0.05});
  pm->verify();
  EXPECT_LE(report.levels[0].final_imbalance,
            report.levels[0].initial_imbalance);
  EXPECT_LE(report.levels[0].final_imbalance, 1.08);
}

TEST(HeavySplit, SplitsMegapartIntoEmptyParts) {
  auto gen = meshgen::boxTets(6, 6, 6);
  // Pathological: part 0 has ~half the mesh; parts 1-3 empty; 4-7 normal.
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 3 ? 0 : base[i];  // merge parts 0-3 into a megapart
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 2.0);
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  pm->verify();
  // No merging needed (empties pre-exist); the megapart must be split.
  EXPECT_GT(report.parts_split, 0);
  EXPECT_LT(report.final_imbalance, before * 0.6);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(HeavySplit, MergesLightNeighborsThenSplits) {
  auto gen = meshgen::boxTets(8, 4, 4);
  // X-striped parts 0..7; drain parts 2 and 3 into part 1: part 1 becomes
  // a ~2.6x spike while 2 and 3 are light neighbours of each other.
  std::vector<std::pair<double, std::size_t>> order;
  std::size_t idx = 0;
  for (Ent e : gen.mesh->entities(3))
    order.emplace_back(core::centroid(*gen.mesh, e).x, idx++);
  std::sort(order.begin(), order.end());
  std::vector<PartId> dest(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    dest[order[k].second] = static_cast<PartId>(k * 8 / order.size());
  common::Rng rng(5);
  for (std::size_t i = 0; i < dest.size(); ++i)
    if ((dest[i] == 2 || dest[i] == 3) && rng.uniform() < 0.8) dest[i] = 1;
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const double before = parma::entityBalance(*pm, 3).imbalance;
  ASSERT_GT(before, 1.8);
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  pm->verify();
  EXPECT_GT(report.merges, 0);
  EXPECT_GT(report.parts_emptied, 0);
  EXPECT_GT(report.parts_split, 0);
  EXPECT_LT(report.final_imbalance, before * 0.7);
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

TEST(HeavySplit, FollowedByDiffusionReachesTolerance) {
  auto gen = meshgen::boxTets(6, 6, 6);
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 2 ? 0 : base[i];
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  const auto report = parma::improve(*pm, "Rgn", {.tolerance = 0.08});
  pm->verify();
  EXPECT_LE(report.levels[0].final_imbalance, 1.12);
}

TEST(Improve, WeightedElementBalancing) {
  // Element counts are perfectly balanced, but weights (e.g. predicted
  // post-adaptation counts) are skewed: weighted diffusion must move
  // elements until the weighted balance meets tolerance.
  auto gen = meshgen::boxTets(6, 6, 6);
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto assign = part::partitionGraph(g, 8, part::Method::RCB);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(8, pcu::Machine::flat(8)));
  // Weight: elements near x=0 are 4x heavier.
  for (PartId p = 0; p < 8; ++p) {
    auto& m = pm->part(p).mesh();
    auto* w = m.tags().create<double>("load");
    for (Ent e : pm->part(p).elements())
      m.tags().setScalar<double>(
          w, e, core::centroid(m, e).x < 0.25 ? 4.0 : 1.0);
  }
  const double count_before = parma::entityBalance(*pm, 3).imbalance;
  const double weighted_before =
      parma::weightedElementBalance(*pm, "load").imbalance;
  ASSERT_LE(count_before, 1.05);     // counts balanced
  ASSERT_GE(weighted_before, 1.35);  // weights are not
  parma::ImproveOptions opts{.tolerance = 0.08, .max_iterations = 60};
  opts.element_weight_tag = "load";
  const auto report = parma::improve(*pm, "Rgn", opts);
  pm->verify();
  const double weighted_after =
      parma::weightedElementBalance(*pm, "load").imbalance;
  EXPECT_LT(weighted_after, weighted_before - 0.15);
  EXPECT_LE(weighted_after, 1.25);
  EXPECT_GT(report.totalMigrated(), 0u);
}

TEST(HeavySplit, NoOpOnBalancedPartition) {
  auto gen = meshgen::boxTets(4, 4, 4);
  const auto assign = part::partition(*gen.mesh, 4, part::Method::GraphRB);
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), assign,
                                         dist::PartMap(4, pcu::Machine::flat(4)));
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.10});
  EXPECT_EQ(report.merges, 0);
  EXPECT_EQ(report.parts_split, 0);
  pm->verify();
}

TEST(HeavySplit, LegacyPathNeverChangesPartCount) {
  // Regression for the injectable split-target option (elastic scale-out):
  // the historical no-target call must still merge-then-split with the
  // part count untouched, whatever the skew.
  auto gen = meshgen::boxTets(6, 6, 6);
  std::vector<PartId> dest(gen.mesh->count(3));
  const auto g = part::buildElemGraph(*gen.mesh);
  const auto base = part::partitionGraph(g, 8, part::Method::RCB);
  for (std::size_t i = 0; i < dest.size(); ++i)
    dest[i] = base[i] <= 2 ? 0 : base[i];
  auto pm = dist::PartedMesh::distribute(*gen.mesh, gen.model.get(), dest,
                                         dist::PartMap(8, pcu::Machine::flat(8)));
  const int nparts = pm->parts();
  const auto report = parma::heavyPartSplit(*pm, {.tolerance = 0.05});
  EXPECT_EQ(pm->parts(), nparts)
      << "legacy heavyPartSplit must keep the part count invariant";
  EXPECT_GT(report.parts_split, 0);
  pm->verify();
  for (int d = 0; d <= 3; ++d)
    EXPECT_EQ(pm->globalCount(d), gen.mesh->count(d));
}

/// --- balance rounds are transactions ------------------------------------------

/// The mesh of the round tests: part 0 holds half again its share, so the
/// first round diffuses through several migrations.
std::unique_ptr<dist::PartedMesh> roundCase(const meshgen::Generated& gen) {
  return imbalancedPartition(gen, 4, 0.5);
}

/// Migrations `fn` starts (the "dist:migrate" scopes it enters).
int migrationsIn(const std::function<void()>& fn) {
  pcu::trace::clear();
  pcu::trace::setEnabled(true);
  try {
    fn();
  } catch (...) {
    pcu::trace::setEnabled(false);
    pcu::trace::clear();
    throw;
  }
  pcu::trace::setEnabled(false);
  int n = 0;
  for (const auto& t : pcu::trace::snapshot().threads)
    for (const auto& ev : t.events)
      if (ev.kind == pcu::trace::Kind::kBegin &&
          std::strcmp(ev.name, "dist:migrate") == 0)
        ++n;
  pcu::trace::clear();
  return n;
}

/// Installs a fault plan for one scope.
struct PlanGuard {
  explicit PlanGuard(const pcu::faults::FaultPlan& p) { pcu::faults::setPlan(p); }
  ~PlanGuard() { pcu::faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

constexpr int kVictimRank = 1;

/// One single-round balance of a fresh roundCase() with rank kVictimRank
/// killed at Network phase `phase`. `before(pm)` runs first. Returns how
/// many migrations had started when the round died, or nullopt when the
/// round finished before that phase.
std::optional<int> killedRound(
    const meshgen::Generated& gen, int phase,
    const std::function<void(dist::PartedMesh&)>& before,
    const std::function<void(dist::PartedMesh&)>& after) {
  auto pm = roundCase(gen);
  before(*pm);
  pcu::faults::FaultPlan plan;
  plan.seed = 3;
  plan.kill = {kVictimRank, phase};
  PlanGuard guard(plan);
  parma::BalanceOptions opts;
  opts.max_rounds = 1;
  bool died = false;
  const int started = migrationsIn([&] {
    try {
      parma::balance(*pm, "Rgn", opts);
    } catch (const pcu::Error& e) {
      EXPECT_EQ(e.code(), pcu::ErrorCode::kRankFailed) << e.what();
      died = true;
    }
  });
  if (!died) return std::nullopt;
  after(*pm);
  return started;
}

/// The first phase at which a kill lands in the round's second migration.
int phaseOfSecondMigration(const meshgen::Generated& gen) {
  const auto nothing = [](dist::PartedMesh&) {};
  for (int phase = 0; phase < 200; ++phase) {
    const auto started = killedRound(gen, phase, nothing, nothing);
    if (!started) break;
    if (*started == 2) return phase;
  }
  return -1;
}

TEST(BalanceRound, CleanFirstRoundMigratesMoreThanOnce) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = roundCase(gen);
  parma::BalanceOptions opts;
  opts.max_rounds = 1;
  EXPECT_GE(migrationsIn([&] { parma::balance(*pm, "Rgn", opts); }), 2);
}

TEST(BalanceRound, FaultInSecondMigrationRestoresRoundStartFingerprint) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const int phase = phaseOfSecondMigration(gen);
  ASSERT_GE(phase, 0) << "no kill lands in the round's second migration";
  std::uint64_t round_start = 0;
  const auto started = killedRound(
      gen, phase,
      [&](dist::PartedMesh& pm) { round_start = pm.fingerprint(); },
      [&](dist::PartedMesh& pm) {
        // The first migration committed nothing: the whole round is gone.
        EXPECT_EQ(pm.fingerprint(), round_start);
      });
  ASSERT_TRUE(started.has_value());
  EXPECT_EQ(*started, 2);
}

TEST(BalanceRound, EvacuationAfterADeathMidRoundLandsOnTheJournalState) {
  auto gen = meshgen::boxTets(3, 3, 3);
  const int phase = phaseOfSecondMigration(gen);
  ASSERT_GE(phase, 0);
  dist::failover::BuddyJournal journal;
  std::uint64_t sealed = 0;
  std::uint64_t journal_bytes = 0;
  const auto started = killedRound(
      gen, phase,
      [&](dist::PartedMesh& pm) {
        // The last commit point before the round: seal, which refreshes
        // the journal replica.
        pm.setIntegrity(true);
        pm.armor().setJournal(&journal);
        pm.armor().sealAndMaybeInject();
        sealed = pm.fingerprint();
        journal_bytes = journal.bytesStreamed();
      },
      [&](dist::PartedMesh& pm) {
        // No commit point inside the round: the replica is still the
        // round-start state, and so are the rolled-back survivors.
        EXPECT_EQ(journal.bytesStreamed(), journal_bytes);
        pcu::faults::clearPlan();
        const auto evac = dist::failover::evacuate(pm, journal);
        EXPECT_EQ(evac.ranks_lost, std::vector<int>{kVictimRank});
        EXPECT_NO_THROW(pm.verify());
        EXPECT_EQ(pm.fingerprint(), sealed);
        const auto rep = parma::balanceAfterEvacuation(pm, "Rgn", evac);
        EXPECT_EQ(rep.rounds_faulted, 0) << rep.last_error;
        EXPECT_NO_THROW(pm.verify());
      });
  ASSERT_TRUE(started.has_value());
  EXPECT_EQ(*started, 2);
}

TEST(BalanceRound, NestedMigrateNeitherAuditsNorSeals) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = roundCase(gen);
  pm->setTransactional(true);
  pm->setIntegrity(true);
  auto& armor = pm->armor();
  armor.sealAndMaybeInject();
  auto moveOne = [&](PartId from, PartId to) {
    dist::MigrationPlan plan(static_cast<std::size_t>(pm->parts()));
    plan[static_cast<std::size_t>(from)][pm->part(from).elements().front()] = to;
    pm->migrate(plan);
  };
  // Outside a transaction a migration is its own commit point.
  auto r0 = armor.report();
  moveOne(0, 1);
  auto r1 = armor.report();
  EXPECT_EQ(r1.audits, r0.audits + 1);
  EXPECT_EQ(r1.seals, r0.seals + 1);
  // Inside one, migrations join it: one audit and one seal in all.
  const std::uint64_t boundary = armor.boundaryIndex();
  pm->transaction("test:two-moves", [&] {
    const auto entered = armor.report();
    EXPECT_EQ(entered.audits, r1.audits + 1);
    moveOne(0, 2);
    moveOne(0, 3);
    const auto inner = armor.report();
    EXPECT_EQ(inner.audits, entered.audits);
    EXPECT_EQ(inner.seals, entered.seals);
  });
  const auto r2 = armor.report();
  EXPECT_EQ(r2.audits, r1.audits + 1);
  EXPECT_EQ(r2.seals, r1.seals + 1);
  EXPECT_EQ(armor.boundaryIndex(), boundary + 1);
  // A throw inside rolls the whole transaction back, moves included.
  const std::uint64_t fp = pm->fingerprint();
  EXPECT_THROW(pm->transaction("test:abort",
                               [&] {
                                 moveOne(1, 0);
                                 throw pcu::Error(pcu::ErrorCode::kProtocol,
                                                  -1, "test abort");
                               }),
               pcu::Error);
  EXPECT_EQ(pm->fingerprint(), fp);
  EXPECT_EQ(armor.report().seals, r2.seals);
  EXPECT_NO_THROW(pm->verify());
  // The aborted transaction is closed: the next migration commits alone.
  moveOne(1, 0);
  EXPECT_EQ(armor.report().seals, r2.seals + 1);
}

TEST(BalanceRound, BoundaryIndexAdvancesOncePerCompletedRound) {
  // 384 elements on 5 parts never balance exactly: every round runs.
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = imbalancedPartition(gen, 5, 0.5);
  pm->setTransactional(true);
  pm->setIntegrity(true);
  auto& armor = pm->armor();
  armor.sealAndMaybeInject();
  parma::BalanceOptions opts;
  opts.max_rounds = 3;
  opts.tolerance = 0.0;
  const std::uint64_t before = armor.boundaryIndex();
  parma::BalanceReport rep;
  const int migrations =
      migrationsIn([&] { rep = parma::balance(*pm, "Rgn", opts); });
  ASSERT_GE(rep.rounds, 2);
  EXPECT_GT(migrations, rep.rounds) << "some round must migrate twice";
  EXPECT_EQ(rep.rounds_faulted, 0) << rep.last_error;
  EXPECT_EQ(armor.boundaryIndex() - before,
            static_cast<std::uint64_t>(rep.rounds - rep.rounds_faulted));
}

}  // namespace
