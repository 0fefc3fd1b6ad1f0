/// \file test_recovery.cpp
/// \brief Tests for the three-tier recovery stack.
///
/// Contract under test (ISSUE: self-healing messaging): with reliable
/// delivery on, any *transient* fault plan (drop/corrupt/dup/delay at
/// p <= 5%) must be invisible — dist::Network phases deliver every payload
/// intact and dist operations commit verify()-clean, across many seeds,
/// with zero aborts. *Permanent* plans must exhaust the bounded retry budget and
/// surface the existing structured pcu::Error, never hang. And a
/// checkpointed mesh killed mid-run must restore fingerprint()-identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/network.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/arq.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"

namespace {

using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;
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

faults::FaultPlan transientPlan(std::uint64_t seed, double p) {
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.corrupt = plan.drop = plan.duplicate = plan.delay = p;
  return plan;
}

/// --- tiers 1+2 over dist: the chaos matrix --------------------------------

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

enum class FaultKind { kDrop, kCorrupt, kDuplicate, kDelay };

struct MatrixCase {
  FaultKind kind;
  bool coalesce;
  bool three_d;
};

class RecoveryMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RecoveryMatrix, TransientFaultsAreInvisibleToDistOps) {
  const auto [kind, coalesce, three_d] = GetParam();
  auto gen = three_d ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
  const int nparts = 4;
  auto pm = makeMesh(gen, nparts);
  pm->network().setCoalescing(coalesce);
  const int dim = pm->dim();
  std::vector<std::size_t> counts(static_cast<std::size_t>(dim) + 1);
  for (int d = 0; d <= dim; ++d)
    counts[static_cast<std::size_t>(d)] = pm->globalCount(d);

  faults::FaultPlan p;
  p.seed = 41 + static_cast<std::uint64_t>(static_cast<int>(kind));
  switch (kind) {
    case FaultKind::kDrop: p.drop = 0.05; break;
    case FaultKind::kCorrupt: p.corrupt = 0.05; break;
    case FaultKind::kDuplicate: p.duplicate = 0.05; break;
    case FaultKind::kDelay: p.delay = 0.05; break;
  }
  ReliableGuard rel;
  PlanGuard g(p);
  common::Rng rng(p.seed);

  // Every operation must COMMIT: under a transient plan with reliability
  // on, aborting (the PR-2 behaviour) is a test failure.
  for (int round = 0; round < 3; ++round) {
    ASSERT_NO_THROW(pm->migrate(randomPlan(*pm, rng, 0.15)))
        << "round " << round;
    ASSERT_NO_THROW(pm->ghostLayers(1)) << "round " << round;
    ASSERT_NO_THROW(pm->syncGhostTags()) << "round " << round;
    ASSERT_NO_THROW(pm->unghost()) << "round " << round;
    ASSERT_NO_THROW(pm->verify()) << "round " << round;
    for (int d = 0; d <= dim; ++d)
      ASSERT_EQ(pm->globalCount(d), counts[static_cast<std::size_t>(d)])
          << "round " << round << " dim " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryMatrix, ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      for (FaultKind k : {FaultKind::kDrop, FaultKind::kCorrupt,
                          FaultKind::kDuplicate, FaultKind::kDelay})
        for (bool coalesce : {true, false})
          for (bool three_d : {false, true})
            cases.push_back({k, coalesce, three_d});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      const char* kind = "";
      switch (info.param.kind) {
        case FaultKind::kDrop: kind = "drop"; break;
        case FaultKind::kCorrupt: kind = "corrupt"; break;
        case FaultKind::kDuplicate: kind = "dup"; break;
        case FaultKind::kDelay: kind = "delay"; break;
      }
      return std::string(kind) +
             (info.param.coalesce ? "_coalesced" : "_uncoalesced") +
             (info.param.three_d ? "_tets" : "_tris");
    });

/// --- tier 1 over a bare transport -----------------------------------------

/// One phase on a bare 4-part transport: every ordered pair of distinct
/// parts is a channel carrying three uncoalesced payloads (one framed
/// message each). Returns, per destination, the delivered payloads as
/// "from.i" tokens in handler order.
std::vector<std::string> driveNetworkPhase(dist::Network& net) {
  constexpr int kParts = 4;
  for (PartId from = 0; from < kParts; ++from)
    for (PartId to = 0; to < kParts; ++to)
      for (int i = 0; i < 3 && to != from; ++i) {
        pcu::OutBuffer b;
        b.pack<int>(static_cast<int>(from));
        b.pack<int>(i);
        net.send(from, to, std::move(b));
      }
  std::vector<std::string> got(kParts);
  net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    const int sender = body.unpack<int>();
    const int i = body.unpack<int>();
    EXPECT_EQ(sender, static_cast<int>(from));
    auto& s = got[static_cast<std::size_t>(to)];
    if (!s.empty()) s += ' ';
    s += std::to_string(sender) + "." + std::to_string(i);
  });
  return got;
}

std::unique_ptr<dist::Network> makeBareNetwork() {
  auto net =
      std::make_unique<dist::Network>(dist::PartMap(4, pcu::Machine::flat(4)));
  net->setCoalescing(false);
  return net;
}

TEST(NetReliable, TransientPlanDeliversEachPayloadOnceInSenderOrder) {
  // A mixed plan totalling p = 0.3: every payload still arrives exactly
  // once, each destination in (sender, seq) order, and the recovery
  // counters match the deterministic decision stream exactly.
  auto net = makeBareNetwork();
  ReliableGuard rel;
  faults::FaultPlan p;
  p.seed = 5;
  p.corrupt = p.drop = p.duplicate = p.delay = 0.075;
  PlanGuard g(p);
  for (int phase = 0; phase < 2; ++phase) {
    const auto got = driveNetworkPhase(*net);
    EXPECT_EQ(got[0], "1.0 1.1 1.2 2.0 2.1 2.2 3.0 3.1 3.2") << phase;
    EXPECT_EQ(got[1], "0.0 0.1 0.2 2.0 2.1 2.2 3.0 3.1 3.2") << phase;
    EXPECT_EQ(got[2], "0.0 0.1 0.2 1.0 1.1 1.2 3.0 3.1 3.2") << phase;
    EXPECT_EQ(got[3], "0.0 0.1 0.2 1.0 1.1 1.2 2.0 2.1 2.2") << phase;
  }
  const auto st = arq::stats();
  EXPECT_EQ(st.retransmits, 11u);
  EXPECT_EQ(st.recovered, 9u);
  EXPECT_EQ(st.duplicates_dropped, 6u);
  EXPECT_EQ(st.corrupt_dropped, 3u);
  EXPECT_EQ(st.acked, 24u);
}

TEST(NetReliable, CertainDropExhaustsTheBudgetOnTheFirstChannel) {
  auto net = makeBareNetwork();
  ReliableGuard rel;
  faults::FaultPlan p;
  p.seed = 5;
  p.drop = 1.0;
  PlanGuard g(p);
  try {
    driveNetworkPhase(*net);
    FAIL() << "phase with every transmission dropped delivered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMessageLost) << e.what();
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
    EXPECT_EQ(e.detail(),
              "retransmission budget exhausted after 16 attempts (channel "
              "seq 0)");
  }
  const auto st = arq::stats();
  EXPECT_EQ(st.retransmits, 16u);
  EXPECT_EQ(st.recovered, 0u);
}

TEST(NetReliable, CertainCorruptionExhaustsTheBudgetOnTheFirstChannel) {
  // Every frame and every retransmission is corrupted: the destination's
  // whole batch is discarded as corrupt, and the first channel's first
  // re-fetch exhausts the budget with the same structured error as loss.
  auto net = makeBareNetwork();
  ReliableGuard rel;
  faults::FaultPlan p;
  p.seed = 5;
  p.corrupt = 1.0;
  PlanGuard g(p);
  try {
    driveNetworkPhase(*net);
    FAIL() << "phase with every transmission corrupted delivered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMessageLost) << e.what();
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
    EXPECT_EQ(e.detail(),
              "retransmission budget exhausted after 16 attempts (channel "
              "seq 0)");
  }
  const auto st = arq::stats();
  EXPECT_EQ(st.corrupt_dropped, 9u);
  EXPECT_EQ(st.retransmits, 16u);
  EXPECT_EQ(st.recovered, 0u);
}

TEST(DistReliable, TwentySeedsMixedChaosZeroAborts) {
  // The headline acceptance criterion: >= 20 seeds of the full mixed plan
  // at p = 2%, reliability on — migrate/ghostLayers/syncGhostTags all
  // verify()-clean with zero aborts.
  //
  // Each seed's recovery work is deterministic, so its counters are pinned:
  // {retransmits, recovered, duplicates dropped, corrupt dropped, acked,
  // operations retried}.
  struct Pinned {
    std::uint64_t retransmits, recovered, duplicates, corrupt, acked, ops;
  };
  const Pinned pinned[20] = {
      {2, 2, 2, 0, 144, 0}, {11, 11, 3, 4, 253, 0},
      {6, 6, 4, 1, 159, 0}, {7, 7, 4, 4, 211, 0},
      {3, 3, 3, 1, 152, 0}, {7, 7, 4, 2, 249, 0},
      {4, 4, 2, 0, 140, 0}, {9, 8, 2, 5, 263, 0},
      {10, 7, 0, 5, 118, 0}, {7, 7, 3, 5, 247, 0},
      {5, 5, 3, 4, 161, 0}, {12, 12, 6, 7, 241, 0},
      {8, 7, 1, 4, 159, 0}, {13, 10, 2, 4, 230, 0},
      {6, 5, 0, 2, 156, 0}, {9, 9, 3, 7, 255, 0},
      {4, 4, 5, 3, 176, 0}, {10, 10, 2, 6, 243, 0},
      {4, 4, 2, 2, 135, 0}, {11, 10, 4, 5, 264, 0},
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto gen =
        (seed % 2 == 0) ? meshgen::boxTets(3, 3, 3) : meshgen::boxTris(5, 5);
    auto pm = makeMesh(gen, 4);
    ReliableGuard rel;
    PlanGuard g(transientPlan(seed, 0.02));
    common::Rng rng(seed * 7);
    ASSERT_NO_THROW({
      pm->migrate(randomPlan(*pm, rng, 0.2));
      pm->ghostLayers(1);
      pm->syncGhostTags();
      pm->unghost();
      pm->migrate(randomPlan(*pm, rng, 0.2));
      pm->verify();
    }) << "seed "
       << seed;
    const auto st = arq::stats();
    const Pinned& want = pinned[seed - 1];
    EXPECT_EQ(st.retransmits, want.retransmits) << "seed " << seed;
    EXPECT_EQ(st.recovered, want.recovered) << "seed " << seed;
    EXPECT_EQ(st.duplicates_dropped, want.duplicates) << "seed " << seed;
    EXPECT_EQ(st.corrupt_dropped, want.corrupt) << "seed " << seed;
    EXPECT_EQ(st.acked, want.acked) << "seed " << seed;
    EXPECT_EQ(pm->opsRetried(), want.ops) << "seed " << seed;
  }
}

TEST(DistReliable, PermanentLossStillAbortsWithExactRollback) {
  // Reliability must not turn a permanent failure into a hang or a lie:
  // drop=1.0 exhausts the segment retransmission budget, tier 2 replays
  // the operation op_retries times (each replay failing the same way), and
  // the final error is the structured kMessageLost with the budget named —
  // with the mesh rolled back bit-exactly.
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(17);
  const auto plan = randomPlan(*pm, rng, 0.3);
  const std::uint64_t before = pm->fingerprint();

  ReliableGuard rel;
  faults::FaultPlan p;
  p.seed = 2;
  p.drop = 1.0;
  PlanGuard g(p);
  try {
    pm->migrate(plan);
    FAIL() << "migration with all messages and retransmissions dropped "
              "committed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMessageLost) << e.what();
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
    EXPECT_NE(e.detail().find("budget"), std::string::npos) << e.what();
  }
  EXPECT_EQ(pm->fingerprint(), before);
  EXPECT_NO_THROW(pm->verify());
}

TEST(DistReliable, OperationRetryReplaysUnderFreshFaultEpoch) {
  // Tier 2 alone (no ARQ): with a drop rate high enough that most attempts
  // abort, the retry loop must eventually land an attempt whose (epoch-
  // salted) fault stream lets the operation through — and count the
  // replays.
  // Note the rate: tier 2 replays the WHOLE operation, so it only wins
  // when a full clean replay is likely (here ~0.98^segments per attempt).
  // Higher rates are what tier 1's per-segment retransmission is for.
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 4);
  pm->setOpRetries(100);
  common::Rng rng(13);

  faults::FaultPlan p;
  p.seed = 3;
  p.drop = 0.02;
  PlanGuard g(p);
  for (int round = 0; round < 4; ++round)
    ASSERT_NO_THROW(pm->migrate(randomPlan(*pm, rng, 0.2)))
        << "round " << round << " after " << pm->opsRetried() << " replays";
  EXPECT_NO_THROW(pm->verify());
  // At least one attempt must have aborted and been replayed under a fresh
  // fault epoch (deterministic for this seed).
  EXPECT_GT(pm->opsRetried(), 0u);
}

TEST(DistReliable, ValidationErrorsAreNeverRetried) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  pm->setOpRetries(10);
  pm->setTransactional(true);
  const auto replays_before = pm->opsRetried();
  dist::MigrationPlan bad(static_cast<std::size_t>(pm->parts()));
  bad[0][pm->part(0).elements().front()] = 99;  // out-of-range destination
  EXPECT_THROW(pm->migrate(bad), Error);
  EXPECT_EQ(pm->opsRetried(), replays_before)
      << "a kValidation rejection must not burn retry budget";
}

TEST(DistReliable, BalanceCompletesUnderTransientFaults) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 5);
  const auto n3 = pm->globalCount(3);

  ReliableGuard rel;
  PlanGuard g(transientPlan(6, 0.02));
  parma::BalanceOptions opts;
  opts.max_rounds = 3;
  const auto report = parma::balance(*pm, "Rgn", opts);
  EXPECT_EQ(report.rounds_faulted, 0)
      << "transient faults with reliability on must not cost a round: "
      << report.last_error;
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(pm->globalCount(3), n3);
}

TEST(DistReliable, BalanceRetriesRoundsWithoutArq) {
  // Tier 2 at the balancer: with no ARQ and a lossy plan, faulted rounds
  // are re-planned in place and only count as faulted once retries are
  // also lost. rounds_retried surfaces how hard the balancer worked.
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 5);
  const auto n3 = pm->globalCount(3);

  faults::FaultPlan p;
  p.seed = 21;
  p.drop = 0.05;
  PlanGuard g(p);
  parma::BalanceOptions opts;
  opts.max_rounds = 3;
  opts.round_retries = 4;
  const auto report = parma::balance(*pm, "Rgn", opts);
  EXPECT_GE(report.rounds_retried, 0);
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(pm->globalCount(3), n3);
}

/// --- tier 3: checkpoint / restore ----------------------------------------

std::string freshDir(const std::string& leaf) {
  namespace fs = std::filesystem;
  const fs::path d = fs::temp_directory_path() / "pumi_test_recovery" / leaf;
  fs::remove_all(d);
  return d.string();
}

TEST(Checkpoint, RoundTripIsFingerprintIdentical) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(5);
  pm->migrate(randomPlan(*pm, rng, 0.25));
  pm->ghostLayers(1);  // ghosts and their records must round-trip too
  const std::uint64_t fp = pm->fingerprint();
  const int dim = pm->dim();

  const auto dir = freshDir("roundtrip");
  dist::pario::checkpointImage(*pm, dir);
  EXPECT_TRUE(dist::pario::valid(dir));

  auto restored = dist::pario::restoreImage(
      dir, gen.model.get(), dist::PartMap(pm->parts(), pcu::Machine::flat(4)));
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_EQ(restored->dim(), dim);
  EXPECT_NO_THROW(restored->verify());
  for (int d = 0; d <= dim; ++d)
    EXPECT_EQ(restored->globalCount(d), pm->globalCount(d)) << "dim " << d;

  // The restored mesh is fully operational, not just structurally equal.
  restored->unghost();
  common::Rng rng2(6);
  EXPECT_NO_THROW(restored->migrate(randomPlan(*restored, rng2, 0.2)));
  EXPECT_NO_THROW(restored->verify());
}

TEST(Checkpoint, TwoDimensionalMeshRoundTrips) {
  auto gen = meshgen::boxTris(6, 6);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(8);
  pm->migrate(randomPlan(*pm, rng, 0.2));
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("roundtrip2d");
  dist::pario::checkpointImage(*pm, dir);
  auto restored = dist::pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_NO_THROW(restored->verify());
}

/// Flip one byte inside the chunk payload at `offset` of the image file.
void flipImageByte(const std::string& image_path, std::uint64_t offset) {
  std::fstream f(image_path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << image_path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(Checkpoint, ReadRepairsSingleCorruptedCopy) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const std::uint64_t fp = pm->fingerprint();
  const auto dir = freshDir("corrupt1");
  dist::pario::checkpointImage(*pm, dir);
  ASSERT_TRUE(dist::pario::valid(dir));

  // Flip one byte in the middle of part 0's primary mesh chunk: the buddy
  // replica is intact, so the checkpoint still validates and restore
  // silently repairs the damage.
  const auto idx = dist::pario::loadIndex(dir);
  const auto& slot = idx.parts[0].mesh;
  flipImageByte(dir + "/" + idx.image,
                slot.primary + dist::pario::kChunkHeaderBytes +
                    slot.length / 2);
  EXPECT_TRUE(dist::pario::valid(dir));

  dist::pario::RestoreReport report;
  auto restored = dist::pario::restoreImage(
      dir, gen.model.get(), dist::pario::OnLoss::kFail, &report);
  EXPECT_EQ(restored->fingerprint(), fp);
  EXPECT_EQ(report.chunks_repaired, 1u);
  EXPECT_TRUE(report.lost.empty());
  // The repair persisted: a scrub right after finds nothing left to fix.
  EXPECT_EQ(dist::pario::scrub(dir).chunks_repaired, 0u);
}

TEST(Checkpoint, DetectsCorruptedPartChunk) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("corrupt2");
  dist::pario::checkpointImage(*pm, dir);
  ASSERT_TRUE(dist::pario::valid(dir));

  // Flip a payload byte in BOTH copies of part 0's mesh chunk: the data is
  // unrecoverable, the checkpoint must not validate, and a full restore
  // must say which part is gone.
  const auto idx = dist::pario::loadIndex(dir);
  const auto& slot = idx.parts[0].mesh;
  const std::string image = dir + "/" + idx.image;
  flipImageByte(image,
                slot.primary + dist::pario::kChunkHeaderBytes +
                    slot.length / 2);
  flipImageByte(image,
                slot.replica + dist::pario::kChunkHeaderBytes +
                    slot.length / 2);

  EXPECT_FALSE(dist::pario::valid(dir));
  try {
    dist::pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a checkpoint with both copies corrupted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("lost part(s) 0"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, InterruptedCheckpointIsInvalid) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto dir = freshDir("interrupted");
  dist::pario::checkpointImage(*pm, dir);
  // A kill before the MANIFEST rename leaves the data files with no
  // manifest: the directory must not validate and restore must say why.
  std::filesystem::remove(std::filesystem::path(dir) / "MANIFEST");
  EXPECT_FALSE(dist::pario::valid(dir));
  try {
    dist::pario::restoreImage(dir, gen.model.get());
    FAIL() << "restore accepted a checkpoint with no MANIFEST";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("MANIFEST"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, KilledMidBalanceRestoresCommittedState) {
  // The acceptance scenario: checkpoint after a committed balancing round,
  // keep running, die; the restart restores the committed state exactly
  // and finishes the job.
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  // Skew so balancing has work.
  dist::MigrationPlan skew(static_cast<std::size_t>(pm->parts()));
  for (Ent e : pm->part(2).elements()) skew[2][e] = 1;
  pm->migrate(skew);

  parma::BalanceOptions opts;
  opts.max_rounds = 1;
  parma::balance(*pm, "Rgn", opts);
  const auto dir = freshDir("midbalance");
  dist::pario::checkpointImage(*pm, dir);
  const std::uint64_t committed = pm->fingerprint();

  parma::balance(*pm, "Rgn", opts);  // work the crash will destroy
  pm.reset();                        // the kill

  ASSERT_TRUE(dist::pario::valid(dir));
  auto restored = dist::pario::restoreImage(dir, gen.model.get());
  EXPECT_EQ(restored->fingerprint(), committed);
  EXPECT_NO_THROW(restored->verify());
  opts.max_rounds = 2;
  const auto report = parma::balance(*restored, "Rgn", opts);
  EXPECT_NO_THROW(restored->verify());
  EXPECT_GE(report.rounds, 1);
}

/// --- PUMI_RELIABLE spec parsing ------------------------------------------

TEST(ReliableSpec, ParsesFormsAndRejectsMalformed) {
  EXPECT_TRUE(arq::parseConfig("1").on);
  EXPECT_TRUE(arq::parseConfig("on").on);
  EXPECT_FALSE(arq::parseConfig("off").on);
  const auto cfg = arq::parseConfig("budget=8,opretries=2");
  EXPECT_TRUE(cfg.on);
  EXPECT_EQ(cfg.retry_budget, 8);
  EXPECT_EQ(cfg.op_retries, 2);
  for (const char* bad :
       {"maybe", "budget=", "budget=-3", "budget=8x", "rto_us=1e3",
        "unknown=1", "rto_us=500,maxrto_us=100"}) {
    try {
      arq::parseConfig(bad);
      FAIL() << "accepted malformed PUMI_RELIABLE spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
    }
  }
  // Keys of knobs that do not exist must be rejected with the token
  // named, never silently ignored.
  for (const std::string bad : {"rto_us=100", "maxrto_us=5000"}) {
    try {
      arq::parseConfig(bad);
      FAIL() << "accepted removed PUMI_RELIABLE key: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "error does not name \"" << bad << "\": " << e.what();
    }
  }
}

}  // namespace
