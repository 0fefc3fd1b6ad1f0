/// \file test_faults.cpp
/// \brief Chaos suite for the fault-injection subsystem and the hardened
/// distributed operations.
///
/// The contract under test (ISSUE: robustness): with any seeded fault
/// schedule active, every distributed operation either COMMITS — completes
/// with PartedMesh::verify() and the independent invariants passing — or
/// ABORTS collectively with a structured pcu::Error naming the failing
/// part/channel, leaving the mesh bit-identical (fingerprint-equal) to its
/// pre-operation state. No hangs, no silent corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/meshio.hpp"
#include "dist/network.hpp"
#include "dist/partedmesh.hpp"
#include "dist/partio.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"

namespace {

using core::Ent;
using dist::PartId;
using pcu::Error;
using pcu::ErrorCode;
namespace faults = pcu::faults;

/// Installs a plan for the scope of one test body; always clears on exit so
/// a failing assertion cannot leak fault state into later tests.
struct PlanGuard {
  explicit PlanGuard(const faults::FaultPlan& p) { faults::setPlan(p); }
  ~PlanGuard() { faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

/// --- plan parsing --------------------------------------------------------

TEST(FaultPlan, ParsesFullSpec) {
  const auto p = faults::parsePlan(
      "seed=42,corrupt=0.01,drop=0.02,dup=0.03,delay=0.04,checksum=1");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(p.drop, 0.02);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.03);
  EXPECT_DOUBLE_EQ(p.delay, 0.04);
  EXPECT_TRUE(p.checksum_only);
  EXPECT_TRUE(p.injects());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad : {"corrupt", "corrupt=x", "corrupt=1.5", "drop=-0.1",
                          "unknown=1", "stall=3", "seed="}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted malformed spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
    }
  }
  // Tokens of features that do not exist must be rejected with the token
  // named, never silently ignored: a spec using them would not mean what
  // it reads.
  for (const std::string bad : {"stall=2:5", "stallms=7", "watchdog=250"}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted removed token: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "error does not name \"" << bad << "\": " << e.what();
    }
  }
}

TEST(FaultPlan, RejectsPartialAndOutOfRangeTokens) {
  // Strict parsing: every value must consume its whole token. The old
  // stod/stoull-based parser silently accepted all of these.
  for (const char* bad :
       {"drop=0.5xyz", "seed=-1", "seed=+1", "stallms=-5", "checksum=yes",
        "watchdog=10ms", "corrupt=inf", "corrupt=nan", "drop= 0.5",
        "stall=1:2:3", "stall=-1:4"}) {
    try {
      faults::parsePlan(bad);
      FAIL() << "accepted malformed spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kValidation) << bad;
      // The error must name the offending token so the user can fix it.
      const std::string what = e.what();
      const std::string spec(bad);
      const std::string val = spec.substr(spec.find('=') + 1);
      if (!val.empty() && spec.find(':') == std::string::npos) {
        EXPECT_NE(what.find(val), std::string::npos)
            << "error for \"" << bad << "\" does not name the bad token: "
            << what;
      }
    }
  }
}

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  EXPECT_FALSE(faults::FaultPlan{}.injects());
  if (std::getenv("PUMI_FAULTS") != nullptr) {
    GTEST_SKIP() << "PUMI_FAULTS is set in the environment; the latched "
                    "plan makes the disabled-state checks meaningless here";
  }
  EXPECT_FALSE(faults::enabled());
  EXPECT_FALSE(faults::framingEnabled());
}

/// --- determinism ---------------------------------------------------------

TEST(FaultDecide, PureFunctionOfSeedAndChannel) {
  faults::FaultPlan p;
  p.seed = 7;
  p.corrupt = p.drop = p.duplicate = p.delay = 0.1;
  std::vector<faults::Action> first;
  {
    PlanGuard g(p);
    for (std::uint64_t s = 0; s < 512; ++s)
      first.push_back(faults::decide(1, 2, 5, s));
  }
  {
    PlanGuard g(p);  // same seed: identical decision stream
    for (std::uint64_t s = 0; s < 512; ++s)
      EXPECT_EQ(faults::decide(1, 2, 5, s), first[s]) << "seq " << s;
  }
  p.seed = 8;
  {
    PlanGuard g(p);  // different seed: the stream must differ somewhere
    bool differs = false;
    for (std::uint64_t s = 0; s < 512; ++s)
      differs = differs || faults::decide(1, 2, 5, s) != first[s];
    EXPECT_TRUE(differs);
  }
  // Distinct channels get decorrelated streams under one seed.
  p.seed = 7;
  {
    PlanGuard g(p);
    bool differs = false;
    for (std::uint64_t s = 0; s < 512; ++s)
      differs = differs || faults::decide(2, 1, 5, s) != first[s];
    EXPECT_TRUE(differs);
  }
}

/// --- framing -------------------------------------------------------------

TEST(Framing, RoundTripPreservesPayload) {
  std::vector<std::byte> payload;
  for (int i = 0; i < 300; ++i) payload.push_back(std::byte(i * 7));
  auto framed = faults::frame(42, payload);
  EXPECT_EQ(framed.size(), payload.size() + faults::kFrameHeaderBytes);
  std::uint64_t seq = 0;
  auto out = faults::unframe(std::move(framed), seq, 0, 1, 5);
  EXPECT_EQ(seq, 42u);
  EXPECT_EQ(out, payload);
}

TEST(Framing, DetectsCorruptionAnywhereInCheckedRegion) {
  std::vector<std::byte> payload(64, std::byte{0xAB});
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    auto framed = faults::frame(seq, payload);
    faults::corruptFrame(framed, 3, 4, 9, seq);
    std::uint64_t got = 0;
    try {
      faults::unframe(std::move(framed), got, 4, 3, 9);
      FAIL() << "corruption not detected at seq " << seq;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
      EXPECT_EQ(e.rank(), 4);
      EXPECT_EQ(e.peer(), 3);
      EXPECT_EQ(e.tag(), 9);
    }
  }
}

TEST(Framing, RejectsTruncatedFrame) {
  auto framed = faults::frame(1, std::vector<std::byte>(16, std::byte{1}));
  framed.resize(faults::kFrameHeaderBytes - 2);
  std::uint64_t seq = 0;
  EXPECT_THROW(faults::unframe(std::move(framed), seq, 0, 1, 2), Error);
}

TEST(Crc32, MatchesStandardKnownAnswers) {
  // IEEE 802.3 reflected CRC32 test vectors (the "check" value CBF43926
  // plus the classic string set). Pins the framing checksum against any
  // regression in table generation or bit order.
  const auto crcOf = [](const std::string& s) {
    return faults::crc32(reinterpret_cast<const std::byte*>(s.data()),
                         s.size());
  };
  EXPECT_EQ(crcOf(""), 0x00000000u);
  EXPECT_EQ(crcOf("a"), 0xE8B7BE43u);
  EXPECT_EQ(crcOf("abc"), 0x352441C2u);
  EXPECT_EQ(crcOf("message digest"), 0x20159D7Fu);
  EXPECT_EQ(crcOf("abcdefghijklmnopqrstuvwxyz"), 0x4C2750BDu);
  EXPECT_EQ(crcOf("123456789"), 0xCBF43926u);
  EXPECT_EQ(crcOf("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  const std::byte zero{0};
  EXPECT_EQ(faults::crc32(&zero, 1), 0xD202EF8Du);
  const std::byte ff{0xff};
  EXPECT_EQ(faults::crc32(&ff, 1), 0xFF000000u);
}

/// --- dist-level chaos ----------------------------------------------------

double globalMeasure(dist::PartedMesh& pm) {
  double v = 0.0;
  for (PartId p = 0; p < pm.parts(); ++p)
    for (Ent e : pm.part(p).elements())
      v += core::measure(pm.part(p).mesh(), e);
  return v;
}

// gtest names each case with the raw bytes of its parameter, so the struct
// must have no padding: padding bytes hold leftover stack contents and
// would make the printed test names differ from build to build. The flag
// is therefore a full word (0 = triangles, 1 = tetrahedra).
struct MeshCase {
  std::uint64_t three_d;
  std::uint64_t seed;
};
static_assert(sizeof(MeshCase) == 2 * sizeof(std::uint64_t));

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

class DistChaos : public ::testing::TestWithParam<MeshCase> {};

TEST_P(DistChaos, OpsCommitCleanOrAbortToExactPreState) {
  const auto [three_d, seed] = GetParam();
  auto gen = three_d ? meshgen::boxTets(4, 4, 4) : meshgen::boxTris(6, 6);
  const int nparts = three_d ? 5 : 4;
  auto pm = makeMesh(gen, nparts);
  const int dim = pm->dim();
  std::vector<std::size_t> counts(static_cast<std::size_t>(dim) + 1);
  for (int d = 0; d <= dim; ++d)
    counts[static_cast<std::size_t>(d)] = pm->globalCount(d);
  const double volume = globalMeasure(*pm);
  common::Rng rng(seed);

  faults::FaultPlan p;
  p.seed = seed;
  p.corrupt = 0.01;
  p.drop = 0.01;
  p.duplicate = 0.01;
  p.delay = 0.03;

  int commits = 0;
  int aborts = 0;
  for (int round = 0; round < 6; ++round) {
    // Each op is its own transaction: commit, or abort to the exact state
    // fingerprinted immediately before that op.
    auto attempt = [&](const std::function<void()>& op) {
      const std::uint64_t before = pm->fingerprint();
      try {
        op();
        ++commits;
      } catch (const Error& e) {
        EXPECT_NE(e.code(), ErrorCode::kNone);
        EXPECT_EQ(pm->fingerprint(), before)
            << "seed " << seed << " round " << round
            << ": aborted op left a different mesh: " << e.what();
        ++aborts;
      }
    };
    {
      PlanGuard g(p);
      if (round % 3 != 2) {
        const auto plan = randomPlan(*pm, rng, 0.15);
        attempt([&] { pm->migrate(plan); });
      } else {
        attempt([&] { pm->ghostLayers(1); });
        attempt([&] { pm->syncGhostTags(); });
      }
    }
    // Committed or rolled back, all invariants must hold, faults cleared.
    ASSERT_NO_THROW(pm->verify()) << "seed " << seed << " round " << round;
    bool any_ghosts = false;
    for (PartId q = 0; q < pm->parts(); ++q)
      any_ghosts = any_ghosts || pm->part(q).ghostCount() > 0;
    if (any_ghosts) pm->unghost();
    for (int d = 0; d <= dim; ++d)
      ASSERT_EQ(pm->globalCount(d), counts[static_cast<std::size_t>(d)])
          << "seed " << seed << " round " << round << " dim " << d;
    ASSERT_NEAR(globalMeasure(*pm), volume, 1e-9);
  }
  // The schedule must exercise at least one of the two outcomes; both
  // counters are reported for seed tuning.
  EXPECT_GT(commits + aborts, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DistChaos, ::testing::ValuesIn([] {
      std::vector<MeshCase> cases;
      for (std::uint64_t s = 1; s <= 11; ++s) {
        cases.push_back({0, s});
        cases.push_back({1, s});
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<MeshCase>& info) {
      return std::string(info.param.three_d ? "tets" : "tris") + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(DistChaos, CertainLossAbortsMigrationWithExactRollback) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(17);
  const auto plan = randomPlan(*pm, rng, 0.3);
  const std::uint64_t before = pm->fingerprint();

  faults::FaultPlan p;
  p.seed = 2;
  p.drop = 1.0;
  PlanGuard g(p);
  try {
    pm->migrate(plan);
    FAIL() << "migration with all messages dropped committed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMessageLost) << e.what();
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  }
  EXPECT_EQ(pm->fingerprint(), before);
  EXPECT_NO_THROW(pm->verify());
}

TEST(DistChaos, CertainCorruptionAbortsMigrationWithExactRollback) {
  // Migration traffic is coalesced into one segment per (from, to) pair;
  // corrupting every segment's frame must surface as a structured
  // kCorruptPayload on the transport channel and roll the mesh back to the
  // exact pre-migration state.
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(29);
  const auto plan = randomPlan(*pm, rng, 0.3);
  const std::uint64_t before = pm->fingerprint();

  faults::FaultPlan p;
  p.seed = 8;
  p.corrupt = 1.0;
  PlanGuard g(p);
  try {
    pm->migrate(plan);
    FAIL() << "migration with every coalesced segment corrupted committed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload) << e.what();
    EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  }
  EXPECT_EQ(pm->fingerprint(), before);
  EXPECT_NO_THROW(pm->verify());
}

TEST(DistChaos, BalanceSkipsFaultedRoundsAndKeepsMeshValid) {
  auto gen = meshgen::boxTets(4, 4, 4);
  auto pm = makeMesh(gen, 5);
  const auto n3 = pm->globalCount(3);

  faults::FaultPlan p;
  p.seed = 6;
  p.corrupt = 0.02;
  p.drop = 0.02;
  PlanGuard g(p);
  parma::BalanceOptions opts;
  opts.max_rounds = 4;
  const auto report = parma::balance(*pm, "Rgn", opts);
  // Faulted rounds are recorded and skipped; the mesh survives them all.
  if (report.rounds_faulted > 0) {
    EXPECT_NE(report.last_error.find("pcu::Error"), std::string::npos);
  }
  EXPECT_NO_THROW(pm->verify());
  EXPECT_EQ(pm->globalCount(3), n3);
}

/// Seeded rounds of migrate, ghost, sync and unghost, ending ghosted and
/// synced; returns every part's serialized mesh.
std::vector<std::vector<std::byte>> seededRoundsBytes(
    const meshgen::Generated& gen) {
  auto pm = makeMesh(gen, 4);
  common::Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    pm->migrate(randomPlan(*pm, rng, 0.2));
    pm->ghostLayers(1);
    pm->syncGhostTags();
    pm->unghost();
  }
  pm->ghostLayers(1);
  pm->syncGhostTags();
  std::vector<std::vector<std::byte>> bytes;
  for (PartId q = 0; q < pm->parts(); ++q)
    bytes.push_back(core::meshToBytes(pm->part(q).mesh()));
  return bytes;
}

TEST(DistChaos, ChecksumOnlyModeIsTransparentToMigration) {
  auto gen = meshgen::boxTris(6, 6);
  auto pm = makeMesh(gen, 4);
  common::Rng rng(23);
  const auto n2 = pm->globalCount(2);

  faults::FaultPlan p;
  p.checksum_only = true;
  {
    PlanGuard g(p);
    for (int round = 0; round < 3; ++round) {
      pm->migrate(randomPlan(*pm, rng, 0.2));
      pm->verify();
    }
    EXPECT_EQ(pm->globalCount(2), n2);
  }

  // Framing must change nothing a handler can observe: the same seeded
  // rounds leave every part byte-identical with and without it, which pins
  // that verification hands each destination its batch in box order.
  for (const bool three_d : {false, true}) {
    const auto mesh = three_d ? meshgen::boxTets(3, 3, 3)
                              : meshgen::boxTris(6, 6);
    const auto plain = seededRoundsBytes(mesh);
    std::vector<std::vector<std::byte>> framed;
    {
      PlanGuard g(p);
      framed = seededRoundsBytes(mesh);
    }
    ASSERT_EQ(framed.size(), plain.size());
    for (std::size_t q = 0; q < plain.size(); ++q)
      EXPECT_TRUE(framed[q] == plain[q])
          << (three_d ? "tets" : "tris") << " part " << q;
  }
}

/// --- hand-driven transport -----------------------------------------------

/// One phase on a bare 4-part transport: every ordered pair of distinct
/// parts is a channel carrying three uncoalesced payloads (one framed
/// message each), posted sender by sender. Returns, per destination, the
/// delivered payloads as "from.i" tokens in handler order.
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

/// Runs one phase under `plan` and returns the structured error it raised.
Error strictPhaseError(const faults::FaultPlan& plan) {
  auto net = makeBareNetwork();
  PlanGuard g(plan);
  try {
    driveNetworkPhase(*net);
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "phase under a certain fault delivered";
  return Error(ErrorCode::kNone, -1, "");
}

TEST(NetStrict, CertainDropNamesTheFirstSilentChannel) {
  faults::FaultPlan p;
  p.seed = 3;
  p.drop = 1.0;
  const Error e = strictPhaseError(p);
  EXPECT_EQ(e.code(), ErrorCode::kMessageLost) << e.what();
  EXPECT_EQ(e.rank(), 0);
  EXPECT_EQ(e.peer(), 1);
  EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  EXPECT_EQ(e.detail(), "3 message(s) posted but never delivered");
}

TEST(NetStrict, CertainCorruptionNamesTheFirstFrameInBoxOrder) {
  faults::FaultPlan p;
  p.seed = 3;
  p.corrupt = 1.0;
  const Error e = strictPhaseError(p);
  EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload) << e.what();
  EXPECT_EQ(e.rank(), 0);
  EXPECT_EQ(e.peer(), 1);
  EXPECT_EQ(e.tag(), dist::kNetChannelTag);
}

TEST(NetStrict, CertainDuplicationNamesTheRepeatedSequence) {
  faults::FaultPlan p;
  p.seed = 3;
  p.duplicate = 1.0;
  const Error e = strictPhaseError(p);
  EXPECT_EQ(e.code(), ErrorCode::kDuplicateMessage) << e.what();
  EXPECT_EQ(e.rank(), 0);
  EXPECT_EQ(e.peer(), 1);
  EXPECT_EQ(e.tag(), dist::kNetChannelTag);
  EXPECT_EQ(e.detail(), "channel seq 0 already delivered");
}

TEST(NetStrict, CertainDelayRestoresChannelOrderInBoxSlots) {
  // Every frame is held behind the message at the back of its box, which
  // reorders each channel. Verification puts every channel back in FIFO
  // order inside the box slots the channel occupies, so the cross-channel
  // interleave of the box survives.
  auto net = makeBareNetwork();
  faults::FaultPlan p;
  p.seed = 3;
  p.delay = 1.0;
  PlanGuard g(p);
  const auto got = driveNetworkPhase(*net);
  EXPECT_EQ(got[0], "1.0 1.1 2.0 2.1 2.2 3.0 3.1 3.2 1.2");
  EXPECT_EQ(got[1], "0.0 0.1 2.0 2.1 2.2 3.0 3.1 3.2 0.2");
  EXPECT_EQ(got[2], "0.0 0.1 1.0 1.1 1.2 3.0 3.1 3.2 0.2");
  EXPECT_EQ(got[3], "0.0 0.1 1.0 1.1 1.2 2.0 2.1 2.2 0.2");
  // A second phase continues every channel's sequence where it stopped.
  const auto again = driveNetworkPhase(*net);
  EXPECT_EQ(again, got);
}

/// --- plan validation (satellite a) ---------------------------------------

TEST(MigrateValidation, OutOfRangeDestinationIsStructuredError) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const std::uint64_t before = pm->fingerprint();
  dist::MigrationPlan plan(3);
  plan[0][pm->part(0).elements().front()] = 99;
  try {
    pm->migrate(plan);
    FAIL() << "accepted out-of-range destination";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_NE(e.detail().find("out of range"), std::string::npos);
  }
  EXPECT_EQ(pm->fingerprint(), before) << "validation must not mutate";
}

TEST(MigrateValidation, DeadEntityInPlanIsStructuredError) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  // An element of part 1 is not a live handle on part 0.
  dist::MigrationPlan plan(3);
  Ent foreign = pm->part(1).elements().front();
  // Make sure the handle really is dead on part 0 (pool sizes may differ).
  if (pm->part(0).mesh().alive(foreign)) {
    // Destroy the same-handle element on part 0 to force deadness.
    pm->part(0).mesh().destroy(foreign);
    pm->part(0).sweepDeadRemotes();
  }
  plan[0][foreign] = 1;
  const std::uint64_t before = pm->fingerprint();
  try {
    pm->migrate(plan);
    FAIL() << "accepted dead entity";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("dead entity"), std::string::npos);
  }
  EXPECT_EQ(pm->fingerprint(), before);
}

TEST(MigrateValidation, NonElementEntryIsStructuredError) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  dist::MigrationPlan plan(3);
  // A vertex is not an element; the plan must be rejected up front.
  Ent v;
  for (Ent e : pm->part(0).mesh().entities(0)) {
    v = e;
    break;
  }
  plan[0][v] = 1;
  const std::uint64_t before = pm->fingerprint();
  try {
    pm->migrate(plan);
    FAIL() << "accepted non-element entry";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("not an element"), std::string::npos);
  }
  EXPECT_EQ(pm->fingerprint(), before);
}

/// --- verify() ghost diagnostics (satellite b) ----------------------------

TEST(VerifyGhosts, DetectsDeadGhostWithNamedInvariant) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 3);
  pm->ghostLayers(1);
  ASSERT_NO_THROW(pm->verify());
  // Destroy one ghost element behind the bookkeeping's back: verify() must
  // name the broken ghost invariant instead of passing or crashing.
  bool destroyed = false;
  for (PartId p = 0; p < pm->parts() && !destroyed; ++p) {
    auto& part = pm->part(p);
    for (Ent e : part.mesh().entities(pm->dim())) {
      if (!part.isGhost(e)) continue;
      part.mesh().destroy(e);
      destroyed = true;
      break;
    }
  }
  ASSERT_TRUE(destroyed) << "ghosting produced no ghost elements";
  try {
    pm->verify();
    FAIL() << "verify passed with a dead ghost";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyGhosts, DetectsGhostTrackingBrokenOnOwner) {
  auto gen = meshgen::boxTris(5, 5);
  auto pm = makeMesh(gen, 3);
  pm->ghostLayers(1);
  // Break one owner-side tracked copy by corrupting the ghost's source
  // part's record via a round-trip: destroy the ghost AND remove its
  // ghost_source record, leaving the owner pointing at a dead target (a
  // stale syncGhostTags destination).
  bool broke = false;
  for (PartId p = 0; p < pm->parts() && !broke; ++p) {
    auto& part = pm->part(p);
    for (Ent e : part.mesh().entities(pm->dim())) {
      if (part.ghostCopies(e) == nullptr) continue;
      // e is a real entity with tracked ghost copies; kill one target.
      const auto copies = *part.ghostCopies(e);
      auto& qpart = pm->part(copies.front().part);
      qpart.mesh().destroy(copies.front().ent);
      broke = true;
      break;
    }
  }
  ASSERT_TRUE(broke) << "no tracked ghost copies found";
  EXPECT_THROW(pm->verify(), std::logic_error);
}

/// --- verify() negative cases: each check names its invariant and entity --

/// verify() must throw exactly `message` for entity `e` of part `p`.
void expectVerifyFails(const dist::PartedMesh& pm, const std::string& message,
                       PartId p, Ent e) {
  const std::string want = "parallel verify failed: " + message + " [part " +
                           std::to_string(p) + ", " +
                           core::topoName(e.topo()) + " #" +
                           std::to_string(e.index()) + "]";
  try {
    pm.verify();
    FAIL() << "verify passed; expected: " << want;
  } catch (const std::logic_error& err) {
    EXPECT_EQ(std::string(err.what()), want);
  }
}

/// The first vertex of part 0 (iteration order) with a remote copy on
/// exactly one other part.
Ent firstTwoPartVertex(const dist::PartedMesh& pm) {
  for (Ent v : pm.part(0).mesh().entities(0)) {
    const dist::Remote* r = pm.part(0).remote(v);
    if (r != nullptr && r->copies.size() == 1) return v;
  }
  return {};
}

TEST(VerifyNegative, OrphanEdgeWithoutAdjacentElement) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 3);
  ASSERT_NO_THROW(pm->verify());
  auto& mesh = pm->part(0).mesh();
  const auto vs = mesh.all(0);
  Ent orphan;
  for (std::size_t i = 0; i < vs.size() && !orphan; ++i)
    for (std::size_t j = i + 1; j < vs.size() && !orphan; ++j)
      if (!mesh.findEntity(core::Topo::Edge, std::array{vs[i], vs[j]}))
        orphan = mesh.buildElement(core::Topo::Edge, std::array{vs[i], vs[j]});
  ASSERT_TRUE(orphan);
  expectVerifyFails(*pm, "entity resides on part without adjacent element", 0,
                    orphan);
}

TEST(VerifyNegative, EntityAdjacentOnlyToGhostElements) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 3);
  auto& part = pm->part(0);
  const int dim = pm->dim();
  // Relabel every element around one part-interior vertex as a ghost of
  // some element of part 1: the vertex keeps only ghost elements.
  Ent center;
  for (Ent v : part.mesh().entities(0))
    if (!part.isShared(v)) {
      center = v;
      break;
    }
  ASSERT_TRUE(center);
  const Ent source = pm->part(1).elements().front();
  for (Ent elem : part.mesh().adjacent(center, dim))
    dist::CheckpointAccess::setGhost(part, elem, dist::Copy{1, source});
  // The first vertex, in iteration order, left with only ghost elements.
  Ent first;
  for (Ent v : part.mesh().entities(0)) {
    bool real = false;
    for (Ent u : part.mesh().adjacent(v, dim)) real = real || !part.isGhost(u);
    if (!real) {
      first = v;
      break;
    }
  }
  ASSERT_TRUE(first);
  expectVerifyFails(*pm, "entity resides on part without adjacent element", 0,
                    first);
}

TEST(VerifyNegative, ResidenceDisagreementAcrossCopies) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 3);
  const Ent v = firstTwoPartVertex(*pm);
  ASSERT_TRUE(v);
  const dist::Copy peer = pm->part(0).remote(v)->copies.front();
  ASSERT_NE(peer.part, 0);
  // The peer copy claims one more resident part than part 0 lists.
  const PartId extra = peer.part == 1 ? 2 : 1;
  dist::Remote r = *pm->part(peer.part).remote(peer.ent);
  r.copies.push_back(
      dist::Copy{extra, pm->part(extra).mesh().all(0).front()});
  std::sort(r.copies.begin(), r.copies.end(),
            [](const dist::Copy& a, const dist::Copy& b) {
              return a.part < b.part;
            });
  pm->part(peer.part).setRemote(peer.ent, std::move(r));
  expectVerifyFails(*pm, "residence disagreement across copies", 0, v);
}

TEST(VerifyNegative, OwnerNotInResidenceSet) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = makeMesh(gen, 3);
  const Ent v = firstTwoPartVertex(*pm);
  ASSERT_TRUE(v);
  dist::Remote r = *pm->part(0).remote(v);
  r.owner = r.copies.front().part == 1 ? 2 : 1;  // resides on 0 and the peer
  pm->part(0).setRemote(v, std::move(r));
  expectVerifyFails(*pm, "owner not in residence set", 0, v);
}

/// --- explicit transactional mode ----------------------------------------

TEST(Transactional, ModeIsStickyAndHarmlessWithoutFaults) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  pm->setTransactional(true);
  EXPECT_TRUE(pm->transactional());
  common::Rng rng(3);
  const auto n2 = pm->globalCount(2);
  // Clean run under transactional mode: snapshots taken, commits happen.
  for (int round = 0; round < 3; ++round) {
    pm->migrate(randomPlan(*pm, rng, 0.2));
    pm->verify();
  }
  EXPECT_EQ(pm->globalCount(2), n2);
}

TEST(Transactional, FingerprintIsStateSensitive) {
  auto gen = meshgen::boxTris(4, 4);
  auto pm = makeMesh(gen, 3);
  const auto before = pm->fingerprint();
  EXPECT_EQ(before, pm->fingerprint()) << "fingerprint must be deterministic";
  common::Rng rng(5);
  dist::MigrationPlan plan;
  do {
    plan = randomPlan(*pm, rng, 0.3);
  } while (std::all_of(plan.begin(), plan.end(),
                       [](const auto& m) { return m.empty(); }));
  pm->migrate(plan);
  EXPECT_NE(pm->fingerprint(), before)
      << "fingerprint must change when elements move";
}

/// --- values-only transactions ----------------------------------------------

/// Every stamp the commit gate reads, part by part.
std::vector<std::uint64_t> versionStamps(const dist::PartedMesh& pm) {
  std::vector<std::uint64_t> out;
  for (PartId q = 0; q < pm.parts(); ++q) {
    const auto& part = pm.part(q);
    out.push_back(part.generation());
    out.push_back(part.mesh().topoVersion());
    out.push_back(part.mesh().dataVersion());
    out.push_back(part.tableVersion());
  }
  return out;
}

/// Part q's "u" values, entity by entity in iteration order.
std::vector<double> uValues(const dist::PartedMesh& pm, PartId q) {
  const auto& m = pm.part(q).mesh();
  auto* tag = m.tags().find("u");
  std::vector<double> out;
  if (tag == nullptr) return out;
  for (Ent v : m.entities(0))
    out.push_back(tag->has(v) ? m.tags().getScalar<double>(tag, v) : -1.0);
  return out;
}

/// A ghosted 4-part mesh whose owners have moved their "u" values on
/// after ghosting: a syncGhostTags would write a new value on every ghost.
std::unique_ptr<dist::PartedMesh> staleGhostMesh(
    const meshgen::Generated& gen) {
  auto pm = makeMesh(gen, 4);
  pm->setTransactional(true);
  for (PartId q = 0; q < pm->parts(); ++q) {
    auto& m = pm->part(q).mesh();
    auto* tag = m.tags().create<double>("u");
    for (Ent v : m.entities(0)) m.tags().setScalar<double>(tag, v, q);
  }
  pm->ghostLayers(1);
  for (PartId q = 0; q < pm->parts(); ++q) {
    auto& part = pm->part(q);
    auto* tag = part.mesh().tags().find("u");
    for (Ent v : part.mesh().entities(0))
      if (!part.isGhost(v)) part.mesh().tags().setScalar<double>(tag, v, 100 + q);
  }
  return pm;
}

TEST(ValuesOnlyTransaction, AbortRestoresTagValuesAndMovesNoVersion) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = staleGhostMesh(gen);
  // The last part to receive holds "u" as an int tag, so unpacking the
  // first double value there throws — after parts 0..2 wrote theirs.
  const PartId last = pm->parts() - 1;
  auto& lm = pm->part(last).mesh();
  lm.tags().destroy(lm.tags().find("u"));
  auto* bad = lm.tags().create<int>("u");
  lm.tags().setScalar<int>(bad, lm.all(0).front(), 7);
  ASSERT_GT(pm->part(0).ghostCount(), 0u);

  std::vector<std::vector<double>> before;
  for (PartId q = 0; q < last; ++q) before.push_back(uValues(*pm, q));
  const auto stamps = versionStamps(*pm);
  const std::uint64_t fp = pm->fingerprint();
  try {
    pm->syncGhostTags();
    FAIL() << "syncGhostTags committed into a mistyped tag";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    EXPECT_NE(std::string(e.what()).find("tag type mismatch: u"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(versionStamps(*pm), stamps);
  for (PartId q = 0; q < last; ++q)
    EXPECT_EQ(uValues(*pm, q), before[static_cast<std::size_t>(q)])
        << "part " << q;
  EXPECT_EQ(pm->fingerprint(), fp);

  // An injected transport fault aborts the same way.
  faults::FaultPlan p;
  p.seed = 3;
  p.drop = 1.0;
  {
    PlanGuard g(p);
    EXPECT_THROW(pm->syncSharedTags("u"), Error);
  }
  EXPECT_EQ(versionStamps(*pm), stamps);
  EXPECT_EQ(pm->fingerprint(), fp);
  EXPECT_NO_THROW(pm->verify());
}

TEST(ValuesOnlyTransaction, GateRerunsVerifyAfterATableWrite) {
  auto gen = meshgen::boxTets(3, 3, 3);
  auto pm = staleGhostMesh(gen);
  pm->syncGhostTags();  // commits; the gate has nothing new to verify

  // Break copy symmetry: the peer's back-link names another vertex.
  const Ent v = firstTwoPartVertex(*pm);
  ASSERT_TRUE(v);
  const dist::Copy peer = pm->part(0).remote(v)->copies.front();
  dist::Remote r = *pm->part(peer.part).remote(peer.ent);
  for (dist::Copy& c : r.copies)
    if (c.part == 0) c.ent = Ent(c.ent.topo(), c.ent.index() == 0 ? 1 : 0);
  pm->part(peer.part).setRemote(peer.ent, std::move(r));

  try {
    pm->syncGhostTags();
    FAIL() << "values-only operation committed over broken copy symmetry";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    EXPECT_NE(std::string(e.what()).find("copy symmetry broken"),
              std::string::npos)
        << e.what();
  }
  expectVerifyFails(*pm, "copy symmetry broken", 0, v);

  // A shared-tag sync trusts the same link to lay out its lanes: the gate
  // refuses its commit and every value stays as it was.
  std::vector<std::vector<double>> before;
  for (PartId q = 0; q < pm->parts(); ++q) before.push_back(uValues(*pm, q));
  try {
    pm->syncSharedTags();
    FAIL() << "shared-tag sync committed over broken copy symmetry";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol) << e.what();
    EXPECT_NE(std::string(e.what()).find("copy symmetry broken"),
              std::string::npos)
        << e.what();
  }
  for (PartId q = 0; q < pm->parts(); ++q)
    EXPECT_EQ(uValues(*pm, q), before[static_cast<std::size_t>(q)])
        << "part " << q;

  // Mending the record lets the next values-only operation commit.
  dist::Remote fixed = *pm->part(peer.part).remote(peer.ent);
  for (dist::Copy& c : fixed.copies)
    if (c.part == 0) c.ent = v;
  pm->part(peer.part).setRemote(peer.ent, std::move(fixed));
  EXPECT_NO_THROW(pm->syncGhostTags());
  pm->part(peer.part).eraseRemote(peer.ent);
  EXPECT_THROW(pm->syncGhostTags(), Error);
  EXPECT_THROW(pm->verify(), std::logic_error);
}

}  // namespace
