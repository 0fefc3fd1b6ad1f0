/// \file test_svc.cpp
/// \brief Multi-tenant mesh service: plan composition, admission
/// control against the rank-pool ledger, bounded-queue shedding, and
/// blast-radius containment.
///
/// Contracts under test (ISSUE: multi-tenant service):
///  - pcu::Comm::split(color, key) carves disjoint subgroups with
///    MPI_Comm_split ordering, generation-safe across consecutive splits;
///  - PUMI_FAULTS plans compose deterministically: same-phase tokens fire
///    join before kill before hang, and exact duplicate keys are rejected
///    with kValidation naming both tokens;
///  - svc::Scheduler admits against the ledger's live capacity (structured
///    kAdmission naming the reason), bounds its queue, sheds only
///    strictly-lower-priority work by name, packs same-tenant jobs onto a
///    shared grant, and absorbs rank failures inside the owning tenant:
///    the dead rank is reclaimed from the pool, and a concurrent clean
///    tenant's element digest is bit-identical to its solo run across a
///    seed matrix replayed twice.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/checkpoint.hpp"
#include "dist/digest.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "part/partition.hpp"
#include "pcu/comm.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/phased.hpp"
#include "pcu/runtime.hpp"
#include "pcu/stats.hpp"
#include "pcu/trace.hpp"
#include "svc/job.hpp"
#include "svc/ledger.hpp"
#include "svc/report.hpp"
#include "svc/scheduler.hpp"

namespace {

using pcu::Error;
using pcu::ErrorCode;
namespace faults = pcu::faults;

/// Installs a plan on the ambient domain for one test body.
struct PlanGuard {
  explicit PlanGuard(const faults::FaultPlan& p) { faults::setPlan(p); }
  ~PlanGuard() { faults::clearPlan(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

/// One ring phased exchange on `c`; returns the payload received.
int ringStep(pcu::Comm& c) {
  std::vector<std::pair<int, pcu::OutBuffer>> out;
  pcu::OutBuffer b;
  b.pack<int>(c.rank());
  out.emplace_back((c.rank() + 1) % c.size(), std::move(b));
  auto msgs = pcu::phasedExchange(c, std::move(out));
  return msgs.empty() ? -1 : msgs.front().body.unpack<int>();
}

/// --- PUMI_FAULTS plan composition (satellite: deterministic order) -------

TEST(PlanComposition, DuplicateKeysAreRejectedNamingBothTokens) {
  try {
    faults::parsePlan("seed=3,drop=0.5,drop=0.25");
    FAIL() << "accepted a duplicate drop= token";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kValidation);
    EXPECT_NE(e.detail().find("duplicate"), std::string::npos) << e.what();
    EXPECT_NE(e.detail().find("drop=0.5"), std::string::npos)
        << "must name the first token: " << e.what();
    EXPECT_NE(e.detail().find("drop=0.25"), std::string::npos)
        << "must name the second token: " << e.what();
  }
  EXPECT_THROW(faults::parsePlan("kill=1@2,kill=1@2"), Error)
      << "exact duplicates are rejected too";
  // Distinct keys still compose.
  EXPECT_NO_THROW(faults::parsePlan("seed=3,drop=0.5,corrupt=0.25,kill=1@2"));
}

TEST(PlanComposition, SamePhaseEventsFireJoinThenKillThenHang) {
  faults::Domain d;
  d.install(faults::parsePlan("join=2@1,kill=0@1,deadline=25"));
  // Nothing fires before the scheduled boundary.
  EXPECT_EQ(d.fireJoin(0), 0);
  EXPECT_FALSE(d.fireKill(0, 0));
  // At the boundary the join is consumable before the kill: the scale-out
  // knock is recorded even though the same boundary then aborts the rank.
  EXPECT_EQ(d.fireJoin(1), 2);
  EXPECT_TRUE(d.fireKill(0, 1));
  // Consume-once: neither fires twice.
  EXPECT_EQ(d.fireJoin(1), 0);
  EXPECT_FALSE(d.fireKill(0, 1));
}

TEST(PlanComposition, JoinKnockIsRecordedBeforeTheSamePhaseKillAborts) {
  // Integration form of the ordering contract, on the one boundary that
  // consumes phase events (dist::Network): 4 parts on 4 ranks, join=2 and
  // a kill of rank 2 both scheduled at phase boundary 1. The migration
  // aborts with kRankFailed naming rank 2, and the mesh comes out of the
  // incident with the join pending — the knock beat the kill.
  auto gen = meshgen::boxTris(4, 4);
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(),
      part::partition(*gen.mesh, 4, part::Method::RCB),
      dist::PartMap(4, pcu::Machine::flat(4)));
  dist::MigrationPlan plan(4);
  for (dist::PartId p = 0; p < 4; ++p)
    plan[static_cast<std::size_t>(p)][pm->part(p).elements().front()] =
        (p + 1) % 4;
  PlanGuard g(faults::parsePlan("seed=11,join=2@1,kill=2@1,deadline=30"));
  try {
    pm->migrate(plan);
    FAIL() << "migration crossing the killed rank committed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRankFailed) << e.what();
    EXPECT_EQ(e.peer(), 2) << "the error must name the dead rank";
  }
  EXPECT_EQ(pm->network().deadRanks(), std::vector<int>{2});
  EXPECT_EQ(pm->network().pendingJoin(), 2)
      << "the join knock must be recorded before the same-phase kill";
}

TEST(SplitRendezvous, ConsecutiveSplitsAreGenerationSafe) {
  // Back-to-back splits on the same parent group: the shared rendezvous
  // state must reset cleanly between rounds even when ranks race ahead.
  pcu::run(4, [](pcu::Comm& c) {
    for (int round = 0; round < 5; ++round) {
      auto sub = c.split(c.rank() % 2, c.rank());
      ASSERT_EQ(sub.size(), 2);
      EXPECT_EQ(sub.rank(), c.rank() / 2);
      EXPECT_EQ(ringStep(sub), (sub.rank() + 1) % 2);
    }
  });
}

TEST(SplitRendezvous, OrdersByKeyThenRank) {
  pcu::run(4, [](pcu::Comm& c) {
    auto sub = c.split(0, -c.rank());  // descending keys reverse the order
    ASSERT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - c.rank());
  });
}

/// --- the rank-pool ledger ------------------------------------------------

TEST(Ledger, LeasesAreDisjointAndReturn) {
  svc::Ledger ledger(6);
  EXPECT_EQ(ledger.poolSize(), 6);
  EXPECT_EQ(ledger.liveCapacity(), 6);
  auto a = ledger.tryAcquire(4);
  ASSERT_EQ(a.size(), 4u);
  auto b = ledger.tryAcquire(2);
  ASSERT_EQ(b.size(), 2u);
  for (int r : a)
    EXPECT_EQ(std::count(b.begin(), b.end(), r), 0) << "leases overlap";
  EXPECT_TRUE(ledger.tryAcquire(1).empty()) << "pool exhausted";
  ledger.release(a);
  EXPECT_EQ(ledger.freeCount(), 4);
  ledger.release(b);
  EXPECT_EQ(ledger.freeCount(), 6);
}

TEST(Ledger, DeadRanksNeverReturnToThePool) {
  svc::Ledger ledger(4);
  auto lease = ledger.tryAcquire(2);
  ASSERT_EQ(lease.size(), 2u);
  ledger.markDead(lease[0]);      // died while leased
  ledger.markDead(3);             // died while free
  EXPECT_EQ(ledger.deadCount(), 2);
  EXPECT_EQ(ledger.liveCapacity(), 2);
  ledger.release(lease);
  EXPECT_EQ(ledger.freeCount(), 2) << "the corpse must not be freed";
  auto rest = ledger.tryAcquire(2);
  ASSERT_EQ(rest.size(), 2u) << "the two live survivors are leasable";
  for (int r : rest) {
    EXPECT_NE(r, lease[0]) << "a dead rank was leased again";
    EXPECT_NE(r, 3) << "a dead rank was leased again";
  }
  EXPECT_TRUE(ledger.tryAcquire(1).empty()) << "nothing live remains";
  const auto dead = ledger.deadRanks();
  EXPECT_EQ(dead.size(), 2u);
}

/// --- admission control ---------------------------------------------------

svc::JobSpec smallJob(const std::string& tenant, const std::string& name,
                      int width = 4, std::uint64_t seed = 1) {
  svc::JobSpec s;
  s.tenant = tenant;
  s.name = name;
  s.width = width;
  s.seed = seed;
  s.nx = s.ny = s.nz = 3;
  s.migrate_rounds = 2;
  s.balance = true;
  return s;
}

TEST(Admission, WidthBeyondPoolCapacityIsRejectedByName) {
  svc::Scheduler sched({.pool_size = 8, .workers = 1});
  try {
    (void)sched.submit(smallJob("acme", "too-wide", 9));
    FAIL() << "admitted a job wider than the pool";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmission);
    EXPECT_STREQ(pcu::errorCodeName(e.code()), "admission");
    EXPECT_NE(e.detail().find("exceeds live pool capacity"), std::string::npos)
        << e.what();
    EXPECT_NE(e.detail().find("acme/too-wide"), std::string::npos)
        << "the rejection must name the job: " << e.what();
  }
  const auto rep = sched.report();
  const auto* t = rep.tenant("acme");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rejected, 1);
}

TEST(Admission, InvalidWidthIsAValidationError) {
  svc::Scheduler sched({.pool_size = 4, .workers = 1});
  EXPECT_THROW((void)sched.submit(smallJob("acme", "zero", 0)), Error);
}

TEST(Admission, FullQueueRejectsEqualPriorityNamingDepth) {
  svc::Scheduler sched(
      {.pool_size = 4, .workers = 1, .queue_capacity = 2});
  // Occupy the worker, then fill the bounded queue.
  auto running = sched.submit(smallJob("t0", "running", 4, 1));
  while (sched.queueDepth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto q1 = sched.submit(smallJob("t1", "queued-1", 4, 2));
  auto q2 = sched.submit(smallJob("t2", "queued-2", 4, 3));
  try {
    (void)sched.submit(smallJob("t3", "overflow", 4, 4));
    FAIL() << "queue bound not enforced";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmission);
    EXPECT_NE(e.detail().find("queue full"), std::string::npos) << e.what();
    EXPECT_NE(e.detail().find("capacity 2"), std::string::npos) << e.what();
  }
  EXPECT_EQ(running.get().state, svc::JobState::kCompleted);
  EXPECT_EQ(q1.get().state, svc::JobState::kCompleted);
  EXPECT_EQ(q2.get().state, svc::JobState::kCompleted);
  const auto rep = sched.report();
  EXPECT_LE(rep.peak_queue_depth, rep.queue_capacity);
}

TEST(Admission, HigherPrioritySubmissionShedsTheLowestQueuedJob) {
  svc::Scheduler sched(
      {.pool_size = 4, .workers = 1, .queue_capacity = 2});
  auto running = sched.submit(smallJob("t0", "running", 4, 1));
  while (sched.queueDepth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto low = sched.submit([&] {
    auto s = smallJob("bulk", "low-batch", 4, 2);
    s.priority = svc::Priority::kLow;
    return s;
  }());
  auto normal = sched.submit(smallJob("app", "normal", 4, 3));
  auto high = sched.submit([&] {
    auto s = smallJob("ops", "urgent", 4, 4);
    s.priority = svc::Priority::kHigh;
    return s;
  }());
  const auto shed = low.get();
  EXPECT_EQ(shed.state, svc::JobState::kShed);
  EXPECT_NE(shed.reason.find("preempted"), std::string::npos) << shed.reason;
  EXPECT_NE(shed.reason.find("ops/urgent"), std::string::npos)
      << "the shed reason must name the preempting job: " << shed.reason;
  EXPECT_EQ(running.get().state, svc::JobState::kCompleted);
  EXPECT_EQ(normal.get().state, svc::JobState::kCompleted);
  EXPECT_EQ(high.get().state, svc::JobState::kCompleted);
  const auto rep = sched.report();
  ASSERT_NE(rep.tenant("bulk"), nullptr);
  EXPECT_EQ(rep.tenant("bulk")->shed, 1);
  ASSERT_EQ(rep.shed_jobs.size(), 1u);
  EXPECT_NE(rep.shed_jobs.front().find("bulk/low-batch"), std::string::npos);
}

/// --- packing -------------------------------------------------------------

TEST(Packing, SameTenantJobsShareOneGrant) {
  svc::Scheduler sched(
      {.pool_size = 4, .workers = 1, .queue_capacity = 8});
  auto filler = sched.submit(smallJob("warmup", "filler", 4, 1));
  while (sched.queueDepth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto lead = sched.submit(smallJob("acme", "lead", 4, 2));
  auto rider1 = sched.submit(smallJob("acme", "rider-1", 2, 3));
  auto rider2 = sched.submit(smallJob("acme", "rider-2", 3, 4));
  auto other = sched.submit(smallJob("rival", "solo", 4, 5));
  EXPECT_EQ(filler.get().state, svc::JobState::kCompleted);
  const auto r_lead = lead.get();
  const auto r1 = rider1.get();
  const auto r2 = rider2.get();
  const auto r_other = other.get();
  EXPECT_EQ(r_lead.state, svc::JobState::kCompleted);
  EXPECT_FALSE(r_lead.packed);
  EXPECT_EQ(r1.state, svc::JobState::kCompleted);
  EXPECT_TRUE(r1.packed) << "same-tenant fit must ride the lead's grant";
  EXPECT_EQ(r1.ranks, 4) << "a packed job runs at the grant's width";
  EXPECT_EQ(r2.state, svc::JobState::kCompleted);
  EXPECT_TRUE(r2.packed);
  EXPECT_EQ(r_other.state, svc::JobState::kCompleted);
  EXPECT_FALSE(r_other.packed) << "packing never crosses tenants";
  const auto rep = sched.report();
  ASSERT_NE(rep.tenant("acme"), nullptr);
  EXPECT_EQ(rep.tenant("acme")->packed, 2);
}

/// --- tenant isolation: the digest matrix ---------------------------------

TEST(Isolation, ChaoticTenantNeverPerturbsCleanSiblingAcrossSeedMatrix) {
  // The acceptance matrix: tenant A runs drop+corrupt chaos (with a
  // tenant-scoped reliable override so it completes); tenant B runs clean,
  // concurrently, every time. Across 20 seeds replayed twice, B's element
  // digest must be bit-identical to its solo (uncontended, chaos-free)
  // run, and B must observe zero faults and zero failovers.
  constexpr int kSeeds = 20;
  constexpr int kReplays = 2;
  // Solo reference digests, one per seed.
  std::map<std::uint64_t, std::uint64_t> reference;
  {
    svc::Scheduler solo({.pool_size = 4, .workers = 1});
    for (int s = 0; s < kSeeds; ++s) {
      const auto r =
          solo.run(smallJob("bravo", "solo-" + std::to_string(s), 4,
                            100 + static_cast<std::uint64_t>(s)));
      ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.reason;
      ASSERT_GT(r.elements, 0u);
      reference[100 + static_cast<std::uint64_t>(s)] = r.digest;
    }
  }
  for (int replay = 0; replay < kReplays; ++replay) {
    svc::Scheduler sched({.pool_size = 8, .workers = 2, .queue_capacity = 8});
    for (int s = 0; s < kSeeds; ++s) {
      const auto seed = 100 + static_cast<std::uint64_t>(s);
      auto chaotic = smallJob("alpha", "chaos-" + std::to_string(s), 4, seed);
      chaotic.chaos.faults = "seed=" + std::to_string(1000 + s) +
                             ",drop=0.2,corrupt=0.1";
      chaotic.chaos.reliable = true;
      auto clean = smallJob("bravo", "clean-" + std::to_string(s), 4, seed);
      auto fa = sched.submit(std::move(chaotic));
      auto fb = sched.submit(std::move(clean));
      const auto ra = fa.get();
      const auto rb = fb.get();
      EXPECT_EQ(ra.state, svc::JobState::kCompleted)
          << "seed " << seed << ": " << ra.reason;
      ASSERT_EQ(rb.state, svc::JobState::kCompleted)
          << "seed " << seed << ": " << rb.reason;
      EXPECT_EQ(rb.digest, reference[seed])
          << "seed " << seed << " replay " << replay
          << ": clean tenant's digest drifted under sibling chaos";
      EXPECT_EQ(rb.failovers, 0);
      EXPECT_EQ(rb.faults_recovered, 0)
          << "clean tenant observed a fault that was not its own";
    }
    sched.drain();
    const auto rep = sched.report();
    const auto* bravo = rep.tenant("bravo");
    ASSERT_NE(bravo, nullptr);
    EXPECT_EQ(bravo->completed, kSeeds);
    EXPECT_EQ(bravo->failovers, 0);
    EXPECT_EQ(bravo->faults_recovered, 0);
  }
}

/// --- blast radius: rank failure stays inside its tenant ------------------

TEST(BlastRadius, RankFailureShrinksThePoolAndSparesTheSibling) {
  svc::Scheduler sched({.pool_size = 8, .workers = 2, .queue_capacity = 8});
  // Reference digest for the clean tenant.
  std::uint64_t reference = 0;
  {
    svc::Scheduler solo({.pool_size = 4, .workers = 1});
    const auto r = solo.run(smallJob("bravo", "solo", 4, 42));
    ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.reason;
    reference = r.digest;
  }
  auto doomed = smallJob("alpha", "doomed", 4, 7);
  doomed.chaos.faults = "seed=7,kill=2@1,deadline=30";
  auto fa = sched.submit(std::move(doomed));
  auto fb = sched.submit(smallJob("bravo", "clean", 4, 42));
  const auto ra = fa.get();
  const auto rb = fb.get();
  ASSERT_EQ(ra.state, svc::JobState::kCompleted) << ra.reason;
  EXPECT_EQ(ra.failovers, 1)
      << "the kill must be absorbed as exactly one failover";
  ASSERT_EQ(rb.state, svc::JobState::kCompleted) << rb.reason;
  EXPECT_EQ(rb.digest, reference)
      << "sibling tenant's digest must not move under A's rank failure";
  EXPECT_EQ(rb.failovers, 0);
  EXPECT_EQ(rb.faults_recovered, 0);
  sched.drain();
  // The ledger reclaimed the corpse: pool capacity shrank by one, and a
  // full-pool job no longer fits.
  EXPECT_EQ(sched.ledger().deadCount(), 1);
  EXPECT_EQ(sched.ledger().liveCapacity(), 7);
  try {
    (void)sched.submit(smallJob("alpha", "full-width", 8));
    FAIL() << "a dead rank was leased again";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmission);
    EXPECT_NE(e.detail().find("capacity 7"), std::string::npos) << e.what();
    EXPECT_NE(e.detail().find("dead 1"), std::string::npos) << e.what();
  }
  const auto rep = sched.report();
  EXPECT_EQ(rep.ranks_dead, 1);
}

/// --- overload ------------------------------------------------------------

TEST(Overload, TwoXCapacityDegradesStructurallyNotByAborting) {
  // Offer ~2x what the service can hold (1 worker, queue of 3): every job
  // ends in exactly one structured outcome — completed, shed (named), or
  // rejected (named) — and the queue never exceeds its bound.
  svc::SchedulerOptions opts;
  opts.pool_size = 4;
  opts.workers = 1;
  opts.queue_capacity = 3;
  opts.max_resubmits = 2;
  opts.backoff_ms = 2;
  opts.max_backoff_ms = 8;
  opts.pack_same_tenant = false;  // distinct tenants stress the queue
  svc::Scheduler sched(opts);
  std::vector<std::future<svc::JobResult>> futures;
  int rejected = 0;
  for (int j = 0; j < 12; ++j) {
    auto spec = smallJob("tenant-" + std::to_string(j % 4),
                         "burst-" + std::to_string(j), 4,
                         static_cast<std::uint64_t>(j));
    spec.priority = (j % 3 == 0) ? svc::Priority::kHigh
                                 : (j % 3 == 1 ? svc::Priority::kNormal
                                               : svc::Priority::kLow);
    try {
      futures.push_back(sched.submitWithRetry(std::move(spec)));
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kAdmission) << e.what();
      ++rejected;
    }
  }
  int completed = 0;
  int shed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.state == svc::JobState::kCompleted) {
      ++completed;
    } else {
      ASSERT_EQ(r.state, svc::JobState::kShed) << r.reason;
      EXPECT_FALSE(r.reason.empty()) << "shed jobs must carry a reason";
      ++shed;
    }
  }
  sched.drain();
  EXPECT_EQ(completed + shed + rejected, 12) << "every job has one outcome";
  EXPECT_GT(completed, 0);
  const auto rep = sched.report();
  EXPECT_LE(rep.peak_queue_depth, rep.queue_capacity)
      << "the queue bound must hold under 2x pressure";
  EXPECT_EQ(static_cast<int>(rep.shed_jobs.size()), shed)
      << "every shed job is named in the report";
}

/// --- per-tenant observability --------------------------------------------

TEST(Observability, TraceEventsAreTenantScopedAndReportsFilter) {
  pcu::trace::clear();
  pcu::trace::setEnabled(true);
  {
    svc::Scheduler sched({.pool_size = 8, .workers = 2});
    auto fa = sched.submit(smallJob("alpha", "traced", 4, 1));
    auto fb = sched.submit(smallJob("bravo", "traced", 4, 2));
    ASSERT_EQ(fa.get().state, svc::JobState::kCompleted);
    ASSERT_EQ(fb.get().state, svc::JobState::kCompleted);
    sched.drain();
  }
  pcu::trace::setEnabled(false);
  const auto merged = pcu::trace::snapshot();
  pcu::trace::clear();
  const auto alpha = pcu::buildTraceReport(merged, "alpha");
  const auto bravo = pcu::buildTraceReport(merged, "bravo");
  const auto nobody = pcu::buildTraceReport(merged, "charlie");
  ASSERT_FALSE(alpha.phases.empty());
  ASSERT_FALSE(bravo.phases.empty());
  EXPECT_TRUE(nobody.phases.empty());
  auto hasPhase = [](const pcu::TraceReport& r, const std::string& needle) {
    for (const auto& p : r.phases)
      if (p.name.find(needle) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(hasPhase(alpha, "svc:alpha/traced"));
  EXPECT_FALSE(hasPhase(alpha, "svc:bravo"))
      << "tenant alpha's view must not contain bravo's phases";
  EXPECT_TRUE(hasPhase(bravo, "svc:bravo/traced"));
  EXPECT_FALSE(hasPhase(bravo, "svc:alpha"));
}

TEST(ReportJson, EmitsPerTenantPercentilesAndShedNames) {
  EXPECT_EQ(svc::percentile({}, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(svc::percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(svc::percentile({5.0, 1.0, 3.0}, 99.0), 5.0);
  svc::Scheduler sched({.pool_size = 4, .workers = 1});
  ASSERT_EQ(sched.run(smallJob("acme", "a", 4, 1)).state,
            svc::JobState::kCompleted);
  ASSERT_EQ(sched.run(smallJob("acme", "b", 4, 2)).state,
            svc::JobState::kCompleted);
  const auto rep = sched.report();
  const auto* t = rep.tenant("acme");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->completed, 2);
  EXPECT_GT(t->p50_ms, 0.0);
  EXPECT_GE(t->p99_ms, t->p50_ms);
  EXPECT_GE(t->max_ms, t->p99_ms);
  std::ostringstream os;
  rep.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_size\": 4"), std::string::npos);
}

/// --- scheduler checkpoint hooks (parallel I/O tentpole) ------------------

std::string freshCkptDir(const std::string& leaf) {
  namespace fs = std::filesystem;
  const fs::path d = fs::temp_directory_path() / "pumi_test_svc_ckpt" / leaf;
  fs::remove_all(d);
  return d.string();
}

TEST(CheckpointHooks, JobCommitsRestorableStateAtPhaseBoundaries) {
  const auto dir = freshCkptDir("basic");
  svc::Scheduler sched({.pool_size = 4, .workers = 1});
  auto spec = smallJob("acme", "ckpt", 4, 7);
  spec.checkpoint_dir = dir;
  const auto res = sched.run(std::move(spec));
  ASSERT_EQ(res.state, svc::JobState::kCompleted) << res.reason;
  // Every phase boundary committed: initial build, each migrate round,
  // the balance pass, and the final state.
  EXPECT_GE(res.checkpoints, 4);
  ASSERT_TRUE(dist::checkpointValid(dir));

  // The last committed checkpoint is the completed mesh: restoring it
  // reproduces the job's element count and order-independent digest.
  auto gen = meshgen::boxTets(3, 3, 3);
  auto restored = dist::restore(dir, gen.model.get());
  EXPECT_NO_THROW(restored->verify());
  const auto digests = dist::digest::elementDigests(*restored);
  EXPECT_EQ(digests.size(), res.elements);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t d : digests) {
    h ^= d;
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(h, res.digest);
}

TEST(CheckpointHooks, StorageChaosInTenantPlanIsAbsorbedNotFatal) {
  // The tenant's own storage chaos (injected ENOSPC) hits its checkpoint
  // writes; the job must absorb every failed attempt (the journal still
  // holds the state) and complete with the same digest as a clean run.
  svc::Scheduler clean_sched({.pool_size = 4, .workers = 1});
  const auto clean = clean_sched.run(smallJob("acme", "ref", 4, 11));
  ASSERT_EQ(clean.state, svc::JobState::kCompleted) << clean.reason;

  const auto dir = freshCkptDir("chaos");
  svc::Scheduler sched({.pool_size = 4, .workers = 1});
  auto spec = smallJob("acme", "ckpt-chaos", 4, 11);
  spec.checkpoint_dir = dir;
  spec.chaos.faults = "seed=23,ioenospc=0.4";
  const auto res = sched.run(std::move(spec));
  ASSERT_EQ(res.state, svc::JobState::kCompleted) << res.reason;
  EXPECT_EQ(res.digest, clean.digest);
  EXPECT_EQ(res.elements, clean.elements);
  // Failed checkpoint attempts were counted, not fatal; and a directory
  // that claims validity must actually restore.
  if (dist::checkpointValid(dir)) {
    auto gen = meshgen::boxTets(3, 3, 3);
    EXPECT_NO_THROW(dist::restore(dir, gen.model.get())->verify());
  } else {
    EXPECT_GT(res.faults_recovered, 0);
  }
}

}  // namespace
