#ifndef PUMI_SVC_JOB_HPP
#define PUMI_SVC_JOB_HPP

/// \file job.hpp
/// \brief Multi-tenant mesh-service job descriptions and outcomes.
///
/// A job is one tenant's request for a complete mesh workflow — generate a
/// box mesh, partition it to the requested width, run a few chaotic
/// migration rounds, rebalance, optionally solve a Poisson problem — run on
/// a subgroup of the service's rank pool under the tenant's own fault
/// domain. The scheduler (scheduler.hpp) admits, queues, packs, sheds and
/// executes jobs; the outcome of every job (completed, rejected, shed, or
/// failed) is a JobResult the per-tenant report aggregates.

#include <cstdint>
#include <string>

namespace svc {

/// Scheduling priority. Under queue pressure a newly submitted job may
/// preempt (shed) a queued job of strictly lower priority; equal priority
/// never preempts.
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };

[[nodiscard]] inline const char* priorityName(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

/// Chaos applied to the job's tenant-scoped fault domain. The spec string
/// uses the PUMI_FAULTS grammar (pcu::faults::parsePlan) and is installed
/// on the subgroup's *own* domain, so it can never leak into another
/// tenant's traffic. `reliable` flips the tenant-scoped ARQ override.
struct ChaosSpec {
  std::string faults;     ///< PUMI_FAULTS-style plan; empty = no injection
  bool reliable = false;  ///< tenant-scoped reliable delivery
};

/// One job request. Widths are in pool ranks (== mesh parts).
struct JobSpec {
  std::string tenant;  ///< owning tenant (report + trace attribution)
  std::string name;    ///< job name, unique per tenant per run
  int width = 4;       ///< ranks requested; admission checks the pool
  Priority priority = Priority::kNormal;
  std::uint64_t seed = 1;  ///< workload determinism (migration plans)
  int nx = 4, ny = 4, nz = 4;  ///< generated box-tet mesh dimensions
  int migrate_rounds = 2;      ///< pseudo-random migration rounds
  bool balance = true;         ///< run a parma balance pass at the end
  bool solve = false;          ///< run the Poisson solve stage
  ChaosSpec chaos;             ///< tenant-scoped fault injection
  /// When non-empty, the job checkpoints its mesh (pario::checkpointImage)
  /// into this directory at every phase boundary — exactly where the
  /// journal records and transactional rollback lands — so failover
  /// evacuation can fall back to the checkpoint for parts the buddy
  /// journal lacks or holds only a copy failing its CRC, and an
  /// operator can restore the job's last committed state after the fact.
  /// Checkpoint I/O runs under the tenant's fault domain, so storage chaos
  /// (iobitrot/iotorn/...) in `chaos.faults` exercises it; a failed
  /// checkpoint write is absorbed (counted in faults_recovered), never
  /// fatal to the job.
  std::string checkpoint_dir;
};

/// What happened to a job.
enum class JobState : int {
  kCompleted = 0,  ///< ran to completion (possibly absorbing failures)
  kRejected,       ///< admission control refused it (kAdmission at submit)
  kShed,           ///< queued, then dropped under overload/preemption
  kFailed,         ///< started executing but could not complete
};

[[nodiscard]] inline const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kCompleted: return "completed";
    case JobState::kRejected: return "rejected";
    case JobState::kShed: return "shed";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

/// Outcome of one job.
struct JobResult {
  JobState state = JobState::kFailed;
  std::string tenant;
  std::string name;
  std::string reason;       ///< admission/shed reason, or failure detail
  double latency_ms = 0.0;  ///< submit -> outcome (queue wait included)
  double run_ms = 0.0;      ///< execution only
  std::size_t elements = 0;     ///< final mesh element count
  std::uint64_t digest = 0;     ///< order-independent element digest
  int ranks = 0;                ///< pool ranks the job actually held
  int failovers = 0;            ///< kRankFailed incidents absorbed
  int checkpoints = 0;          ///< checkpoints committed to checkpoint_dir
  int faults_recovered = 0;     ///< non-fatal structured errors retried past
  int retries = 0;              ///< admission resubmissions (submitWithRetry)
  bool packed = false;          ///< ran on a sibling job's grant
  /// Silent-corruption armor activity (dist/integrity.hpp), when the job's
  /// chaos spec schedules a memflip (or PUMI_INTEGRITY forces the armor on).
  int integrity_repairs = 0;    ///< corrupt parts repaired in place
  int integrity_flips = 0;      ///< memory faults injected into live state
};

}  // namespace svc

#endif  // PUMI_SVC_JOB_HPP
