#ifndef PUMI_SVC_SCHEDULER_HPP
#define PUMI_SVC_SCHEDULER_HPP

/// \file scheduler.hpp
/// \brief The multi-tenant mesh-service scheduler: admission control,
/// bounded queueing with priority shedding, same-tenant packing, and
/// tenant-isolated execution over the rank-pool ledger.
///
/// Execution model. The service owns a pool of ranks (the Ledger) and a
/// small crew of worker threads. submit() admits a job or rejects it with a
/// structured pcu::Error(kAdmission) naming the reason; admitted jobs wait
/// in a bounded queue until a worker can lease the requested width from the
/// pool. The worker then runs the whole mesh workflow (generate ->
/// partition -> migrate rounds -> balance -> optional solve) inside:
///
///  - a fresh pcu::faults::Domain installed as the thread's ambient domain
///    (faults::DomainScope), so the job's chaos spec, reliable-delivery
///    override and hang-detection deadline are scoped to the tenant — a
///    sibling tenant's traffic never sees them;
///  - a pcu::trace::TenantScope, so every trace event the job records is
///    stamped with the tenant for per-tenant reporting
///    (stats::buildTraceReport(merged, tenant)).
///
/// Robustness. A rank failure inside a job (kRankFailed) is contained to
/// that tenant: the worker evacuates the dead parts from the buddy journal,
/// rebalances the survivors, marks the dead pool rank in the ledger
/// (permanently shrinking the pool — no other tenant is ever handed the
/// corpse), and completes the job. Under overload the queue never grows past
/// its bound: a higher-priority submission preempts (sheds) the
/// lowest-priority queued job — shed jobs are named in the report, never
/// silently dropped — and submitWithRetry() adds capped-backoff
/// resubmission on queue-full rejections.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/job.hpp"
#include "svc/ledger.hpp"
#include "svc/patrol.hpp"
#include "svc/report.hpp"

namespace svc {

struct SchedulerOptions {
  int pool_size = 16;  ///< ranks the service owns
  int workers = 2;     ///< concurrent job executors
  std::size_t queue_capacity = 8;  ///< bounded admission queue
  int max_resubmits = 5;           ///< submitWithRetry budget
  int backoff_ms = 2;              ///< first resubmission backoff
  int max_backoff_ms = 20;         ///< backoff cap
  bool pack_same_tenant = true;    ///< run queued same-tenant jobs that fit
                                   ///< on an already-leased grant
  int op_retries = 3;  ///< per-operation retries for non-fatal faults
  /// Background integrity patrol (svc/patrol.hpp): scrub the ledgers of
  /// idle job meshes between operations on this cadence. Off by default —
  /// jobs without integrity armor gain nothing from the extra thread.
  bool patrol = false;
  int patrol_interval_ms = 10;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opts = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit a job. Throws pcu::Error(kAdmission) naming the reason when the
  /// job cannot be admitted: width exceeding the live pool capacity, or a
  /// full queue with no strictly-lower-priority work to shed. On success
  /// the returned future resolves to the job's outcome (kCompleted, kShed
  /// if later preempted, or kFailed).
  std::future<JobResult> submit(JobSpec spec);

  /// submit() and wait for the outcome.
  JobResult run(JobSpec spec);

  /// submit() with capped-backoff resubmission: a queue-full rejection
  /// sleeps (backoff_ms doubling up to max_backoff_ms) and resubmits, up to
  /// max_resubmits times; the eventual result carries the retry count. A
  /// capacity rejection (width too large for the pool) is permanent and
  /// rethrown immediately.
  std::future<JobResult> submitWithRetry(JobSpec spec);

  /// Block until the queue is empty and every worker is idle.
  void drain();

  /// Jobs currently queued (not yet leased to a worker).
  [[nodiscard]] std::size_t queueDepth() const;

  [[nodiscard]] Ledger& ledger() { return ledger_; }
  [[nodiscard]] const SchedulerOptions& options() const { return opts_; }
  /// The background integrity patrol; nullptr unless options().patrol.
  [[nodiscard]] Patrol* patrol() { return patrol_.get(); }

  /// Aggregate every outcome seen so far into the per-tenant report.
  [[nodiscard]] Report report() const;

 private:
  struct Pending {
    JobSpec spec;
    std::promise<JobResult> promise;
    std::chrono::steady_clock::time_point submitted;
    int retries = 0;
    std::uint64_t order = 0;  ///< submission sequence, FIFO tie-break
  };

  std::future<JobResult> submitInternal(JobSpec spec, int retries);
  void workerLoop();
  /// Run one job on a leased grant of pool ranks. Never throws: every
  /// outcome (including internal failures) becomes a JobResult.
  JobResult execute(const JobSpec& spec, const std::vector<int>& grant,
                    bool packed, int retries);
  void recordOutcome(const JobResult& result);

  SchedulerOptions opts_;
  Ledger ledger_;
  std::unique_ptr<Patrol> patrol_;  ///< created when opts_.patrol

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  int active_ = 0;  ///< workers currently executing
  std::uint64_t next_order_ = 0;
  std::size_t peak_queue_depth_ = 0;

  // Outcome log (guarded by mutex_): per-job results and the completed-job
  // latency samples the percentile report is cut from.
  std::vector<JobResult> results_;
  std::vector<std::string> shed_log_;

  std::vector<std::thread> workers_;
};

}  // namespace svc

#endif  // PUMI_SVC_SCHEDULER_HPP
