#include "svc/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "dist/digest.hpp"
#include "dist/failover.hpp"
#include "dist/integrity.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"
#include "pcu/trace.hpp"
#include "solver/poisson.hpp"

namespace svc {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Deterministic pseudo-random migration plan: ~5% of each part's elements
/// move to a random part (the same workload the elastic/failover demos use).
dist::MigrationPlan somePlan(dist::PartedMesh& pm, std::uint64_t seed) {
  common::Rng rng(seed);
  dist::MigrationPlan plan(static_cast<std::size_t>(pm.parts()));
  for (dist::PartId p = 0; p < pm.parts(); ++p)
    for (core::Ent e : pm.part(p).elements()) {
      if (rng.uniform() >= 0.05) continue;
      const auto dest = static_cast<dist::PartId>(
          rng.below(static_cast<std::uint64_t>(pm.parts())));
      if (dest != p) plan[static_cast<std::size_t>(p)][e] = dest;
    }
  return plan;
}

/// Fold the element-digest multiset into one order-independent witness
/// value (multiset iteration is sorted, so the fold is deterministic).
std::uint64_t foldDigest(const std::multiset<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t d : digests) {
    h ^= d;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(opts), ledger_(opts.pool_size) {
  if (opts_.patrol)
    patrol_ = std::make_unique<Patrol>(opts_.patrol_interval_ms);
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Jobs still queued are shed, by name — shutdown is an overload of one.
    for (auto& p : queue_) {
      JobResult r;
      r.state = JobState::kShed;
      r.tenant = p.spec.tenant;
      r.name = p.spec.name;
      r.reason = "service shutdown before execution";
      r.latency_ms = msSince(p.submitted);
      r.retries = p.retries;
      shed_log_.push_back(r.tenant + "/" + r.name + ": " + r.reason);
      results_.push_back(r);
      p.promise.set_value(std::move(r));
    }
    queue_.clear();
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::size_t Scheduler::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::future<JobResult> Scheduler::submit(JobSpec spec) {
  return submitInternal(std::move(spec), 0);
}

std::future<JobResult> Scheduler::submitInternal(JobSpec spec, int retries) {
  if (spec.width < 1)
    throw pcu::Error(pcu::ErrorCode::kValidation, -1,
                     "job \"" + spec.tenant + "/" + spec.name +
                         "\" wants width >= 1, got " +
                         std::to_string(spec.width));
  std::unique_lock<std::mutex> lock(mutex_);
  // Admission gate 1: the live pool (dead ranks excluded) must be able to
  // seat the job at all. Checked against capacity, not the momentary free
  // count — a busy pool queues, a shrunken pool rejects.
  const int capacity = ledger_.liveCapacity();
  if (spec.width > capacity) {
    JobResult r;
    r.state = JobState::kRejected;
    r.tenant = spec.tenant;
    r.name = spec.name;
    r.retries = retries;
    r.reason = "width " + std::to_string(spec.width) +
               " exceeds live pool capacity " + std::to_string(capacity) +
               " (pool " + std::to_string(ledger_.poolSize()) + ", dead " +
               std::to_string(ledger_.deadCount()) + ")";
    results_.push_back(r);
    throw pcu::Error(pcu::ErrorCode::kAdmission, -1,
                     "job \"" + spec.tenant + "/" + spec.name +
                         "\" rejected: " + r.reason);
  }
  // Admission gate 2: the queue is bounded. A full queue admits a new job
  // only by preempting a strictly-lower-priority queued one; otherwise the
  // submission is rejected with the depth in the reason.
  if (queue_.size() >= opts_.queue_capacity) {
    auto victim = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if (it->spec.priority < spec.priority &&
          (victim == queue_.end() ||
           it->spec.priority < victim->spec.priority ||
           (it->spec.priority == victim->spec.priority &&
            it->order > victim->order)))
        victim = it;  // lowest priority; youngest among equals (least waited)
    if (victim == queue_.end()) {
      JobResult r;
      r.state = JobState::kRejected;
      r.tenant = spec.tenant;
      r.name = spec.name;
      r.retries = retries;
      r.reason = "queue full (depth " + std::to_string(queue_.size()) +
                 ", capacity " + std::to_string(opts_.queue_capacity) +
                 "), no lower-priority job to shed";
      results_.push_back(r);
      throw pcu::Error(pcu::ErrorCode::kAdmission, -1,
                       "job \"" + spec.tenant + "/" + spec.name +
                           "\" rejected: " + r.reason);
    }
    JobResult shed;
    shed.state = JobState::kShed;
    shed.tenant = victim->spec.tenant;
    shed.name = victim->spec.name;
    shed.retries = victim->retries;
    shed.latency_ms = msSince(victim->submitted);
    shed.reason = std::string("preempted by ") + priorityName(spec.priority) +
                  "-priority \"" + spec.tenant + "/" + spec.name + "\"";
    shed_log_.push_back(shed.tenant + "/" + shed.name + ": " + shed.reason);
    results_.push_back(shed);
    victim->promise.set_value(std::move(shed));
    queue_.erase(victim);
  }
  Pending p;
  p.spec = std::move(spec);
  p.submitted = Clock::now();
  p.retries = retries;
  p.order = next_order_++;
  auto future = p.promise.get_future();
  queue_.push_back(std::move(p));
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  lock.unlock();
  cv_.notify_all();
  return future;
}

JobResult Scheduler::run(JobSpec spec) { return submit(std::move(spec)).get(); }

std::future<JobResult> Scheduler::submitWithRetry(JobSpec spec) {
  int backoff_ms = opts_.backoff_ms;
  for (int attempt = 0;; ++attempt) {
    try {
      return submitInternal(spec, attempt);
    } catch (const pcu::Error& e) {
      if (e.code() != pcu::ErrorCode::kAdmission) throw;
      // Capacity rejections are permanent; only queue pressure is worth
      // waiting out.
      if (e.detail().find("queue full") == std::string::npos) throw;
      if (attempt >= opts_.max_resubmits) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, opts_.max_backoff_ms);
  }
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void Scheduler::workerLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    // Dispatch order: highest priority first, FIFO within a priority. The
    // first candidate whose width the pool can seat right now wins; if
    // every queued job is blocked on busy ranks, wait for a release.
    std::vector<std::size_t> order(queue_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (queue_[a].spec.priority != queue_[b].spec.priority)
        return queue_[a].spec.priority > queue_[b].spec.priority;
      return queue_[a].order < queue_[b].order;
    });
    std::vector<int> grant;
    std::size_t picked = queue_.size();
    for (std::size_t idx : order) {
      grant = ledger_.tryAcquire(queue_[idx].spec.width);
      if (!grant.empty()) {
        picked = idx;
        break;
      }
    }
    if (picked == queue_.size()) {
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    // Claim the job plus — packing — every queued job of the same tenant
    // that fits on this grant: small jobs of one tenant share one subgroup
    // lease instead of each waiting for its own.
    std::vector<Pending> batch;
    batch.push_back(std::move(queue_[picked]));
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(picked));
    if (opts_.pack_same_tenant) {
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->spec.tenant == batch.front().spec.tenant &&
            it->spec.width <= static_cast<int>(grant.size())) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    ++active_;
    lock.unlock();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& p = batch[i];
      JobResult r = execute(p.spec, grant, i > 0, p.retries);
      r.latency_ms = msSince(p.submitted);
      recordOutcome(r);
      p.promise.set_value(std::move(r));
    }
    // Dead ranks stay dead inside release(); the rest return to the pool.
    ledger_.release(grant);
    lock.lock();
    --active_;
    lock.unlock();
    cv_.notify_all();
  }
}

JobResult Scheduler::execute(const JobSpec& spec, const std::vector<int>& grant,
                             bool packed, int retries) {
  JobResult res;
  res.tenant = spec.tenant;
  res.name = spec.name;
  res.ranks = static_cast<int>(grant.size());
  res.packed = packed;
  res.retries = retries;
  const auto t0 = Clock::now();
  // Tenant isolation: a fresh fault domain as this thread's ambient domain
  // scopes every faults::/arq:: decision the whole dist/parma/solver stack
  // makes below us; the trace tenant stamp scopes observability the same
  // way. Both unwind when this function returns.
  auto domain = std::make_shared<pcu::faults::Domain>();
  pcu::faults::DomainScope domain_scope(domain);
  pcu::trace::TenantScope tenant_scope(pcu::trace::intern(spec.tenant));
  try {
    if (spec.chaos.reliable) domain->setReliable(true);
    if (!spec.chaos.faults.empty())
      domain->install(pcu::faults::parsePlan(spec.chaos.faults));
    pcu::trace::Scope job_scope(
        pcu::trace::intern("svc:" + spec.tenant + "/" + spec.name));

    const int width = static_cast<int>(grant.size());
    auto gen = meshgen::boxTets(spec.nx, spec.ny, spec.nz);
    const auto assign =
        part::partition(*gen.mesh, width, part::Method::RCB);
    auto pm = dist::PartedMesh::distribute(
        *gen.mesh, gen.model.get(), assign,
        dist::PartMap(width, pcu::Machine::flat(width)));
    dist::failover::BuddyJournal journal;

    // Silent-corruption armor: active when the tenant's chaos spec armed a
    // memflip (or PUMI_INTEGRITY forces it). The armor repairs from the
    // same replicas failover evacuates from; the initial seal makes
    // boundary 0 the job's start, so a memflip@0 strikes the freshly
    // distributed mesh and the first operation's entry audit repairs it.
    dist::integrity::Armor* armor = pm->armorIfActive();
    std::mutex job_guard;
    std::uint64_t watch_id = 0;
    if (armor != nullptr) {
      armor->setJournal(&journal);
      armor->setCheckpointDir(spec.checkpoint_dir);
      // The seal records the pristine replica BEFORE any flip can strike.
      armor->sealAndMaybeInject();
      if (patrol_) watch_id = patrol_->watch(pm.get(), &job_guard);
    }
    struct Unwatch {
      Patrol* patrol;
      std::uint64_t id;
      ~Unwatch() {
        if (patrol != nullptr && id != 0) patrol->unwatch(id);
      }
    } unwatch{patrol_.get(), watch_id};

    // Run one operation with tier-2 retries for recoverable faults and
    // tenant-contained failover for rank failures. The blast radius of a
    // dead rank is exactly this job: evacuate its parts from the journal,
    // rebalance the survivors, and surrender the corpse to the ledger so no
    // other tenant is ever seated on it.
    // Phase-boundary durability: the journal always records; when the spec
    // names a checkpoint directory the same quiescent state also commits to
    // storage (evacuation's fallback for parts the journal lacks). The
    // checkpoint write runs under the tenant's fault domain — its storage
    // chaos applies — and a failed write is absorbed: the journal still
    // holds the state, so the job continues.
    auto persist = [&] {
      journal.record(*pm);
      if (spec.checkpoint_dir.empty()) return;
      try {
        dist::pario::checkpointImage(*pm, spec.checkpoint_dir);
        ++res.checkpoints;
      } catch (const pcu::Error&) {
        ++res.faults_recovered;
      }
    };
    auto attempt = [&](auto&& op) {
      // The job guard proves the mesh busy to the patrol for the whole
      // persist+op span; between attempts (and between phases) the patrol
      // may scrub.
      for (int tries = 0;; ++tries) {
        std::lock_guard<std::mutex> busy(job_guard);
        // Audit BEFORE persisting: a flip planted at the previous boundary
        // must be repaired before the journal/checkpoint re-record state,
        // or the corruption would be checksummed into the repair replicas
        // as truth.
        if (armor != nullptr) armor->auditAndRepair("svc:persist");
        persist();
        try {
          op();
          return;
        } catch (const pcu::Error& e) {
          if (e.code() == pcu::ErrorCode::kIntegrity) throw;
          if (e.code() == pcu::ErrorCode::kRankFailed) {
            const auto rep = dist::failover::evacuate(*pm, journal,
                                                      spec.checkpoint_dir);
            for (dist::PartId dead : rep.parts_evacuated)
              ledger_.markDead(grant[static_cast<std::size_t>(dead)]);
            parma::balanceAfterEvacuation(*pm, "Rgn", rep, {});
            pm->verify();
            ++res.failovers;
            return;  // the op aborted transactionally; survivors continue
          }
          ++res.faults_recovered;
          if (tries >= opts_.op_retries) throw;
        }
      }
    };

    // Each workflow phase ends on an explicit armor boundary (audit-and-
    // repair + reseal + scheduled flip), in addition to the per-operation
    // boundaries inside the transactional layer.
    auto phaseBoundary = [&](const char* where) {
      if (armor == nullptr) return;
      std::lock_guard<std::mutex> busy(job_guard);
      armor->boundary(where);
    };

    for (int round = 0; round < spec.migrate_rounds; ++round)
      attempt([&] {
        pm->migrate(somePlan(*pm, spec.seed + static_cast<std::uint64_t>(
                                                  round)));
      });
    phaseBoundary("svc:migrate");
    if (spec.balance) {
      parma::BalanceOptions bopts;
      bopts.max_rounds = 2;
      attempt([&] { parma::balance(*pm, "Rgn", bopts); });
      phaseBoundary("svc:balance");
    }
    if (spec.solve) {
      solver::PoissonOptions popts;
      popts.max_iterations = 200;
      popts.tolerance = 1e-8;
      attempt([&] {
        solver::solvePoisson(
            *pm, [](const common::Vec3&) { return 1.0; },
            [](const common::Vec3&) { return 0.0; }, popts);
      });
      phaseBoundary("svc:solve");
    }

    {
      std::lock_guard<std::mutex> busy(job_guard);
      if (armor != nullptr) armor->auditAndRepair("svc:final");
      pm->verify();
      persist();  // the completed mesh is the job's last committed state
    }
    if (armor != nullptr) {
      const auto irep = armor->report();
      res.integrity_repairs = static_cast<int>(irep.parts_repaired.size());
      res.integrity_flips = static_cast<int>(irep.flips_injected);
    }
    const auto digests = dist::digest::elementDigests(*pm);
    res.elements = digests.size();
    res.digest = foldDigest(digests);
    res.state = JobState::kCompleted;
  } catch (const pcu::Error& e) {
    res.state = JobState::kFailed;
    res.reason = e.what();
  } catch (const std::exception& e) {
    res.state = JobState::kFailed;
    res.reason = e.what();
  }
  res.run_ms = msSince(t0);
  return res;
}

void Scheduler::recordOutcome(const JobResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  results_.push_back(result);
}

Report Scheduler::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Report rep;
  rep.pool_size = opts_.pool_size;
  rep.ranks_dead = ledger_.deadCount();
  rep.queue_capacity = opts_.queue_capacity;
  rep.peak_queue_depth = peak_queue_depth_;
  rep.shed_jobs = shed_log_;
  std::map<std::string, TenantStats> tenants;
  std::map<std::string, std::vector<double>> latencies;
  for (const auto& r : results_) {
    auto& t = tenants[r.tenant];
    t.tenant = r.tenant;
    accumulate(t, r);
    if (r.state == JobState::kCompleted) latencies[r.tenant].push_back(
        r.latency_ms);
  }
  for (auto& [name, t] : tenants) {
    const auto& samples = latencies[name];
    if (!samples.empty()) {
      t.p50_ms = percentile(samples, 50.0);
      t.p99_ms = percentile(samples, 99.0);
      double sum = 0.0, mx = 0.0;
      for (double s : samples) {
        sum += s;
        mx = std::max(mx, s);
      }
      t.mean_ms = sum / static_cast<double>(samples.size());
      t.max_ms = mx;
    }
    rep.tenants.push_back(std::move(t));
  }
  return rep;
}

}  // namespace svc
