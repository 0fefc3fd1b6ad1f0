/// \file e2e_bench.cpp
/// \brief End-to-end benchmark: three workloads over the public
/// library API, driven from this one thread.
///
///   adapt_cycle   the canonical armored adaptive job, one epoch per step:
///                 refine -> coarsen -> parma balance -> ghost round trip
///                 -> solve -> journal record -> checkpoint, with a restore
///                 from the checkpoint every tenth epoch.
///   solve_fixed   repeated Poisson solves on a static 16-part mesh with
///                 every robustness layer off.
///   service_jobs  a closed-loop client driving svc::Scheduler with a
///                 repeating job mix; chaos jobs have clean twins.
///
/// Usage:
///   e2e_bench --workload W --seed N --seconds S --trace 0|1 --out DIR
///   e2e_bench --selftest --out DIR
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. --trace 0 reports the
/// end-to-end metrics; --trace 1 alternates untraced and traced cycles of
/// the same work and reports the per-layer metrics. See NOTES.md.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "adapt/sizefield.hpp"
#include "common/crc32.hpp"
#include "dist/failover.hpp"
#include "dist/integrity.hpp"
#include "dist/padapt.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "field/field.hpp"
#include "meshgen/boxmesh.hpp"
#include "parma/balance.hpp"
#include "part/partition.hpp"
#include "solver/poisson.hpp"
#include "svc/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using common::Vec3;

// --- small utilities -------------------------------------------------------

/// splitmix64: the benchmark's only source of seeded variation.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fsTypeName(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

// --- correctness gates -------------------------------------------------------

/// Every check a run makes; failed checks feed `failed` in the result.
struct Gates {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
    return ok;
  }
};

// --- per-layer accounting ----------------------------------------------------

/// Per-layer metrics of a traced run. Times are summed over traced steps
/// and reported per step; counts cover exactly the first traced cycle, so
/// they repeat at a fixed seed whatever the machine's speed.
struct Layers {
  std::map<std::string, double> ms;      ///< layer time over traced steps
  std::map<std::string, double> counts;  ///< first traced cycle only
  std::map<std::string, std::vector<double>> setup_ms;
  std::vector<double> svc_run_ms, svc_wait_ms;
  double parma_imbalance = 0.0;
  double solver_max_err = 0.0;
  double solver_iters_total = 0.0;  ///< over traced steps (ms_per_iter)
  bool counting = false;  ///< inside the first traced cycle
  bool timing = false;    ///< inside a traced cycle

  void addMs(const std::string& k, double v) {
    if (timing) ms[k] += v;
  }
  void addCount(const std::string& k, double v) {
    if (counting) counts[k] += v;
  }
};

struct Ctx {
  std::uint64_t seed = 1;
  std::string out_dir;
  Tracer tracer;
  Gates gates;
  Layers layers;
};

/// Network counters around one layer call.
struct NetDelta {
  pcu::CommStats before;
  explicit NetDelta(const dist::PartedMesh& pm)
      : before(pm.network().stats()) {}
  [[nodiscard]] pcu::CommStats since(const dist::PartedMesh& pm) const {
    pcu::CommStats d = pm.network().stats();
    d.messages_sent -= before.messages_sent;
    d.bytes_sent -= before.bytes_sent;
    d.physical_messages -= before.physical_messages;
    d.physical_bytes -= before.physical_bytes;
    return d;
  }
};

/// Integrity armor counters around one layer call (zero when unarmored).
struct ArmorProbe {
  std::uint64_t bytes_hashed = 0, mismatches = 0;
  double audit_ms = 0.0, seal_ms = 0.0;
  static ArmorProbe read(dist::PartedMesh& pm) {
    ArmorProbe p;
    if (auto* armor = pm.armorIfActive()) {
      const auto rep = armor->report();
      p.bytes_hashed = rep.bytes_hashed;
      p.mismatches = rep.mismatches;
      p.audit_ms = rep.audit_ms;
      p.seal_ms = rep.seal_ms;
    }
    return p;
  }
  [[nodiscard]] double ms() const { return audit_ms + seal_ms; }
};

/// Times one public call into a layer: a span when tracing, the layer's
/// time when timing, and the armor's audit/seal time inside it moved to
/// the integrity layer. Returns the call's result.
template <class F>
auto layerCall(Ctx& ctx, dist::PartedMesh* pm, const char* span,
               const char* ms_key, F&& f) {
  const bool probe = ctx.layers.timing && pm != nullptr;
  const ArmorProbe a0 = probe ? ArmorProbe::read(*pm) : ArmorProbe{};
  Scope scope(ctx.tracer, span);
  const auto t0 = Clock::now();
  auto finish = [&] {
    const double ms = msBetween(t0, Clock::now());
    if (!ctx.layers.timing) return;
    double inner = 0.0;
    if (probe) {
      const ArmorProbe a1 = ArmorProbe::read(*pm);
      inner = std::max(0.0, a1.ms() - a0.ms());
      ctx.layers.addMs("integrity.audit_ms", a1.audit_ms - a0.audit_ms);
      ctx.layers.addMs("integrity.seal_ms", a1.seal_ms - a0.seal_ms);
      ctx.layers.addCount("integrity.bytes_hashed",
                          static_cast<double>(a1.bytes_hashed - a0.bytes_hashed));
      ctx.layers.addCount("integrity.mismatches",
                          static_cast<double>(a1.mismatches - a0.mismatches));
    }
    scope.setInner(inner);
    ctx.layers.addMs(ms_key, ms - inner);
  };
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    finish();
  } else {
    auto r = f();
    finish();
    return r;
  }
}

/// The armor reseal the benchmark owes after a mutator the library does not
/// treat as a commit point (refineParted, coarsenParted, unghost): without
/// it the next audit reads the mutator's legitimate edits as corruption and
/// "repairs" them from the journal. The seal runs only when the call did
/// not cross an armor boundary itself, so the benchmark stays correct once
/// the library seals these calls.
void sealAfterMutator(Ctx& ctx, dist::PartedMesh& pm, std::uint64_t before) {
  auto* armor = pm.armorIfActive();
  if (armor == nullptr || armor->boundaryIndex() != before) return;
  layerCall(ctx, &pm, "integrity", "integrity.seal_ms",
            [&] { armor->sealAndMaybeInject(); });
}

std::uint64_t boundaryOf(dist::PartedMesh& pm) {
  auto* armor = pm.armorIfActive();
  return armor == nullptr ? 0 : armor->boundaryIndex();
}

/// Max |u - exact| over every part's vertices, from the solver's "u" field.
double maxNodalError(dist::PartedMesh& pm,
                     const std::function<double(const Vec3&)>& exact) {
  double err = 0.0;
  for (dist::PartId p = 0; p < pm.parts(); ++p) {
    auto& mesh = pm.part(p).mesh();
    field::Field u(mesh, "u", field::ValueType::Scalar,
                   field::Location::Vertex);
    for (core::Ent v : mesh.entities(0))
      err = std::max(err, std::fabs(u.getScalar(v) - exact(mesh.point(v))));
  }
  return err;
}

/// verify() as a gate: a broken distributed invariant is a failed check.
void gateVerify(Ctx& ctx, const dist::PartedMesh& pm, const char* where) {
  std::string what;
  try {
    pm.verify();
  } catch (const std::exception& e) {
    what = e.what();
  }
  ctx.gates.check(what.empty(),
                  std::string("verify() at ") + where + ": " + what);
}

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build fresh state (replacing any earlier state): everything a user
  /// pays before the first step.
  virtual void setup(Ctx& ctx) = 0;
  /// Steps in one cycle; runs measure whole cycles.
  [[nodiscard]] virtual int cycleSteps() const = 0;
  /// Set-ups per run (the median is reported): about five seconds' worth.
  [[nodiscard]] virtual int setupReps() const = 0;
  virtual void step(Ctx& ctx, long index) = 0;
  /// Gates checked between steps, outside the step timer.
  virtual void afterStep(Ctx& ctx, long index) = 0;
  /// End-of-run gates.
  virtual void finish(Ctx& ctx) = 0;
};

/// Distributed mesh built the way every workload starts: generate,
/// partition, distribute. Per-layer setup times are recorded.
std::unique_ptr<dist::PartedMesh> distributeBox(Ctx& ctx,
                                                meshgen::Generated& gen, int n,
                                                int nparts,
                                                part::Method method) {
  auto t0 = Clock::now();
  gen = meshgen::boxTets(n, n, n);
  auto t1 = Clock::now();
  const auto assign = part::partition(*gen.mesh, nparts, method);
  auto t2 = Clock::now();
  auto pm = dist::PartedMesh::distribute(
      *gen.mesh, gen.model.get(), assign,
      dist::PartMap(nparts, pcu::Machine::flat(nparts)));
  auto t3 = Clock::now();
  ctx.layers.setup_ms["meshgen.ms"].push_back(msBetween(t0, t1));
  ctx.layers.setup_ms["part.partition_ms"].push_back(msBetween(t1, t2));
  ctx.layers.setup_ms["dist.distribute_ms"].push_back(msBetween(t2, t3));
  return pm;
}

// adapt_cycle -----------------------------------------------------------------

/// Sizes fixed for this workload. Four parts keep pario's per-part writer
/// threads within a four-core box; the front sweeps the box in ten
/// positions, and every tenth epoch restores from its checkpoint.
struct AdaptConfig {
  int box = 6;
  int parts = 4;
  int positions = 10;
  int restore_every = 10;
  double band = 0.08;
  double h_fine = 0.12;
  double h_coarse = 0.3;
  bool seal_mutators = true;  ///< off only in the self-test
};

class AdaptCycle final : public Workload {
 public:
  explicit AdaptCycle(AdaptConfig cfg = {}) : cfg_(cfg) {}

  void setup(Ctx& ctx) override {
    // Seeded input: the Poisson source strength. The mesh path (front
    // positions, partition) is fixed so every seed costs the same work and
    // memory; the solve's iterations vary only slightly with the source.
    Rng rng{ctx.seed * 0x2545F4914F6CDD1Dull + 11};
    source_ = rng.uniform(0.5, 1.5);

    ckpt_ = ctx.out_dir + "/ckpt-adapt";
    fs::remove_all(ckpt_);
    pm_.reset();
    journal_ = std::make_unique<dist::failover::BuddyJournal>();
    pm_ = distributeBox(ctx, gen_, cfg_.box, cfg_.parts, part::Method::RCB);
    arm();
    // Warm-up: one full sweep brings the mesh to its stationary size.
    for (int k = 0; k < cfg_.positions; ++k) epoch(ctx, k);
  }

  [[nodiscard]] int cycleSteps() const override { return cfg_.positions; }
  [[nodiscard]] int setupReps() const override { return 3; }

  void step(Ctx& ctx, long index) override {
    epoch(ctx, static_cast<int>(index % cfg_.positions));
    ++epochs_;
    if (epochs_ % cfg_.restore_every == 0) restore(ctx);
  }

  void afterStep(Ctx&, long) override {}

  void finish(Ctx& ctx) override {
    gateVerify(ctx, *pm_, "adapt_cycle end");
    std::printf("adapt_cycle: %zu elements at the end of the run\n",
                pm_->globalCount(3));
    fs::remove_all(ckpt_);
  }

  /// One epoch at front position `pos`; public for the self-test.
  void epoch(Ctx& ctx, int pos) {
    auto& pm = *pm_;
    Layers& L = ctx.layers;
    // A planar front normal to x, at the centre of slab `pos`.
    const double x = (pos + 0.5) / cfg_.positions;
    adapt::ShockFrontSize size({x, 0.5, 0.5}, {1, 0, 0}, cfg_.band,
                               cfg_.h_fine, cfg_.h_coarse);
    const std::uint64_t mism0 = mismatches();
    const auto journal_bytes0 = journal_->bytesStreamed();
    const auto journal_skipped0 = journal_->recordsSkipped();

    std::uint64_t b = boundaryOf(pm);
    const auto ref = layerCall(ctx, &pm, "adapt.refine", "adapt.refine_ms",
                               [&] { return dist::refineParted(pm, size); });
    if (cfg_.seal_mutators) sealAfterMutator(ctx, pm, b);
    L.addCount("adapt.splits", static_cast<double>(ref.splits));

    b = boundaryOf(pm);
    const auto coa = layerCall(ctx, &pm, "adapt.coarsen", "adapt.coarsen_ms",
                               [&] { return dist::coarsenParted(pm, size); });
    if (cfg_.seal_mutators) sealAfterMutator(ctx, pm, b);
    L.addCount("adapt.collapses", static_cast<double>(coa.collapses));

    const std::size_t elems = pm.globalCount(3);
    {
      NetDelta net(pm);
      parma::BalanceOptions bopts;
      bopts.max_rounds = 2;
      const auto rep =
          layerCall(ctx, &pm, "parma", "parma.ms",
                    [&] { return parma::balance(pm, "Rgn", bopts); });
      const auto d = net.since(pm);
      L.addCount("parma.rounds", rep.rounds);
      L.addCount("parma.elems_migrated",
                 static_cast<double>(rep.elements_migrated));
      L.addCount("parma.net_bytes", static_cast<double>(d.bytes_sent));
      if (L.counting) L.parma_imbalance = rep.final_imbalance;
    }
    ctx.gates.check(pm.globalCount(3) == elems,
                    "parma::balance changed the element count at position " +
                        std::to_string(pos) + ": " + std::to_string(elems) +
                        " -> " + std::to_string(pm.globalCount(3)));

    {
      NetDelta net(pm);
      layerCall(ctx, &pm, "ghost", "ghost.ms", [&] {
        pm.ghostLayers(1);
        pm.syncGhostTags();
      });
      b = boundaryOf(pm);
      layerCall(ctx, &pm, "ghost", "ghost.ms", [&] { pm.unghost(); });
      if (cfg_.seal_mutators) sealAfterMutator(ctx, pm, b);
      const auto d = net.since(pm);
      L.addCount("ghost.net_msgs", static_cast<double>(d.messages_sent));
      L.addCount("ghost.net_bytes", static_cast<double>(d.bytes_sent));
    }

    {
      NetDelta net(pm);
      const auto rep = layerCall(ctx, &pm, "solver", "solver.ms", [&] {
        return solver::solvePoisson(
            pm, [f = source_](const Vec3&) { return f; },
            [](const Vec3&) { return 0.0; },
            {.max_iterations = 2000, .tolerance = 1e-8});
      });
      const auto d = net.since(pm);
      ctx.gates.check(rep.converged, "adapt_cycle solve did not converge");
      if (L.timing) L.solver_iters_total += rep.iterations;
      L.addCount("solver.iters", rep.iterations);
      L.addCount("solver.net_msgs_logical",
                 static_cast<double>(d.messages_sent));
      L.addCount("solver.net_msgs_physical",
                 static_cast<double>(d.physical_messages));
    }

    // The journal counts cover the whole epoch: the armor refreshes the
    // journal at every seal as well.
    layerCall(ctx, nullptr, "journal", "journal.ms",
              [&] { journal_->record(pm); });
    L.addCount("journal.bytes",
               static_cast<double>(journal_->bytesStreamed() - journal_bytes0));
    L.addCount("journal.records_skipped",
               static_cast<double>(journal_->recordsSkipped() - journal_skipped0));

    const auto w = layerCall(ctx, &pm, "pario.write", "pario.write_ms", [&] {
      return dist::pario::checkpointImage(pm, ckpt_);
    });
    L.addCount("pario.write_bytes", static_cast<double>(w.bytes));

    ctx.gates.check(mismatches() == mism0,
                    "integrity mismatches with no flip injected at position " +
                        std::to_string(pos));
  }

  /// Restart from the last checkpoint; restoreImage enforces the MANIFEST
  /// fingerprint, so a bad image is a failed gate.
  void restore(Ctx& ctx) {
    dist::pario::RestoreReport rep;
    std::unique_ptr<dist::PartedMesh> fresh;
    std::string err;
    layerCall(ctx, nullptr, "pario.restore", "pario.restore_ms", [&] {
      try {
        fresh = dist::pario::restoreImage(
            ckpt_, gen_.model.get(),
            dist::PartMap(cfg_.parts, pcu::Machine::flat(cfg_.parts)),
            dist::pario::OnLoss::kFail, &rep);
      } catch (const std::exception& e) {
        err = e.what();
      }
    });
    ctx.layers.addCount("pario.read_bytes", static_cast<double>(rep.bytes_read));
    if (!ctx.gates.check(fresh != nullptr, "restoreImage failed: " + err))
      return;
    pm_ = std::move(fresh);
    arm();
    // Arming seals the restored state: the first boundary of the new armor.
    layerCall(ctx, pm_.get(), "integrity", "integrity.seal_ms",
              [&] { pm_->armor().sealAndMaybeInject(); });
  }

  [[nodiscard]] dist::PartedMesh& mesh() { return *pm_; }
  [[nodiscard]] const std::string& checkpointDir() const { return ckpt_; }

 private:
  void arm() {
    pm_->setTransactional(true);
    pm_->setIntegrity(true);
    pm_->armor().setJournal(journal_.get());
  }
  std::uint64_t mismatches() { return ArmorProbe::read(*pm_).mismatches; }

  AdaptConfig cfg_;
  meshgen::Generated gen_;
  std::unique_ptr<dist::failover::BuddyJournal> journal_;
  std::unique_ptr<dist::PartedMesh> pm_;
  std::string ckpt_;
  double source_ = 1.0;
  long epochs_ = 0;
};

// solve_fixed -----------------------------------------------------------------

struct SolveConfig {
  int box = 18;
  int parts = 16;
  double tolerance = 1e-10;
  int max_iterations = 2000;
  double max_err = 1e-6;
};

class SolveFixed final : public Workload {
 public:
  explicit SolveFixed(SolveConfig cfg = {}) : cfg_(cfg) {}

  void setup(Ctx& ctx) override {
    // Seeded inputs: the coefficients of the manufactured linear solution
    // (f = 0; P1 elements reproduce it exactly).
    Rng rng{ctx.seed * 0x9E3779B97F4A7C15ull + 5};
    a_ = rng.uniform(0.5, 1.5);
    bx_ = rng.uniform(0.5, 1.5);
    by_ = rng.uniform(1.5, 2.5);
    bz_ = rng.uniform(2.5, 3.5);
    pm_.reset();
    pm_ = distributeBox(ctx, gen_, cfg_.box, cfg_.parts, part::Method::RCB);
  }

  [[nodiscard]] int cycleSteps() const override { return 1; }
  [[nodiscard]] int setupReps() const override { return 9; }

  void step(Ctx& ctx, long) override {
    auto& pm = *pm_;
    NetDelta net(pm);
    report_ = layerCall(ctx, &pm, "solver", "solver.ms", [&] {
      return solver::solvePoisson(
          pm, [](const Vec3&) { return 0.0; }, exact(),
          {.max_iterations = cfg_.max_iterations,
           .tolerance = cfg_.tolerance});
    });
    const auto d = net.since(pm);
    Layers& L = ctx.layers;
    if (L.timing) L.solver_iters_total += report_.iterations;
    L.addCount("solver.iters", report_.iterations);
    L.addCount("solver.net_msgs_logical", static_cast<double>(d.messages_sent));
    L.addCount("solver.net_msgs_physical",
               static_cast<double>(d.physical_messages));
  }

  void afterStep(Ctx& ctx, long) override {
    const double err = maxNodalError(*pm_, exact());
    ctx.layers.solver_max_err = std::max(ctx.layers.solver_max_err, err);
    ctx.gates.check(report_.converged, "solve_fixed did not converge");
    ctx.gates.check(err <= cfg_.max_err,
                    "solve_fixed nodal error " + std::to_string(err));
  }

  void finish(Ctx& ctx) override { gateVerify(ctx, *pm_, "solve_fixed end"); }

  [[nodiscard]] std::function<double(const Vec3&)> exact() const {
    const double a = a_, bx = bx_, by = by_, bz = bz_;
    return [=](const Vec3& x) { return a + bx * x.x + by * x.y + bz * x.z; };
  }
  void setExactForTest(double a) { a_ = a; }

 private:
  SolveConfig cfg_;
  meshgen::Generated gen_;
  std::unique_ptr<dist::PartedMesh> pm_;
  solver::PoissonReport report_;
  double a_ = 1, bx_ = 1, by_ = 2, bz_ = 3;
};

// service_jobs ----------------------------------------------------------------

/// One slot of the repeating job mix. A chaos slot is the memflip twin of
/// the clean slot `twin_of`: same spec, plus chaos.
struct MixSlot {
  int width;
  int box;
  bool solve;
  bool checkpoint;
  int twin_of = -1;
};

class ServiceJobs final : public Workload {
 public:
  ServiceJobs() {
    // Eleven jobs per cycle: three small (box 6), five mid-size (box 8,
    // width 4) and three large (box 10). One small and one large job are
    // memflip twins of another slot. The mid-size class holds the median
    // job, so step_ms.p50 does not jump between job sizes under noise.
    mix_ = {{4, 6, true, false},       {8, 6, false, true},
            {4, 8, false, false},      {4, 8, false, false},
            {4, 8, true, false},       {4, 8, false, true},
            {4, 8, false, false},      {4, 10, false, true},
            {8, 10, true, false},      {4, 6, true, false, 0},
            {8, 10, true, false, 8}};
  }

  void setup(Ctx& ctx) override {
    // Seeded inputs: the memflip plans (fault seed and boundary) of the
    // chaos jobs. Job specs and their order are fixed, so every cycle
    // costs the same work and reaches the same heap high-water mark.
    Rng rng{ctx.seed * 0xD1B54A32D192ED03ull + 3};
    flip_.resize(mix_.size());
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      flip_[i] = "seed=" + std::to_string(1 + rng.next() % 1000) +
                 ",memflip=2@" + std::to_string(1 + rng.next() % 2);
    }
    ckpt_root_ = ctx.out_dir + "/ckpt-svc";
    fs::remove_all(ckpt_root_);
    sched_.reset();
    svc::SchedulerOptions opts;
    opts.pool_size = 8;
    opts.workers = 1;
    sched_ = std::make_unique<svc::Scheduler>(opts);
    // Warm-up: one clean job of every shape (cold start of the service).
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      if (mix_[i].twin_of >= 0) continue;
      auto r = sched_->run(spec(static_cast<int>(i), "warm" + std::to_string(i)));
      ctx.gates.check(r.state == svc::JobState::kCompleted,
                      "warm-up job failed: " + r.reason);
    }
  }

  [[nodiscard]] int cycleSteps() const override {
    return static_cast<int>(mix_.size());
  }
  [[nodiscard]] int setupReps() const override { return 5; }

  void step(Ctx& ctx, long index) override {
    const int slot = static_cast<int>(index % static_cast<long>(mix_.size()));
    auto s = spec(slot, "j" + std::to_string(index));
    Scope scope(ctx.tracer, "svc");
    try {
      last_ = sched_->run(std::move(s));
    } catch (const std::exception& e) {
      last_ = svc::JobResult{};
      last_.state = svc::JobState::kRejected;
      last_.reason = e.what();
    }
    last_slot_ = slot;
  }

  void afterStep(Ctx& ctx, long index) override {
    const auto& r = last_;
    Layers& L = ctx.layers;
    ctx.gates.check(r.state == svc::JobState::kCompleted,
                    "job " + r.name + " " + svc::jobStateName(r.state) + ": " +
                        r.reason);
    if (L.timing) {
      L.svc_run_ms.push_back(r.run_ms);
      L.svc_wait_ms.push_back(std::max(0.0, r.latency_ms - r.run_ms));
    }
    L.addCount("svc.faults_recovered", r.faults_recovered);
    L.addCount("svc.integrity_repairs", r.integrity_repairs);
    L.addCount("svc.checkpoints", r.checkpoints);
    // Twin gate at the end of each cycle: every chaos job landed on the
    // exact mesh its clean twin produced.
    digest_[last_slot_] = r.state == svc::JobState::kCompleted ? r.digest : 0;
    if ((index + 1) % static_cast<long>(mix_.size()) == 0) {
      for (std::size_t i = 0; i < mix_.size(); ++i) {
        if (mix_[i].twin_of < 0) continue;
        ctx.gates.check(digest_[i] != 0 &&
                            digest_[i] == digest_[static_cast<std::size_t>(
                                              mix_[i].twin_of)],
                        "chaos job digest differs from its clean twin (slot " +
                            std::to_string(i) + ")");
      }
      digest_.clear();
    }
  }

  void finish(Ctx&) override {
    sched_.reset();
    fs::remove_all(ckpt_root_);
  }

  /// The job of mix slot `slot`; a twin shares its clean slot's seed.
  [[nodiscard]] svc::JobSpec spec(int slot, const std::string& name) const {
    const MixSlot& m = mix_[static_cast<std::size_t>(slot)];
    const int base = m.twin_of >= 0 ? m.twin_of : slot;
    svc::JobSpec s;
    s.tenant = "bench";
    s.name = name;
    s.width = m.width;
    s.seed = 101 + static_cast<std::uint64_t>(base);
    s.nx = s.ny = s.nz = m.box;
    s.solve = m.solve;
    if (m.checkpoint)
      s.checkpoint_dir = ckpt_root_ + "/slot" + std::to_string(base);
    if (m.twin_of >= 0) s.chaos.faults = flip_[static_cast<std::size_t>(slot)];
    return s;
  }
  svc::Scheduler& scheduler() { return *sched_; }

 private:
  std::vector<MixSlot> mix_;
  std::vector<std::string> flip_;
  std::map<int, std::uint64_t> digest_;
  std::string ckpt_root_;
  std::unique_ptr<svc::Scheduler> sched_;
  svc::JobResult last_;
  int last_slot_ = 0;
};

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool selftest = false;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "adapt_cycle") return std::make_unique<AdaptCycle>();
  if (name == "solve_fixed") return std::make_unique<SolveFixed>();
  if (name == "service_jobs") return std::make_unique<ServiceJobs>();
  return nullptr;
}

std::string envStamp(const Args& a) {
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
#if defined(PUMI_CRC32C_HW) && PUMI_CRC32C_HW == 1
  const std::string crc = "sse4.2 (compiled in)";
#elif defined(PUMI_CRC32C_HW) && PUMI_CRC32C_HW == 2
  const std::string crc = common::detail::crc32cHwAvailable()
                              ? "sse4.2 (runtime dispatch)"
                              : "table (runtime dispatch, no sse4.2)";
#else
  const std::string crc = "table";
#endif
  std::ostringstream os;
  os << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"asserts\":\""
     << asserts << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":\"" << PERFBENCH_COMPILER << "\",\"crc32c\":\"" << crc
     << "\",\"checkpoint_fs\":\"" << fsTypeName(a.out_dir)
     << "\",\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
     << ",\"trace\":" << (a.trace ? 1 : 0) << "}";
  return os.str();
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Gates& g, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (g.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max(1L, g.attempted)
     << ", \"failed\": " << g.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void printSelfTimes(const SelfTimes& st, double cycles) {
  std::printf("\nself time over traced steps (%.0f traced cycles)\n", cycles);
  std::printf("  %-16s %8s %12s %12s %8s\n", "span", "calls", "total_ms",
              "self_ms", "share");
  for (const auto& [name, row] : st.rows)
    std::printf("  %-16s %8ld %12.3f %12.3f %7.2f%%\n", name.c_str(), row.calls,
                row.total_ms, row.self_ms,
                st.step_ms > 0 ? 100.0 * row.self_ms / st.step_ms : 0.0);
  std::printf("  %-16s %8s %12s %12.3f %7.2f%%\n", "(unattributed)", "", "",
              st.unattributed_ms,
              st.step_ms > 0 ? 100.0 * st.unattributed_ms / st.step_ms : 0.0);
  std::printf("  %-16s %8s %12.3f\n\n", "(steps)", "", st.step_ms);
}

int runWorkload(const Args& args) {
  Ctx ctx;
  ctx.seed = args.seed;
  ctx.out_dir = args.out_dir;
  auto wl = makeWorkload(args.workload);
  if (wl == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << "env " << envStamp(args) << std::endl;

  // Set-up several times; the reported value is the median. The last
  // state built is the one the steps run on.
  std::vector<double> setup_s;
  for (int r = 0; r < wl->setupReps(); ++r) {
    const auto t0 = Clock::now();
    wl->setup(ctx);
    setup_s.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }

  // Whole cycles until the time is up. A traced run alternates untraced
  // and traced cycles of the same work and ends on a traced one.
  std::vector<double> step_ms, traced_ms;
  double untraced_s = 0.0, traced_s = 0.0;
  double rss_mb = 0.0;
  int traced_cycles = 0;
  long index = 0;
  const auto start = Clock::now();
  ctx.tracer.setOrigin(start);
  for (int c = 0;; ++c) {
    const bool traced = args.trace && c % 2 == 1;
    ctx.tracer.setOn(traced);
    ctx.layers.timing = traced;
    ctx.layers.counting = traced && c == 1;
    double cycle_ms = 0.0;
    for (int s = 0; s < wl->cycleSteps(); ++s, ++index) {
      ctx.tracer.setStep(static_cast<int>(index));
      const int id = ctx.tracer.begin("step");
      const auto t0 = Clock::now();
      wl->step(ctx, index);
      const double ms = msBetween(t0, Clock::now());
      ctx.tracer.end(id);
      (traced ? traced_ms : step_ms).push_back(ms);
      cycle_ms += ms;
      wl->afterStep(ctx, index);
    }
    (traced ? traced_s : untraced_s) += cycle_ms / 1000.0;
    traced_cycles += traced ? 1 : 0;
    // The peak is read after the first cycle, a fixed amount of work: the
    // peak at the end of the run grows with the number of cycles a
    // machine's speed allows (see NOTES.md).
    if (c == 0) rss_mb = peakRssMb();
    const bool out_of_time =
        msBetween(start, Clock::now()) >= args.seconds * 1000.0;
    if (out_of_time && (!args.trace || c % 2 == 1)) break;
  }
  ctx.tracer.setOn(false);
  ctx.layers.timing = ctx.layers.counting = false;
  wl->finish(ctx);

  for (const auto& f : ctx.gates.failures)
    std::cout << "FAILED GATE: " << f << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", median(setup_s), "s"},
               {"step_ms.p50", median(step_ms), "ms"},
               {"peak_rss_mb", rss_mb, "MB"}};
    std::printf("steps %zu, untraced run %.3f s, peak rss at the end %.1f MB, "
                "failed_frac %.6f\n",
                step_ms.size(), untraced_s, peakRssMb(),
                static_cast<double>(ctx.gates.failed) /
                    static_cast<double>(std::max(1L, ctx.gates.attempted)));
  } else {
    const auto st = selfTimes(ctx.tracer.spans(), "integrity");
    printSelfTimes(st, traced_cycles);
    const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                   "-seed" + std::to_string(args.seed) + ".json";
    {
      std::ofstream out(spans_path);
      ctx.tracer.writeJson(out);
    }
    std::cout << "spans written to " << spans_path << "\n";
    const Layers& L = ctx.layers;
    const double steps = std::max<double>(1.0, static_cast<double>(traced_ms.size()));
    auto perStep = [&](const char* k) {
      auto it = L.ms.find(k);
      return it == L.ms.end() ? 0.0 : it->second / steps;
    };
    auto count = [&](const char* k) {
      auto it = L.counts.find(k);
      return it == L.counts.end() ? 0.0 : it->second;
    };
    auto setupMs = [&](const char* k) {
      auto it = L.setup_ms.find(k);
      return it == L.setup_ms.end() ? 0.0 : median(it->second);
    };
    const double solver_ms = perStep("solver.ms") * steps;
    metrics = {
        {"meshgen.ms", setupMs("meshgen.ms"), "ms"},
        {"part.partition_ms", setupMs("part.partition_ms"), "ms"},
        {"dist.distribute_ms", setupMs("dist.distribute_ms"), "ms"},
        {"adapt.refine_ms", perStep("adapt.refine_ms"), "ms"},
        {"adapt.coarsen_ms", perStep("adapt.coarsen_ms"), "ms"},
        {"adapt.splits", count("adapt.splits"), "count"},
        {"adapt.collapses", count("adapt.collapses"), "count"},
        {"parma.ms", perStep("parma.ms"), "ms"},
        {"parma.rounds", count("parma.rounds"), "count"},
        {"parma.elems_migrated", count("parma.elems_migrated"), "count"},
        {"parma.imbalance", L.parma_imbalance, "ratio"},
        {"parma.net_bytes", count("parma.net_bytes"), "B"},
        {"ghost.ms", perStep("ghost.ms"), "ms"},
        {"ghost.net_msgs", count("ghost.net_msgs"), "count"},
        {"ghost.net_bytes", count("ghost.net_bytes"), "B"},
        {"solver.ms", perStep("solver.ms"), "ms"},
        {"solver.iters", count("solver.iters"), "count"},
        {"solver.ms_per_iter",
         L.solver_iters_total > 0 ? solver_ms / L.solver_iters_total : 0.0,
         "ms"},
        {"solver.net_msgs_logical", count("solver.net_msgs_logical"), "count"},
        {"solver.net_msgs_physical", count("solver.net_msgs_physical"),
         "count"},
        {"solver.max_err", L.solver_max_err, "abs"},
        {"integrity.seal_ms", perStep("integrity.seal_ms"), "ms"},
        {"integrity.audit_ms", perStep("integrity.audit_ms"), "ms"},
        {"integrity.bytes_hashed", count("integrity.bytes_hashed"), "B"},
        {"integrity.mismatches", count("integrity.mismatches"), "count"},
        {"journal.ms", perStep("journal.ms"), "ms"},
        {"journal.bytes", count("journal.bytes"), "B"},
        {"journal.records_skipped", count("journal.records_skipped"), "count"},
        {"pario.write_ms", perStep("pario.write_ms"), "ms"},
        {"pario.write_bytes", count("pario.write_bytes"), "B"},
        {"pario.restore_ms", perStep("pario.restore_ms"), "ms"},
        {"pario.read_bytes", count("pario.read_bytes"), "B"},
        {"svc.run_ms.p50", median(L.svc_run_ms), "ms"},
        {"svc.wait_ms.p50", median(L.svc_wait_ms), "ms"},
        {"svc.faults_recovered", count("svc.faults_recovered"), "count"},
        {"svc.integrity_repairs", count("svc.integrity_repairs"), "count"},
        {"svc.checkpoints", count("svc.checkpoints"), "count"},
        {"bench.unattributed_frac",
         st.step_ms > 0 ? st.unattributed_ms / st.step_ms : 0.0, "ratio"},
        {"bench.trace_overhead_frac",
         untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio"},
    };
  }
  for (const auto& m : metrics)
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  printResult(ctx.gates, metrics);
  return 0;
}

// --- self-test: every gate fires when its condition is broken ---------------

int selftest(const Args& args) {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%-66s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  auto fresh = [&] {
    Ctx ctx;
    ctx.seed = 7;
    ctx.out_dir = args.out_dir;
    return ctx;
  };
  AdaptConfig tiny{.box = 3, .parts = 2, .positions = 3, .restore_every = 3};

  {  // The benchmark's seals keep a clean armored sweep clean...
    Ctx ctx = fresh();
    AdaptCycle wl(tiny);
    wl.setup(ctx);
    for (long i = 0; i < 3; ++i) wl.step(ctx, i);
    wl.finish(ctx);
    expect(ctx.gates.failed == 0 && ctx.gates.attempted > 0,
           "adapt_cycle: sealed sweep with a restore passes every gate");
  }
  {  // ...and a refine left unsealed is reported.
    Ctx ctx = fresh();
    AdaptConfig unsealed = tiny;
    unsealed.seal_mutators = false;
    AdaptCycle wl(unsealed);
    long failed = 0;
    try {
      wl.setup(ctx);
      failed = ctx.gates.failed;
    } catch (const std::exception&) {
      failed = 1;  // the audit's repair ladder gave up: also reported
    }
    expect(failed > 0, "adapt_cycle: unsealed refine is reported");
  }
  {  // A damaged checkpoint fails the restore gate.
    Ctx ctx = fresh();
    AdaptCycle wl(tiny);
    wl.setup(ctx);
    const auto idx = dist::pario::loadIndex(wl.checkpointDir());
    {
      std::fstream img(wl.checkpointDir() + "/" + idx.image,
                       std::ios::in | std::ios::out | std::ios::binary);
      const auto& slot = idx.parts[0].mesh;
      for (std::uint64_t at : {slot.primary, slot.replica}) {
        img.seekp(static_cast<std::streamoff>(at + dist::pario::kChunkHeaderBytes));
        img.put('\x5a').put('\xa5');
      }
    }
    const long before = ctx.gates.failed;
    wl.restore(ctx);
    expect(ctx.gates.failed > before,
           "adapt_cycle: restore from a damaged image is reported");
  }
  {  // verify() gate fires on a broken copy link.
    Ctx ctx = fresh();
    AdaptCycle wl(tiny);
    wl.setup(ctx);
    auto& pm = wl.mesh();
    const auto& remotes = pm.part(0).remotes();
    if (!remotes.empty()) {
      const auto [ent, rec] = *remotes.begin();
      dist::Remote broken = rec;
      broken.owner = 99;
      pm.part(0).setRemote(ent, broken);
    }
    const long before = ctx.gates.failed;
    gateVerify(ctx, pm, "selftest");
    expect(ctx.gates.failed > before, "verify() gate fires on a broken link");
  }
  {  // solve_fixed: converged-and-exact passes; both gates can fire.
    SolveConfig small{.box = 4, .parts = 4};
    Ctx ok = fresh();
    SolveFixed wl(small);
    wl.setup(ok);
    wl.step(ok, 0);
    wl.afterStep(ok, 0);
    wl.finish(ok);
    expect(ok.gates.failed == 0, "solve_fixed: exact solve passes its gates");

    Ctx ctx = fresh();
    SolveConfig starved = small;
    starved.max_iterations = 1;
    SolveFixed wl2(starved);
    wl2.setup(ctx);
    wl2.step(ctx, 0);
    wl2.afterStep(ctx, 0);
    expect(ctx.gates.failed >= 1, "solve_fixed: non-convergence is reported");

    Ctx ctx2 = fresh();
    SolveFixed wl3(small);
    wl3.setup(ctx2);
    wl3.step(ctx2, 0);
    wl3.setExactForTest(1.0 + 1e-3);  // check against the wrong solution
    wl3.afterStep(ctx2, 0);
    expect(ctx2.gates.failed == 1, "solve_fixed: nodal error gate fires");
  }
  {  // service_jobs: a clean cycle passes; a failed job and a twin
     // mismatch are both reported.
    Ctx ctx = fresh();
    ServiceJobs wl;
    wl.setup(ctx);
    for (long i = 0; i < wl.cycleSteps(); ++i) {
      wl.step(ctx, i);
      wl.afterStep(ctx, i);
    }
    expect(ctx.gates.failed == 0, "service_jobs: one clean cycle passes");

    auto job = wl.spec(0, "broken");
    job.chaos.faults = "memflip=";  // malformed plan: the job fails
    const auto r = wl.scheduler().run(job);
    Gates g;
    g.check(r.state == svc::JobState::kCompleted, "job");
    expect(g.failed == 1, "service_jobs: a failed job is reported");

    auto twin = wl.spec(9, "twin");
    twin.nx += 1;  // a different mesh than its clean twin's
    const auto a = wl.scheduler().run(wl.spec(0, "clean"));
    const auto b = wl.scheduler().run(twin);
    expect(a.digest != b.digest, "service_jobs: twin digest gate can fire");
    wl.finish(ctx);
  }
  std::printf("%s\n", bad == 0 ? "selftest passed" : "selftest FAILED");
  return bad == 0 ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--out") a.out_dir = val();
    else if (k == "--selftest") a.selftest = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a.selftest || !a.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parseArgs(argc, argv, args)) {
      std::cerr << "usage: e2e_bench --workload W --seed N --seconds S "
                   "--trace 0|1 --out DIR | --selftest --out DIR\n";
      return 2;
    }
    std::filesystem::create_directories(args.out_dir);
    return args.selftest ? perfbench::selftest(args)
                         : perfbench::runWorkload(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
