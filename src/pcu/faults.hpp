#ifndef PUMI_PCU_FAULTS_HPP
#define PUMI_PCU_FAULTS_HPP

/// \file faults.hpp
/// \brief Deterministic fault injection and message framing/verification.
///
/// The paper's algorithms assume a perfectly reliable transport. This
/// subsystem makes that assumption testable: under an explicit FaultPlan
/// (programmatic via setPlan(), or from the PUMI_FAULTS environment
/// variable) dist::Network's send path deterministically corrupts payload
/// bytes, drops or duplicates messages and delays/reorders deliveries —
/// every decision is a pure function of (seed, src, dst, tag, per-channel
/// sequence number), so a seeded chaos run replays bit-identically.
/// pcu::Comm, the MPI stand-in, is never framed or faulted.
///
/// Hardening rides on the same switch: whenever a plan is active (or
/// checksum-verify mode is on) every physical Network message is framed
/// with a header carrying a magic word, a per-(from,to)-channel sequence
/// number, and a CRC32 of the payload. The phase boundary verifies the
/// frames and surfaces corruption, duplication, loss and reordering as
/// structured pcu::Error values instead of undefined behaviour. With no
/// plan active the framing code is never entered: the hot path pays one
/// relaxed atomic load.
///
/// PUMI_FAULTS syntax (comma-separated key=value):
///   seed=42            deterministic stream seed
///   corrupt=0.01       per-message probability of payload corruption
///   drop=0.01          per-message probability of dropping
///   dup=0.01           per-message probability of duplication
///   delay=0.02         per-message probability of delayed (reordered) delivery
///   kill=R@P           rank R dies at the P-th dist::Network phase
///                      boundary under the plan
///   hang=R@P           rank R goes silent at Network phase boundary P
///   join=K@P           K new ranks ask to join at Network phase boundary P
///                      (an elastic scale-out event, not a fault: the mesh
///                      admits them via dist::elastic at its next
///                      quiescent point)
///   deadline=MS        the Network's hang-detection latency: how long a
///                      hung rank stays silent before it is declared dead
///                      (default 50 while a kill/hang is scheduled)
///   checksum=1         frame+verify only, no injection ("checksum-verify")
///
/// Storage fault tokens (decided by the pario::File shim, pure in
/// (seed, path-hash, op, offset) — the path hash covers the file's base
/// name only, so a seeded matrix replays identically across temp dirs):
///   iobitrot=0.01      per-read probability of a flipped byte in the
///                      returned buffer (at-rest corruption, seen on read)
///   iotorn=0.01        per-write probability the write persists only a
///                      prefix yet reports success (torn write)
///   ioshort=0.01       per-op probability of a short transfer (fewer
///                      bytes than requested, honest return count)
///   ioenospc=0.01      per-write probability of ENOSPC: the write fails
///                      with a structured pcu::Error(kIoFault)
///   iostall=0.01       per-op probability of sleeping iostallms first
///   iostallms=M        stall sleep per stalled I/O op, ms (default 1)
///
/// I/O faults gate only the storage shim: they do not arm message framing
/// or transactional mode (injects() ignores them; ioInjects() reports them).
///
/// Memory fault token (decided by the integrity armor at its hardened
/// audit boundaries, pure in (seed, rank, part, section, offset) — a
/// seeded memflip matrix replays bit-identically):
///   memflip=N@P[:target]  N bits flip in live part state at the P-th
///                      integrity boundary of the run. The optional target
///                      restricts the flips to one section family:
///                      pool (entity pools and coordinates), tag (tag
///                      payloads), remotes (remote/ghost copy tables);
///                      absent = any section.
///
/// Like the storage tokens, memflip arms neither message framing nor the
/// transactional snapshot machinery (injects() and ioInjects() both ignore
/// it; memInjects() reports it). It fires consume-once through
/// core::integrity's narrow injection hook so flips land in real live
/// state, not in copies.
///
/// Exact-duplicate keys in one spec (e.g. "kill=2@5,kill=3@7") are rejected
/// with kValidation naming both offending tokens — a plan with a silently
/// overwritten schedule would replay differently than its spec reads.
///
/// Phase-event composition order is a contract: when several scheduled
/// events target the same @<phase> boundary, they fire join, then kill,
/// then hang — scale-out knocks are recorded before any fault can abort
/// the phase — and every per-message fault (corrupt/drop/dup/delay) of
/// that phase is decided after the boundary's phase events ran.
/// dist::Network::maybeFireRankFault, the one boundary that consumes
/// phase events, enforces this order.
///
/// Plans must only be installed/cleared at quiescent points (no concurrent
/// sends/receives) — typically around a pcu::run() or a distributed mesh
/// operation.
///
/// --- fault domains (multi-tenant scoping) --------------------------------
/// All injector state lives in a faults::Domain. The process has one
/// default domain (latched from PUMI_FAULTS) and every thread has an
/// *ambient* domain — the default unless a DomainScope is active. The free
/// functions below (setPlan, decide, fireKill, ...) route through the
/// ambient domain, so existing single-tenant code is unchanged, while a
/// service layer can give each tenant its own Domain: installing a chaos
/// plan there injects faults only into traffic decided under that domain.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "pcu/error.hpp"

namespace pcu::faults {

/// A scheduled whole-rank fault: rank `rank` dies (kill) or goes silent
/// (hang) at the `phase`-th dist::Network phase boundary (a deliverAll)
/// under the installed plan. Fires at most once per installed plan.
struct RankFault {
  int rank = -1;
  int phase = -1;
  [[nodiscard]] bool scheduled() const { return rank >= 0 && phase >= 0; }
};

/// A scheduled elastic join: `count` new ranks knock at Network phase
/// boundary `phase`. Not a fault — nothing breaks — but it shares the
/// fault plan's strict parsing and deterministic phase indexing so chaos
/// scenarios can scale out mid-storm. Fires at most once per installed
/// plan.
struct RankJoin {
  int count = 0;
  int phase = -1;
  [[nodiscard]] bool scheduled() const { return count > 0 && phase >= 0; }
};

/// Which section family a memflip restricts itself to. kAny flips anywhere
/// the integrity ledger covers.
enum class MemTarget : std::uint8_t { kAny, kPool, kTag, kRemotes };

/// Spelling of a MemTarget as it appears in a memflip token.
const char* memTargetName(MemTarget t);

/// A scheduled in-memory corruption burst: `bits` bits flip in live part
/// state at the `phase`-th integrity audit boundary of the run, restricted
/// to the `target` section family. Fires at most once per installed plan,
/// through core::integrity's injection hook.
struct MemFlip {
  int bits = 0;
  int phase = -1;
  MemTarget target = MemTarget::kAny;
  [[nodiscard]] bool scheduled() const { return bits > 0 && phase >= 0; }
};

/// A deterministic fault schedule. Probabilities are per message in [0,1].
struct FaultPlan {
  std::uint64_t seed = 1;
  double corrupt = 0.0;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  RankFault kill;        ///< whole-rank death
  RankFault hang;        ///< whole-rank silence (detected after deadline_ms)
  RankJoin join;         ///< elastic scale-out: K new ranks at boundary P
  int deadline_ms = 0;   ///< hang-detection latency; 0 = default when kill/hang
  bool checksum_only = false;  ///< frame + verify without injecting faults
  double iobitrot = 0.0;  ///< per-read probability of a flipped byte
  double iotorn = 0.0;    ///< per-write probability of a torn (prefix) write
  double ioshort = 0.0;   ///< per-op probability of a short transfer
  double ioenospc = 0.0;  ///< per-write probability of ENOSPC failure
  double iostall = 0.0;   ///< per-op probability of an iostallms sleep
  int iostall_ms = 1;     ///< sleep per stalled I/O op
  MemFlip memflip;        ///< in-memory bit-flip burst at an audit boundary

  /// Message-path injection gate. I/O and memory faults are deliberately
  /// excluded: a storage- or memory-only plan must not arm framing or
  /// transactional mode.
  [[nodiscard]] bool injects() const {
    return corrupt > 0 || drop > 0 || duplicate > 0 || delay > 0 ||
           kill.scheduled() || hang.scheduled();
  }
  /// Storage-path injection gate (the pario::File shim's one-load check).
  [[nodiscard]] bool ioInjects() const {
    return iobitrot > 0 || iotorn > 0 || ioshort > 0 || ioenospc > 0 ||
           iostall > 0;
  }
  /// Memory-path injection gate (core::integrity's one-load check). Also
  /// what arms the integrity ledger by default under a chaos plan.
  [[nodiscard]] bool memInjects() const { return memflip.scheduled(); }
};

/// Parse a PUMI_FAULTS-style spec. Strict: every value must consume its
/// whole token (no trailing characters, no signs on unsigned fields, no
/// out-of-range probabilities), and no key may appear twice; malformed
/// input throws pcu::Error(kValidation) naming the bad token (both tokens,
/// for a duplicate).
FaultPlan parsePlan(const std::string& spec);

/// What the injector decides for one message.
enum class Action : std::uint8_t {
  kDeliver,
  kCorrupt,
  kDrop,
  kDuplicate,
  kDelay,
};

/// Which side of the storage shim an I/O decision is for.
enum class IoOp : std::uint8_t { kRead, kWrite };

/// What the injector decides for one storage operation.
enum class IoAction : std::uint8_t {
  kOk,
  kBitrot,  ///< reads: one byte of the returned buffer is flipped
  kTorn,    ///< writes: only a prefix persists, success is reported
  kShort,   ///< either: fewer bytes transfer than requested
  kEnospc,  ///< writes: fail with pcu::Error(kIoFault) (device full)
  kStall,   ///< either: sleep iostall_ms before the op proceeds
};

/// FNV-1a hash of a path's base name (the component after the last '/').
/// Hashing only the base name keeps a seeded storage-fault matrix
/// replayable across differently-named temp directories.
std::uint64_t ioPathHash(const std::string& path);

/// Fallback hang-detection latency while a kill/hang is scheduled with no
/// explicit deadline= token.
inline constexpr int kDefaultRankFaultDeadlineMs = 50;

/// One injector's complete state: the installed plan, its hot-path gate
/// atomics and the consumed-once phase-event flags.
/// Thread-safe: the plan is written under a mutex at quiescent points, the
/// hot-path queries are one relaxed atomic load each. A Domain also
/// carries an optional reliable-delivery override so a tenant can switch
/// pcu::arq on or off without touching the process-global setting.
class Domain {
 public:
  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Install a plan (enables framing; enables injection when it injects).
  void install(const FaultPlan& plan);
  /// Remove the plan: no framing, no injection.
  void clear() { install(FaultPlan{}); }
  /// The installed plan. Meaningful only while framingEnabled().
  [[nodiscard]] FaultPlan plan() const;

  /// True when fault injection is active under this domain.
  [[nodiscard]] bool enabled() const {
    return injecting_.load(std::memory_order_relaxed);
  }
  /// True when messages under this domain must be framed/verified:
  /// injection active, checksum-verify mode, or reliable delivery on
  /// (the ARQ layer rides on frame sequence numbers and CRCs).
  [[nodiscard]] bool framingEnabled() const;
  /// Effective reliable-delivery switch: this domain's override when set,
  /// else the process-global arq setting.
  [[nodiscard]] bool reliableEnabled() const;
  /// Tenant-scoped reliable override (-1 inherits the process setting).
  void setReliable(bool on) {
    reliable_override_.store(on ? 1 : 0, std::memory_order_relaxed);
  }
  void clearReliableOverride() {
    reliable_override_.store(-1, std::memory_order_relaxed);
  }
  [[nodiscard]] int reliableOverride() const {
    return reliable_override_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool hasRankFault() const {
    return rank_fault_.load(std::memory_order_relaxed);
  }
  /// Hang-detection latency in ms: the plan's explicit deadline_ms, else
  /// kDefaultRankFaultDeadlineMs while a rank fault is scheduled, else 0.
  [[nodiscard]] int deadlineMs() const {
    return deadline_ms_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool hasJoin() const {
    return join_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool hasPhaseEvent() const {
    return rank_fault_.load(std::memory_order_relaxed) ||
           join_.load(std::memory_order_relaxed);
  }

  /// Consume the scheduled kill for (rank, phase): true exactly once.
  bool fireKill(int rank, std::uint64_t phase);
  /// Consume the scheduled hang the same way.
  bool fireHang(int rank, std::uint64_t phase);
  /// Consume the scheduled join at boundary `phase`: the join count
  /// exactly once, 0 otherwise.
  int fireJoin(std::uint64_t phase);

  /// Deterministic per-message decision: pure in (plan seed, src, dst,
  /// tag, seq). kDeliver when injection is off.
  [[nodiscard]] Action decide(int src, int dst, int tag,
                              std::uint64_t seq) const;

  /// True when storage fault injection is active under this domain.
  [[nodiscard]] bool ioEnabled() const {
    return io_injecting_.load(std::memory_order_relaxed);
  }
  /// Deterministic per-I/O-op decision: pure in (plan seed, path hash,
  /// op, offset). kOk when storage injection is off. Read ops draw from
  /// {bitrot, short, stall}; write ops from {torn, short, enospc, stall}.
  [[nodiscard]] IoAction decideIo(IoOp op, std::uint64_t path_hash,
                                  std::uint64_t offset) const;
  /// Sleep per stalled I/O op, ms.
  [[nodiscard]] int ioStallMs() const {
    return iostall_ms_.load(std::memory_order_relaxed);
  }

  /// True when memory fault injection is scheduled under this domain.
  [[nodiscard]] bool memEnabled() const {
    return mem_injecting_.load(std::memory_order_relaxed);
  }
  /// Consume the scheduled memflip at integrity boundary `phase`: the
  /// burst exactly once (for the caller that reaches the matching
  /// boundary), a default MemFlip (bits == 0) otherwise.
  MemFlip fireMemFlip(std::uint64_t phase);

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  bool kill_fired_ = false;
  bool hang_fired_ = false;
  bool join_fired_ = false;
  bool memflip_fired_ = false;
  std::atomic<bool> injecting_{false};
  std::atomic<bool> io_injecting_{false};
  std::atomic<bool> mem_injecting_{false};
  std::atomic<int> iostall_ms_{1};
  std::atomic<bool> framing_{false};
  std::atomic<bool> rank_fault_{false};
  std::atomic<bool> join_{false};
  std::atomic<int> deadline_ms_{0};
  std::atomic<int> reliable_override_{-1};
};

/// The process default domain. The first access latches PUMI_FAULTS into
/// it; setPlan()/clearPlan() on the ambient default override that.
std::shared_ptr<Domain> defaultDomain();

/// The calling thread's ambient domain: the innermost active DomainScope's
/// domain, else the default. Every free function below routes through it.
Domain& current();
/// Shared handle to the ambient domain.
std::shared_ptr<Domain> currentHandle();

/// RAII ambient-domain switch for the calling thread. A service layer
/// wraps each tenant job in one of these so every faults:: query made by
/// the layers underneath (dist::Network's driver-thread transport, the
/// arq reliable gate) resolves to the tenant's domain.
class DomainScope {
 public:
  explicit DomainScope(std::shared_ptr<Domain> domain);
  ~DomainScope();
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  std::shared_ptr<Domain> keep_alive_;
  Domain* prev_;
  const void* prev_handle_ = nullptr;
};

/// Install a plan on the ambient domain.
void setPlan(const FaultPlan& plan);
/// Remove the ambient domain's plan.
void clearPlan();
/// The ambient domain's plan. Meaningful only while framingEnabled().
FaultPlan plan();

/// True when fault injection is active under the ambient domain. First
/// call latches PUMI_FAULTS from the environment (default domain only).
bool enabled();
/// True when messages must be framed/verified under the ambient domain.
bool framingEnabled();

/// --- rank faults (kill/hang) --------------------------------------------

/// True while the ambient plan schedules a kill or hang (one relaxed load).
bool hasRankFault();
/// Hang-detection latency in milliseconds: the plan's explicit
/// deadline_ms, else kDefaultRankFaultDeadlineMs while a rank fault is
/// scheduled, else 0.
int deadlineMs();
/// Consume the scheduled kill for (rank, phase): returns true exactly once,
/// for the matching rank at the matching phase index. The caller then
/// declares the rank dead.
bool fireKill(int rank, std::uint64_t phase);
/// Consume the scheduled hang the same way. The caller then waits out the
/// deadline and declares the rank dead.
bool fireHang(int rank, std::uint64_t phase);

/// --- elastic joins (join=K@P) -------------------------------------------

/// True while the ambient plan schedules a join (one relaxed load).
bool hasJoin();
/// True while the plan schedules any phased event (kill, hang, or join):
/// the Network's phase-boundary counter advances only while this holds, so
/// the @PHASE index of every scheduled event is deterministic.
bool hasPhaseEvent();
/// Consume the scheduled join at boundary `phase`: returns the join count
/// exactly once — for the first caller that reaches the matching boundary —
/// and 0 otherwise. Join is rank-agnostic: any rank may observe it; the
/// caller records it as pending and the mesh admits the newcomers at the
/// next quiescent point (dist::elastic).
int fireJoin(std::uint64_t phase);

/// Deterministic per-message decision under the ambient domain: pure in
/// (plan seed, src, dst, tag, seq). Returns kDeliver when injection is off.
Action decide(int src, int dst, int tag, std::uint64_t seq);

/// --- storage faults (pario::File shim) ----------------------------------

/// True when the ambient plan injects storage faults (one relaxed load).
bool ioEnabled();
/// Deterministic per-I/O-op decision under the ambient domain: pure in
/// (plan seed, path hash, op, offset). kOk when storage injection is off.
IoAction decideIo(IoOp op, std::uint64_t path_hash, std::uint64_t offset);
/// The ambient plan's sleep per stalled I/O op, ms.
int ioStallMs();

/// --- memory faults (core::integrity hook) -------------------------------

/// True when the ambient plan schedules a memflip (one relaxed load).
bool memEnabled();
/// Consume the ambient plan's scheduled memflip at integrity boundary
/// `phase`: the burst exactly once, a default MemFlip (bits == 0) otherwise.
MemFlip fireMemFlip(std::uint64_t phase);
/// Deterministic flip-placement key, pure in (seed, rank, part, section
/// hash, flip index): the integrity armor reduces it modulo its candidate
/// spaces (section choice, bit offset) so a seeded memflip matrix replays
/// bit-identically.
std::uint64_t memFlipKey(std::uint64_t seed, int rank, int part,
                         std::uint64_t section_hash, int flip_index);

/// The ambient domain's reliable override (-1: inherit the process arq
/// setting). Consulted by arq::enabled() so a DomainScope tenant-scopes
/// reliability too.
int ambientReliableOverride();

/// --- framing ------------------------------------------------------------

inline constexpr std::uint32_t kFrameMagic = 0x50435546u;  // "PCUF"
/// Header layout: magic(u32) crc32(u32) seq(u64); crc covers seq + payload.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// CRC32 (IEEE 802.3, reflected) of a byte span. Forwarding wrapper for
/// common::crc32 (common/crc32.hpp), kept so the framing layer's historical
/// spelling still works; new code should call common::crc32 directly.
inline std::uint32_t crc32(const std::byte* data, std::size_t n) {
  return common::crc32(data, n);
}

/// Wrap a payload in a frame carrying `seq`.
std::vector<std::byte> frame(std::uint64_t seq, std::vector<std::byte> payload);

/// Deterministically flip one byte in the framed message's checked region
/// (so verification must catch it).
void corruptFrame(std::vector<std::byte>& framed, int src, int dst, int tag,
                  std::uint64_t seq);

/// Verify a frame and strip the header. Throws pcu::Error(kCorruptPayload)
/// naming (self, src, tag) on magic/CRC mismatch. Returns the payload and
/// writes the channel sequence number to `seq_out`.
std::vector<std::byte> unframe(std::vector<std::byte> framed,
                               std::uint64_t& seq_out, int self, int src,
                               int tag);

}  // namespace pcu::faults

#endif  // PUMI_PCU_FAULTS_HPP
