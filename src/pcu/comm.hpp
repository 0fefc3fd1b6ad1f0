#ifndef PUMI_PCU_COMM_HPP
#define PUMI_PCU_COMM_HPP

/// \file comm.hpp
/// \brief MPI-like message passing between thread-backed ranks.
///
/// This is the reproduction's stand-in for MPI on Blue Gene/Q: a Group owns
/// the shared state for a fixed set of ranks, each rank runs on its own
/// thread (see runtime.hpp), and a Comm is one rank's handle into the group.
/// Point-to-point messages are copied through per-rank mailboxes; collectives
/// (barrier, broadcast, reduce, allreduce, gather, allgather, exscan,
/// sparse reduce-scatter) are built on binomial trees and recursive
/// doubling over the same p2p layer, so they exercise the messaging code
/// path exactly as an application message would.
///
/// Tags >= 0 are user tags; negative tags are reserved for collectives.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/flatmap.hpp"
#include "pcu/arq.hpp"
#include "pcu/buffer.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"
#include "pcu/machine.hpp"

namespace pcu {

/// Matches any source rank in recv calls.
inline constexpr int kAnySource = -1;

/// A received message: its origin rank, tag, and payload reader.
struct Message {
  int source = kAnySource;
  int tag = 0;
  InBuffer body;
};

/// Per-Comm communication statistics, used by the two-level benches.
///
/// Accounting contract (coalescing-aware): `messages_sent`/`bytes_sent` and
/// the on/off-node splits always count *logical* payloads — what the
/// application posted — so byte-conservation invariants (and the trace
/// report) are unchanged by transport-level coalescing. The `physical_*`
/// counters record what actually crossed the transport: one physical
/// message per coalesced segment, bytes including sub-message framing.
/// Without coalescing, logical == physical.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t on_node_messages = 0;
  std::uint64_t on_node_bytes = 0;
  std::uint64_t off_node_messages = 0;
  std::uint64_t off_node_bytes = 0;
  std::uint64_t physical_messages = 0;
  std::uint64_t physical_bytes = 0;

  void reset() { *this = CommStats{}; }
  CommStats& operator+=(const CommStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    on_node_messages += o.on_node_messages;
    on_node_bytes += o.on_node_bytes;
    off_node_messages += o.off_node_messages;
    off_node_bytes += o.off_node_bytes;
    physical_messages += o.physical_messages;
    physical_bytes += o.physical_bytes;
    return *this;
  }
};

namespace detail {

/// One rank's inbound message queue. Senders push; the owning rank pops with
/// (source, tag) matching semantics like MPI_Recv.
///
/// Two-queue design: producers append to a mutex-protected inbox; the
/// owning rank drains the whole inbox into a consumer-private queue in one
/// lock acquisition and then matches against that queue lock-free. A
/// receiver working through a batch of already-arrived messages therefore
/// takes the lock once per batch, not once per message, and pushMany()
/// posts a whole batch under one lock with a single wakeup.
class Mailbox {
 public:
  /// A queued message in raw (possibly framed) form.
  struct Raw {
    int source;
    int tag;
    std::vector<std::byte> bytes;
  };

  void push(int source, int tag, std::vector<std::byte> bytes);
  /// Push a batch of messages under one lock with one wakeup.
  void pushMany(std::vector<Raw> batch);
  /// Capacity hint from a collectively agreed inbound count: pre-sizes the
  /// inbox so a burst of pushes does not reallocate under the lock.
  void reserveInbound(std::size_t n);
  /// Blocks until a message matching (source-or-any, tag) arrives. When
  /// timeout_us > 0, gives up after that long and returns false (the
  /// watchdog and ARQ store-scan paths); with timeout_us == 0 it waits
  /// forever.
  bool pop(int source, int tag, long timeout_us, Raw& out);
  /// Non-blocking probe; true when a matching message is queued.
  bool probe(int source, int tag);

 private:
  bool matches(const Raw& s, int source, int tag) const {
    return (source == kAnySource || s.source == source) && s.tag == tag;
  }
  /// Owner-thread scan of the consumer-private queue; no lock.
  bool takeLocal(int source, int tag, Raw& out);
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Raw> inbox_;  ///< producer side, guarded by mutex_
  std::deque<Raw> local_;   ///< consumer side, owner thread only
};

}  // namespace detail

class Comm;

/// Shared state for a fixed set of communicating ranks. Every group is
/// attached to a faults::Domain (the process default unless one is given):
/// all fault-injection, framing, watchdog and heartbeat-deadline decisions
/// made through the group's Comms consult that domain, so subgroups with
/// their own domain (Comm::split with isolate_faults) are chaos-isolated
/// from their parent and siblings.
class Group {
 public:
  explicit Group(int size, Machine machine = Machine(),
                 std::shared_ptr<faults::Domain> domain = nullptr);
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const Machine& machine() const { return machine_; }

 private:
  friend class Comm;
  int size_;
  Machine machine_;
  std::shared_ptr<faults::Domain> domain_;
  std::vector<detail::Mailbox> boxes_;
  arq::ResendStore arq_store_{size_};
  failure::Detector detector_{size_};
  // Rendezvous used by split() to carve disjoint subgroups without any
  // message traffic (the same shared-state pattern as shrink()/grow(), so
  // it composes with an armed detector). Guarded by split_mutex_.
  std::mutex split_mutex_;
  std::condition_variable split_cv_;
  int split_arrived_ = 0;
  std::vector<std::array<int, 2>> split_entries_;  // (color, key) per rank
  std::map<int, std::shared_ptr<Group>> split_groups_;  // color -> subgroup
  int split_taken_ = 0;
  // Rendezvous used by shrink() to agree on the survivor group without any
  // collective (the dead rank would deadlock one). Guarded by shrink_mutex_.
  std::mutex shrink_mutex_;
  std::condition_variable shrink_cv_;
  std::vector<char> shrink_arrived_;
  std::shared_ptr<Group> shrink_group_;
  std::vector<int> shrink_survivors_;
  std::size_t shrink_taken_ = 0;
  // Rendezvous used by grow() — shrink's inverse: every live rank arrives,
  // the first completer publishes the expanded group. Guarded by
  // grow_mutex_.
  std::mutex grow_mutex_;
  std::condition_variable grow_cv_;
  int grow_arrived_ = 0;
  int grow_count_ = -1;  // joiner count fixed by the first arrival
  std::shared_ptr<Group> grow_group_;
  int grow_taken_ = 0;
  bool grow_poisoned_ = false;  // a mismatched k dooms the whole rendezvous
  // Joiners announced by a consumed join=K@P token, waiting for the group
  // to reach a quiescent point and call grow(). Any rank may observe it.
  std::atomic<int> join_pending_{0};
};

/// One rank's handle into a Group. All member calls are made by the owning
/// rank's thread only; distinct Comms may be used concurrently.
///
/// Framed user-tag traffic has one receive path (recvFramed) with two
/// policies: strict delivery raises a structured pcu::Error on a corrupt,
/// repeated or (by watchdog) missing frame; reliable delivery (pcu::arq)
/// recovers each of them from the group's arq::ResendStore through
/// arq::retransmit, the same core dist::Network recovers with.
class Comm {
 public:
  Comm(std::shared_ptr<Group> group, int rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return group_->size(); }
  [[nodiscard]] const Machine& machine() const { return group_->machine(); }
  [[nodiscard]] bool sameNode(int other) const {
    return machine().sameNode(rank_, other);
  }

  /// --- point to point -------------------------------------------------
  /// While a fault plan or checksum-verify mode is active
  /// (pcu::faults::framingEnabled()), user-tag messages are framed with a
  /// sequence number and CRC: recv() then verifies integrity, restores
  /// per-channel FIFO order under injected reordering, and throws a
  /// structured pcu::Error on corruption, duplication, or watchdog timeout
  /// (or, with reliable delivery on, recovers instead).
  void send(int dest, int tag, const OutBuffer& buf);
  void send(int dest, int tag, std::vector<std::byte> bytes);
  /// Post one *physical* message whose payload packs `logical_count`
  /// logical sub-messages totalling `logical_bytes` payload bytes
  /// (phasedExchange's coalescing fast path). Stats count the logical
  /// payloads on the logical/on-node/off-node counters and one message on
  /// the physical counters; no trace event is recorded — the caller
  /// attributes the logical payloads itself. Framing (when active) wraps
  /// the whole segment: one seq/CRC per physical message.
  void sendCoalesced(int dest, int tag, std::vector<std::byte> segment,
                     std::uint64_t logical_count, std::uint64_t logical_bytes);
  Message recv(int source, int tag);
  /// recv() without the per-message trace record: receives one physical
  /// (possibly coalesced) message whose logical sub-messages the caller
  /// traces individually after unpacking.
  Message recvUntraced(int source, int tag);
  bool probe(int source, int tag);
  /// Capacity hint for this rank's mailbox (see Mailbox::reserveInbound).
  void reserveInbound(std::size_t n);
  /// Post any delay-injected messages still held back by the fault layer.
  /// Called automatically at recv() entry and by phasedExchange after its
  /// posting loop; harmless no-op otherwise.
  void flushDelayed();

  /// --- collectives (every rank of the group must call) ----------------
  void barrier();
  /// Root's buffer is delivered to all ranks.
  std::vector<std::byte> broadcast(int root, std::vector<std::byte> bytes);
  template <typename T>
  T broadcastValue(int root, T value);

  /// Element-wise reduction of equal-length vectors; result valid on root.
  template <typename T, typename Op>
  std::vector<T> reduce(int root, std::vector<T> local, Op op);
  template <typename T, typename Op>
  std::vector<T> allreduce(std::vector<T> local, Op op);
  template <typename T>
  T allreduceSum(T v);
  template <typename T>
  T allreduceMin(T v);
  template <typename T>
  T allreduceMax(T v);

  /// Concatenation of every rank's bytes in rank order, valid on root.
  std::vector<std::vector<std::byte>> gather(int root,
                                             std::vector<std::byte> bytes);
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> bytes);
  template <typename T>
  std::vector<T> allgatherValue(T v);

  /// Exclusive prefix sum: rank r receives sum of values on ranks < r.
  template <typename T>
  T exscanSum(T v);

  /// Sparse reduce-scatter: every rank passes (destination rank, value)
  /// contributions; each rank receives the sum of every value contributed
  /// for *it*, across all ranks. Implemented as a hypercube recursive
  /// halving over the sparse maps, so collective traffic is proportional to
  /// the number of contributed entries (times at most log2 P hops) — not to
  /// P. This is how phasedExchange agrees on per-rank inbound message
  /// counts without shipping a size-P vector through an allreduce.
  long reduceScatterSum(const std::vector<std::pair<int, long>>& contributions);

  /// --- communicator splitting -----------------------------------------
  /// Options for split(). The default inherits the parent group's fault
  /// domain (subgroup traffic keeps obeying the ambient plan — the
  /// historical splitByNode/splitByCore behavior); isolate_faults gives the
  /// subgroup a *fresh, empty* faults::Domain instead, so PUMI_FAULTS
  /// plans, reliable-delivery overrides, watchdogs and heartbeat deadlines
  /// installed for one subgroup never leak into a sibling. The multi-tenant
  /// service layer (svc::) splits with isolate_faults = true per tenant.
  struct SplitOptions {
    bool isolate_faults = false;
  };

  /// Collective over the whole group: ranks with equal color form a
  /// subgroup; within it ranks are ordered by (key, rank). Returns the new
  /// comm. Implemented as a shared-state rendezvous (no message traffic),
  /// generation-safe: consecutive splits on the same group are serialized
  /// so a fast rank cannot re-enroll into a draining round. Each subgroup
  /// gets fresh mailboxes, a fresh ARQ store, and its own failure detector
  /// (armed with the parent's deadline when the parent's was armed — unless
  /// the subgroup is fault-isolated, in which case its detector arms from
  /// its own domain's plan). The subgroup inherits the parent machine's
  /// node topology when all members share a node, else a flat machine.
  Comm split(int color, int key) { return split(color, key, SplitOptions{}); }
  Comm split(int color, int key, const SplitOptions& opts);

  /// Per-node communicator according to the machine model.
  Comm splitByNode() { return split(machine().nodeOf(rank_), rank_); }
  /// Inter-node communicator containing core 0 of each node; other ranks
  /// receive a comm of their node peers with identical semantics but should
  /// not use it for network traffic. Color is the core index.
  Comm splitByCore() { return split(machine().coreOf(rank_), rank_); }

  /// --- rank-failure tolerance (pcu/failure.hpp) -----------------------
  /// The group's heartbeat failure detector. Armed lazily from the fault
  /// plan's deadline; unarmed, every check below is one relaxed load.
  [[nodiscard]] failure::Detector& detector() { return group_->detector_; }
  /// Hardened phase boundary: beats this rank's heartbeat and consumes a
  /// scheduled kill=/hang= fault targeting (this rank, this boundary index).
  /// A kill throws failure::RankKilled immediately; a hang goes silent
  /// (no heartbeats) until the group is revoked, then throws the same —
  /// peers must detect the silence through the deadline. Called by
  /// phasedExchange on its hardened path.
  void rankFaultPoint();
  /// ULFM-style shrink: after revocation, every *surviving* rank calls this
  /// to agree on the survivor set and obtain a fresh group with dense ranks
  /// (survivor order). Ranks that never arrive are declared dead by the
  /// deadline. The returned comm has fresh mailboxes (stale in-flight
  /// traffic from the old group is discarded) and an armed detector when
  /// this group's was armed.
  Comm shrink();
  /// Elastic scale-out, shrink()'s inverse: every live rank calls grow(k)
  /// at a quiescent point (no in-flight traffic) to rendezvous on an
  /// expanded group of size()+k ranks. Existing ranks keep their numbers
  /// (the numbering stays dense: newcomers take size()..size()+k-1), the
  /// new group has fresh mailboxes and a fresh per-peer ARQ store (clean
  /// coalescing/sequence state for every channel touching a newcomer), and
  /// its detector is armed when this group's was. Newcomer ranks obtain
  /// their handles via Comm(grown.groupHandle(), new_rank) — see
  /// pcu::spawnJoined in runtime.hpp. Every caller must pass the same k.
  Comm grow(int k);
  /// Joiners announced by a consumed join=K@P fault-plan token, waiting for
  /// the group to admit them; grow() resets it to zero. Any rank of the
  /// group observes the same value (one relaxed load).
  [[nodiscard]] int joinPending() const {
    return group_->join_pending_.load(std::memory_order_relaxed);
  }
  /// The shared group handle — what newcomer threads need to construct
  /// their own Comm after a grow (the Comm(group, rank) constructor is
  /// public; this accessor just shares the pointer).
  [[nodiscard]] std::shared_ptr<Group> groupHandle() const { return group_; }

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

  /// --- fault domain ---------------------------------------------------
  /// The group's fault domain: every framing/injection/watchdog decision on
  /// this comm's paths consults it (not the process default), so a
  /// fault-isolated subgroup is chaos-scoped end to end.
  [[nodiscard]] faults::Domain& faultDomain() const { return *group_->domain_; }
  /// Shared handle to the group's domain — what a service worker thread
  /// installs as its ambient domain (faults::DomainScope) so code above the
  /// comm layer (dist::Network, trace consumers) sees the same scoping.
  [[nodiscard]] std::shared_ptr<faults::Domain> faultDomainHandle() const {
    return group_->domain_;
  }
  /// Whether this group's traffic is framed (its domain's framing gate or
  /// its reliable override) — the group-scoped analogue of
  /// faults::framingEnabled().
  [[nodiscard]] bool framingEnabled() const {
    return group_->domain_->framingEnabled();
  }

 private:
  // Internal tags for collectives; user tags are >= 0.
  enum InternalTag : int {
    kTagBarrierUp = -1,
    kTagBarrierDown = -2,
    kTagBcast = -3,
    kTagReduce = -4,
    kTagGather = -5,
    kTagScan = -6,
    kTagSplit = -7,
    kTagAllreduce = -8,
    kTagAllgather = -9,
    kTagCount = -10,
  };
  void sendInternal(int dest, int tag, std::vector<std::byte> bytes);
  /// Framed send path (active while faults::framingEnabled()): assigns the
  /// channel sequence number, applies the fault decision, pushes frames.
  void sendFramed(int dest, int tag, std::vector<std::byte> payload);
  /// Frame (seq + fault decision) and push one already-accounted payload.
  void postFramed(int dest, int tag, std::vector<std::byte> payload);
  /// Stats + trace accounting for one outgoing payload.
  void accountSend(int dest, std::size_t payload_bytes);
  /// Stats accounting for one coalesced segment (logical counters get the
  /// payload totals, physical counters get the single segment); no trace.
  void accountSendCoalesced(int dest, std::uint64_t logical_count,
                            std::uint64_t logical_bytes,
                            std::size_t physical_bytes);
  /// Raw mailbox push, no accounting.
  void push(int dest, int tag, std::vector<std::byte> bytes);
  /// Blocking pop from this rank's mailbox: heartbeats and watches for
  /// revocation while failure detection is armed, suspects a silent peer
  /// past the deadline, and throws Error(kTimeout) naming the channel and
  /// this rank's last-known phase once the watchdog (measured from
  /// `start`, or from the call when it is unset) fires. With rto_us > 0 it
  /// also gives up after that long and returns false: the reliable
  /// receive's store-scan tick.
  bool popWatchdog(int source, int tag,
                   std::chrono::steady_clock::time_point start, long rto_us,
                   detail::Mailbox::Raw& out);
  Message recvImpl(int source, int tag, bool traced);
  /// Framed receive: verify, deduplicate, restore per-channel order. The
  /// strict policy throws a structured pcu::Error on a corrupt or repeated
  /// frame. The reliable policy (the group's domain has reliability on,
  /// pcu::arq) recovers instead: corrupt frames are discarded and
  /// re-fetched, duplicates silently dropped, lost frames pulled from the
  /// group's resend store (loss beacons make that immediate; a
  /// capped-backoff RTO scan covers delayed traffic). Only a retransmit
  /// budget exhausted under a permanent fault converts to
  /// Error(kMessageLost).
  Message recvFramed(int source, int tag, bool traced);
  /// Serve a stashed reordered message that has become current; nullopt
  /// when none matches.
  std::optional<Message> serveStash(int source, int tag, bool traced);
  /// Throw Error(kRankFailed) naming the first dead rank of this group's
  /// detector on channel (source, tag).
  [[noreturn]] void throwRankFailed(int source, int tag) const;

  [[nodiscard]] static std::uint64_t channelKey(int peer, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::shared_ptr<Group> group_;
  int rank_;
  CommStats stats_;
  // Framed-channel state; touched only while framing is enabled. All
  // members are used by the owning rank's thread only.
  common::FlatMap<std::uint64_t, std::uint64_t> send_seq_;
  common::FlatMap<std::uint64_t, std::uint64_t> recv_seq_;
  struct Stashed {
    Message msg;
    std::uint64_t seq;
  };
  std::vector<Stashed> reorder_stash_;
  struct Delayed {
    int dest;
    int tag;
    std::vector<std::byte> bytes;
  };
  std::vector<Delayed> delayed_;
  /// Hardened phase boundaries this rank has passed (rankFaultPoint calls);
  /// advances only while a kill/hang is scheduled, so the kill=R@P phase
  /// index is deterministic.
  std::uint64_t phased_calls_ = 0;
};

/// ---- templated member implementations ---------------------------------

template <typename T>
T Comm::broadcastValue(int root, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  OutBuffer b;
  b.pack(value);
  auto out = broadcast(root, std::move(b).take());
  InBuffer in(std::move(out));
  return in.unpack<T>();
}

template <typename T, typename Op>
std::vector<T> Comm::reduce(int root, std::vector<T> local, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Binomial tree rooted at `root`: relabel ranks so root becomes 0.
  const int n = size();
  const int me = (rank() - root + n) % n;
  for (int step = 1; step < n; step <<= 1) {
    if (me & step) {
      OutBuffer b;
      b.packVector(local);
      const int parent = ((me - step) + root) % n;
      sendInternal(parent, kTagReduce, std::move(b).take());
      break;
    }
    const int child = me + step;
    if (child < n) {
      Message m = recv((child + root) % n, kTagReduce);
      auto theirs = m.body.template unpackVector<T>();
      assert(theirs.size() == local.size());
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] = op(local[i], theirs[i]);
    }
  }
  return local;
}

template <typename T, typename Op>
std::vector<T> Comm::allreduce(std::vector<T> local, Op op) {
  // Recursive doubling: log2(P) rounds of pairwise exchange instead of a
  // reduce-to-root followed by a broadcast, halving both the latency depth
  // and the root's serialization bottleneck. `op` must be associative and
  // commutative (sum/min/max — everything this library reduces with).
  // Non-power-of-two sizes fold the extra ranks into the power-of-two set
  // up front and ship them the result afterwards (MPICH-style).
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = size();
  if (n == 1) return local;
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;
  auto packed = [&]() {
    OutBuffer b;
    b.packVector(local);
    return std::move(b).take();
  };
  auto combine = [&](Message m) {
    auto theirs = m.body.template unpackVector<T>();
    assert(theirs.size() == local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
      local[i] = op(local[i], theirs[i]);
  };
  if (rank_ >= pof2) {
    // Extra rank: contribute to the partner, then wait for its result.
    sendInternal(rank_ - pof2, kTagAllreduce, packed());
    Message m = recv(rank_ - pof2, kTagAllreduce);
    return m.body.template unpackVector<T>();
  }
  if (rank_ < rem) combine(recv(rank_ + pof2, kTagAllreduce));
  for (int mask = 1; mask < pof2; mask <<= 1) {
    const int peer = rank_ ^ mask;
    sendInternal(peer, kTagAllreduce, packed());
    combine(recv(peer, kTagAllreduce));
  }
  if (rank_ < rem) sendInternal(rank_ + pof2, kTagAllreduce, packed());
  return local;
}

template <typename T>
T Comm::allreduceSum(T v) {
  return allreduce(std::vector<T>{v}, [](T a, T b) { return a + b; })[0];
}
template <typename T>
T Comm::allreduceMin(T v) {
  return allreduce(std::vector<T>{v},
                   [](T a, T b) { return a < b ? a : b; })[0];
}
template <typename T>
T Comm::allreduceMax(T v) {
  return allreduce(std::vector<T>{v},
                   [](T a, T b) { return a > b ? a : b; })[0];
}

template <typename T>
std::vector<T> Comm::allgatherValue(T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  OutBuffer b;
  b.pack(v);
  auto parts = allgather(std::move(b).take());
  std::vector<T> out;
  out.reserve(parts.size());
  for (auto& p : parts) {
    InBuffer in(std::move(p));
    out.push_back(in.template unpack<T>());
  }
  return out;
}

template <typename T>
T Comm::exscanSum(T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Distance-doubling scan (Hillis–Steele): after round k this rank's
  // inclusive partial covers the 2^k ranks ending at it, so log2(P) rounds
  // replace the old linear chain's O(P) latency. The exclusive prefix is
  // carried alongside (excl = incl - v, maintained without subtraction so
  // any additive T works). Works for every P, not just powers of two.
  const int n = size();
  T incl = v;
  T excl{};
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rank_ + mask < n) {
      OutBuffer b;
      b.pack(incl);
      sendInternal(rank_ + mask, kTagScan, std::move(b).take());
    }
    if (rank_ - mask >= 0) {
      Message m = recv(rank_ - mask, kTagScan);
      const T theirs = m.body.template unpack<T>();
      incl = static_cast<T>(theirs + incl);
      excl = static_cast<T>(theirs + excl);
    }
  }
  return excl;
}

}  // namespace pcu

#endif  // PUMI_PCU_COMM_HPP
