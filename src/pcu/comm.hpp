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
/// The transport is plain and reliable, like MPI: no framing, fault
/// injection or retransmission happens here. Those live in
/// dist::Network, the one transport the mesh stack runs on.
///
/// Tags >= 0 are user tags; negative tags are reserved for collectives.

#include <array>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "pcu/buffer.hpp"
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
  /// A queued message in raw form.
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
  /// Blocks until a message matching (source-or-any, tag) arrives.
  void pop(int source, int tag, Raw& out);
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

/// Shared state for a fixed set of communicating ranks.
class Group {
 public:
  explicit Group(int size, Machine machine = Machine());
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const Machine& machine() const { return machine_; }

 private:
  friend class Comm;
  int size_;
  Machine machine_;
  std::vector<detail::Mailbox> boxes_;
  // Rendezvous used by split() to carve disjoint subgroups without any
  // message traffic. Guarded by split_mutex_.
  std::mutex split_mutex_;
  std::condition_variable split_cv_;
  int split_arrived_ = 0;
  std::vector<std::array<int, 2>> split_entries_;  // (color, key) per rank
  std::map<int, std::shared_ptr<Group>> split_groups_;  // color -> subgroup
  int split_taken_ = 0;
};

/// One rank's handle into a Group. All member calls are made by the owning
/// rank's thread only; distinct Comms may be used concurrently.
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
  /// Messages between one (source, tag) pair arrive in posting order.
  void send(int dest, int tag, const OutBuffer& buf);
  void send(int dest, int tag, std::vector<std::byte> bytes);
  /// Post one *physical* message whose payload packs `logical_count`
  /// logical sub-messages totalling `logical_bytes` payload bytes
  /// (phasedExchange's coalescing fast path). Stats count the logical
  /// payloads on the logical/on-node/off-node counters and one message on
  /// the physical counters; no trace event is recorded — the caller
  /// attributes the logical payloads itself.
  void sendCoalesced(int dest, int tag, std::vector<std::byte> segment,
                     std::uint64_t logical_count, std::uint64_t logical_bytes);
  /// Blocks until a matching message arrives.
  Message recv(int source, int tag);
  /// recv() without the per-message trace record: receives one physical
  /// (possibly coalesced) message whose logical sub-messages the caller
  /// traces individually after unpacking.
  Message recvUntraced(int source, int tag);
  bool probe(int source, int tag);
  /// Capacity hint for this rank's mailbox (see Mailbox::reserveInbound).
  void reserveInbound(std::size_t n);

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
  /// Collective over the whole group: ranks with equal color form a
  /// subgroup; within it ranks are ordered by (key, rank), as
  /// MPI_Comm_split. Returns the new comm. Implemented as a shared-state
  /// rendezvous (no message traffic), generation-safe: consecutive splits
  /// on the same group are serialized so a fast rank cannot re-enroll into
  /// a draining round. Each subgroup gets fresh mailboxes. It inherits the
  /// parent machine's node topology when all members share a node, else a
  /// flat machine.
  Comm split(int color, int key);

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

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
  /// Stats + trace accounting for one outgoing payload.
  void accountSend(int dest, std::size_t payload_bytes);
  /// Stats accounting for one coalesced segment (logical counters get the
  /// payload totals, physical counters get the single segment); no trace.
  void accountSendCoalesced(int dest, std::uint64_t logical_count,
                            std::uint64_t logical_bytes,
                            std::size_t physical_bytes);
  /// Raw mailbox push, no accounting.
  void push(int dest, int tag, std::vector<std::byte> bytes);
  Message recvImpl(int source, int tag, bool traced);

  std::shared_ptr<Group> group_;
  int rank_;
  CommStats stats_;
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
