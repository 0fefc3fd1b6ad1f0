#ifndef PUMI_DIST_NETWORK_HPP
#define PUMI_DIST_NETWORK_HPP

/// \file network.hpp
/// \brief Part-to-part message transport with architecture awareness.
///
/// All distributed-mesh operations (migration, ghosting, ParMA diffusion)
/// communicate exclusively through this transport in bulk-synchronous
/// phases: every part posts messages, then deliverAll() hands each message
/// to the receiving part's handler in a deterministic order. The machine
/// model maps parts to (node, core); traffic is accounted as on-node
/// (shared memory in the paper's hybrid design, Figs. 5-6) or off-node
/// (explicit message passing), which the two-level benches report.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/flatmap.hpp"
#include "pcu/arq.hpp"
#include "pcu/buffer.hpp"
#include "pcu/comm.hpp"
#include "pcu/error.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"
#include "pcu/machine.hpp"
#include "pcu/trace.hpp"

#include "dist/types.hpp"

namespace dist {

/// Pseudo-tag identifying the part-to-part transport in fault-injection
/// decisions and error reports. Its value is kept as is because it keys
/// every seeded decision: changing it would change which frames every
/// seeded chaos run drops, corrupts, duplicates or delays.
inline constexpr int kNetChannelTag = 1 << 20;

/// Maps parts onto the machine: part p runs on core (p % coresTotal) by
/// default (block layout over nodes is applied by the caller choosing the
/// machine shape).
class PartMap {
 public:
  PartMap() = default;
  PartMap(int parts, pcu::Machine machine)
      : parts_(parts), machine_(machine) {}

  [[nodiscard]] int parts() const { return parts_; }
  [[nodiscard]] const pcu::Machine& machine() const { return machine_; }

  /// Core rank hosting part p. By default parts are laid out block-wise so
  /// consecutive parts share nodes (matching the hybrid partitioning in
  /// Fig. 5); an explicit mapping (setPartRanks) overrides this, e.g. to
  /// pin locally split subparts onto their parent part's node.
  [[nodiscard]] int rankOf(PartId p) const {
    if (static_cast<std::size_t>(p) < explicit_ranks_.size())
      return explicit_ranks_[static_cast<std::size_t>(p)];
    const int per_rank =
        (parts_ + machine_.totalCores() - 1) / machine_.totalCores();
    return static_cast<int>(p) / per_rank;
  }

  /// Pin parts to ranks explicitly (one entry per part; parts beyond the
  /// vector fall back to the block layout).
  void setPartRanks(std::vector<int> ranks) {
    explicit_ranks_ = std::move(ranks);
  }

  /// Grow the part count (dynamic parts; see PartedMesh::addPart). Existing
  /// part->rank assignments may shift, which only affects traffic
  /// accounting, not correctness.
  void setParts(int parts) { parts_ = parts; }
  /// Replace the machine model (elastic scale-out: newly joined ranks give
  /// the same parts more cores to live on). Explicit part->rank pins are
  /// kept; block-layout fallback assignments may shift, which only affects
  /// traffic accounting.
  void setMachine(pcu::Machine machine) { machine_ = machine; }
  [[nodiscard]] int nodeOf(PartId p) const {
    return machine_.nodeOf(rankOf(p));
  }
  [[nodiscard]] bool sameNode(PartId a, PartId b) const {
    return nodeOf(a) == nodeOf(b);
  }

 private:
  int parts_ = 1;
  pcu::Machine machine_ = pcu::Machine();
  std::vector<int> explicit_ranks_;
};

/// Bulk-synchronous message transport between parts.
///
/// Posting is cheap and delivery is batched: send() stages the payload in a
/// per-thread vector (no lock from handler threads), and the next phase
/// boundary merges all stages, coalescing every payload bound for the same
/// (from, to) pair into one *physical* message — a segment of
/// length-prefixed sub-messages, split back into individual handler calls
/// on delivery. Stats follow the same contract as pcu::CommStats:
/// logical/on-node/off-node counters always count the payloads the
/// operation posted; `physical_*` counts coalesced segments.
///
/// While a fault plan or checksum-verify mode is active
/// (pcu::faults::framingEnabled()) every physical message is framed with a
/// per-(from,to)-channel sequence number and payload CRC — one seq/CRC per
/// coalesced segment. Each destination keeps one record per inbound
/// channel: the send counter, the receive expectation and, in reliable
/// mode, the unacknowledged frames. Delivery verifies each destination's
/// batch against those records before any handler runs (verifyBatch).
/// Because the transport is bulk-synchronous, loss is detected
/// deterministically at the phase boundary (a sequence short of the
/// sender's counter) — no timeout needed at this layer.
///
/// Strict and reliable delivery are two policies of that one pass. Strict
/// surfaces corruption, duplication and loss as structured pcu::Error
/// values and restores per-channel FIFO order under injected reordering.
/// With reliable delivery on (pcu::arq::enabled()) the phase boundary
/// *recovers* instead: corrupt segments are re-fetched, duplicates
/// silently dropped, and every missing sequence number pulled from the
/// channel's resend queue through pcu::arq::retransmit, an attempt-salted
/// loop, so only a permanent fault exhausts the bounded budget and
/// surfaces as pcu::Error(kMessageLost). The transactional layer bumps a
/// fault epoch between operation replays (bumpFaultEpoch) so a retried
/// operation does not deterministically replay the exact faults that
/// aborted it.
class Network {
 public:
  explicit Network(PartMap map)
      : map_(map), boxes_(map.parts()), inbound_(boxes_.size()) {}

  [[nodiscard]] const PartMap& partMap() const { return map_; }
  [[nodiscard]] int parts() const { return map_.parts(); }

  /// Post a message; it is delivered at the next deliverAll(). Thread-safe
  /// when called from concurrent part handlers (deliverAllThreaded): a
  /// worker thread's sends go to its private staging vector without
  /// touching the transport mutex; sends from any other thread stage under
  /// the mutex. Per-channel posting order is preserved either way (one
  /// destination part's handler runs entirely on one worker).
  void send(PartId from, PartId to, pcu::OutBuffer buf) {
    if (pcu::trace::enabled())
      pcu::trace::sendAs(from, to, static_cast<std::int64_t>(buf.size()),
                         "net");
    auto& slot = tlsSlot();
    if (slot.net == this) {
      slot.stage->push_back(StagedMsg{from, to, std::move(buf).take()});
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stageLocked(from, to, std::move(buf).take());
  }

  /// Enable (default) or disable per-(from,to) coalescing of staged
  /// payloads into one physical message. With coalescing off each payload
  /// travels as its own physical message (physical == logical), which is
  /// the A/B baseline the benches and equivalence tests compare against.
  void setCoalescing(bool on) { coalesce_ = on; }
  [[nodiscard]] bool coalescing() const { return coalesce_; }

  /// Pre-size the staging for `count` upcoming payloads on (from, to):
  /// opens the coalescing group up front and reserves its payload vector,
  /// so a phase that knows its send counts (migration creation, keymap
  /// exchange) avoids regrow churn inside the send loop. Purely an
  /// optimization hint — a reserved channel that ends up unused posts
  /// nothing. No-op with coalescing off (payloads travel individually).
  void reserveStage(PartId from, PartId to, std::size_t count) {
    if (!coalesce_ || count == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t key = channelKey(from, to);
    auto [it, fresh] = group_of_.try_emplace(key, staged_groups_.size());
    if (fresh) {
      staged_groups_.emplace_back();
      staged_groups_.back().from = from;
      staged_groups_.back().to = to;
    }
    auto& g = staged_groups_[it->second];
    g.bodies.reserve(g.bodies.size() + count);
  }

  /// True when any message is pending (staged or already flushed).
  [[nodiscard]] bool pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!staged_groups_.empty()) return true;
    for (const auto& box : boxes_)
      if (!box.empty()) return true;
    return false;
  }

  /// Deliver every pending message: handler(to, from, body). Messages are
  /// handed over in (destination part, posting order); when delivery
  /// threads are enabled (setDeliveryThreads), destination parts are
  /// processed concurrently instead. Messages posted by the handler are
  /// queued for the next deliverAll.
  void deliverAll(
      const std::function<void(PartId to, PartId from, pcu::InBuffer body)>&
          handler) {
    if (delivery_threads_ > 1) {
      deliverAllThreaded(handler, delivery_threads_);
      return;
    }
    auto taken = takeVerified();
    for (std::size_t to = 0; to < taken.size(); ++to)
      deliverTo(static_cast<PartId>(to), taken[to], handler);
  }

  /// Enable (n > 1) or disable (n <= 1) threaded delivery for every
  /// subsequent deliverAll. All of this library's distributed operations
  /// mutate only per-destination state in their handlers, so they run
  /// correctly in either mode; entity handle values may differ between
  /// modes (creation order within a part changes), the mesh semantics do
  /// not.
  void setDeliveryThreads(int n) { delivery_threads_ = n; }
  [[nodiscard]] int deliveryThreads() const { return delivery_threads_; }

  /// Threaded delivery (the paper's hybrid mode, Sec. II-D: "part
  /// manipulations take place in parallel threads"): destination parts are
  /// processed concurrently by `threads` workers; within one destination
  /// the posting order is preserved. Safe when the handler only mutates
  /// per-destination state and posts replies through send() — the
  /// contract every distributed operation in this library honours.
  void deliverAllThreaded(
      const std::function<void(PartId to, PartId from, pcu::InBuffer body)>&
          handler,
      int threads) {
    auto taken = takeVerified();
    // Each worker stages its handlers' replies privately; the stages are
    // merged (in worker order) after the join, so handler sends never
    // contend on the transport mutex.
    std::vector<std::vector<StagedMsg>> stages(
        static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    auto worker = [&](std::vector<StagedMsg>* stage) {
      TlsGuard guard(this, stage);
      for (;;) {
        const std::size_t to = next.fetch_add(1);
        if (to >= taken.size()) return;
        deliverTo(static_cast<PartId>(to), taken[to], handler);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
      pool.emplace_back(worker, &stages[static_cast<std::size_t>(t)]);
    for (auto& t : pool) t.join();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& stage : stages)
      for (auto& m : stage) stageLocked(m.from, m.to, std::move(m.bytes));
  }

  [[nodiscard]] const pcu::CommStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

  /// Add one part (empty mailbox) to the transport.
  void addPart() {
    boxes_.emplace_back();
    inbound_.emplace_back();
    map_.setParts(static_cast<int>(boxes_.size()));
  }

  /// Forget every pending message (staged or flushed) and every channel
  /// record (sequence state and resend queue). Used by the
  /// transactional abort path (PartedMesh) so a rolled-back operation
  /// leaves the transport exactly as if it had never run.
  void resetTransport() {
    std::lock_guard<std::mutex> lock(mutex_);
    staged_groups_.clear();
    group_of_.clear();
    last_key_ = kNoKey;
    for (auto& box : boxes_) box.clear();
    for (auto& chans : inbound_) chans.clear();
  }

  /// Advance the fault-decision epoch. resetTransport() clears the channel
  /// sequence counters, so a replayed operation would re-run the exact
  /// (src, dst, tag, seq) decision stream that just aborted it; the epoch
  /// salts every post-replay decision so retries see fresh (still
  /// deterministic) draws. Epoch 0 reproduces the historical stream
  /// bit-for-bit.
  void bumpFaultEpoch() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++fault_epoch_;
  }
  [[nodiscard]] std::uint64_t faultEpoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_epoch_;
  }

  /// Pin parts to ranks explicitly (see PartMap::setPartRanks).
  void setPartRanks(std::vector<int> ranks) {
    map_.setPartRanks(std::move(ranks));
  }

  /// --- rank-failure tolerance ------------------------------------------
  /// Ranks (of the part map's machine) declared dead by a kill=/hang= fault.
  /// Deliberately NOT cleared by resetTransport(): a transactional rollback
  /// must not resurrect a dead rank — only re-pinning its parts onto
  /// survivors (failover::evacuate) lifts the poison gate.
  [[nodiscard]] std::vector<int> deadRanks() const {
    return {dead_ranks_.begin(), dead_ranks_.end()};
  }

  /// --- elastic scale-out ------------------------------------------------
  /// Newcomer ranks announced by a consumed join=K@P token and not yet
  /// admitted. A join is not a fault: the boundary that consumes it keeps
  /// delivering (the in-flight operation completes untouched) and the
  /// caller admits the pending ranks at the next quiescent point
  /// (dist::elastic / parma's join path).
  [[nodiscard]] int pendingJoin() const { return pending_join_; }
  /// Consume the pending joiner count (returns it, then zeroes it).
  int takePendingJoin() {
    const int k = pending_join_;
    pending_join_ = 0;
    return k;
  }
  /// Grow the machine by `k` newly joined ranks with dense renumbering:
  /// existing ranks keep their numbers, newcomers take
  /// totalCores()..totalCores()+k-1 on a flat topology. Existing per-channel ARQ/coalescing state is untouched
  /// (channels are keyed by part, not rank); channels to parts later pinned
  /// on the newcomers start from sequence zero by construction.
  void growRanks(int k) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int total = map_.machine().totalCores();
    map_.setMachine(pcu::Machine::flat(total + k));
    pcu::failure::noteGrow(k);
  }

 private:
  /// One physical (possibly coalesced) message queued for delivery. In the
  /// fast path (no fault framing) the logical payloads ride in `bodies`,
  /// moved end to end with zero copies; while framing is active they are
  /// serialized into `bytes` as one contiguous length-prefixed segment so a
  /// single seq/CRC covers the whole physical message.
  struct Pending {
    PartId from;
    std::vector<std::byte> bytes;
    std::vector<std::vector<std::byte>> bodies;
    std::uint64_t seq = 0;
  };

  /// One framed (from -> to) channel, held in its destination's record
  /// (inbound_). Active only while faults::framingEnabled().
  struct Channel {
    PartId from = 0;
    std::uint64_t sent = 0;       ///< send counter
    std::uint64_t delivered = 0;  ///< receive expectation
    /// Reliable mode: clean framed segments kept until the receiver
    /// verifies the phase. One copy, one CRC, whole coalesced segments —
    /// never re-split for resend.
    pcu::arq::ResendQueue unacked;
  };

  /// The (from -> to) channel record, created on first use; records stay
  /// ordered by sender. Caller holds mutex_.
  Channel& channelLocked(PartId from, PartId to) {
    auto& chans = inbound_[static_cast<std::size_t>(to)];
    auto it = std::lower_bound(
        chans.begin(), chans.end(), from,
        [](const Channel& c, PartId f) { return c.from < f; });
    if (it == chans.end() || it->from != from) {
      it = chans.emplace(it);
      it->from = from;
    }
    return *it;
  }

  /// One logical payload as posted by send() from a worker thread, before
  /// it is merged into the staged groups.
  struct StagedMsg {
    PartId from;
    PartId to;
    std::vector<std::byte> bytes;
  };

  /// One open coalescing group: every payload staged for (from, to) since
  /// the last flush, in posting order.
  struct Group {
    PartId from = 0;
    PartId to = 0;
    std::vector<std::vector<std::byte>> bodies;
    std::uint64_t logical_bytes = 0;
  };

  /// Thread-local binding of a worker thread to its staging vector; set by
  /// deliverAllThreaded for the duration of the worker loop.
  struct TlsSlot {
    const Network* net = nullptr;
    std::vector<StagedMsg>* stage = nullptr;
  };
  static TlsSlot& tlsSlot() {
    thread_local TlsSlot slot;
    return slot;
  }
  class TlsGuard {
   public:
    TlsGuard(const Network* net, std::vector<StagedMsg>* stage)
        : saved_(tlsSlot()) {
      tlsSlot() = TlsSlot{net, stage};
    }
    ~TlsGuard() { tlsSlot() = saved_; }
    TlsGuard(const TlsGuard&) = delete;
    TlsGuard& operator=(const TlsGuard&) = delete;

   private:
    TlsSlot saved_;
  };

  [[nodiscard]] static std::uint64_t channelKey(PartId from, PartId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  /// Salt base for fault decisions: epoch 0 degenerates to the unsalted
  /// historical stream (arq::saltSeq(seq, 0) == seq), so every seeded test
  /// written before reliability existed replays bit-identically.
  /// arq::retransmit adds attempts [1, budget] on top; epochs shift by
  /// 2^20 to stay clear of them. Caller holds mutex_.
  [[nodiscard]] std::uint64_t epochSalt() const {
    return fault_epoch_ * (std::uint64_t{1} << 20);
  }

  /// Stage one logical payload, coalescing it into the open (from, to)
  /// group — created on first appearance, so groups keep first-appearance
  /// order and payloads within a group keep posting order. The payload is
  /// moved straight into its group (no intermediate queue); a one-entry
  /// channel cache skips the map lookup for the common case of consecutive
  /// sends to the same destination. Caller holds mutex_.
  void stageLocked(PartId from, PartId to, std::vector<std::byte> bytes) {
    std::size_t gi;
    if (coalesce_) {
      const std::uint64_t key = channelKey(from, to);
      if (key == last_key_) {
        gi = last_group_;
      } else {
        auto [it, fresh] = group_of_.try_emplace(key, staged_groups_.size());
        if (fresh) {
          staged_groups_.emplace_back();
          staged_groups_.back().from = from;
          staged_groups_.back().to = to;
        }
        gi = it->second;
        last_key_ = key;
        last_group_ = gi;
      }
    } else {
      gi = staged_groups_.size();
      staged_groups_.emplace_back();
      staged_groups_.back().from = from;
      staged_groups_.back().to = to;
    }
    auto& g = staged_groups_[gi];
    g.logical_bytes += bytes.size();
    g.bodies.push_back(std::move(bytes));
  }

  /// Post every staged group as one physical message (stats, framing, and
  /// fault injection apply per physical message). Caller holds mutex_.
  void flushStageLocked() {
    if (staged_groups_.empty()) return;
    for (auto& g : staged_groups_) {
      if (g.bodies.empty()) continue;  // reserved via reserveStage, unused
      postSegmentLocked(g.from, g.to, std::move(g.bodies), g.logical_bytes);
    }
    staged_groups_.clear();
    group_of_.clear();
    last_key_ = kNoKey;
  }

  /// Account and enqueue one physical (coalesced) message. Caller holds
  /// mutex_.
  void postSegmentLocked(PartId from, PartId to,
                         std::vector<std::vector<std::byte>> bodies,
                         std::uint64_t logical_bytes) {
    // Logical counters account what the operations posted; physical
    // counters account what crosses the transport (see class comment). The
    // physical byte size is the segment form either way: payload bytes plus
    // one u32 length prefix per logical sub-message.
    const auto logical_count = static_cast<std::uint64_t>(bodies.size());
    stats_.messages_sent += logical_count;
    stats_.bytes_sent += logical_bytes;
    stats_.physical_messages += 1;
    stats_.physical_bytes += logical_bytes + sizeof(std::uint32_t) * logical_count;
    if (map_.sameNode(from, to)) {
      stats_.on_node_messages += logical_count;
      stats_.on_node_bytes += logical_bytes;
    } else {
      stats_.off_node_messages += logical_count;
      stats_.off_node_bytes += logical_bytes;
    }
    auto& box = boxes_[static_cast<std::size_t>(to)];
    if (!pcu::faults::framingEnabled()) {
      // Fast path: logical payloads are moved, never re-serialized.
      box.push_back(Pending{from, {}, std::move(bodies), 0});
      return;
    }
    // Framed path: one contiguous segment so a single seq/CRC covers the
    // whole physical message.
    pcu::OutBuffer segment;
    segment.reserve(static_cast<std::size_t>(logical_bytes) +
                    sizeof(std::uint32_t) * bodies.size());
    for (const auto& b : bodies) {
      segment.pack<std::uint32_t>(static_cast<std::uint32_t>(b.size()));
      segment.packBytes(b.data(), b.size());
    }
    bodies.clear();
    Channel& chan = channelLocked(from, to);
    const std::uint64_t seq = chan.sent++;
    auto framed = pcu::faults::frame(seq, std::move(segment).take());
    const auto action = pcu::faults::decide(
        from, to, kNetChannelTag, pcu::arq::saltSeq(seq, epochSalt()));
    if (pcu::arq::enabled())
      // Keep the clean framed segment until its receiver verifies it: the
      // phase-boundary recovery pulls retransmissions from here.
      chan.unacked.push(seq, std::vector<std::byte>(framed));
    switch (action) {
      case pcu::faults::Action::kDeliver:
        break;
      case pcu::faults::Action::kCorrupt:
        pcu::faults::corruptFrame(framed, from, to, kNetChannelTag, seq);
        break;
      case pcu::faults::Action::kDrop:
        return;  // detected at delivery as a sequence gap
      case pcu::faults::Action::kDuplicate:
        box.push_back(Pending{from, std::vector<std::byte>(framed), {}, seq});
        break;
      case pcu::faults::Action::kDelay:
        // Deliver behind the message currently at the back of the box (a
        // per-channel reorder when that message shares the channel).
        if (!box.empty()) {
          box.insert(box.end() - 1,
                     Pending{from, std::move(framed), {}, seq});
          return;
        }
        break;
    }
    box.push_back(Pending{from, std::move(framed), {}, seq});
  }

  /// Every phase on a part map that still pins a part to a dead rank fails:
  /// the dead rank's parts are unreachable until evacuation re-owns them.
  void checkDeadRanks() const {
    if (dead_ranks_.empty()) return;
    for (PartId p = 0; p < parts(); ++p)
      if (dead_ranks_.count(map_.rankOf(p)) > 0)
        throw pcu::Error(pcu::ErrorCode::kRankFailed, static_cast<int>(p),
                         map_.rankOf(p), kNetChannelTag,
                         "part " + std::to_string(p) +
                             " is pinned to dead rank " +
                             std::to_string(map_.rankOf(p)) +
                             "; evacuate before communicating");
  }

  /// Phase-boundary rank-fault hook, the one place kill=/hang=/join= fire:
  /// enforce the dead-rank gate, then consume a scheduled phase event whose
  /// phase index matches the number of boundaries passed under the current
  /// plan. A hang first sleeps out the plan's deadline — in this
  /// single-driver transport the silence of a hung rank is only observable
  /// as that detection latency — then both kinds declare the rank dead and
  /// abort the phase with kRankFailed.
  void maybeFireRankFault() {
    checkDeadRanks();
    if (!pcu::faults::hasPhaseEvent()) return;
    const pcu::faults::FaultPlan plan = pcu::faults::plan();
    // Phase indices are per installed plan: re-zero the counter whenever
    // the scheduled phase events (rank faults or join) change identity.
    std::uint64_t sig =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             plan.kill.rank * 31 + plan.kill.phase))
         << 32) |
        static_cast<std::uint32_t>(plan.hang.rank * 31 + plan.hang.phase);
    sig ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               plan.join.count * 131 + plan.join.phase)) *
           0x9e3779b97f4a7c15ull;
    if (sig != rank_fault_sig_ || !rank_fault_seen_) {
      rank_fault_sig_ = sig;
      rank_fault_seen_ = true;
      phase_counter_ = 0;
    }
    const std::uint64_t phase = phase_counter_++;
    // Record the join knock before any fault can abort this phase: scale-out
    // must not be forgotten because the same boundary also killed a rank.
    if (plan.join.scheduled()) {
      const int joiners = pcu::faults::fireJoin(phase);
      if (joiners > 0) {
        pending_join_ += joiners;
        if (pcu::trace::enabled())
          pcu::trace::counter("net:pending_join",
                              static_cast<std::int64_t>(pending_join_));
      }
    }
    if (plan.kill.scheduled() && pcu::faults::fireKill(plan.kill.rank, phase))
      declareRankDead(plan.kill.rank, /*hang=*/false, phase);
    if (plan.hang.scheduled() && pcu::faults::fireHang(plan.hang.rank, phase))
      declareRankDead(plan.hang.rank, /*hang=*/true, phase);
  }

  [[noreturn]] void declareRankDead(int rank, bool hang, std::uint64_t phase) {
    std::int64_t latency_us = 0;
    if (hang) {
      const int dl = std::max(pcu::faults::deadlineMs(), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(dl));
      latency_us = static_cast<std::int64_t>(dl) * 1000;
    }
    dead_ranks_.insert(rank);
    pcu::failure::noteSuspicion(latency_us);
    throw pcu::Error(pcu::ErrorCode::kRankFailed, -1, rank, kNetChannelTag,
                     "rank " + std::to_string(rank) +
                         (hang ? " went silent" : " died") +
                         " at phase boundary " + std::to_string(phase));
  }

  /// Flush the stage, swap out the pending boxes and, while framing is
  /// active, verify every destination's batch before any handler runs.
  /// Verification is single-threaded and happens up front in both delivery
  /// modes, so a bad batch aborts the phase deterministically with no
  /// handler side effects.
  std::vector<std::deque<Pending>> takeVerified() {
    maybeFireRankFault();
    std::vector<std::deque<Pending>> taken(boxes_.size());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flushStageLocked();
      taken.swap(boxes_);
    }
    // Bulk synchrony: everything posted before this point is in `taken`,
    // so each channel's send counter is exactly what must arrive.
    if (pcu::faults::framingEnabled()) {
      const bool reliable = pcu::arq::enabled();
      for (std::size_t to = 0; to < taken.size(); ++to)
        verifyBatch(static_cast<PartId>(to), taken[to], reliable);
    }
    return taken;
  }

  /// Verify one destination's batch: unframe (magic + CRC) every frame,
  /// then walk the destination's channels in sender order, checking that
  /// each delivers exactly the sequence numbers posted since the last
  /// phase. Leaves plain payloads in the box. The policy decides three
  /// points:
  ///  - a corrupt frame: strict throws kCorruptPayload (before any
  ///    sequence check); reliable drops it and re-fetches it as missing;
  ///  - a stale or repeated seq: strict throws kDuplicateMessage; reliable
  ///    drops it;
  ///  - a missing seq: strict throws kMessageLost (a gap at once; a
  ///    shortfall against the send counter after every channel is
  ///    checked); reliable pulls it from the channel's resend queue
  ///    (pcu::arq::retransmit).
  /// Strict keeps the box order, restoring each channel's FIFO inside the
  /// slots the channel occupies. Reliable rebuilds the box in (sender,
  /// seq) order — the cross-channel interleave is normalized, which the
  /// handlers tolerate by the same contract that makes threaded delivery
  /// legal — and acknowledges each verified channel prefix.
  void verifyBatch(PartId to, std::deque<Pending>& box, bool reliable) {
    const int rank = static_cast<int>(to);
    struct Ref {
      PartId from;
      std::uint64_t seq;
      std::size_t slot;
    };
    std::vector<Ref> refs;
    refs.reserve(box.size());
    for (std::size_t i = 0; i < box.size(); ++i) {
      auto& msg = box[i];
      try {
        msg.bytes = pcu::faults::unframe(std::move(msg.bytes), msg.seq, rank,
                                         static_cast<int>(msg.from),
                                         kNetChannelTag);
      } catch (const pcu::Error&) {
        if (!reliable) throw;
        pcu::arq::noteCorruptDropped();
        continue;  // recovered below as a missing sequence number
      }
      refs.push_back(Ref{msg.from, msg.seq, i});
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      return std::tie(a.from, a.seq, a.slot) < std::tie(b.from, b.seq, b.slot);
    });
    // Pull one lost or corrupt segment back from the resend queue.
    auto recover = [&](Channel& chan, std::uint64_t seq) {
      const int peer = static_cast<int>(chan.from);
      std::vector<std::byte> framed;
      std::uint64_t salt = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        salt = epochSalt();
        const auto* kept = chan.unacked.find(seq);
        if (kept == nullptr)
          throw pcu::Error(pcu::ErrorCode::kMessageLost, rank, peer,
                           kNetChannelTag,
                           "channel seq " + std::to_string(seq) +
                               " lost and absent from the resend buffer");
        framed = *kept;
      }
      pcu::arq::retransmit(pcu::faults::current(), peer, rank, kNetChannelTag,
                           seq, salt);
      std::uint64_t got = 0;
      auto payload = pcu::faults::unframe(std::move(framed), got, rank, peer,
                                          kNetChannelTag);
      return Pending{chan.from, std::move(payload), {}, got};
    };
    std::deque<Pending> rebuilt;       // reliable: (sender, seq) order
    std::vector<Pending> kept;         // strict: one channel, seq order
    std::vector<std::size_t> slots;    // strict: the slots it occupies
    std::optional<pcu::Error> shortfall;
    auto r = refs.begin();
    for (Channel& chan : inbound_[static_cast<std::size_t>(to)]) {
      const int peer = static_cast<int>(chan.from);
      std::uint64_t expect = chan.delivered;
      kept.clear();
      slots.clear();
      for (; r != refs.end() && r->from == chan.from; ++r) {
        if (r->seq < expect) {
          if (!reliable)
            throw pcu::Error(pcu::ErrorCode::kDuplicateMessage, rank, peer,
                             kNetChannelTag,
                             "channel seq " + std::to_string(r->seq) +
                                 " already delivered");
          pcu::arq::noteDuplicateDropped();
          continue;
        }
        if (r->seq > expect && !reliable)
          throw pcu::Error(pcu::ErrorCode::kMessageLost, rank, peer,
                           kNetChannelTag,
                           "sequence gap: expected " + std::to_string(expect) +
                               ", got " + std::to_string(r->seq));
        for (; expect < r->seq; ++expect)
          rebuilt.push_back(recover(chan, expect));
        ++expect;
        if (reliable) {
          rebuilt.push_back(std::move(box[r->slot]));
        } else {
          kept.push_back(std::move(box[r->slot]));
          slots.push_back(r->slot);
        }
      }
      // A fully-dropped channel (or dropped batch tail) leaves no frame to
      // flag a gap; the send counter catches it.
      if (expect < chan.sent && !reliable && !shortfall)
        shortfall.emplace(pcu::ErrorCode::kMessageLost, rank, peer,
                          kNetChannelTag,
                          std::to_string(chan.sent - expect) +
                              " message(s) posted but never delivered");
      if (reliable)
        for (; expect < chan.sent; ++expect)
          rebuilt.push_back(recover(chan, expect));
      chan.delivered = expect;
      if (reliable) {
        // Acknowledge the verified prefix: the resend queue can forget it.
        std::lock_guard<std::mutex> lock(mutex_);
        if (chan.unacked.ack(expect)) pcu::arq::noteAcked();
      } else {
        std::sort(slots.begin(), slots.end());
        for (std::size_t k = 0; k < slots.size(); ++k)
          box[slots[k]] = std::move(kept[k]);
      }
    }
    assert(r == refs.end() && "frame from a sender without a channel record");
    if (shortfall) throw *shortfall;
    if (reliable) box.swap(rebuilt);
  }

  /// Hand one destination part its pending messages, splitting each
  /// physical segment back into its logical sub-messages and attributing
  /// the delivery scope and each logical message to that part ("rank" =
  /// part id in the trace, in logical units). Used by both sequential and
  /// threaded delivery, so per-part trace events exist in either mode.
  void deliverTo(
      PartId to, std::deque<Pending>& box,
      const std::function<void(PartId, PartId, pcu::InBuffer)>& handler) {
    if (box.empty()) return;
    const bool traced = pcu::trace::enabled();
    if (traced) pcu::trace::beginAs(to, "net:deliver");
    for (auto& msg : box) {
      if (!msg.bodies.empty()) {
        // Fast path: logical payloads arrive pre-split, moved with no copy.
        for (auto& b : msg.bodies) {
          if (traced)
            pcu::trace::recvAs(to, msg.from,
                               static_cast<std::int64_t>(b.size()), "net");
          handler(to, msg.from, pcu::InBuffer(std::move(b)));
        }
        continue;
      }
      // Framed path: split the verified contiguous segment.
      pcu::InBuffer segment(std::move(msg.bytes));
      while (!segment.done()) {
        const auto len = segment.unpack<std::uint32_t>();
        pcu::InBuffer body(segment.unpackRaw(len));
        if (traced)
          pcu::trace::recvAs(to, msg.from,
                             static_cast<std::int64_t>(body.size()), "net");
        handler(to, msg.from, std::move(body));
      }
    }
    if (traced) pcu::trace::endAs(to, "net:deliver");
  }
  PartMap map_;
  mutable std::mutex mutex_;
  std::vector<std::deque<Pending>> boxes_;
  /// Payloads staged since the last flush, already coalesced into
  /// per-(from, to) groups: driver-thread sends stage directly, worker-stage
  /// replies merge in after each threaded delivery. Guarded by mutex_, with
  /// a one-entry cache for the channel of the previous send.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  std::vector<Group> staged_groups_;
  common::FlatMap<std::uint64_t, std::size_t> group_of_;
  std::uint64_t last_key_ = kNoKey;
  std::size_t last_group_ = 0;
  pcu::CommStats stats_;
  bool coalesce_ = true;
  int delivery_threads_ = 0;
  /// Framed-channel records per destination part, each ordered by sender.
  /// Written under mutex_ by the stage flush (send counters, resend
  /// queues); the single-threaded verification pass in takeVerified() owns
  /// the receive expectations and locks only to touch a resend queue.
  /// Cleared by resetTransport().
  std::vector<std::vector<Channel>> inbound_;
  /// Fault-decision epoch (see bumpFaultEpoch); guarded by mutex_.
  std::uint64_t fault_epoch_ = 0;
  /// Rank-fault state (driver thread only: touched at phase boundaries).
  std::set<int> dead_ranks_;
  /// Joiners announced by a consumed join=K@P token, awaiting admission
  /// (driver thread only).
  int pending_join_ = 0;
  std::uint64_t phase_counter_ = 0;
  std::uint64_t rank_fault_sig_ = 0;
  bool rank_fault_seen_ = false;
};

}  // namespace dist

#endif  // PUMI_DIST_NETWORK_HPP
