#ifndef PUMI_PCU_ARQ_HPP
#define PUMI_PCU_ARQ_HPP

/// \file arq.hpp
/// \brief Reliable-delivery (ARQ) configuration, accounting, and the
/// framed-channel core both transports share.
///
/// Tier 1 of the recovery stack: when reliability is on (PUMI_RELIABLE in
/// the environment, or arq::setReliable / arq::setConfig), the framed
/// messaging paths stop treating injected faults as fatal and recover
/// instead:
///
///  - every framed send keeps a clean copy of the frame in a resend queue
///    until the receiver acknowledges delivery (in-order receipt prunes the
///    channel's stored prefix);
///  - a dropped frame leaves a loss beacon behind, so the receiver pulls
///    the retransmission immediately instead of waiting out a timeout;
///  - receivers also scan the store on a capped exponential-backoff timer
///    (the RTO path), which covers delayed and reordered traffic;
///  - corrupt frames are discarded and re-fetched; duplicate sequence
///    numbers are silently dropped instead of raising kDuplicateMessage;
///  - each retransmission attempt re-runs the fault plan's deterministic
///    decision under an attempt salt, so a transient plan eventually lets
///    a retransmission through while a permanent (p = 1) plan exhausts the
///    bounded retry budget and converts to a structured
///    pcu::Error(kMessageLost) naming the channel and sequence number.
///
/// Both transports share the core below: pcu::Comm recovers per receive
/// from its group's ResendStore, dist::Network at its phase boundary from
/// one ResendQueue per channel (no beacons or timer needed there), and
/// both retransmit through arq::retransmit. Reliability implies framing:
/// enabling it turns pcu::faults::framingEnabled() on even without a plan.
///
/// PUMI_RELIABLE syntax: "1"/"on"/"true" (defaults), "0"/"off"/"false",
/// or comma-separated key=value:
///   budget=16        retransmission attempts per missing frame
///   rto_us=200       first receiver store-scan interval, microseconds
///   maxrto_us=20000  backoff cap, microseconds
///   opretries=3      tier-2 transactional operation replays (dist ops)
/// Malformed specs are rejected with pcu::Error(kValidation) naming the
/// bad token (same strict parser as PUMI_FAULTS).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/flatmap.hpp"

namespace pcu::faults {
class Domain;
}

namespace pcu::arq {

/// Reliable-delivery knobs. `on` gates everything; the rest tune it.
struct Config {
  bool on = false;
  int retry_budget = 16;   ///< retransmission attempts per missing frame
  int rto_us = 200;        ///< first receiver store-scan interval
  int max_rto_us = 20000;  ///< exponential-backoff cap
  int op_retries = 3;      ///< default tier-2 transactional replays
};

/// Parse a PUMI_RELIABLE-style spec. Throws pcu::Error(kValidation) naming
/// the bad token on malformed input.
Config parseConfig(const std::string& spec);

/// Install a full config (latches PUMI_RELIABLE from the environment
/// first, so a programmatic setting always wins). Only call at quiescent
/// points, like faults::setPlan.
void setConfig(const Config& config);

/// Switch reliability on (default knobs) or off, preserving tuned knobs.
void setReliable(bool on);

/// True when reliable delivery is active for the calling thread: the
/// ambient fault domain's reliable override when one is set (see
/// pcu::faults::Domain::setReliable — a tenant-scoped switch), else the
/// process-global setting. First call latches PUMI_RELIABLE.
bool enabled();

/// The raw process-global reliable switch, ignoring any ambient fault
/// domain override. Used by faults::Domain as the inherit fallback.
bool processEnabled();

/// The active config (meaningful knobs even while off).
Config config();

/// Deterministic salt for retransmission-attempt fault decisions: attempt 0
/// returns `seq` unchanged (the original transmission's decision stream is
/// exactly what a non-reliable run sees); attempts >= 1 decorrelate so a
/// transient fault plan does not deterministically re-fault every
/// retransmission of the same frame.
inline std::uint64_t saltSeq(std::uint64_t seq, std::uint64_t attempt) {
  if (attempt == 0) return seq;
  return seq ^ (0x9e3779b97f4a7c15ull * attempt) ^ (attempt << 48);
}

/// --- accounting ---------------------------------------------------------
/// Process-global counters (relaxed atomics): what reliability actually did.

struct Stats {
  std::uint64_t frames_stored = 0;      ///< clean frames kept for resend
  std::uint64_t beacons_sent = 0;       ///< loss beacons left by drops
  std::uint64_t retransmits = 0;        ///< retransmission attempts made
  std::uint64_t recovered = 0;          ///< frames recovered via the store
  std::uint64_t duplicates_dropped = 0; ///< dedup discards (vs kDuplicate)
  std::uint64_t corrupt_dropped = 0;    ///< corrupt frames discarded
  std::uint64_t acked = 0;              ///< store prunes on in-order receipt
};

Stats stats();
void resetStats();

void noteStored();
void noteBeacon();
void noteRetransmit();
void noteRecovered();
void noteDuplicateDropped();
void noteCorruptDropped();
void noteAcked();

/// --- the shared framed-channel core -------------------------------------

/// One channel's unacknowledged clean frames, in ascending sequence order:
/// the unit both transports keep for resend. Frames are appended as the
/// channel's send counter advances and dropped from the front on
/// acknowledgement. Not synchronized; the owner guards it.
class ResendQueue {
 public:
  /// Keep a clean copy of frame `seq` (replacing an equal seq).
  /// `may_be_lost` marks a frame the fault plan kept from its receiver's
  /// mailbox (faults::mayLose): only those are candidates for a
  /// receiver's store scan (forEachLostFrom).
  void push(std::uint64_t seq, std::vector<std::byte> framed,
            bool may_be_lost);
  /// Drop every frame below `upto`; true when the queue held any frame.
  bool ack(std::uint64_t upto);
  /// The stored frame `seq`, or nullptr when absent (never kept or acked).
  [[nodiscard]] const std::vector<std::byte>* find(std::uint64_t seq) const;
  /// Call f(seq, bytes) for every frame at or above `from` that may have
  /// been lost, in seq order.
  template <typename F>
  void forEachLostFrom(std::uint64_t from, F&& f) const {
    for (auto it = lowerBound(from); it != frames_.end(); ++it)
      if (it->may_be_lost) f(it->seq, it->bytes);
  }
  [[nodiscard]] bool empty() const { return frames_.empty(); }

 private:
  struct Frame {
    std::uint64_t seq;
    std::vector<std::byte> bytes;
    bool may_be_lost;
  };
  [[nodiscard]] std::deque<Frame>::const_iterator lowerBound(
      std::uint64_t seq) const;
  std::deque<Frame> frames_;
};

/// Sender-side store of clean framed copies for receiver-pulled
/// retransmission, shared by every rank of one pcu::Group. Each framed send
/// deposits its frame here before fault injection can touch it; the
/// receiver pulls the clean copy when it detects loss (a beacon or an RTO
/// scan) and prunes the channel's prefix on every in-order delivery (the
/// "ack").
///
/// Receiver-pulled rather than sender-driven on purpose: under the
/// bulk-synchronous patterns this library runs, a sender may be blocked in
/// a collective when its frame is lost, so it could never service a
/// retransmit *request*; a shared store the receiver reads directly cannot
/// deadlock. Sharded by destination rank so concurrent ranks do not
/// contend on one mutex; within a shard, one ResendQueue per (source, tag).
class ResendStore {
 public:
  explicit ResendStore(int ranks) : shards_(static_cast<std::size_t>(ranks)) {}

  /// Keep a clean framed copy of (src -> dst, tag, seq); `may_be_lost`
  /// as in ResendQueue::push.
  void store(int src, int dst, int tag, std::uint64_t seq,
             std::vector<std::byte> framed, bool may_be_lost);
  /// Receiver acknowledgement: drop channel frames with seq < upto.
  void ack(int src, int dst, int tag, std::uint64_t upto);
  /// Copy of one stored frame; empty when absent (never stored or pruned;
  /// a stored frame is never empty).
  std::vector<std::byte> fetch(int dst, int src, int tag, std::uint64_t seq);
  struct PendingFrame {
    int src;
    std::uint64_t seq;
    std::vector<std::byte> bytes;
  };
  /// Every stored frame addressed to `dst` on `tag` (any source when
  /// src < 0) that may have been lost and whose seq is not below the
  /// receiver's expectation (queried per source channel): the RTO scan's
  /// pull candidates, in (source, seq) order. A frame pushed intact is
  /// never one, however late its receiver finds it.
  std::vector<PendingFrame> pending(
      int dst, int src, int tag,
      const std::function<std::uint64_t(int)>& expected);

 private:
  static std::uint64_t channelKey(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  struct Shard {
    std::mutex mutex;
    common::FlatMap<std::uint64_t, ResendQueue> chans;  ///< channelKey ->
  };
  std::vector<Shard> shards_;
};

/// Model retransmission of frame `seq` on channel (src -> dst, tag) across
/// the faulty network: up to config().retry_budget attempts, each re-running
/// `domain`'s decision under saltSeq(seq, salt_base + attempt); the first
/// neither dropped nor corrupted gets through, and the caller delivers its
/// clean copy. Counts attempts and the recovery; throws
/// pcu::Error(kMessageLost) for (dst, src, tag) naming the budget when all
/// fail. `salt_base`: 0 for pcu::Comm, the fault epoch for dist::Network.
void retransmit(const faults::Domain& domain, int src, int dst, int tag,
                std::uint64_t seq, std::uint64_t salt_base);

}  // namespace pcu::arq

#endif  // PUMI_PCU_ARQ_HPP
