#ifndef PUMI_PCU_ARQ_HPP
#define PUMI_PCU_ARQ_HPP

/// \file arq.hpp
/// \brief Reliable-delivery (ARQ) configuration, accounting, and the
/// resend queue and retransmission loop of dist::Network's framed channels.
///
/// Tier 1 of the recovery stack: when reliability is on (PUMI_RELIABLE in
/// the environment, or arq::setReliable / arq::setConfig), dist::Network's
/// phase boundary stops treating injected faults as fatal and recovers
/// instead:
///
///  - every framed segment keeps a clean copy in its channel's ResendQueue
///    until the receiving part verifies the phase (the verified prefix is
///    acknowledged and pruned);
///  - a missing sequence number (dropped, or corrupt and discarded) is
///    pulled from that queue; duplicate sequence numbers are silently
///    dropped instead of raising kDuplicateMessage;
///  - each retransmission attempt re-runs the fault plan's deterministic
///    decision under an attempt salt, so a transient plan eventually lets
///    a retransmission through while a permanent (p = 1) plan exhausts the
///    bounded retry budget and converts to a structured
///    pcu::Error(kMessageLost) naming the channel and sequence number.
///
/// Loss is detected deterministically at the bulk-synchronous phase
/// boundary, so no timer is involved. Reliability implies framing:
/// enabling it turns pcu::faults::framingEnabled() on even without a plan.
/// pcu::Comm is never framed and never consults this switch.
///
/// PUMI_RELIABLE syntax: "1"/"on"/"true" (defaults), "0"/"off"/"false",
/// or comma-separated key=value:
///   budget=16        retransmission attempts per missing frame
///   opretries=3      tier-2 transactional operation replays (dist ops)
/// Malformed specs are rejected with pcu::Error(kValidation) naming the
/// bad token (same strict parser as PUMI_FAULTS).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace pcu::faults {
class Domain;
}

namespace pcu::arq {

/// Reliable-delivery knobs. `on` gates everything; the rest tune it.
struct Config {
  bool on = false;
  int retry_budget = 16;   ///< retransmission attempts per missing frame
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
  std::uint64_t retransmits = 0;        ///< retransmission attempts made
  std::uint64_t recovered = 0;          ///< frames recovered via the store
  std::uint64_t duplicates_dropped = 0; ///< dedup discards (vs kDuplicate)
  std::uint64_t corrupt_dropped = 0;    ///< corrupt frames discarded
  std::uint64_t acked = 0;              ///< channel prefixes acknowledged
};

Stats stats();
void resetStats();

void noteRetransmit();
void noteRecovered();
void noteDuplicateDropped();
void noteCorruptDropped();
void noteAcked();

/// --- resend queue and retransmission -----------------------------------

/// One channel's unacknowledged clean frames, in ascending sequence order.
/// Frames are appended as the channel's send counter advances and dropped
/// from the front on acknowledgement. Not synchronized; the owner guards
/// it.
class ResendQueue {
 public:
  /// Keep a clean copy of frame `seq` (replacing an equal seq).
  void push(std::uint64_t seq, std::vector<std::byte> framed);
  /// Drop every frame below `upto`; true when the queue held any frame.
  bool ack(std::uint64_t upto);
  /// The stored frame `seq`, or nullptr when absent (never kept or acked).
  [[nodiscard]] const std::vector<std::byte>* find(std::uint64_t seq) const;

 private:
  struct Frame {
    std::uint64_t seq;
    std::vector<std::byte> bytes;
  };
  [[nodiscard]] std::deque<Frame>::const_iterator lowerBound(
      std::uint64_t seq) const;
  std::deque<Frame> frames_;
};

/// Model retransmission of frame `seq` on channel (src -> dst, tag) across
/// the faulty network: up to config().retry_budget attempts, each re-running
/// `domain`'s decision under saltSeq(seq, salt_base + attempt); the first
/// neither dropped nor corrupted gets through, and the caller delivers its
/// clean copy. Counts attempts and the recovery; throws
/// pcu::Error(kMessageLost) for (dst, src, tag) naming the budget when all
/// fail. `salt_base` is dist::Network's fault epoch (see bumpFaultEpoch).
void retransmit(const faults::Domain& domain, int src, int dst, int tag,
                std::uint64_t seq, std::uint64_t salt_base);

}  // namespace pcu::arq

#endif  // PUMI_PCU_ARQ_HPP
