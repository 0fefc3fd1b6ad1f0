#ifndef PUMI_PCU_ERROR_HPP
#define PUMI_PCU_ERROR_HPP

/// \file error.hpp
/// \brief Structured errors for the messaging and distributed-mesh layers.
///
/// A pcu::Error names what went wrong (code), where (rank/part), on which
/// channel (peer, tag) and why (detail), so a failure in a distributed
/// operation is diagnosable instead of undefined behaviour or a hang. The
/// fault-hardening layers (dist::Network framing, dist transactional
/// operations) throw these.

#include <stdexcept>
#include <string>

namespace pcu {

/// What kind of failure an Error reports.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kCorruptPayload,    ///< frame CRC/magic mismatch at receive
  kDuplicateMessage,  ///< channel sequence number already delivered
  kMessageLost,       ///< channel sequence gap at a phase boundary
  kValidation,        ///< operation input rejected before any mutation
  kProtocol,          ///< internal protocol invariant violated
  kRankFailed,        ///< a rank died or went silent at a phase boundary
  kAdmission,         ///< service admission control rejected or shed a job
  kIoFault,           ///< storage I/O failed (write error, out of space)
  kIntegrity,         ///< in-memory state corruption detected, not repairable
};

inline const char* errorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kCorruptPayload: return "corrupt-payload";
    case ErrorCode::kDuplicateMessage: return "duplicate-message";
    case ErrorCode::kMessageLost: return "message-lost";
    case ErrorCode::kValidation: return "validation";
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kRankFailed: return "rank-failed";
    case ErrorCode::kAdmission: return "admission";
    case ErrorCode::kIoFault: return "io-fault";
    case ErrorCode::kIntegrity: return "integrity";
  }
  return "unknown";
}

/// A structured messaging/distributed-operation error. `rank` is the rank
/// (or part id) reporting the error; `peer`/`tag` identify the channel when
/// the failure is tied to one (-1/kNoTag otherwise).
class Error : public std::runtime_error {
 public:
  static constexpr int kNoTag = -0x7fffffff;

  Error(ErrorCode code, int rank, int peer, int tag, std::string detail)
      : std::runtime_error(format(code, rank, peer, tag, detail)),
        code_(code),
        rank_(rank),
        peer_(peer),
        tag_(tag),
        detail_(std::move(detail)) {}

  Error(ErrorCode code, int rank, std::string detail)
      : Error(code, rank, -1, kNoTag, std::move(detail)) {}

  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int peer() const { return peer_; }
  [[nodiscard]] int tag() const { return tag_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  static std::string format(ErrorCode code, int rank, int peer, int tag,
                            const std::string& detail) {
    std::string s = "pcu::Error[";
    s += errorCodeName(code);
    s += "] rank ";
    s += std::to_string(rank);
    if (peer >= 0) {
      s += ", peer ";
      s += std::to_string(peer);
    }
    if (tag != kNoTag) {
      s += ", tag ";
      s += std::to_string(tag);
    }
    if (!detail.empty()) {
      s += ": ";
      s += detail;
    }
    return s;
  }

  ErrorCode code_;
  int rank_;
  int peer_;
  int tag_;
  std::string detail_;
};

}  // namespace pcu

#endif  // PUMI_PCU_ERROR_HPP
