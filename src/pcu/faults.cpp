#include "pcu/faults.hpp"

#include <cstdlib>
#include <cstring>
#include <map>
#include <tuple>

#include "pcu/arq.hpp"
#include "pcu/envspec.hpp"

namespace pcu::faults {

namespace {

/// splitmix64 finalizer: decorrelates the packed decision key.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t decisionKey(std::uint64_t seed, int src, int dst, int tag,
                          std::uint64_t seq) {
  std::uint64_t h = mix(seed);
  h = mix(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) |
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
                << 32)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  return mix(h ^ seq);
}

double unitUniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

void put32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// The calling thread's ambient domain; null means the default domain.
/// tls_handle points at the innermost DomainScope's owning shared_ptr so
/// currentHandle() can share ownership without a lifetime hack.
thread_local Domain* tls_domain = nullptr;
thread_local const std::shared_ptr<Domain>* tls_handle = nullptr;

/// Latch PUMI_FAULTS into the default domain once, before its first query;
/// setPlan()/clearPlan() override it.
void envLatch(Domain& d) {
  static Domain* latched = [&] {
    const char* spec = std::getenv("PUMI_FAULTS");
    if (spec != nullptr && *spec != '\0') d.install(parsePlan(spec));
    return &d;
  }();
  (void)latched;
}

}  // namespace

void Domain::install(const FaultPlan& p) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = p;
  kill_fired_ = false;
  hang_fired_ = false;
  join_fired_ = false;
  memflip_fired_ = false;
  const bool rank_fault = p.kill.scheduled() || p.hang.scheduled();
  injecting_.store(p.injects(), std::memory_order_relaxed);
  // Storage faults gate only the pario::File shim; they deliberately do
  // not arm message framing or transactional mode. Memory faults likewise
  // gate only core::integrity's injection hook.
  io_injecting_.store(p.ioInjects(), std::memory_order_relaxed);
  mem_injecting_.store(p.memInjects(), std::memory_order_relaxed);
  iostall_ms_.store(p.iostall_ms, std::memory_order_relaxed);
  // A scheduled join is not a fault, but it needs the hardened phase
  // boundaries (which only exist on the framed path) so its @PHASE index is
  // deterministic — frame like checksum-verify mode does.
  framing_.store(p.injects() || p.checksum_only || p.join.scheduled(),
                 std::memory_order_relaxed);
  rank_fault_.store(rank_fault, std::memory_order_relaxed);
  join_.store(p.join.scheduled(), std::memory_order_relaxed);
  deadline_ms_.store(p.deadline_ms > 0
                         ? p.deadline_ms
                         : (rank_fault ? kDefaultRankFaultDeadlineMs : 0),
                     std::memory_order_relaxed);
}

FaultPlan Domain::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_;
}

bool Domain::framingEnabled() const {
  // Reliable delivery needs the frame seq/CRC machinery even with no fault
  // plan installed (sequence-based dedup and acknowledgement ride on it).
  return framing_.load(std::memory_order_relaxed) || reliableEnabled();
}

bool Domain::reliableEnabled() const {
  const int ov = reliable_override_.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0;
  return arq::processEnabled();
}

bool Domain::fireKill(int rank, std::uint64_t phase) {
  if (!hasRankFault()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (kill_fired_ || !plan_.kill.scheduled()) return false;
  if (rank != plan_.kill.rank ||
      phase != static_cast<std::uint64_t>(plan_.kill.phase))
    return false;
  kill_fired_ = true;
  return true;
}

bool Domain::fireHang(int rank, std::uint64_t phase) {
  if (!hasRankFault()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (hang_fired_ || !plan_.hang.scheduled()) return false;
  if (rank != plan_.hang.rank ||
      phase != static_cast<std::uint64_t>(plan_.hang.phase))
    return false;
  hang_fired_ = true;
  return true;
}

MemFlip Domain::fireMemFlip(std::uint64_t phase) {
  if (!memEnabled()) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  if (memflip_fired_ || !plan_.memflip.scheduled()) return {};
  if (phase != static_cast<std::uint64_t>(plan_.memflip.phase)) return {};
  memflip_fired_ = true;
  return plan_.memflip;
}

int Domain::fireJoin(std::uint64_t phase) {
  if (!hasJoin()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (join_fired_ || !plan_.join.scheduled()) return 0;
  if (phase != static_cast<std::uint64_t>(plan_.join.phase)) return 0;
  join_fired_ = true;
  return plan_.join.count;
}

Action Domain::decide(int src, int dst, int tag, std::uint64_t seq) const {
  if (!enabled()) return Action::kDeliver;
  FaultPlan p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    p = plan_;
  }
  const double u = unitUniform(decisionKey(p.seed, src, dst, tag, seq));
  // Stack the probability bands: [0,corrupt) corrupt, [corrupt,+drop) drop,
  // then duplicate, then delay, else deliver.
  double edge = p.corrupt;
  if (u < edge) return Action::kCorrupt;
  edge += p.drop;
  if (u < edge) return Action::kDrop;
  edge += p.duplicate;
  if (u < edge) return Action::kDuplicate;
  edge += p.delay;
  if (u < edge) return Action::kDelay;
  return Action::kDeliver;
}

IoAction Domain::decideIo(IoOp op, std::uint64_t path_hash,
                          std::uint64_t offset) const {
  if (!ioEnabled()) return IoAction::kOk;
  FaultPlan p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    p = plan_;
  }
  // Pure in (seed, path hash, op, offset): same band-stacking discipline as
  // the per-message decide(), over a separately-salted key stream so a plan
  // mixing message and storage probabilities draws independent decisions.
  std::uint64_t h = mix(p.seed ^ 0x50494F4641554C54ull);  // "PIOFAULT"
  h = mix(h ^ path_hash);
  h = mix(h ^ (static_cast<std::uint64_t>(op) + 1));
  const double u = unitUniform(mix(h ^ offset));
  if (op == IoOp::kWrite) {
    double edge = p.iotorn;
    if (u < edge) return IoAction::kTorn;
    edge += p.ioshort;
    if (u < edge) return IoAction::kShort;
    edge += p.ioenospc;
    if (u < edge) return IoAction::kEnospc;
    edge += p.iostall;
    if (u < edge) return IoAction::kStall;
    return IoAction::kOk;
  }
  double edge = p.iobitrot;
  if (u < edge) return IoAction::kBitrot;
  edge += p.ioshort;
  if (u < edge) return IoAction::kShort;
  edge += p.iostall;
  if (u < edge) return IoAction::kStall;
  return IoAction::kOk;
}

std::uint64_t ioPathHash(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (std::size_t i = start; i < path.size(); ++i) {
    h ^= static_cast<std::uint8_t>(path[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::shared_ptr<Domain> defaultDomain() {
  static std::shared_ptr<Domain> d = std::make_shared<Domain>();
  envLatch(*d);
  return d;
}

Domain& current() {
  if (tls_domain != nullptr) return *tls_domain;
  return *defaultDomain();
}

std::shared_ptr<Domain> currentHandle() {
  if (tls_handle != nullptr) return *tls_handle;
  return defaultDomain();
}

DomainScope::DomainScope(std::shared_ptr<Domain> domain)
    : keep_alive_(std::move(domain)), prev_(tls_domain) {
  prev_handle_ = tls_handle;
  tls_domain = keep_alive_.get();
  tls_handle = &keep_alive_;
}

DomainScope::~DomainScope() {
  tls_domain = prev_;
  tls_handle = static_cast<const std::shared_ptr<Domain>*>(prev_handle_);
}

FaultPlan parsePlan(const std::string& spec) {
  // Strict token-by-token parsing (pcu/envspec.hpp): each value must
  // consume its whole token, unsigned fields reject signs, probabilities
  // live in [0,1]; every rejection is a kValidation error naming the bad
  // token. The previous stoull/stod parsing silently accepted trailing
  // garbage ("drop=0.5xyz") and wrapping seeds.
  const std::string env = "PUMI_FAULTS";
  FaultPlan p;
  // Repeated keys are a spec error, not a silent overwrite: a plan whose
  // later token replaced an earlier one would replay differently than it
  // reads. Remember each key's first token so the rejection names both.
  std::map<std::string, std::string> seen;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      envspec::fail(env, "missing '=' in \"" + item + "\"");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (const auto it = seen.find(key); it != seen.end())
      envspec::fail(env, "duplicate key \"" + key + "\": \"" + it->second +
                             "\" and \"" + item + "\"");
    seen.emplace(key, item);
    if (key == "seed") {
      p.seed = envspec::parseU64(env, key, val);
    } else if (key == "corrupt") {
      p.corrupt = envspec::parseProb(env, key, val);
    } else if (key == "drop") {
      p.drop = envspec::parseProb(env, key, val);
    } else if (key == "dup") {
      p.duplicate = envspec::parseProb(env, key, val);
    } else if (key == "delay") {
      p.delay = envspec::parseProb(env, key, val);
    } else if (key == "kill") {
      std::tie(p.kill.rank, p.kill.phase) =
          envspec::parseRankAtPhase(env, key, val);
    } else if (key == "hang") {
      std::tie(p.hang.rank, p.hang.phase) =
          envspec::parseRankAtPhase(env, key, val);
    } else if (key == "join") {
      // COUNT@PHASE, strict like kill/hang but the first half is a joiner
      // count and must be at least 1 (a zero-rank join is a spec error,
      // not a no-op).
      const std::size_t at = val.find('@');
      if (at == std::string::npos)
        envspec::badValue(env, key, val, "COUNT@PHASE");
      p.join.count =
          envspec::parseInt(env, "join count", val.substr(0, at), 1, 1 << 16);
      p.join.phase =
          envspec::parseInt(env, "join phase", val.substr(at + 1), 0, 1 << 30);
    } else if (key == "deadline") {
      p.deadline_ms = envspec::parseInt(env, key, val, 0, 1 << 30);
    } else if (key == "checksum") {
      p.checksum_only = envspec::parseBool(env, key, val);
    } else if (key == "iobitrot") {
      p.iobitrot = envspec::parseProb(env, key, val);
    } else if (key == "iotorn") {
      p.iotorn = envspec::parseProb(env, key, val);
    } else if (key == "ioshort") {
      p.ioshort = envspec::parseProb(env, key, val);
    } else if (key == "ioenospc") {
      p.ioenospc = envspec::parseProb(env, key, val);
    } else if (key == "iostall") {
      p.iostall = envspec::parseProb(env, key, val);
    } else if (key == "iostallms") {
      p.iostall_ms = envspec::parseInt(env, key, val, 0, 1 << 30);
    } else if (key == "memflip") {
      // NBITS@PHASE[:target], strict: at least one bit (a zero-bit burst is
      // a spec error, not a no-op), phase >= 0, and the optional target must
      // name a known section family exactly.
      const std::size_t at = val.find('@');
      if (at == std::string::npos)
        envspec::badValue(env, key, val, "NBITS@PHASE[:target]");
      p.memflip.bits = envspec::parseInt(env, "memflip bits",
                                         val.substr(0, at), 1, 1 << 20);
      std::string rest = val.substr(at + 1);
      const std::size_t colon = rest.find(':');
      if (colon != std::string::npos) {
        const std::string target = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
        if (target == "pool") {
          p.memflip.target = MemTarget::kPool;
        } else if (target == "tag") {
          p.memflip.target = MemTarget::kTag;
        } else if (target == "remotes") {
          p.memflip.target = MemTarget::kRemotes;
        } else {
          envspec::fail(env, "memflip target \"" + target +
                                 "\" is not one of pool|tag|remotes");
        }
      }
      p.memflip.phase = envspec::parseInt(env, "memflip phase", rest, 0,
                                          1 << 30);
    } else {
      envspec::fail(env, "unknown key \"" + key + "\" in \"" + item + "\"");
    }
  }
  return p;
}

void setPlan(const FaultPlan& plan) { current().install(plan); }

void clearPlan() { current().clear(); }

FaultPlan plan() { return current().plan(); }

bool enabled() { return current().enabled(); }

bool framingEnabled() { return current().framingEnabled(); }

bool hasRankFault() { return current().hasRankFault(); }

int deadlineMs() { return current().deadlineMs(); }

bool fireKill(int rank, std::uint64_t phase) {
  return current().fireKill(rank, phase);
}

bool fireHang(int rank, std::uint64_t phase) {
  return current().fireHang(rank, phase);
}

bool hasJoin() { return current().hasJoin(); }

bool hasPhaseEvent() { return current().hasPhaseEvent(); }

int fireJoin(std::uint64_t phase) { return current().fireJoin(phase); }

Action decide(int src, int dst, int tag, std::uint64_t seq) {
  return current().decide(src, dst, tag, seq);
}

bool ioEnabled() { return current().ioEnabled(); }

IoAction decideIo(IoOp op, std::uint64_t path_hash, std::uint64_t offset) {
  return current().decideIo(op, path_hash, offset);
}

int ioStallMs() { return current().ioStallMs(); }

const char* memTargetName(MemTarget t) {
  switch (t) {
    case MemTarget::kAny: return "any";
    case MemTarget::kPool: return "pool";
    case MemTarget::kTag: return "tag";
    case MemTarget::kRemotes: return "remotes";
  }
  return "unknown";
}

bool memEnabled() { return current().memEnabled(); }

MemFlip fireMemFlip(std::uint64_t phase) {
  return current().fireMemFlip(phase);
}

std::uint64_t memFlipKey(std::uint64_t seed, int rank, int part,
                         std::uint64_t section_hash, int flip_index) {
  // Separately-salted key stream (like decideIo's) so a plan mixing
  // message, storage, and memory faults draws independent decisions.
  std::uint64_t h = mix(seed ^ 0x504D454D464C4950ull);  // "PMEMFLIP"
  h = mix(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) |
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(part))
                << 32)));
  h = mix(h ^ section_hash);
  return mix(h ^ static_cast<std::uint64_t>(flip_index));
}

int ambientReliableOverride() { return current().reliableOverride(); }

std::vector<std::byte> frame(std::uint64_t seq,
                             std::vector<std::byte> payload) {
  std::vector<std::byte> out(kFrameHeaderBytes + payload.size());
  put64(out.data() + 8, seq);
  if (!payload.empty())
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  // CRC covers seq + payload, i.e. everything after the crc field.
  put32(out.data(), kFrameMagic);
  put32(out.data() + 4, crc32(out.data() + 8, out.size() - 8));
  return out;
}

void corruptFrame(std::vector<std::byte>& framed, int src, int dst, int tag,
                  std::uint64_t seq) {
  if (framed.size() <= 8) return;
  // Flip one deterministic byte in the CRC-checked region (seq + payload),
  // so the receiver's verification is guaranteed to catch it.
  const std::uint64_t h = decisionKey(0xC044557Bull, src, dst, tag, seq);
  const std::size_t idx = 8 + static_cast<std::size_t>(h % (framed.size() - 8));
  framed[idx] ^= std::byte{0x5A};
}

std::vector<std::byte> unframe(std::vector<std::byte> framed,
                               std::uint64_t& seq_out, int self, int src,
                               int tag) {
  if (framed.size() < kFrameHeaderBytes || get32(framed.data()) != kFrameMagic)
    throw Error(ErrorCode::kCorruptPayload, self, src, tag,
                "bad frame magic/size (" + std::to_string(framed.size()) +
                    " bytes)");
  const std::uint32_t want = get32(framed.data() + 4);
  const std::uint32_t got = crc32(framed.data() + 8, framed.size() - 8);
  if (want != got)
    throw Error(ErrorCode::kCorruptPayload, self, src, tag,
                "payload CRC mismatch");
  seq_out = get64(framed.data() + 8);
  framed.erase(framed.begin(),
               framed.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes));
  return framed;
}

}  // namespace pcu::faults
