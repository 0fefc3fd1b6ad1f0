#include "pcu/arq.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "pcu/envspec.hpp"
#include "pcu/error.hpp"
#include "pcu/faults.hpp"

namespace pcu::arq {

namespace {

struct State {
  std::mutex mutex;
  Config config;
};

State& state() {
  static State s;
  return s;
}

/// Hot-path gate: one relaxed load, like faults::framingEnabled().
std::atomic<bool> g_on{false};

std::atomic<std::uint64_t> g_retransmits{0};
std::atomic<std::uint64_t> g_recovered{0};
std::atomic<std::uint64_t> g_duplicates_dropped{0};
std::atomic<std::uint64_t> g_corrupt_dropped{0};
std::atomic<std::uint64_t> g_acked{0};

void installLocked(State& s, const Config& c) {
  s.config = c;
  g_on.store(c.on, std::memory_order_relaxed);
}

/// Latch PUMI_RELIABLE once, before the first enabled()/config() query;
/// setConfig()/setReliable() override it.
void envLatch() {
  static const bool latched = [] {
    const char* spec = std::getenv("PUMI_RELIABLE");
    if (spec != nullptr && *spec != '\0') {
      auto& s = state();
      std::lock_guard<std::mutex> lock(s.mutex);
      installLocked(s, parseConfig(spec));
    }
    return true;
  }();
  (void)latched;
}

}  // namespace

Config parseConfig(const std::string& spec) {
  const std::string env = "PUMI_RELIABLE";
  Config c;
  // Single-token on/off form.
  if (spec.find('=') == std::string::npos && spec.find(',') == std::string::npos) {
    c.on = envspec::parseBool(env, "PUMI_RELIABLE", spec);
    return c;
  }
  // key=value list form implies on unless on=0 appears.
  c.on = true;
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
    if (key == "on") {
      c.on = envspec::parseBool(env, key, val);
    } else if (key == "budget") {
      c.retry_budget = envspec::parseInt(env, key, val, 1, 1000000);
    } else if (key == "opretries") {
      c.op_retries = envspec::parseInt(env, key, val, 0, 1000);
    } else {
      envspec::fail(env, "unknown key \"" + key + "\" in \"" + item + "\"");
    }
  }
  return c;
}

void setConfig(const Config& config) {
  envLatch();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  installLocked(s, config);
}

void setReliable(bool on) {
  envLatch();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  Config c = s.config;
  c.on = on;
  installLocked(s, c);
}

bool enabled() {
  envLatch();
  const int ov = faults::ambientReliableOverride();
  if (ov >= 0) return ov != 0;
  return g_on.load(std::memory_order_relaxed);
}

bool processEnabled() {
  envLatch();
  return g_on.load(std::memory_order_relaxed);
}

Config config() {
  envLatch();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.config;
}

Stats stats() {
  Stats out;
  out.retransmits = g_retransmits.load(std::memory_order_relaxed);
  out.recovered = g_recovered.load(std::memory_order_relaxed);
  out.duplicates_dropped = g_duplicates_dropped.load(std::memory_order_relaxed);
  out.corrupt_dropped = g_corrupt_dropped.load(std::memory_order_relaxed);
  out.acked = g_acked.load(std::memory_order_relaxed);
  return out;
}

void resetStats() {
  g_retransmits.store(0, std::memory_order_relaxed);
  g_recovered.store(0, std::memory_order_relaxed);
  g_duplicates_dropped.store(0, std::memory_order_relaxed);
  g_corrupt_dropped.store(0, std::memory_order_relaxed);
  g_acked.store(0, std::memory_order_relaxed);
}

void noteRetransmit() { g_retransmits.fetch_add(1, std::memory_order_relaxed); }
void noteRecovered() { g_recovered.fetch_add(1, std::memory_order_relaxed); }
void noteDuplicateDropped() {
  g_duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
}
void noteCorruptDropped() {
  g_corrupt_dropped.fetch_add(1, std::memory_order_relaxed);
}
void noteAcked() { g_acked.fetch_add(1, std::memory_order_relaxed); }

std::deque<ResendQueue::Frame>::const_iterator ResendQueue::lowerBound(
    std::uint64_t seq) const {
  return std::lower_bound(
      frames_.begin(), frames_.end(), seq,
      [](const Frame& f, std::uint64_t s) { return f.seq < s; });
}

void ResendQueue::push(std::uint64_t seq, std::vector<std::byte> framed) {
  if (frames_.empty() || frames_.back().seq < seq) {
    frames_.push_back(Frame{seq, std::move(framed)});
    return;
  }
  const auto it = frames_.begin() + (lowerBound(seq) - frames_.cbegin());
  if (it->seq == seq)
    *it = Frame{seq, std::move(framed)};
  else
    frames_.insert(it, Frame{seq, std::move(framed)});
}

bool ResendQueue::ack(std::uint64_t upto) {
  if (frames_.empty()) return false;
  while (!frames_.empty() && frames_.front().seq < upto) frames_.pop_front();
  return true;
}

const std::vector<std::byte>* ResendQueue::find(std::uint64_t seq) const {
  const auto it = lowerBound(seq);
  return it != frames_.end() && it->seq == seq ? &it->bytes : nullptr;
}

void retransmit(const faults::Domain& domain, int src, int dst, int tag,
                std::uint64_t seq, std::uint64_t salt_base) {
  const int budget = config().retry_budget;
  for (int attempt = 1; attempt <= budget; ++attempt) {
    noteRetransmit();
    const auto action = domain.decide(
        src, dst, tag,
        saltSeq(seq, salt_base + static_cast<std::uint64_t>(attempt)));
    if (action == faults::Action::kCorrupt || action == faults::Action::kDrop)
      continue;  // this retransmission was lost too
    noteRecovered();
    return;
  }
  throw Error(ErrorCode::kMessageLost, dst, src, tag,
              "retransmission budget exhausted after " +
                  std::to_string(budget) + " attempts (channel seq " +
                  std::to_string(seq) + ")");
}

}  // namespace pcu::arq
