#include "pcu/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_set>

#include "pcu/counters.hpp"

namespace pcu::trace {

namespace {

/// One thread's event storage: a chunked append-only log. The owning
/// thread appends without locking (the chunk list mutex is taken only when
/// a chunk fills, once per kChunkEvents events); readers synchronize with
/// the writer through the acquire/release `count_` and see chunk pointers
/// through the mutex.
class Buffer {
 public:
  static constexpr std::size_t kChunkEvents = 1024;

  explicit Buffer(int tid) : tid_(tid) {}

  void push(const Event& e) {
    const std::size_t idx = count_.load(std::memory_order_relaxed);
    const std::size_t chunk = idx / kChunkEvents;
    if (chunk == nchunks_) {
      std::lock_guard<std::mutex> lock(chunks_mutex_);
      chunks_.push_back(std::make_unique<Chunk>());
      ++nchunks_;
    }
    (*chunks_[chunk])[idx % kChunkEvents] = e;
    count_.store(idx + 1, std::memory_order_release);
  }

  [[nodiscard]] ThreadEvents copy() {
    ThreadEvents out;
    out.tid = tid_;
    const std::size_t n = count_.load(std::memory_order_acquire);
    out.events.reserve(n);
    std::lock_guard<std::mutex> lock(chunks_mutex_);
    for (std::size_t i = 0; i < n; ++i)
      out.events.push_back((*chunks_[i / kChunkEvents])[i % kChunkEvents]);
    return out;
  }

  /// Quiescent threads only (see trace.hpp).
  void reset() {
    std::lock_guard<std::mutex> lock(chunks_mutex_);
    chunks_.clear();
    nchunks_ = 0;
    count_.store(0, std::memory_order_release);
  }

 private:
  using Chunk = std::array<Event, kChunkEvents>;
  int tid_;
  std::atomic<std::size_t> count_{0};
  std::size_t nchunks_ = 0;  // written by the owning thread only
  std::mutex chunks_mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct InternPool {
  std::mutex mutex;
  std::unordered_set<std::string> strings;
};

InternPool& internPool() {
  static InternPool p;
  return p;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_flushed{false};

bool envTruthy(const char* v) {
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  return s != "0" && s != "false" && s != "off" && s != "no";
}

/// Latch PUMI_TRACE once; when set, arrange the end-of-process flush. The
/// registry and intern pool are touched first so their function-local
/// statics outlive the atexit handler (reverse destruction order).
bool envEnabled() {
  static const bool from_env = [] {
    (void)registry();
    (void)internPool();
    const bool on = envTruthy(std::getenv("PUMI_TRACE"));
    if (on) {
      g_enabled.store(true, std::memory_order_relaxed);
      std::atexit([] { (void)flushNow(); });
    }
    return on;
  }();
  return from_env;
}

thread_local Buffer* tls_buffer = nullptr;
thread_local int tls_rank = -1;
thread_local const char* tls_tenant = nullptr;

Buffer* threadBuffer() {
  if (tls_buffer == nullptr) {
    auto& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(
        std::make_unique<Buffer>(static_cast<int>(r.buffers.size())));
    tls_buffer = r.buffers.back().get();
  }
  return tls_buffer;
}

void record(Kind kind, int rank, int peer, std::int64_t value,
            const char* name) {
  threadBuffer()->push(Event{kind, rank, peer, value, now(), name, tls_tenant});
}

void escapeJson(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

bool enabled() {
  // The env latch runs once; afterwards only the atomic is consulted, so
  // the disabled-path cost is a single relaxed load.
  (void)envEnabled();
  return g_enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on) {
  (void)envEnabled();  // keep latch-order deterministic
  g_enabled.store(on, std::memory_order_relaxed);
}

void setThreadRank(int rank) { tls_rank = rank; }
int threadRank() { return tls_rank; }

void setThreadTenant(const char* tenant) { tls_tenant = tenant; }
const char* threadTenant() { return tls_tenant; }

const char* intern(std::string_view name) {
  auto& p = internPool();
  std::lock_guard<std::mutex> lock(p.mutex);
  return p.strings.emplace(name).first->c_str();
}

void begin(const char* name) {
  if (enabled()) record(Kind::kBegin, tls_rank, -1, 0, name);
}
void end(const char* name) {
  if (enabled()) record(Kind::kEnd, tls_rank, -1, 0, name);
}
void beginAs(int rank, const char* name) {
  if (enabled()) record(Kind::kBegin, rank, -1, 0, name);
}
void endAs(int rank, const char* name) {
  if (enabled()) record(Kind::kEnd, rank, -1, 0, name);
}
void instant(const char* name) {
  if (enabled()) record(Kind::kInstant, tls_rank, -1, 0, name);
}
void counter(const char* name, std::int64_t value) {
  if (enabled()) record(Kind::kCounter, tls_rank, -1, value, name);
}
void send(int peer, std::int64_t bytes, const char* channel) {
  if (enabled()) record(Kind::kSend, tls_rank, peer, bytes, channel);
}
void recv(int peer, std::int64_t bytes, const char* channel) {
  if (enabled()) record(Kind::kRecv, tls_rank, peer, bytes, channel);
}
void sendAs(int rank, int peer, std::int64_t bytes, const char* channel) {
  if (enabled()) record(Kind::kSend, rank, peer, bytes, channel);
}
void recvAs(int rank, int peer, std::int64_t bytes, const char* channel) {
  if (enabled()) record(Kind::kRecv, rank, peer, bytes, channel);
}

Merged snapshot() {
  Merged m;
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  m.threads.reserve(r.buffers.size());
  for (auto& b : r.buffers) {
    auto t = b->copy();
    if (!t.events.empty()) m.threads.push_back(std::move(t));
  }
  return m;
}

void clear() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& b : r.buffers) b->reset();
}

void writeChromeTrace(std::ostream& os, const Merged& merged) {
  // Timestamps are rebased so the trace starts near zero.
  double base = 0.0;
  bool have_base = false;
  for (const auto& t : merged.threads)
    for (const auto& e : t.events)
      if (!have_base || e.ts < base) {
        base = e.ts;
        have_base = true;
      }

  auto tidOf = [](const ThreadEvents& t, const Event& e) {
    return e.rank >= 0 ? e.rank : 1000 + t.tid;
  };

  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[160];

  // Thread-name metadata: one entry per distinct tid.
  std::vector<int> tids;
  for (const auto& t : merged.threads)
    for (const auto& e : t.events) tids.push_back(tidOf(t, e));
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (int tid : tids) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s %d\"}}",
                  first ? "" : ",", tid, tid >= 1000 ? "driver" : "rank",
                  tid >= 1000 ? tid - 1000 : tid);
    out += buf;
    first = false;
  }

  for (const auto& t : merged.threads) {
    for (const auto& e : t.events) {
      const double us = (e.ts - base) * 1e6;
      const int tid = tidOf(t, e);
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      escapeJson(out, e.name);
      out += '"';
      switch (e.kind) {
        case Kind::kBegin:
        case Kind::kEnd:
          std::snprintf(buf, sizeof buf,
                        ",\"cat\":\"phase\",\"ph\":\"%c\",\"ts\":%.3f,"
                        "\"pid\":0,\"tid\":%d",
                        e.kind == Kind::kBegin ? 'B' : 'E', us, tid);
          out += buf;
          if (e.tenant != nullptr) {
            out += ",\"args\":{\"tenant\":\"";
            escapeJson(out, e.tenant);
            out += "\"}";
          }
          buf[0] = '}';
          buf[1] = '\0';
          break;
        case Kind::kInstant:
          std::snprintf(buf, sizeof buf,
                        ",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\","
                        "\"ts\":%.3f,\"pid\":0,\"tid\":%d}",
                        us, tid);
          break;
        case Kind::kSend:
        case Kind::kRecv:
          std::snprintf(
              buf, sizeof buf,
              ",\"cat\":\"msg\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
              "\"pid\":0,\"tid\":%d,\"args\":{\"dir\":\"%s\",\"peer\":%d,"
              "\"bytes\":%lld}}",
              us, tid, e.kind == Kind::kSend ? "send" : "recv", e.peer,
              static_cast<long long>(e.value));
          break;
        case Kind::kCounter:
          std::snprintf(buf, sizeof buf,
                        ",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,"
                        "\"pid\":0,\"tid\":%d,\"args\":{\"value\":%lld}}",
                        us, tid, static_cast<long long>(e.value));
          break;
      }
      out += buf;
      if (out.size() >= 1 << 20) {
        os << out;
        out.clear();
      }
    }
  }
  out += "]}";
  os << out;
}

std::string defaultTracePath() {
  const char* p = std::getenv("PUMI_TRACE_FILE");
  return p != nullptr && *p != '\0' ? p : "pumi_trace.json";
}

bool flushNow() {
  if (g_flushed.exchange(true, std::memory_order_relaxed)) return false;
  const Merged merged = snapshot();
  if (merged.totalEvents() == 0) return false;
  const std::string path = defaultTracePath();
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "pcu::trace: cannot write %s; trace lost\n",
                 path.c_str());
    return false;
  }
  writeChromeTrace(os, merged);
  os.flush();
  std::fprintf(stderr, "pcu::trace: wrote %zu events to %s\n",
               merged.totalEvents(), path.c_str());
  return os.good();
}

}  // namespace pcu::trace
