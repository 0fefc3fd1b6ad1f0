#ifndef PUMI_PCU_TRACE_HPP
#define PUMI_PCU_TRACE_HPP

/// \file trace.hpp
/// \brief Per-rank event tracing (paper Sec. II-D, "performance
/// measurement"): begin/end scopes, instant events and message send/recv
/// records with byte counts and peer ranks.
///
/// Events are appended to lock-free per-thread buffers: the recording
/// thread takes no lock on the hot path (one relaxed atomic load when
/// tracing is disabled; one release store per event when enabled). Buffers
/// are merged at quiescent points — after pcu::run() returns or between
/// bulk-synchronous phases — into (a) a Chrome trace_event JSON viewable in
/// about://tracing or https://ui.perfetto.dev and (b) an aggregated
/// per-phase report (see stats.hpp).
///
/// The subsystem is off by default; set the PUMI_TRACE environment
/// variable (1/true/on) or call setEnabled(true). When enabled from the
/// environment, the merged Chrome trace is written automatically at
/// process exit to $PUMI_TRACE_FILE (default "pumi_trace.json").
///
/// Rank attribution: pcu::run() tags each rank thread via setThreadRank();
/// layers that act on behalf of a part from a driver thread (dist::Network)
/// use the *As variants to attribute events to the part explicitly. Events
/// with no rank (-1) belong to the driver.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pcu::trace {

/// What one event records.
enum class Kind : std::uint8_t {
  kBegin,    ///< scope entry; matches the next kEnd of the same name
  kEnd,      ///< scope exit
  kInstant,  ///< a point-in-time marker
  kSend,     ///< message posted: peer = destination, value = bytes
  kRecv,     ///< message consumed: peer = source, value = bytes
  kCounter,  ///< named sample: value = the sample
};

/// One trace record. `name` points at a string literal or an interned
/// string (see intern()) and is valid for the life of the process.
struct Event {
  Kind kind;
  std::int32_t rank;   ///< emitting rank or part (-1: driver thread)
  std::int32_t peer;   ///< send/recv peer rank; -1 otherwise
  std::int64_t value;  ///< send/recv payload bytes, or counter value
  double ts;           ///< seconds (pcu::now() clock)
  const char* name;    ///< phase name, or channel name for send/recv
  const char* tenant;  ///< owning tenant (see setThreadTenant); nullptr: none
};

/// True when tracing is active. First call latches the PUMI_TRACE
/// environment variable; setEnabled() overrides it.
bool enabled();
void setEnabled(bool on);

/// Thread-local rank used for events recorded without explicit
/// attribution. pcu::run() sets it on every rank thread; -1 elsewhere.
void setThreadRank(int rank);
[[nodiscard]] int threadRank();

/// Thread-local tenant label stamped on every event this thread records
/// (multi-tenant service attribution; see svc::). Pass an interned pointer
/// or a string literal — the pointer must outlive recording. nullptr (the
/// default everywhere) means "no tenant". Per-tenant views are cut from the
/// merged snapshot by stats::buildTraceReport(merged, tenant).
void setThreadTenant(const char* tenant);
[[nodiscard]] const char* threadTenant();

/// Copy a dynamic name into the process-lifetime string pool and return a
/// stable pointer. Phase names that are compile-time literals should be
/// passed directly instead.
const char* intern(std::string_view name);

/// --- recording (all no-ops when disabled) ------------------------------
void begin(const char* name);
void end(const char* name);
void beginAs(int rank, const char* name);
void endAs(int rank, const char* name);
void instant(const char* name);
void counter(const char* name, std::int64_t value);
void send(int peer, std::int64_t bytes, const char* channel);
void recv(int peer, std::int64_t bytes, const char* channel);
void sendAs(int rank, int peer, std::int64_t bytes, const char* channel);
void recvAs(int rank, int peer, std::int64_t bytes, const char* channel);

/// RAII begin/end pair.
class Scope {
 public:
  explicit Scope(const char* name) : name_(name), rank_(threadRank()) {
    beginAs(rank_, name_);
  }
  Scope(const char* name, int as_rank) : name_(name), rank_(as_rank) {
    beginAs(rank_, name_);
  }
  ~Scope() { endAs(rank_, name_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  int rank_;
};

/// RAII tenant attribution for the calling thread: stamps events recorded
/// within the scope with `tenant` and restores the previous label on exit
/// (scopes nest). The svc:: worker threads hold one for the whole job.
class TenantScope {
 public:
  explicit TenantScope(const char* tenant) : prev_(threadTenant()) {
    setThreadTenant(tenant);
  }
  ~TenantScope() { setThreadTenant(prev_); }
  TenantScope(const TenantScope&) = delete;
  TenantScope& operator=(const TenantScope&) = delete;

 private:
  const char* prev_;
};

/// --- merging & output ---------------------------------------------------
/// Merging and clear() must only run at quiescent points: no thread may be
/// recording concurrently (pcu::run has returned / deliverAll completed).

/// Events of one recording thread, in recording order.
struct ThreadEvents {
  int tid = 0;  ///< buffer ordinal (stable per recording thread)
  std::vector<Event> events;
};

/// All buffers merged. Thread order is registration order.
struct Merged {
  std::vector<ThreadEvents> threads;
  [[nodiscard]] std::size_t totalEvents() const {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.events.size();
    return n;
  }
};

Merged snapshot();
void clear();

/// Write a Chrome trace_event JSON document ("traceEvents" array; B/E/i/C
/// phases; tid = rank for rank-attributed events, 1000+buffer for driver
/// threads; ts in microseconds).
void writeChromeTrace(std::ostream& os, const Merged& merged);

/// Output path: $PUMI_TRACE_FILE, or "pumi_trace.json".
std::string defaultTracePath();

/// Merge and write defaultTracePath() once (later calls and the
/// end-of-process auto-flush become no-ops). Returns false on I/O failure
/// or when tracing never recorded anything.
bool flushNow();

}  // namespace pcu::trace

#endif  // PUMI_PCU_TRACE_HPP
