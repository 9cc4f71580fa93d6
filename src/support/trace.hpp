/// \file trace.hpp
/// \brief Low-overhead span tracing with Chrome trace-event JSON output.
///
/// The metrics registry answers *how much* (counts, bytes, histograms); this
/// module answers *when*.  The paper's argument (Sec. 3, Figs. 5-8) is about
/// phase overlap and synchronization cost — Sample vs. SelectSeeds
/// alternation, per-round All-Reduce stalls, thread imbalance in RRR
/// generation — which only a timeline can show.  The tracer records:
///
///  * `Span`        — RAII scoped duration ("X" complete events), with up to
///    two numeric args (bytes, sample counts, round indices);
///  * `instant()`   — point-in-time markers ("i" events);
///  * `counter()`   — counter tracks ("C" events, e.g. |R| over time);
///  * `flow_begin()`/`flow_step()`/`flow_end()` — causal arrows ("s"/"t"/"f"
///    events sharing a binding id), which Perfetto renders across rank rows:
///    sampler batch → the selection round that consumes it, collective
///    completer → each released waiter.
///
/// Events land in per-thread ring buffers: the owning thread appends with no
/// locks or atomics on shared state (one relaxed publish store); a full ring
/// overwrites its oldest events and the drop count is reported in the output.
/// `write_json_file()` / the atexit hook collect every buffer into one
/// Chrome trace-event document loadable in Perfetto (https://ui.perfetto.dev)
/// or chrome://tracing.
///
/// Identity mapping: mpsim ranks map to trace *processes* (`RankScope` sets
/// the thread-local rank; shared-memory runs are pid 0) and every OS thread
/// gets its own trace *thread* id, so collective stalls show as aligned gaps
/// across rank rows and thread imbalance as ragged span ends within one.
///
/// Cost discipline (same as metrics): when disabled — the default unless
/// `--trace`, `RIPPLES_TRACE`, or `set_enabled(true)` — every site reduces
/// to one relaxed atomic load and a predictable branch.
///
/// Timestamps are microseconds since the process trace epoch shared with
/// PhaseTimers (see process_now_seconds()), so RunReport phase start offsets
/// cross-reference trace spans directly.
///
/// Names, categories, and arg keys must be string literals (or otherwise
/// outlive the process): events store the pointers, not copies.
#ifndef RIPPLES_SUPPORT_TRACE_HPP
#define RIPPLES_SUPPORT_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace ripples::trace {

namespace detail {

/// The global toggle.  Defined in trace.cpp; initialized from the
/// RIPPLES_TRACE environment variable (a truthy value or an output path).
extern std::atomic<bool> g_enabled;

enum class EventType : std::uint8_t {
  Span,
  Instant,
  Counter,
  FlowStart,
  FlowStep,
  FlowEnd,
};

inline constexpr unsigned kMaxArgs = 4;

/// Appends one event to the calling thread's ring buffer (creating the
/// buffer on first use).  Out-of-line so call sites stay small.  \p id is
/// the flow binding id (0 for non-flow events).
void emit(EventType type, const char *category, const char *name,
          std::uint64_t ts_us, std::uint64_t dur_us,
          const char *const *arg_keys, const std::uint64_t *arg_values,
          unsigned num_args, std::uint64_t id = 0);

} // namespace detail

/// True when instrumentation should record.  One relaxed load — hot paths
/// guard with this and skip all other work when tracing is off.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the process-wide toggle (does not arrange output by itself).
void set_enabled(bool on);

/// Enables tracing and arms an atexit hook that writes the collected trace
/// to \p path — what `--trace <path>` calls.
void start(const std::string &path);

/// Writes the collected trace to the path armed by start() immediately
/// (true on success or when no path is armed).  atexit hooks do not run
/// when an uncaught exception terminates the process, so failure paths
/// flush the ring buffers explicitly before unwinding further.
bool flush_now();

/// Microseconds since the process trace epoch (shared with PhaseTimers).
[[nodiscard]] std::uint64_t timestamp_us();

/// The calling thread's rank (trace process id); 0 unless inside a
/// RankScope.
[[nodiscard]] int thread_rank();

/// Scoped thread-local rank assignment: events emitted by this thread while
/// the scope is alive carry \p rank as their pid.  mpsim's Context::run
/// wraps every rank body in one.
class RankScope {
public:
  explicit RankScope(int rank);
  RankScope(const RankScope &) = delete;
  RankScope &operator=(const RankScope &) = delete;
  ~RankScope();

private:
  int previous_;
};

/// Point-in-time marker.
inline void instant(const char *category, const char *name) {
  if (enabled())
    detail::emit(detail::EventType::Instant, category, name, timestamp_us(), 0,
                 nullptr, nullptr, 0);
}

/// Point-in-time marker with one numeric arg.
inline void instant(const char *category, const char *name, const char *key,
                    std::uint64_t value) {
  if (enabled())
    detail::emit(detail::EventType::Instant, category, name, timestamp_us(), 0,
                 &key, &value, 1);
}

/// Point-in-time marker with two numeric args.
inline void instant(const char *category, const char *name, const char *key0,
                    std::uint64_t value0, const char *key1,
                    std::uint64_t value1) {
  if (enabled()) {
    const char *keys[detail::kMaxArgs] = {key0, key1};
    const std::uint64_t values[detail::kMaxArgs] = {value0, value1};
    detail::emit(detail::EventType::Instant, category, name, timestamp_us(), 0,
                 keys, values, 2);
  }
}

/// Samples a counter track (rendered as a stacked area chart in Perfetto).
inline void counter(const char *track, std::uint64_t value) {
  if (enabled()) {
    const char *key = "value";
    detail::emit(detail::EventType::Counter, "counter", track, timestamp_us(),
                 0, &key, &value, 1);
  }
}

// --- flow events -------------------------------------------------------------
//
// A flow is one causal arrow (or chain): exactly one "s" start, zero or more
// "t" steps, and one terminating "f" end, all sharing a process-unique
// binding id and the same category/name.  Perfetto draws the arrow from the
// enclosing slice of each emission to the next, so flows connect spans
// across threads and rank rows.  Ids come from new_flow_id(); 0 is never a
// valid flow id.

/// Allocates one process-unique flow binding id (never 0).
[[nodiscard]] std::uint64_t new_flow_id();

/// Allocates \p count consecutive flow ids and returns the first — used
/// when one completer fans out an arrow to every waiter it releases.
[[nodiscard]] std::uint64_t new_flow_ids(std::uint64_t count);

/// Starts a flow at \p ts_us (pass timestamp_us() for "now").  The explicit
/// timestamp lets a collective completer stamp arrows at the completion
/// instant even though the events are emitted just after.
inline void flow_begin(const char *category, const char *name,
                       std::uint64_t id, std::uint64_t ts_us) {
  if (enabled())
    detail::emit(detail::EventType::FlowStart, category, name, ts_us, 0,
                 nullptr, nullptr, 0, id);
}

inline void flow_begin(const char *category, const char *name,
                       std::uint64_t id) {
  flow_begin(category, name, id, timestamp_us());
}

/// Intermediate flow step (optional; chains the arrow through this thread).
inline void flow_step(const char *category, const char *name,
                      std::uint64_t id) {
  if (enabled())
    detail::emit(detail::EventType::FlowStep, category, name, timestamp_us(),
                 0, nullptr, nullptr, 0, id);
}

/// Terminates a flow ("f" with binding point "e": the arrow lands on the
/// slice enclosing this emission).
inline void flow_end(const char *category, const char *name,
                     std::uint64_t id) {
  if (enabled())
    detail::emit(detail::EventType::FlowEnd, category, name, timestamp_us(),
                 0, nullptr, nullptr, 0, id);
}

/// RAII scoped span: measures construction-to-destruction as one complete
/// ("X") event.  When tracing is disabled at construction the span is
/// inert — destruction does nothing, args are ignored.
class Span {
public:
  Span(const char *category, const char *name) {
    if (enabled()) arm(category, name);
  }
  Span(const char *category, const char *name, const char *key,
       std::uint64_t value) {
    if (enabled()) {
      arm(category, name);
      arg(key, value);
    }
  }
  Span(const char *category, const char *name, const char *key0,
       std::uint64_t value0, const char *key1, std::uint64_t value1) {
    if (enabled()) {
      arm(category, name);
      arg(key0, value0);
      arg(key1, value1);
    }
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a numeric arg; useful for values only known near the end of
  /// the scope (e.g. how many sets a worker generated).  At most
  /// detail::kMaxArgs args are kept; extras are dropped.
  void arg(const char *key, std::uint64_t value) {
    if (armed_ && num_args_ < detail::kMaxArgs) {
      keys_[num_args_] = key;
      values_[num_args_] = value;
      ++num_args_;
    }
  }

  ~Span() {
    if (armed_)
      detail::emit(detail::EventType::Span, category_, name_, start_us_,
                   timestamp_us() - start_us_, keys_, values_, num_args_);
  }

private:
  void arm(const char *category, const char *name) {
    armed_ = true;
    category_ = category;
    name_ = name;
    start_us_ = timestamp_us();
  }

  const char *category_ = nullptr;
  const char *name_ = nullptr;
  std::uint64_t start_us_ = 0;
  const char *keys_[detail::kMaxArgs] = {};
  std::uint64_t values_[detail::kMaxArgs] = {};
  unsigned num_args_ = 0;
  bool armed_ = false;
};

// --- collection --------------------------------------------------------------

/// Serializes every buffered event as one Chrome trace-event JSON document:
/// {"displayTimeUnit", "traceEvents": [...], "otherData": {"dropped_events",
/// "buffers"}}.  Callers should be quiescent (no thread mid-emit).
[[nodiscard]] std::string to_json_string();

/// Writes to_json_string() to \p path; false on I/O failure.
bool write_json_file(const std::string &path);

/// Discards all buffered events (buffers of live threads are reset, buffers
/// of exited threads are freed).  Only call while no thread is emitting.
void clear();

/// Ring capacity (in events) for buffers created after this call; existing
/// buffers keep theirs.  Mainly for tests exercising the overflow policy.
void set_buffer_capacity(std::size_t events);

} // namespace ripples::trace

#endif // RIPPLES_SUPPORT_TRACE_HPP
