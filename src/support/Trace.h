//===- Trace.h - Pipeline span tracing --------------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-cheap, thread-safe span recorder for the whole pipeline. Every
/// interesting region of work — a parse, one SCC task, a cache probe, a
/// peephole pass — opens a nestable RAII scope:
///
///   AC_SPAN("cache.save");
///   ...
///   support::Span S("core.fn");
///   S.arg("fn", Name);
///
/// Spans land in per-thread ring buffers (no cross-thread contention on
/// the hot path; one uncontended mutex per append so a concurrent flush
/// sees consistent events), timestamped from a process-wide steady-clock
/// anchor. flush() exports the Chrome trace-event JSON format, loadable
/// directly in chrome://tracing or Perfetto; the export also embeds the
/// current RuleProfile as a top-level `ruleProfile` key (extra top-level
/// keys are explicitly allowed by the format).
///
/// Tracing is off by default and costs one relaxed atomic load per
/// AC_SPAN when off. It is enabled by `AC_TRACE=<file>` in the
/// environment (the driver flushes there at the end of a run), by
/// `ACOptions::TracePath`, or programmatically via start(). Flushing is
/// strictly best-effort: a trace that cannot be written warns and
/// returns false, it never fails the verification run it observed.
///
/// Request traces: every enabled span carries a process-unique span id
/// (`(pid << 32) | seq`, rendered as a decimal string in the event's
/// args because JSON numbers are doubles) and the id of its parent. The
/// parent comes from a thread-local trace context — a Span installs
/// itself as the context's parent for its scope, and a
/// TraceContextScope installs a request's trace id with no parent, so
/// every span the request records chains into one tree under its trace
/// id.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_TRACE_H
#define AC_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ac::support {

/// Process-wide span collection: the per-thread buffer registry and the
/// Chrome-JSON exporter. All static — tracing is a process-wide
/// observability mode, like FaultInject.
class Trace {
public:
  /// True iff spans are being collected. The single relaxed load every
  /// disabled AC_SPAN pays.
  static bool enabled() {
    ensureInit();
    return Enabled.load(std::memory_order_relaxed);
  }

  /// Begins (resumes) collection. Idempotent.
  static void start();

  /// Stops collection; already-recorded events are kept for flush().
  static void stop();

  /// Discards every recorded event (buffers stay registered).
  static void reset();

  /// The file named by AC_TRACE, or "" when unset. When set, enabled()
  /// is true from the first call on and the pipeline driver flushes
  /// here at the end of each run.
  static const std::string &envPath();

  /// Serializes everything recorded so far as Chrome trace-event JSON
  /// (plus top-level `ruleProfile` / `otherData` keys).
  static std::string exportJson();

  /// Writes exportJson() to \p Path. Best-effort: returns false on any
  /// I/O failure (also the `trace.write.fail` chaos site) and never
  /// throws — tracing must not be able to fail a verification run.
  static bool flush(const std::string &Path);

  /// flush() then reset() under one registry pass — the daemon's
  /// per-request trace emission. Returns flush()'s result.
  static bool flushReset(const std::string &Path);

  /// Events currently held across all thread buffers.
  static size_t eventCount();

  /// Events lost to ring-buffer overflow since the last reset().
  static uint64_t droppedEvents();

  /// Aggregation of recorded spans by name — count and cumulative
  /// nanoseconds — for span-driven phase tables (bench/phase_times).
  struct NameStat {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
  };
  static std::map<std::string, NameStat> summarize();

  /// Nanoseconds on the steady clock since the process trace anchor.
  static uint64_t nowNs();

  /// Records an already-measured interval on the calling thread — for
  /// spans whose start was sampled on another thread, like the time a
  /// task sat in the ThreadPool queue before a worker picked it up.
  static void interval(const char *Name, uint64_t StartNs, uint64_t EndNs);

  /// Allocates a process-unique span id: `(pid << 32) | sequence`.
  /// Never returns 0 — 0 is the "no parent" sentinel.
  static uint64_t nextSpanId();

  /// The calling thread's trace context: the trace id requests stamp on
  /// their spans and the innermost open span (the parent the next span
  /// chains to). Plain thread-local state — only touched on enabled
  /// paths, so the disabled hot path stays one relaxed load.
  struct Context {
    std::string TraceId;
    uint64_t ParentSpan = 0;
  };
  static Context &context();

  /// Appends one completed span to the calling thread's ring buffer.
  /// Public for already-measured cross-thread intervals that need
  /// explicit args (e.g. the daemon's queue-wait span); Span is the
  /// normal front door and adds the context args itself.
  static void record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                     std::vector<std::pair<std::string, std::string>> Args);

private:
  friend class Span;

  /// Parses AC_TRACE / AC_TRACE_BUF exactly once.
  static void ensureInit();

  static std::atomic<bool> Enabled;
};

/// Installs a request's trace context (its trace id, no parent span) on
/// the current thread for its scope. Restores the previous context on
/// destruction.
class TraceContextScope {
public:
  explicit TraceContextScope(std::string TraceId) {
    Trace::Context &C = Trace::context();
    Saved = C;
    C.TraceId = std::move(TraceId);
    C.ParentSpan = 0;
  }
  TraceContextScope(const TraceContextScope &) = delete;
  TraceContextScope &operator=(const TraceContextScope &) = delete;
  ~TraceContextScope() { Trace::context() = std::move(Saved); }

private:
  Trace::Context Saved;
};

/// One nestable RAII span. Construction samples the clock iff tracing is
/// on; destruction records the completed event on the owning thread's
/// buffer. Key/value attributes attach via arg() and land in the Chrome
/// event's `args` object.
class Span {
public:
  explicit Span(const char *Name) : Active(Trace::enabled()), Name(Name) {
    if (Active) {
      StartNs = Trace::nowNs();
      Id = Trace::nextSpanId();
      Trace::Context &C = Trace::context();
      Parent = C.ParentSpan;
      C.ParentSpan = Id; // children opened in this scope chain to us
    }
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() { end(); }

  /// Records the span now rather than at scope exit — for a span that
  /// must land before a flush later in the same scope. Idempotent;
  /// arg() after end() is a no-op.
  void end() {
    if (Active) {
      Trace::Context &C = Trace::context();
      if (!C.TraceId.empty())
        Args.emplace_back("trace_id", C.TraceId);
      Args.emplace_back("span", std::to_string(Id));
      if (Parent)
        Args.emplace_back("parent", std::to_string(Parent));
      C.ParentSpan = Parent;
      Trace::record(Name, StartNs, Trace::nowNs(), std::move(Args));
    }
    Active = false;
  }

  bool active() const { return Active; }

  /// This span's process-unique id (0 when inactive).
  uint64_t id() const { return Active ? Id : 0; }

  void arg(const char *Key, std::string Value) {
    if (Active)
      Args.emplace_back(Key, std::move(Value));
  }
  void arg(const char *Key, uint64_t Value) {
    if (Active)
      Args.emplace_back(Key, std::to_string(Value));
  }

private:
  bool Active;
  const char *Name;
  uint64_t StartNs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  std::vector<std::pair<std::string, std::string>> Args;
};

#define AC_SPAN_CONCAT_IMPL(A, B) A##B
#define AC_SPAN_CONCAT(A, B) AC_SPAN_CONCAT_IMPL(A, B)
/// Anonymous span covering the rest of the enclosing scope.
#define AC_SPAN(NameLiteral)                                                   \
  ::ac::support::Span AC_SPAN_CONCAT(AcSpan_, __LINE__)(NameLiteral)

} // namespace ac::support

#endif // AC_SUPPORT_TRACE_H
