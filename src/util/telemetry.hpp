// Structured observability: hierarchical spans, counters, and export sinks.
//
// Every pipeline run can carry a `Telemetry` hub. Code brackets units of
// work -- the pipeline, each pass, each supernode, each manager-op epoch --
// in RAII `TelemetrySpan`s; when a span closes it becomes one `SpanEvent`
// (wall time plus whatever counters and labels the bracketed code attached)
// and is pushed to every registered `TelemetrySink`. Two sinks ship:
//
//   * `JsonlSink`       -- one JSON object per event, streamed to an
//                          ostream (the `-trace-json` file of
//                          `optimize_blif` and the bench trace);
//   * `AggregateSink`   -- in-memory event store that renders the
//                          `-profile` summary (top-k passes/supernodes by
//                          time, cache hit rate per phase, degradation
//                          events) and sums counters over its events.
//
// Determinism contract: every field of a `SpanEvent` except wall time and
// the explicitly execution-dependent counters/labels (`exec_*`, see
// `is_exec_counter`) is a pure function of the input network and script.
// Worker threads never write to the shared hub; each parallel work item
// records into a private `TelemetryRecorder` which the owner absorbs in
// work-item index order -- the same discipline PR 3 uses to keep parallel
// decomposition byte-identical -- so a JSONL trace at `-j 4` is
// byte-identical to `-j 1` once the `exec` object is ignored.
//
// Overhead contract: a null hub is free. `TelemetrySpan::open(nullptr, ..)`
// returns an inert span that performs no allocation and no clock read
// (test_telemetry proves the zero-allocation property), and the BDD
// manager's hot paths carry no telemetry branches at all -- manager
// counters are observed from outside as `ManagerStats` deltas at span
// boundaries, so the apply path gains no branch in any configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace bds::util {

/// Version tag of the JSONL event schema (`v` field of every line and the
/// `schema` field of the run header). Bump on any breaking field change;
/// DESIGN.md §5f documents the schema field by field.
inline constexpr int kTraceSchemaVersion = 1;
/// Full schema identifier written by the JSONL run header.
inline constexpr const char* kTraceSchemaName = "bds-trace/v1";

/// Ordered named counters (insertion order is preserved and deterministic).
using CounterList = std::vector<std::pair<std::string, double>>;

/// True for counter keys whose values depend on wall clock or execution
/// environment rather than on the input: such counters are routed into the
/// event's `exec` bucket, which determinism comparisons ignore. The
/// convention is documented in DESIGN.md §5f: any key containing
/// "seconds", ending in "_ms", or equal to "workers".
[[nodiscard]] bool is_exec_counter(std::string_view key);

/// One closed span. `counters`/`path`/`name`/`depth`/`seq` are
/// deterministic; `seconds`, `exec_counters` and `exec_attrs` are not.
struct SpanEvent {
  std::string path;   ///< slash-joined span names from the run root
  std::string name;   ///< innermost path segment
  std::uint32_t depth = 0;  ///< nesting depth (0 = outermost span)
  std::uint64_t seq = 0;    ///< emission index within the run (close order)
  double seconds = 0.0;     ///< wall time of the span (execution-dependent)
  CounterList counters;      ///< deterministic counters
  CounterList exec_counters; ///< execution-dependent counters (is_exec_counter)
  /// Execution-dependent string labels (e.g. a pass's formatted flag
  /// string, which may encode `-j`).
  std::vector<std::pair<std::string, std::string>> exec_attrs;
};

/// Receiver of closed spans. Implementations must tolerate events arriving
/// in close order (children strictly before their parent).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  /// Called once when the sink is attached to a run, before any event.
  virtual void begin_run(const std::string& label) { (void)label; }
  /// Called once per closed span, in emission (seq) order.
  virtual void on_span(const SpanEvent& event) = 0;
  /// Called when the run finishes (Telemetry::finish or destruction).
  virtual void end_run() {}
};

class TelemetrySpan;

/// A single-threaded span recorder: an open-span stack plus a buffer of
/// closed events. Parallel work items each own a private recorder
/// (constructed with the parent's path/depth as its base) and the owner
/// calls `Telemetry::absorb` in deterministic item order afterwards.
/// Not thread-safe; one recorder per thread or work item.
class TelemetryRecorder {
 public:
  TelemetryRecorder() = default;
  /// A detached recorder whose spans are rooted under `base_path` at
  /// `base_depth` (the path/depth of the span it will be absorbed into).
  TelemetryRecorder(std::string base_path, std::uint32_t base_depth)
      : base_path_(std::move(base_path)), base_depth_(base_depth) {}
  virtual ~TelemetryRecorder();

  TelemetryRecorder(TelemetryRecorder&&) = default;
  TelemetryRecorder& operator=(TelemetryRecorder&&) = default;
  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  /// Adds `value` to the named counter of the innermost open span
  /// (accumulating over repeated keys). Ignored when no span is open.
  void count(std::string_view key, double value);
  /// Attaches a string label to the innermost open span (exec bucket).
  void attr(std::string_view key, std::string_view value);

  /// Path of the innermost open span ("" when none is open).
  [[nodiscard]] std::string current_path() const;
  /// Depth the next opened span will have.
  [[nodiscard]] std::uint32_t next_depth() const {
    return base_depth_ + static_cast<std::uint32_t>(stack_.size());
  }
  [[nodiscard]] bool has_open_span() const { return !stack_.empty(); }

  /// Closed events buffered so far (absorbed recorders only; a `Telemetry`
  /// hub streams events to its sinks instead of buffering here).
  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }
  /// Moves the buffered events out (Telemetry::absorb consumes them).
  [[nodiscard]] std::vector<SpanEvent> take_events() {
    return std::move(events_);
  }

 protected:
  friend class TelemetrySpan;

  struct OpenSpan {
    std::string name;
    Timer timer;
    CounterList counters;
    std::vector<std::pair<std::string, std::string>> attrs;
  };

  std::size_t push(std::string_view name);
  /// Closes open spans until the stack is back to `open_index` entries
  /// (closing a parent closes any forgotten children first).
  void close_to(std::size_t open_index);
  void close_top();
  /// Receives each closed span; the base class buffers, Telemetry streams.
  virtual void emit(SpanEvent&& event) { events_.push_back(std::move(event)); }

  std::vector<OpenSpan> stack_;
  std::vector<SpanEvent> events_;
  std::string base_path_;
  std::uint32_t base_depth_ = 0;
};

/// The per-run telemetry hub: a recorder whose closed spans stream straight
/// to the registered sinks, plus the merge point for detached recorders.
/// Single-threaded, like the pipeline driver that owns it.
class Telemetry final : public TelemetryRecorder {
 public:
  /// `run_label` names the run in sink headers (e.g. the script name).
  explicit Telemetry(std::string run_label = "run");
  ~Telemetry() override;

  /// Attaches a sink; its begin_run fires immediately. Add all sinks
  /// before opening the first span.
  void add_sink(std::shared_ptr<TelemetrySink> sink);

  /// Emits every event buffered in `child` to the sinks, in the child's
  /// close order. Call in deterministic work-item order (e.g. supernode
  /// index order) so multi-threaded runs produce identical traces.
  void absorb(TelemetryRecorder&& child);

  /// Signals end_run to every sink (idempotent; also runs on destruction).
  void finish();

  [[nodiscard]] std::uint64_t events_emitted() const { return next_seq_; }

 protected:
  void emit(SpanEvent&& event) override;

 private:
  std::vector<std::shared_ptr<TelemetrySink>> sinks_;
  std::uint64_t next_seq_ = 0;
  std::string run_label_;
  bool finished_ = false;
};

/// RAII handle for one span. Obtained from `open`; the span closes (and
/// its event is emitted) when the handle is destroyed or `close()` runs.
/// With a null recorder the handle is inert: every member is a no-op, no
/// memory is allocated, no clock is read -- disabled telemetry is free.
/// Spans on one recorder must close in LIFO order (scoped usage does this
/// naturally); closing a parent force-closes its open children.
class TelemetrySpan {
 public:
  TelemetrySpan() = default;  ///< inert span

  /// Opens a span named `name` on `recorder`, or an inert span when
  /// `recorder` is null.
  [[nodiscard]] static TelemetrySpan open(TelemetryRecorder* recorder,
                                          std::string_view name) {
    TelemetrySpan s;
    if (recorder != nullptr) {
      s.open_index_ = recorder->push(name);
      s.rec_ = recorder;
    }
    return s;
  }

  TelemetrySpan(TelemetrySpan&& o) noexcept
      : rec_(o.rec_), open_index_(o.open_index_) {
    o.rec_ = nullptr;
  }
  TelemetrySpan& operator=(TelemetrySpan&& o) noexcept {
    if (this != &o) {
      close();
      rec_ = o.rec_;
      open_index_ = o.open_index_;
      o.rec_ = nullptr;
    }
    return *this;
  }
  TelemetrySpan(const TelemetrySpan&) = delete;
  TelemetrySpan& operator=(const TelemetrySpan&) = delete;
  ~TelemetrySpan() { close(); }

  /// Adds to a named counter of this span (see TelemetryRecorder::count).
  void count(std::string_view key, double value) {
    if (rec_ != nullptr) rec_->count(key, value);
  }
  /// Attaches a string label to this span (exec bucket).
  void attr(std::string_view key, std::string_view value) {
    if (rec_ != nullptr) rec_->attr(key, value);
  }
  /// Closes the span now (idempotent; the destructor otherwise does it).
  void close() {
    if (rec_ != nullptr) {
      rec_->close_to(open_index_);
      rec_ = nullptr;
    }
  }
  [[nodiscard]] bool active() const { return rec_ != nullptr; }

 private:
  TelemetryRecorder* rec_ = nullptr;
  std::size_t open_index_ = 0;
};

/// Streams every event as one JSON object per line ("JSONL"). Line shape
/// (field order fixed; DESIGN.md §5f has the field-by-field reference):
///
///   {"v":1,"kind":"run","schema":"bds-trace/v1","label":"bds"}
///   {"v":1,"kind":"span","seq":0,"path":"pipeline/pass[0]:sweep",
///    "name":"pass[0]:sweep","depth":1,"counters":{...},
///    "exec":{"wall_ms":0.113,...}}
///
/// Everything outside the `exec` object is deterministic for a given
/// input network and script, at every `-j`.
class JsonlSink final : public TelemetrySink {
 public:
  /// Writes to `os` (not owned; must outlive the sink).
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void begin_run(const std::string& label) override;
  void on_span(const SpanEvent& event) override;
  void end_run() override;

 private:
  std::ostream* os_;
};

/// Buffers every event in memory and renders human-readable summaries:
/// `format_profile()` is the `-profile` report of `optimize_blif`.
class AggregateSink final : public TelemetrySink {
 public:
  void on_span(const SpanEvent& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }

  /// Sum of a named counter over every buffered event.
  [[nodiscard]] double total(std::string_view key) const;

  /// The `-profile` summary: top-`top_k` depth-1 spans (passes) and
  /// supernode spans by wall time, the `map` pass's phase spans, per-phase
  /// computed-table hit rates, and every degradation event.
  [[nodiscard]] std::string format_profile(std::size_t top_k = 5) const;

 private:
  std::vector<SpanEvent> events_;
};

}  // namespace bds::util
