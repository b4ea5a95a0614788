#include "util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace bds::util {

namespace {

// Deterministic textual form for a counter value: integral values print as
// integers (the common case -- node counts, hit counters), everything else
// as shortest-round-trip-ish %.12g. Both are pure functions of the value,
// so identical runs render identical traces.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string format_ms(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

const double* find_counter(const SpanEvent& e, std::string_view key) {
  for (const auto& [k, v] : e.counters) {
    if (k == key) return &v;
  }
  for (const auto& [k, v] : e.exec_counters) {
    if (k == key) return &v;
  }
  return nullptr;
}

double counter_or(const SpanEvent& e, std::string_view key, double fallback) {
  const double* p = find_counter(e, key);
  return p != nullptr ? *p : fallback;
}

}  // namespace

bool is_exec_counter(std::string_view key) {
  if (key == "workers") return true;
  // Scheduling fact: which executor decomposed what depends on timing.
  if (key == "idle_workers") return true;
  // Admission gauges of the bdsd daemon (service/admission.hpp): how full
  // the pending queue was and what had been shed when a request started
  // are load facts, not functions of the input.
  if (key == "queue_depth" || key == "in_flight" || key == "admitted" ||
      key == "sheds" || key == "deadline_rejects" || key == "drained") {
    return true;
  }
  if (key.find("seconds") != std::string_view::npos) return true;
  constexpr std::string_view kMsSuffix = "_ms";
  return key.size() >= kMsSuffix.size() &&
         key.substr(key.size() - kMsSuffix.size()) == kMsSuffix;
}

// ---------------------------------------------------------------------------
// TelemetryRecorder

TelemetryRecorder::~TelemetryRecorder() = default;

std::size_t TelemetryRecorder::push(std::string_view name) {
  std::size_t index = stack_.size();
  OpenSpan open;
  open.name.assign(name);
  stack_.push_back(std::move(open));
  return index;
}

void TelemetryRecorder::count(std::string_view key, double value) {
  if (stack_.empty()) return;
  CounterList& counters = stack_.back().counters;
  for (auto& [k, v] : counters) {
    if (k == key) {
      v += value;
      return;
    }
  }
  counters.emplace_back(std::string(key), value);
}

void TelemetryRecorder::attr(std::string_view key, std::string_view value) {
  if (stack_.empty()) return;
  auto& attrs = stack_.back().attrs;
  for (auto& [k, v] : attrs) {
    if (k == key) {
      v.assign(value);
      return;
    }
  }
  attrs.emplace_back(std::string(key), std::string(value));
}

std::string TelemetryRecorder::current_path() const {
  std::string path = base_path_;
  for (const OpenSpan& open : stack_) {
    if (!path.empty()) path += '/';
    path += open.name;
  }
  return path;
}

void TelemetryRecorder::close_to(std::size_t open_index) {
  while (stack_.size() > open_index) close_top();
}

void TelemetryRecorder::close_top() {
  if (stack_.empty()) return;
  SpanEvent event;
  event.path = current_path();
  event.name = stack_.back().name;
  event.depth = base_depth_ + static_cast<std::uint32_t>(stack_.size()) - 1;
  event.seconds = stack_.back().timer.seconds();
  event.exec_attrs = std::move(stack_.back().attrs);
  for (auto& [k, v] : stack_.back().counters) {
    if (is_exec_counter(k)) {
      event.exec_counters.emplace_back(std::move(k), v);
    } else {
      event.counters.emplace_back(std::move(k), v);
    }
  }
  stack_.pop_back();
  emit(std::move(event));
}

// ---------------------------------------------------------------------------
// Telemetry

Telemetry::Telemetry(std::string run_label) : run_label_(std::move(run_label)) {}

Telemetry::~Telemetry() {
  close_to(0);
  finish();
}

void Telemetry::add_sink(std::shared_ptr<TelemetrySink> sink) {
  if (sink == nullptr) return;
  sink->begin_run(run_label_);
  sinks_.push_back(std::move(sink));
}

void Telemetry::absorb(TelemetryRecorder&& child) {
  // `child` must be fully closed; a still-open child span would silently
  // lose its buffered descendants' context.
  std::vector<SpanEvent> events = child.take_events();
  for (SpanEvent& event : events) emit(std::move(event));
}

void Telemetry::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& sink : sinks_) sink->end_run();
}

void Telemetry::emit(SpanEvent&& event) {
  event.seq = next_seq_++;
  for (const auto& sink : sinks_) sink->on_span(event);
}

// ---------------------------------------------------------------------------
// JsonlSink

void JsonlSink::begin_run(const std::string& label) {
  std::ostream& os = *os_;
  os << "{\"v\":" << kTraceSchemaVersion << ",\"kind\":\"run\",\"schema\":";
  write_json_string(os, kTraceSchemaName);
  os << ",\"label\":";
  write_json_string(os, label);
  os << "}\n";
}

void JsonlSink::on_span(const SpanEvent& event) {
  std::ostream& os = *os_;
  os << "{\"v\":" << kTraceSchemaVersion << ",\"kind\":\"span\",\"seq\":"
     << event.seq << ",\"path\":";
  write_json_string(os, event.path);
  os << ",\"name\":";
  write_json_string(os, event.name);
  os << ",\"depth\":" << event.depth;
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : event.counters) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, k);
    os << ':' << format_number(v);
  }
  os << "},\"exec\":{\"wall_ms\":" << format_ms(event.seconds);
  for (const auto& [k, v] : event.exec_counters) {
    os << ',';
    write_json_string(os, k);
    os << ':' << format_number(v);
  }
  for (const auto& [k, v] : event.exec_attrs) {
    os << ',';
    write_json_string(os, k);
    os << ':';
    write_json_string(os, v);
  }
  os << "}}\n";
}

void JsonlSink::end_run() { os_->flush(); }

// ---------------------------------------------------------------------------
// AggregateSink

double AggregateSink::total(std::string_view key) const {
  double sum = 0.0;
  for (const SpanEvent& e : events_) sum += counter_or(e, key, 0.0);
  return sum;
}

std::string AggregateSink::format_profile(std::size_t top_k) const {
  std::ostringstream os;
  double total_span_seconds = 0.0;
  const SpanEvent* root = nullptr;
  std::vector<const SpanEvent*> passes;
  std::vector<const SpanEvent*> supernodes;
  std::vector<const SpanEvent*> map_phases;
  std::vector<const SpanEvent*> degraded;
  std::vector<const SpanEvent*> with_cache;
  for (const SpanEvent& e : events_) {
    if (e.depth == 0) root = &e;
    if (e.depth == 1) {
      passes.push_back(&e);
      total_span_seconds += e.seconds;
    }
    if (e.name.rfind("supernode", 0) == 0) supernodes.push_back(&e);
    if (e.name.rfind("map:", 0) == 0) map_phases.push_back(&e);
    if (counter_or(e, "degraded", 0.0) > 0.0) degraded.push_back(&e);
    if (counter_or(e, "cache_lookups", 0.0) > 0.0) with_cache.push_back(&e);
  }

  auto by_time = [](const SpanEvent* a, const SpanEvent* b) {
    if (a->seconds != b->seconds) return a->seconds > b->seconds;
    return a->seq < b->seq;  // stable tiebreak
  };

  os << "profile: " << events_.size() << " spans";
  if (root != nullptr) {
    os << ", " << format_ms(root->seconds) << " ms total (" << root->name
       << ")";
  }
  os << "\n";

  os << "  top passes by time:\n";
  std::sort(passes.begin(), passes.end(), by_time);
  std::size_t shown = 0;
  for (const SpanEvent* e : passes) {
    if (shown++ >= top_k) break;
    double share =
        total_span_seconds > 0.0 ? 100.0 * e->seconds / total_span_seconds : 0.0;
    char share_buf[16];
    std::snprintf(share_buf, sizeof share_buf, "%5.1f%%", share);
    os << "    " << format_ms(e->seconds) << " ms  " << share_buf << "  "
       << e->name;
    const double* nb = find_counter(*e, "nodes_before");
    const double* na = find_counter(*e, "nodes_after");
    if (nb != nullptr && na != nullptr) {
      os << "  (nodes " << format_number(*nb) << " -> " << format_number(*na)
         << ")";
    }
    os << "\n";
  }
  if (passes.empty()) os << "    (no pass spans recorded)\n";

  if (!supernodes.empty()) {
    os << "  top supernodes by time:\n";
    std::sort(supernodes.begin(), supernodes.end(), by_time);
    shown = 0;
    for (const SpanEvent* e : supernodes) {
      if (shown++ >= top_k) break;
      os << "    " << format_ms(e->seconds) << " ms  " << e->path;
      const double* nodes = find_counter(*e, "bdd_nodes");
      if (nodes != nullptr) os << "  (bdd_nodes " << format_number(*nodes) << ")";
      os << "\n";
    }
  }

  if (!map_phases.empty()) {
    os << "  map phases:\n";
    for (const SpanEvent* e : map_phases) {
      os << "    " << format_ms(e->seconds) << " ms  " << e->path << "\n";
    }
  }

  if (!with_cache.empty()) {
    os << "  computed-table hit rate by phase:\n";
    std::sort(with_cache.begin(), with_cache.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                const double la = counter_or(*a, "cache_lookups", 0.0);
                const double lb = counter_or(*b, "cache_lookups", 0.0);
                if (la != lb) return la > lb;
                return a->seq < b->seq;
              });
    shown = 0;
    for (const SpanEvent* e : with_cache) {
      if (shown++ >= top_k) break;
      double lookups = counter_or(*e, "cache_lookups", 0.0);
      double hits = counter_or(*e, "cache_hits", 0.0);
      char rate_buf[16];
      std::snprintf(rate_buf, sizeof rate_buf, "%5.1f%%",
                    lookups > 0.0 ? 100.0 * hits / lookups : 0.0);
      os << "    " << rate_buf << "  " << e->path << "  ("
         << format_number(hits) << "/" << format_number(lookups)
         << " lookups)\n";
    }
  }

  os << "  degradation events: ";
  if (degraded.empty()) {
    os << "none\n";
  } else {
    os << degraded.size() << "\n";
    for (const SpanEvent* e : degraded) {
      os << "    " << e->path << "  (degraded="
         << format_number(counter_or(*e, "degraded", 0.0)) << ")\n";
    }
  }
  return os.str();
}

}  // namespace bds::util
