#include "telemetry/export.hpp"

#include <cmath>
#include <cstdio>

#include "common/log.hpp"

namespace wirecap::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

/// RFC-4180 CSV field: quoted (with inner quotes doubled) whenever the
/// value contains a separator, quote, or line break — hostile metric
/// names must not be able to smuggle extra columns or rows into the
/// export.
void append_csv_field(std::string& out, std::string_view s) {
  const bool needs_quoting =
      s.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) {
    out += s;
    return;
  }
  out.push_back('"');
  for (const char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  append_escaped(out, s);
  out.push_back('"');
}

/// Locale-independent, deterministic double formatting; non-finite
/// values (which valid JSON cannot carry) become null.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_series(std::string& out, const BinnedSeries& series) {
  out += "\"bin_width_ns\":";
  append_u64(out, static_cast<std::uint64_t>(series.bin_width().count()));
  out += ",\"total\":";
  append_u64(out, series.total());
  out += ",\"peak\":";
  append_u64(out, series.peak());
  out += ",\"bins\":[";
  for (std::size_t i = 0; i < series.bin_count(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, series.bin(i));
  }
  out.push_back(']');
}

}  // namespace

std::string metrics_to_json(const MetricRegistry& registry) {
  std::string out;
  out.reserve(256 + registry.size() * 64);
  out += "{\"schema\":\"wirecap.metrics.v1\",\"metrics\":[";
  bool first = true;
  for (const auto& [name, entry] : registry.entries()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    append_json_string(out, name);
    out += ",\"kind\":\"";
    out += to_string(entry.kind);
    out += "\",";
    switch (entry.kind) {
      case MetricKind::kCounter:
        out += "\"value\":";
        append_u64(out, MetricRegistry::counter_value(entry));
        break;
      case MetricKind::kGauge:
        out += "\"value\":";
        append_number(out, MetricRegistry::gauge_value(entry));
        break;
      case MetricKind::kSeries:
        if (entry.series_view) {
          append_series(out, *entry.series_view);
        } else {
          out += "\"total\":0";
        }
        break;
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::string metrics_to_csv(const MetricRegistry& registry) {
  std::string out = "name,kind,count,value,p50,p90,p99,min,max,mean\n";
  for (const auto& [name, entry] : registry.entries()) {
    std::string row;
    append_csv_field(row, name);
    row.push_back(',');
    row += to_string(entry.kind);
    switch (entry.kind) {
      case MetricKind::kCounter:
        row += ",,";
        append_u64(row, MetricRegistry::counter_value(entry));
        row += ",,,,,,";
        break;
      case MetricKind::kGauge:
        row += ",,";
        append_number(row, MetricRegistry::gauge_value(entry));
        row += ",,,,,,";
        break;
      case MetricKind::kSeries: {
        const BinnedSeries* series = entry.series_view;
        row.push_back(',');
        append_u64(row, series ? series->total() : 0);
        row += ",,,,,,";
        append_u64(row, series ? series->peak() : 0);
        row.push_back(',');
        append_number(row, series ? series->mean() : 0.0);
        break;
      }
    }
    out += row;
    out.push_back('\n');
  }
  return out;
}

std::string trace_to_chrome_json(const EventTracer& tracer) {
  const std::vector<TraceEvent> events = tracer.events();
  std::string out;
  out.reserve(128 + events.size() * 96);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    append_json_string(out, event.name);
    out += ",\"cat\":";
    append_json_string(out, event.category);
    out += ",\"ph\":\"";
    out.push_back(static_cast<char>(event.phase));
    out += "\",\"pid\":0,\"tid\":";
    append_u64(out, event.tid);
    // Chrome-trace timestamps are microseconds.
    char ts[48];
    std::snprintf(ts, sizeof(ts), ",\"ts\":%.3f",
                  static_cast<double>(event.ts_ns) / 1000.0);
    out += ts;
    if (event.phase == TracePhase::kComplete) {
      std::snprintf(ts, sizeof(ts), ",\"dur\":%.3f",
                    static_cast<double>(event.dur_ns) / 1000.0);
      out += ts;
    }
    if (event.phase == TracePhase::kCounter) {
      out += ",\"args\":{\"value\":";
      append_number(out, event.counter_value);
      out.push_back('}');
    } else if (event.arg0_name) {
      out += ",\"args\":{";
      append_json_string(out, event.arg0_name);
      out.push_back(':');
      append_u64(out, event.arg0);
      if (event.arg1_name) {
        out.push_back(',');
        append_json_string(out, event.arg1_name);
        out.push_back(':');
        append_u64(out, event.arg1);
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    log_line(LogLevel::kWarn, "telemetry", "cannot open " + path);
    return false;
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  if (!ok) {
    log_line(LogLevel::kWarn, "telemetry", "short write to " + path);
  }
  return ok;
}

bool write_metrics(const MetricRegistry& registry, const std::string& path) {
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  return write_file(path, csv ? metrics_to_csv(registry)
                              : metrics_to_json(registry));
}

bool write_trace(const EventTracer& tracer, const std::string& path) {
  return write_file(path, trace_to_chrome_json(tracer));
}

}  // namespace wirecap::telemetry
