#include "rollup.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.hpp"

namespace daybench {

namespace {

std::uint64_t us_to_ns(double us) {
  return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

void add(SpanTotals& into, const SpanTotals& from) {
  into.count += from.count;
  into.total_s += from.total_s;
  into.self_s += from.self_s;
}

}  // namespace

std::vector<SpanEvent> parse_chrome_trace(const std::string& json) {
  const qntn::json::Value doc = qntn::json::Value::parse(json);
  std::vector<SpanEvent> events;
  for (const qntn::json::Value& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    events.push_back({e.at("name").as_string(),
                      static_cast<std::uint64_t>(e.at("tid").as_number()),
                      us_to_ns(e.at("ts").as_number()),
                      us_to_ns(e.at("dur").as_number())});
  }
  return events;
}

void Rollup::merge(const Rollup& other) {
  for (const auto& [name, totals] : other.spans) add(spans[name], totals);
  for (const auto& [name, totals] : other.modules) add(modules[name], totals);
}

std::string module_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

Rollup rollup(std::vector<SpanEvent> events) {
  // Parents first: by thread, then start, then the longer span first so a
  // child that starts on its parent's first nanosecond nests correctly.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;  // indices of the enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    while (!open.empty()) {
      const SpanEvent& top = events[open.back()];
      if (top.tid == e.tid && e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += e.dur_ns;
    open.push_back(i);
  }
  Rollup out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    SpanTotals totals;
    totals.count = 1;
    totals.total_s = 1e-9 * static_cast<double>(e.dur_ns);
    totals.self_s =
        1e-9 * static_cast<double>(e.dur_ns - std::min(e.dur_ns, child_ns[i]));
    add(out.spans[e.name], totals);
    add(out.modules[module_of(e.name)], totals);
  }
  return out;
}

double total_s(const std::vector<SpanEvent>& events, const std::string& name) {
  std::uint64_t ns = 0;
  for (const SpanEvent& e : events) {
    if (e.name == name) ns += e.dur_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

const SpanEvent* find_span(const std::vector<SpanEvent>& events,
                           const std::string& name) {
  for (const SpanEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string format_rollup(const Rollup& rollup, double per,
                          const std::string& title) {
  std::string out = title + "\n";
  char line[160];
  const auto rows = [&](const std::map<std::string, SpanTotals>& table,
                        const char* heading) {
    std::snprintf(line, sizeof line, "  %-28s %10s %12s %12s\n", heading,
                  "count", "total_ms", "self_ms");
    out += line;
    for (const auto& [name, t] : table) {
      std::snprintf(line, sizeof line, "  %-28s %10.1f %12.3f %12.3f\n",
                    name.c_str(), static_cast<double>(t.count) / per,
                    1e3 * t.total_s / per, 1e3 * t.self_s / per);
      out += line;
    }
  };
  rows(rollup.spans, "span");
  rows(rollup.modules, "module");
  return out;
}

}  // namespace daybench
