// Reads the obs trace back as spans and computes per-thread self times.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace scpg;

std::vector<Span> export_and_read_trace(const std::string& path,
                                        std::string_view tool) {
  std::ostringstream os;
  obs::write_trace_json(os, tool);
  const std::string text = std::move(os).str();
  {
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f) throw Error("cannot write trace file: " + path);
  }

  const json::Value doc = json::parse(text);
  const json::Value* events = doc.get("traceEvents");
  SCPG_REQUIRE(events != nullptr && events->is(json::Value::Type::Array),
               "trace export has no traceEvents array");
  std::vector<Span> spans;
  for (const json::Value& e : events->arr) {
    const json::Value* ph = e.get("ph");
    if (ph == nullptr || ph->str != "X") continue;
    Span s;
    s.name = e.get("name")->str;
    s.tid = int(e.get("tid")->num);
    s.ts_us = e.get("ts")->num;
    s.dur_us = e.get("dur")->num;
    if (const json::Value* args = e.get("args")) {
      if (const json::Value* tag = args->get("tag")) s.tag = tag->str;
      if (const json::Value* lanes = args->get("lanes"))
        s.lanes = int(lanes->num);
    }
    spans.push_back(std::move(s));
  }

  // Self time: nest the spans of each thread by containment (a parent
  // starts no later and ends no earlier than its child; a parent sorts
  // first on equal starts because it is longer), then subtract each
  // span's duration from its direct parent.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  constexpr double kSlackUs = 0.5; // timestamp rounding between clocks
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    s.self_us = s.dur_us;
    if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (s.ts_us + s.dur_us <= top.ts_us + top.dur_us + kSlackUs) break;
      stack.pop_back();
    }
    if (!stack.empty()) spans[stack.back()].self_us -= s.dur_us;
    stack.push_back(i);
  }
  return spans;
}

double span_sum_ms(const std::vector<Span>& spans, std::string_view name,
                   double t0_us, double t1_us, bool self) {
  double us = 0;
  for (const Span& s : spans)
    if (s.name == name && s.ts_us >= t0_us && s.ts_us < t1_us)
      us += self ? s.self_us : s.dur_us;
  return us / 1000.0;
}

std::size_t span_count(const std::vector<Span>& spans, std::string_view name,
                       double t0_us, double t1_us) {
  std::size_t n = 0;
  for (const Span& s : spans)
    if (s.name == name && s.ts_us >= t0_us && s.ts_us < t1_us) ++n;
  return n;
}

EngineSplit engine_split(const std::vector<Span>& spans, double t0_us,
                         double t1_us, const DirectStats& shape) {
  EngineSplit out;
  for (const Span& s : spans) {
    if (s.name != "engine.point" || s.ts_us < t0_us || s.ts_us >= t1_us)
      continue;
    ++out.units;
    out.lanes += std::size_t(s.lanes);
    std::string tag = s.tag;
    if (tag.size() > 1 && tag[0] == 'q') tag = tag.substr(tag.find(':') + 1);
    const auto it = shape.is_event.find(tag);
    SCPG_REQUIRE(it != shape.is_event.end(),
                 "engine.point span with unknown row tag " + s.tag);
    const bool event = it->second;
    if (shape.fell_back.count(tag) != 0)
      out.fallback_rows += std::size_t(s.lanes);
    if (event) {
      out.event_ms += s.dur_us / 1000.0;
      out.event_rows += std::size_t(s.lanes);
    } else {
      out.compiled_ms += s.dur_us / 1000.0;
      out.compiled_rows += std::size_t(s.lanes);
    }
  }
  return out;
}

} // namespace perfbench
