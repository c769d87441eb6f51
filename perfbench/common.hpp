// Shared declarations of the perfbench program: options, the per-run
// result record, timing and statistics helpers, and the trace reader.
//
// The program runs one named workload per process (workloads.cpp),
// checks every output it can against a direct reference, and prints one
// JSON result line (main.cpp).  Untraced runs report the end-to-end
// metrics; traced runs (--trace 1) record spans from this directory's
// code around each layer call, read the engine's own spans back from
// the obs collector, and report per-layer metrics (trace_report.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "engine/cache.hpp"
#include "serve/exec.hpp"
#include "tech/library.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string root; ///< repository checkout (examples/ is read from here)
};

/// A metric as printed: value plus unit.
struct Metric {
  double value{0};
  std::string unit;
};

/// Everything one workload run produces.
struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes; ///< human-readable lines, printed first
};

// --- timing and statistics (stats.cpp) -------------------------------------

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

[[nodiscard]] double mean(const std::vector<double>& v);

/// Request seed `index` of a workload: a pure function of the workload
/// seed, so the same --seed replays the same requests.
[[nodiscard]] std::uint64_t request_seed(std::uint64_t workload_seed,
                                         std::uint64_t index);

/// Wall time of a fixed single-thread integer loop (median of 5), taken
/// before each workload so a run on a busy host can be told apart from
/// a regression.
[[nodiscard]] double calibrate_host_ms();

/// Wall time of one pass of a fixed reference kernel: a binary heap, a
/// hash map of 50k keys and a branch on random bits, about 10 ms on a
/// quiet host.  It stands in for the simulator's kind of work, and its
/// time follows a shared host's contention the way a sweep's does (see
/// README "Noise"); the integer loop of calibrate_host_ms does not.
[[nodiscard]] double reference_ms();

/// The reference kernel's time that host-normalised metrics are scaled
/// to: a host-timed value t, taken while the kernel averaged r ms,
/// reports as t * kReferenceMs / r.
constexpr double kReferenceMs = 10.0;

/// Set-up timing: each set-up is bracketed by two reference passes and
/// normalised by their mean.
struct SetupClock {
  std::vector<double> raw_s;  ///< wall seconds per set-up
  std::vector<double> norm_s; ///< host-normalised seconds per set-up

  void start();
  void stop();
  [[nodiscard]] std::size_t count() const { return raw_s.size(); }

private:
  double ref0_ms_{0};
  Clock::time_point t0_;
};

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- the direct (in-process) sweep path, spanned per layer -----------------

/// What a direct sweep's result table held.
struct DirectStats {
  std::size_t rows{0};
  std::size_t event_rows{0}; ///< rows that ran on the event simulator
  std::size_t fallback_rows{0}; ///< of those, rows that left compiled
  std::size_t cache_hits{0};
  std::map<std::string, bool> is_event; ///< row tag -> ran on event
  std::set<std::string> fell_back;      ///< tags of the fallback rows
};

/// exec_sweep split into its layer calls, each wrapped in a span named
/// after its metric ("campaign.build", "engine.prepare", "engine.run",
/// "serve.render") carrying `req` as the request id.  The spans cost one
/// branch when tracing is off; the body is byte-identical to
/// serve::exec_sweep's.
[[nodiscard]] std::string direct_sweep(const scpg::Library& lib,
                                       const scpg::serve::SweepRequest& rq,
                                       scpg::engine::ResultCache& cache,
                                       std::uint64_t req,
                                       DirectStats* stats = nullptr);

/// Finds the rows of `rq` that resolve to the compiled backend but leave
/// it mid-run, which the engine re-runs on the event simulator.
/// PointResult::backend records only the static resolution, so each such
/// row is run again alone, on a fresh cache with obs metrics on, and
/// marked as an event row in `stats` when the engine's fallback counter
/// moves.  Untimed; restores the obs state it found.  (Metrics stay off
/// in traced windows: with them on, the event simulator times every
/// evaluation, which would inflate the very times being attributed.)
void probe_fallbacks(const scpg::Library& lib,
                     const scpg::serve::SweepRequest& rq, DirectStats& stats);

/// Repeats, one span per layer, the calls build_campaign makes
/// internally ("netlist.parse", "policy.apply", "scpg.model", "sta.run",
/// "lint.run") on the same input, so their cost can be attributed.
void attribute_plan_layers(const scpg::Library& lib,
                           const scpg::campaign::CampaignSpec& spec,
                           std::uint64_t req);

// --- trace analysis (trace_report.cpp) -------------------------------------

/// One complete event read back from the exported Chrome trace.
struct Span {
  std::string name;
  int tid{0};
  double ts_us{0};
  double dur_us{0};
  double self_us{0}; ///< dur minus the part covered by direct children
  std::string tag;   ///< engine.point: first row's tag
  int lanes{0};      ///< engine.point: rows in the unit
};

/// Exports the obs trace buffer as a Chrome trace to `path` and parses
/// it back into spans with self times computed per thread.
[[nodiscard]] std::vector<Span> export_and_read_trace(const std::string& path,
                                                      std::string_view tool);

/// Sum of `field` over spans named `name` whose start lies in [t0, t1).
[[nodiscard]] double span_sum_ms(const std::vector<Span>& spans,
                                 std::string_view name, double t0_us,
                                 double t1_us, bool self = false);
[[nodiscard]] std::size_t span_count(const std::vector<Span>& spans,
                                     std::string_view name, double t0_us,
                                     double t1_us);

/// Engine unit accounting over the engine.point spans in [t0, t1).
struct EngineSplit {
  double event_ms{0};
  double compiled_ms{0};
  std::size_t units{0};
  std::size_t lanes{0};
  std::size_t event_rows{0};
  std::size_t compiled_rows{0};
  std::size_t fallback_rows{0}; ///< event rows whose tag fell back
};

/// Every unit is looked up by its first row's tag, stripped of any
/// "q<i>:" merge prefix, in `shape`: the lanes of one unit differ only
/// in their seed, so they share that tag.  An event unit's time and
/// lanes count as event, fallback units (marked by probe_fallbacks)
/// included.
[[nodiscard]] EngineSplit engine_split(const std::vector<Span>& spans,
                                       double t0_us, double t1_us,
                                       const DirectStats& shape);

// --- workloads (workloads.cpp) ---------------------------------------------

[[nodiscard]] RunResult run_sweep_scpg(const scpg::Library& lib,
                                       const Options& opt);
[[nodiscard]] RunResult run_serve_hot(const scpg::Library& lib,
                                      const Options& opt);
[[nodiscard]] RunResult run_serve_cold(const scpg::Library& lib,
                                       const Options& opt);

} // namespace perfbench
