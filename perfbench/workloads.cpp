// The three workloads.  Each sets up several times (setup_s is the
// median), times its load with steady_clock on the calling threads, and
// checks its outputs after the timed region.  Untraced runs (--trace 0)
// measure for the whole --seconds, in short slices with a pass of the
// reference kernel after each and set-ups timed between them, and report
// the end-to-end metrics normalised to the reference's speed; a
// traced run (--trace 1) measures half the time untraced and half with
// obs tracing on, and reports the per-layer metrics read from the spans.
//
// Every request seed is derived from the workload seed (request_seed);
// the program sees only the resulting CampaignSpec seeds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "gen/mult16.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/diskcache.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace scpg;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupGaps = 4;    ///< set-up gaps spread over the load
constexpr int kSetupsPerGap = 2; ///< set-ups before the load and in
                                 ///< each gap; setup_s is the median
constexpr double kSliceS = 0.25; ///< load slice between reference passes
constexpr int kClients = 4;    ///< connections / load threads (serve_*)
constexpr double kHotRate = 300.0;      ///< serve_hot open-loop req/s
constexpr double kHotSloMs = 20.0;      ///< serve_hot latency limit
constexpr double kSweepSloMs = 1000.0;  ///< sweep_scpg latency limit
constexpr double kColdSloMs = 1000.0;   ///< serve_cold latency limit
constexpr int kHotSeeds = 4;            ///< serve_hot's warmed seeds
constexpr int kColdSampleEvery = 16;    ///< serve_cold fixed check sample
constexpr int kAttributionSamples = 8;  ///< traced serve per-layer samples
constexpr double kBatchGapMs = 2.0;     ///< completions further apart
                                        ///< belong to different batches
// Request-seed index bases, so set-up and measured seeds never repeat.
constexpr std::uint64_t kWarmBase = 1ULL << 40;
constexpr std::uint64_t kHotBase = 1ULL << 41;

campaign::CampaignSpec paper_sweep(const std::string& netlist_path) {
  campaign::CampaignSpec spec;
  spec.netlist_path = netlist_path;
  spec.points = 12;
  spec.cycles = 32;
  spec.backend = sim::Backend::Auto;
  spec.policy = "scpg";
  return spec;
}

serve::SweepRequest sweep_request(const campaign::CampaignSpec& spec,
                                  std::uint64_t seed) {
  serve::SweepRequest rq{spec, 1};
  rq.spec.seed = seed;
  return rq;
}

serve::Request served(const serve::SweepRequest& sweep) {
  serve::Request rq;
  rq.op = serve::Op::Sweep;
  rq.sweep = sweep;
  return rq;
}

/// One load phase's samples.
struct Phase {
  std::vector<double> latency_ms;     ///< successful requests
  std::vector<std::uint64_t> ok_k;   ///< their request indices
  std::vector<double> lag_ms;        ///< open loop: send time - due time
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t slo_met{0};
  double wall_s{0};
  // Untraced load only (sliced_load): the reference passes, and the
  // latencies and wall time above normalised by the passes on either
  // side of their slice.
  std::vector<double> ref_ms;
  std::vector<double> host_latency_ms;
  double host_wall_s{0};
  double t0_us{0}; ///< obs clock window of a traced phase
  double t1_us{0};

  [[nodiscard]] std::uint64_t completed() const { return attempted - failed; }
};

void add(RunResult& r, const std::string& name, double v,
         const std::string& unit) {
  SCPG_REQUIRE(std::isfinite(v), "metric " + name + " is not finite");
  r.metrics[name] = Metric{v, unit};
}

/// Which host-timed metrics a workload reports normalised to the
/// reference kernel's speed (README "Noise").  Set-up and latency
/// always are.
enum class Normalise {
  Everything, ///< a closed loop, whose rates follow the host's speed
  Latency,    ///< an open loop, whose rates are set by the offered load
};

/// `check_failures` failed checks each void one request: it counts as
/// failed and as missing the latency limit.
void end_to_end(RunResult& r, Phase p, const SetupClock& setups,
                std::size_t rows_per_request, std::uint64_t check_failures,
                Normalise norm) {
  p.failed = std::min(p.attempted, p.failed + check_failures);
  p.slo_met -= std::min(p.slo_met, check_failures);
  const double rps = double(p.completed()) /
                     (norm == Normalise::Everything ? p.host_wall_s : p.wall_s);
  // The notes hold the wall-clock values.  p50 and p99 are printed, not
  // gated: one host stall moves p99 by tens of percent.
  r.notes.push_back(
      "wall clock: latency_mean_ms " + json::number(mean(p.latency_ms)) +
      ", latency_p50_ms " + json::number(quantile(p.latency_ms, 0.50)) +
      ", latency_p90_ms " + json::number(quantile(p.latency_ms, 0.90)) +
      ", latency_p99_ms " + json::number(quantile(p.latency_ms, 0.99)) +
      " over " + std::to_string(p.latency_ms.size()) +
      " requests; throughput_rps " +
      json::number(double(p.completed()) / p.wall_s) + "; setup_s " +
      json::number(quantile(setups.raw_s, 0.5)));
  r.notes.push_back("reference_ms: mean " + json::number(mean(p.ref_ms)) +
                    " over " + std::to_string(p.ref_ms.size()) +
                    " passes; setup_s samples: " +
                    std::to_string(setups.count()));
  add(r, "setup_s", quantile(setups.norm_s, 0.5), "s");
  add(r, "latency_mean_ms", mean(p.host_latency_ms), "ms");
  add(r, "latency_p90_ms", quantile(p.host_latency_ms, 0.90), "ms");
  add(r, "throughput_rps", rps, "1/s");
  add(r, "points_per_s", rps * double(rows_per_request), "1/s");
  add(r, "slo_share", double(p.slo_met) / double(p.attempted), "ratio");
  add(r, "ok_share", double(p.completed()) / double(p.attempted), "ratio");
  add(r, "peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The per-layer values one traced run measured, by printed name.
using Layers = std::map<std::string, double>;

void per_layer(RunResult& r, const Layers& l) {
  static const std::pair<const char*, const char*> kUnits[] = {
      {"netlist.parse_ms", "ms"},      {"policy.apply_ms", "ms"},
      {"scpg.model_ms", "ms"},         {"sta.run_ms", "ms"},
      {"lint.run_ms", "ms"},           {"campaign.build_ms", "ms"},
      {"engine.prepare_ms", "ms"},     {"engine.run_ms", "ms"},
      {"engine.rows", "count"},        {"engine.rows_event", "count"},
      {"engine.rows_compiled", "count"}, {"engine.units", "count"},
      {"engine.lane_fill", "ratio"},   {"engine.cache_hit_ratio", "ratio"},
      {"sim.event_ms", "ms"},          {"sim.compiled_ms", "ms"},
      {"sim.event_share", "ratio"},    {"sim.fallback_rows", "count"},
      {"serve.render_ms", "ms"},
      {"serve.residual_ms", "ms"},     {"serve.batch_size", "count"},
      {"serve.disk_bytes_per_row", "B"}, {"load.lag_p90_ms", "ms"},
      {"trace.overhead_share", "ratio"}, {"trace.self_cover_share", "ratio"},
      {"host.calib_ms", "ms"},
  };
  SCPG_REQUIRE(l.size() == std::size(kUnits),
               "per-layer metric set is incomplete");
  for (const auto& [name, unit] : kUnits) {
    const auto it = l.find(name);
    SCPG_REQUIRE(it != l.end(), std::string("missing metric ") + name);
    add(r, name, it->second, unit);
  }
}

/// "<name>_ms" = mean duration of the spans called `name` in [t0, t1),
/// for the layer spans this directory records (one per call).
void span_means(Layers& l, const std::vector<Span>& spans, double t0,
                double t1) {
  for (const char* name :
       {"netlist.parse", "policy.apply", "scpg.model", "sta.run", "lint.run",
        "campaign.build", "engine.prepare", "serve.render"}) {
    const std::size_t n = span_count(spans, name, t0, t1);
    SCPG_REQUIRE(n > 0, std::string("no ") + name + " spans traced");
    l[std::string(name) + "_ms"] = span_sum_ms(spans, name, t0, t1) / double(n);
  }
}

/// Fills the engine/sim metrics from the engine.point spans in [t0, t1)
/// and the engine run time `run_ms`, per request.
void engine_metrics(Layers& l, const std::vector<Span>& spans, double t0,
                    double t1, const DirectStats& shape, double requests,
                    double run_ms) {
  const EngineSplit e = engine_split(spans, t0, t1, shape);
  SCPG_REQUIRE(e.units > 0, "no engine.point spans traced");
  l["engine.run_ms"] = run_ms / requests;
  l["engine.rows"] = double(e.event_rows + e.compiled_rows) / requests;
  l["engine.rows_event"] = double(e.event_rows) / requests;
  l["engine.rows_compiled"] = double(e.compiled_rows) / requests;
  l["engine.units"] = double(e.units) / requests;
  l["engine.lane_fill"] = double(e.lanes) / (64.0 * double(e.units));
  l["sim.event_ms"] = e.event_ms / requests;
  l["sim.compiled_ms"] = e.compiled_ms / requests;
  l["sim.event_share"] = run_ms > 0 ? e.event_ms / run_ms : 0.0;
  l["sim.fallback_rows"] = double(e.fallback_rows) / requests;
}

/// Runs `fn(k, thread)` for k = 0, 1, ... in a closed loop until
/// `seconds` have passed; `fn` returns false (or throws) for a failed
/// request.  `after(k)` runs untimed after each request.
template <class Fn, class After>
Phase closed_loop(double seconds, int threads, double slo_ms, Fn fn,
                  After after) {
  Phase p;
  std::mutex m;
  std::atomic<std::uint64_t> next{0};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  Clock::time_point last = t0;
  auto worker = [&](int thread) {
    while (Clock::now() < deadline) {
      const std::uint64_t k = next.fetch_add(1);
      const auto a = Clock::now();
      bool ok = false;
      try {
        ok = fn(k, thread);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto b = Clock::now();
      {
        const std::lock_guard lock(m);
        ++p.attempted;
        if (ok) {
          p.latency_ms.push_back(ms_between(a, b));
          p.ok_k.push_back(k);
          if (ms_between(a, b) <= slo_ms) ++p.slo_met;
        } else {
          ++p.failed;
        }
        last = std::max(last, b);
      }
      after(k);
    }
  };
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  p.wall_s = std::chrono::duration<double>(last - t0).count();
  return p;
}

/// The untraced load of a run: slices of kSliceS seconds (a closed
/// loop's slice ends with its last request) until their wall time adds
/// up to `seconds`.  Each slice is followed by one pass of the reference
/// kernel (one more runs before the first), and kSetupGaps times
/// kSetupsPerGap calls of `setup` are spread evenly over the load (the
/// caller times as many before it).  A shared host's speed switches
/// within a second, so the reference passes sample the same mix of
/// speeds as the load, and set-ups timed back to back would all catch
/// one moment of it.  `load(secs, base)` runs one slice whose request
/// indices start at `base`; wall time and samples add up.
template <class Load, class Setup>
Phase sliced_load(double seconds, Load load, Setup setup) {
  Phase all;
  all.ref_ms.push_back(reference_ms());
  int gaps = 0;
  while (gaps < kSetupGaps) {
    const Phase p = load(kSliceS, all.attempted);
    all.ref_ms.push_back(reference_ms());
    const double host =
        2 * kReferenceMs / (all.ref_ms.rbegin()[0] + all.ref_ms.rbegin()[1]);
    for (const double ms : p.latency_ms)
      all.host_latency_ms.push_back(ms * host);
    all.host_wall_s += p.wall_s * host;
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    all.ok_k.insert(all.ok_k.end(), p.ok_k.begin(), p.ok_k.end());
    all.lag_ms.insert(all.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.slo_met += p.slo_met;
    all.wall_s += p.wall_s;
    for (; gaps < kSetupGaps &&
           all.wall_s >= seconds * double(gaps + 1) / kSetupGaps;
         ++gaps)
      for (int j = 0; j < kSetupsPerGap; ++j) setup();
  }
  return all;
}

/// Starts tracing for one phase and stamps the window start.
void trace_on(Phase& p) {
  obs::configure(false, true);
  p.t0_us = obs::now_us();
}

// --- serve helpers -----------------------------------------------------------

struct ServerStats {
  double batches{0};
  double batched_requests{0};
  double cache_entries{0};
};

ServerStats server_stats(const std::string& socket) {
  serve::Request rq;
  rq.op = serve::Op::Stats;
  const serve::Response r = serve::call_once(socket, rq);
  SCPG_REQUIRE(r.status.ok, "stats request failed: " + r.status.error);
  const json::Value v = json::parse(r.body);
  const json::Value* p = v.get("payload");
  SCPG_REQUIRE(p != nullptr, "stats body has no payload");
  return {p->get("batches")->num, p->get("batched_requests")->num,
          p->get("cache_entries")->num};
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : double(n);
}

/// A served-sweep daemon with the `scpgc serve` defaults (4 ms batch
/// window, disk cache on) and engine jobs = 1, in directory `dir`.
struct Daemon {
  std::string dir;
  std::string socket;
  std::string cache_path;
  std::unique_ptr<serve::Server> server;

  Daemon(const Library& lib, std::string d)
      : dir(std::move(d)), socket(dir + "/s.sock"),
        cache_path(dir + "/cache.log") {
    fs::remove_all(dir);
    fs::create_directories(dir);
    serve::ServerOptions o;
    o.socket_path = socket;
    o.cache_path = cache_path;
    o.jobs = 1;
    server = std::make_unique<serve::Server>(lib, o);
    (void)server->start();
  }
};

/// Requests sent by the open-loop generator: request k is due at
/// t0 + k / rate and goes out on connection k % kClients; its latency
/// counts from the due time.
template <class MakeFn, class CheckFn>
Phase open_loop(const std::string& socket, double seconds, MakeFn make,
                CheckFn check) {
  Phase p;
  const auto n_total = std::uint64_t(seconds * kHotRate);
  std::mutex m;
  std::vector<std::optional<serve::Client>> clients(kClients);
  for (auto& c : clients) c.emplace(socket);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point last = t0;
  auto worker = [&](int c) {
    for (std::uint64_t k = std::uint64_t(c); k < n_total; k += kClients) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(double(k) / kHotRate));
      std::this_thread::sleep_until(due);
      const double lag = ms_between(due, Clock::now());
      bool ok = false;
      try {
        obs::Scope span("request", "perfbench");
        if (obs::trace_enabled())
          span.args("{\"req\": " + std::to_string(k) + "}");
        if (!clients[std::size_t(c)]) clients[std::size_t(c)].emplace(socket);
        const serve::Response r = clients[std::size_t(c)]->call(make(k));
        ok = r.status.ok && check(k, r.body);
      } catch (const std::exception&) {
        clients[std::size_t(c)].reset(); // reconnect for the next request
        ok = false;
      }
      const auto done = Clock::now();
      const double lat = ms_between(due, done);
      const std::lock_guard lock(m);
      ++p.attempted;
      p.lag_ms.push_back(lag);
      if (ok) {
        p.latency_ms.push_back(lat);
        if (lat <= kHotSloMs) ++p.slo_met;
      } else {
        ++p.failed;
      }
      last = std::max(last, done);
    }
  };
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) pool.emplace_back(worker, c);
  for (std::thread& t : pool) t.join();
  p.wall_s = std::chrono::duration<double>(last - t0).count();
  return p;
}

/// The traced serve per-layer metrics shared by both serve workloads:
/// engine time from the daemon's own engine.sweep/engine.point spans in
/// the load window [tp.t0_us, tp.t1_us), the other layers from the
/// spanned direct runs of the same requests in [attrib_t0, attrib_t1).
void serve_layers(Layers& l, const std::vector<Span>& spans, const Phase& tp,
                  double attrib_t0, double attrib_t1,
                  const DirectStats& shape) {
  const double n = double(tp.completed());
  engine_metrics(l, spans, tp.t0_us, tp.t1_us, shape, n,
                 span_sum_ms(spans, "engine.sweep", tp.t0_us, tp.t1_us));
  span_means(l, spans, attrib_t0, attrib_t1);
  const double layers = l["campaign.build_ms"] + l["engine.prepare_ms"] +
                        l["engine.run_ms"] + l["serve.render_ms"];
  l["serve.residual_ms"] = mean(tp.latency_ms) - layers;
  l["trace.self_cover_share"] = layers / mean(tp.latency_ms);
}

std::string trace_path(const Options& opt) {
  return "trace-" + opt.workload + "-seed" + std::to_string(opt.seed) +
         ".json";
}

} // namespace

// --- sweep_scpg --------------------------------------------------------------

RunResult run_sweep_scpg(const Library& lib, const Options& opt) {
  RunResult out;
  const double calib = calibrate_host_ms();
  const campaign::CampaignSpec spec = paper_sweep("mult16.v");

  // Set-up: write the design, then one unmeasured request (fills the
  // allocator and the instruction cache the way a running caller would).
  SetupClock setups;
  DirectStats shape;
  const auto setup = [&] {
    const auto k = std::uint64_t(setups.count());
    setups.start();
    {
      std::ofstream os(spec.netlist_path);
      write_verilog(gen::make_multiplier(lib, 16), os);
      SCPG_REQUIRE(bool(os), "cannot write " + spec.netlist_path);
    }
    engine::ResultCache cache("perfbench.warm");
    (void)direct_sweep(
        lib, sweep_request(spec, request_seed(opt.seed, kWarmBase + k)), cache,
        0, k == 0 ? &shape : nullptr);
    setups.stop();
  };
  for (int k = 0; k < kSetupsPerGap; ++k) setup();
  probe_fallbacks(lib, sweep_request(spec, request_seed(opt.seed, kWarmBase)),
                  shape);

  // Each request: a fresh private cache and its own seed, so every row
  // is simulated.  Bodies are kept for the checks after the loop.
  std::map<std::uint64_t, std::string> bodies;
  std::uint64_t bad = 0;
  std::size_t traced_rows = 0;
  std::size_t traced_hits = 0;
  auto request = [&](std::uint64_t k, bool traced) {
    const serve::SweepRequest rq =
        sweep_request(spec, request_seed(opt.seed, k));
    engine::ResultCache cache("perfbench.request");
    std::string body;
    if (traced) {
      obs::Scope s("request", "perfbench");
      s.args("{\"req\": " + std::to_string(k) + "}");
      DirectStats st;
      body = direct_sweep(lib, rq, cache, k, &st);
      traced_rows += st.rows;
      traced_hits += st.cache_hits;
    } else {
      body = serve::exec_sweep(lib, rq, &cache).body;
    }
    const auto [it, fresh] = bodies.emplace(k, body);
    if (!fresh && it->second != body) {
      ++bad;
      out.notes.push_back("request " + std::to_string(k) +
                          ": traced and untraced bodies differ");
    }
    return true;
  };

  // A traced run alternates: request 2i untraced, request 2i+1 the same
  // seed traced and followed (outside its span and its timing) by the
  // attribution calls, so traced and untraced latencies pair up on equal
  // work under the same host conditions.
  const auto untimed = [](std::uint64_t) {};
  const Phase p =
      !opt.trace
          ? sliced_load(
                opt.seconds,
                [&](double secs, std::uint64_t base) {
                  return closed_loop(
                      secs, 1, kSweepSloMs,
                      [&](std::uint64_t k, int) {
                        return request(base + k, false);
                      },
                      untimed);
                },
                setup)
          : closed_loop(
                opt.seconds, 1, kSweepSloMs,
                [&](std::uint64_t k, int) {
                  return request(k / 2, k % 2 == 1);
                },
                [&](std::uint64_t k) {
                  if (k % 2 == 0) obs::configure(false, true);
                  if (k % 2 == 1) {
                    attribute_plan_layers(lib, spec, k / 2);
                    obs::configure(false, false);
                  }
                });
  std::vector<Span> spans;
  if (opt.trace) {
    obs::configure(false, false); // the loop may end right after enabling
    spans = export_and_read_trace(trace_path(opt), "perfbench");
  }

  // Checks (outside the timed region).  Every body: at the lowest
  // frequency the SCPG row must measure below the ungated row (the
  // paper's direction of saving).  One request re-run with a fresh
  // cache must reproduce its bytes.
  for (const auto& [k, body] : bodies) {
    const json::Value v = json::parse(body);
    const json::Value* rows = v.get("payload")->get("rows");
    const json::Value& low = rows->arr.at(0);
    const json::Value* gated = low.get("measured_scpg50_uw");
    const json::Value* none = low.get("measured_none_uw");
    if (!gated->is(json::Value::Type::Number) || !(gated->num < none->num)) {
      ++bad;
      out.notes.push_back("request " + std::to_string(k) +
                          ": measured_scpg50_uw is not below measured_none_uw "
                          "at the lowest frequency");
    }
  }
  if (bodies.empty()) {
    ++bad;
    out.notes.push_back("no request completed");
  } else {
    const std::uint64_t k = bodies.begin()->first;
    engine::ResultCache cache("perfbench.check");
    const std::string again =
        serve::exec_sweep(lib, sweep_request(spec, request_seed(opt.seed, k)),
                          &cache)
            .body;
    if (again != bodies.begin()->second) {
      ++bad;
      out.notes.push_back("request " + std::to_string(k) +
                          ": re-run body differs");
    }
  }

  out.attempted = p.attempted;
  out.failed = p.failed + bad;
  out.correct = out.failed == 0;
  out.notes.push_back("rows per request: " + std::to_string(shape.rows) +
                      " (" + std::to_string(shape.event_rows) + " on event, " +
                      std::to_string(shape.fallback_rows) +
                      " of them fallbacks)");
  out.notes.push_back("host.calib_ms: " + json::number(calib));

  if (!opt.trace) {
    end_to_end(out, p, setups, shape.rows, bad, Normalise::Everything);
    return out;
  }

  // Split the alternating run into its untraced and traced halves and
  // pair request 2i with 2i+1 (same seed) for the overhead ratio.
  std::vector<double> plain, traced, ratios;
  std::map<std::uint64_t, double> plain_by_seed;
  for (std::size_t i = 0; i < p.ok_k.size(); ++i) {
    const std::uint64_t k = p.ok_k[i];
    if (k % 2 == 0) {
      plain.push_back(p.latency_ms[i]);
      plain_by_seed[k / 2] = p.latency_ms[i];
    } else {
      traced.push_back(p.latency_ms[i]);
      if (const auto it = plain_by_seed.find(k / 2); it != plain_by_seed.end())
        ratios.push_back(p.latency_ms[i] / it->second);
    }
  }
  const double n = double(traced.size());
  SCPG_REQUIRE(n > 0, "no traced request completed");
  const double traced_p50 = quantile(traced, 0.5);
  const double all = 1e300; // every recorded span belongs to a traced request

  Layers l;
  span_means(l, spans, 0, all);
  engine_metrics(l, spans, 0, all, shape, n,
                 span_sum_ms(spans, "engine.run", 0, all));
  l["engine.cache_hit_ratio"] = double(traced_hits) / double(traced_rows);
  const double layers = l["campaign.build_ms"] + l["engine.prepare_ms"] +
                        l["engine.run_ms"] + l["serve.render_ms"];
  l["serve.residual_ms"] = mean(traced) - layers;
  l["serve.batch_size"] = 1.0; // every request is its own engine run
  l["serve.disk_bytes_per_row"] = 0.0;
  l["load.lag_p90_ms"] = 0.0; // closed loop: nothing is sent late
  l["trace.overhead_share"] = quantile(ratios, 0.5) - 1.0;
  // Self times of every named layer span inside the requests over the
  // requests' own span time: how much of a request the layers explain.
  double self_ms = 0;
  for (const char* name : {"campaign.build", "engine.prepare", "engine.run",
                           "engine.sweep", "engine.point", "serve.render"})
    self_ms += span_sum_ms(spans, name, 0, all, true);
  l["trace.self_cover_share"] = self_ms / span_sum_ms(spans, "request", 0, all);
  l["host.calib_ms"] = calib;
  per_layer(out, l);
  out.notes.push_back("untraced p50 " + json::number(quantile(plain, 0.5)) +
                      " ms, traced p50 " + json::number(traced_p50) + " ms");
  return out;
}

// --- serve_hot -----------------------------------------------------------------

RunResult run_serve_hot(const Library& lib, const Options& opt) {
  RunResult out;
  const double calib = calibrate_host_ms();
  const campaign::CampaignSpec spec =
      paper_sweep(opt.root + "/examples/netlists/mult8.v");

  // Set-up: start a daemon, compute each warmed seed's reference body
  // with a direct exec_sweep, and warm the daemon with the same 4
  // requests (whose bodies must already match).  The first daemon takes
  // the load; the others are only timed, then stopped (untimed).
  SetupClock setups;
  std::vector<std::uint64_t> seeds(kHotSeeds);
  for (int s = 0; s < kHotSeeds; ++s)
    seeds[std::size_t(s)] = request_seed(opt.seed, kHotBase + std::uint64_t(s));
  std::vector<std::string> refs(kHotSeeds);
  std::unique_ptr<engine::ResultCache> ref_cache;
  std::uint64_t bad = 0;
  const auto setup = [&] {
    setups.start();
    auto daemon =
        std::make_unique<Daemon>(lib, "hot" + std::to_string(setups.count()));
    ref_cache = std::make_unique<engine::ResultCache>("perfbench.ref");
    serve::Client warm(daemon->socket);
    for (int s = 0; s < kHotSeeds; ++s) {
      const serve::SweepRequest rq = sweep_request(spec, seeds[std::size_t(s)]);
      refs[std::size_t(s)] = serve::exec_sweep(lib, rq, ref_cache.get()).body;
      const serve::Response r = warm.call(served(rq));
      if (!r.status.ok || r.body != refs[std::size_t(s)]) ++bad;
    }
    setups.stop();
    return daemon;
  };
  std::unique_ptr<Daemon> d = setup();
  for (int k = 1; k < kSetupsPerGap; ++k) (void)setup();
  DirectStats shape;
  (void)direct_sweep(lib, sweep_request(spec, seeds[0]), *ref_cache, 0, &shape);
  probe_fallbacks(lib, sweep_request(spec, seeds[0]), shape);

  const auto make = [&](std::uint64_t k) {
    return served(sweep_request(spec, seeds[k % kHotSeeds]));
  };
  const auto check = [&](std::uint64_t k, const std::string& body) {
    return body == refs[k % kHotSeeds];
  };

  const double secs = opt.seconds / 2; // per phase of a traced run
  const Phase p =
      !opt.trace
          ? sliced_load(
                opt.seconds,
                [&](double slice, std::uint64_t base) {
                  return open_loop(
                      d->socket, slice,
                      [&](std::uint64_t k) { return make(base + k); },
                      [&](std::uint64_t k, const std::string& body) {
                        return check(base + k, body);
                      });
                },
                [&] { (void)setup(); })
          : open_loop(d->socket, secs, make, check);
  Phase tp;
  std::vector<Span> spans;
  Layers l;
  if (opt.trace) {
    const ServerStats s0 = server_stats(d->socket);
    const double bytes0 = file_bytes(d->cache_path);
    Phase t;
    trace_on(t);
    tp = open_loop(d->socket, secs, make, check);
    tp.t0_us = t.t0_us;
    tp.t1_us = obs::now_us();
    const ServerStats s1 = server_stats(d->socket);
    const double bytes1 = file_bytes(d->cache_path);
    // Attribution: the same requests through the spanned direct path
    // against a warm cache, as the daemon serves them.
    for (int j = 0; j < kAttributionSamples; ++j) {
      const serve::SweepRequest rq = sweep_request(spec, seeds[std::size_t(j % kHotSeeds)]);
      if (direct_sweep(lib, rq, *ref_cache, std::uint64_t(j)) !=
          refs[std::size_t(j % kHotSeeds)])
        ++bad;
      attribute_plan_layers(lib, rq.spec, std::uint64_t(j));
    }
    const double attrib_t1 = obs::now_us();
    obs::configure(false, false);
    spans = export_and_read_trace(trace_path(opt), "perfbench");

    serve_layers(l, spans, tp, tp.t1_us, attrib_t1, shape);
    const double new_rows = s1.cache_entries - s0.cache_entries;
    l["engine.cache_hit_ratio"] =
        1.0 - new_rows / (double(tp.completed()) * double(shape.rows));
    l["serve.batch_size"] = (s1.batched_requests - s0.batched_requests) /
                            (s1.batches - s0.batches);
    l["serve.disk_bytes_per_row"] =
        new_rows > 0 ? (bytes1 - bytes0) / new_rows : 0.0;
    l["load.lag_p90_ms"] = quantile(p.lag_ms, 0.9);
    l["trace.overhead_share"] =
        quantile(tp.latency_ms, 0.5) / quantile(p.latency_ms, 0.5) - 1.0;
    l["host.calib_ms"] = calib;
  }
  d.reset();

  out.attempted = p.attempted + tp.attempted;
  out.failed = p.failed + tp.failed + bad;
  out.correct = out.failed == 0;
  if (bad > 0)
    out.notes.push_back("warm-up or attribution body differs from exec_sweep");
  out.notes.push_back("rows per request: " + std::to_string(shape.rows) +
                      "; load.lag_p90_ms: " +
                      json::number(quantile(p.lag_ms, 0.9)));
  out.notes.push_back("host.calib_ms: " + json::number(calib));
  if (opt.trace) {
    per_layer(out, l);
  } else {
    end_to_end(out, p, setups, shape.rows, bad, Normalise::Latency);
  }
  return out;
}

// --- serve_cold ----------------------------------------------------------------

RunResult run_serve_cold(const Library& lib, const Options& opt) {
  RunResult out;
  const double calib = calibrate_host_ms();
  const campaign::CampaignSpec spec =
      paper_sweep(opt.root + "/examples/netlists/mult8.v");

  // Set-up: start a daemon and send one unmeasured request.  The first
  // daemon takes the load; the others are only timed, then stopped
  // (untimed).
  SetupClock setups;
  std::uint64_t bad = 0;
  const auto setup = [&] {
    const auto k = std::uint64_t(setups.count());
    setups.start();
    auto daemon = std::make_unique<Daemon>(lib, "cold" + std::to_string(k));
    const serve::Response r = serve::call_once(
        daemon->socket,
        served(sweep_request(spec, request_seed(opt.seed, kWarmBase + k))));
    if (!r.status.ok) ++bad;
    setups.stop();
    return daemon;
  };
  std::unique_ptr<Daemon> d = setup();
  for (int k = 1; k < kSetupsPerGap; ++k) (void)setup();
  DirectStats shape;
  {
    const serve::SweepRequest rq =
        sweep_request(spec, request_seed(opt.seed, kWarmBase));
    engine::ResultCache cache("perfbench.ref");
    (void)direct_sweep(lib, rq, cache, 0, &shape);
    probe_fallbacks(lib, rq, shape);
  }

  // The responses the checks read: the first of each batch (completions
  // more than kBatchGapMs apart start a new batch) and every
  // kColdSampleEvery-th request.  Only these bodies are kept, so memory
  // does not grow with the number of requests a run completes.
  struct Checked {
    std::uint64_t k;
    std::string body;
  };
  std::mutex done_m;
  std::vector<Checked> sample;
  std::size_t completions = 0;
  std::optional<Clock::time_point> last_done;
  std::vector<std::optional<serve::Client>> clients(kClients);
  auto request = [&](std::uint64_t k, int c) {
    auto& client = clients[std::size_t(c)];
    if (!client) client.emplace(d->socket);
    serve::Response r;
    try {
      obs::Scope span("request", "perfbench");
      if (obs::trace_enabled())
        span.args("{\"req\": " + std::to_string(k) + "}");
      r = client->call(served(sweep_request(spec, request_seed(opt.seed, k))));
    } catch (...) {
      client.reset();
      throw;
    }
    if (!r.status.ok) return false;
    const std::lock_guard lock(done_m);
    const auto now = Clock::now();
    if (!last_done || ms_between(*last_done, now) > kBatchGapMs ||
        k % kColdSampleEvery == 0)
      sample.push_back({k, std::move(r.body)});
    last_done = now;
    ++completions;
    return true;
  };

  const double secs = opt.seconds / 2; // per phase of a traced run
  const ServerStats s0 = server_stats(d->socket);
  const double bytes0 = file_bytes(d->cache_path);
  const auto untimed = [](std::uint64_t) {};
  const Phase p =
      !opt.trace
          ? sliced_load(
                opt.seconds,
                [&](double slice, std::uint64_t base) {
                  return closed_loop(
                      slice, kClients, kColdSloMs,
                      [&](std::uint64_t k, int c) { return request(base + k, c); },
                      untimed);
                },
                [&] { (void)setup(); })
          : closed_loop(secs, kClients, kColdSloMs, request, untimed);
  const ServerStats s1 = server_stats(d->socket);
  const double bytes1 = file_bytes(d->cache_path);
  Phase tp;
  ServerStats s2 = s1;
  std::vector<Span> spans;
  double attrib_t1 = 0;
  if (opt.trace) {
    const std::uint64_t base = p.attempted;
    trace_on(tp);
    Phase t = closed_loop(
        secs, kClients, kColdSloMs,
        [&](std::uint64_t k, int c) { return request(base + k, c); },
        untimed);
    t.t0_us = tp.t0_us;
    tp = std::move(t);
    tp.t1_us = obs::now_us();
    s2 = server_stats(d->socket);
  }

  // Checks (outside the timed region): every kept response must equal a
  // direct exec_sweep.
  if (opt.trace) {
    // Traced attribution: the first samples through the spanned direct
    // path (a solo, uncached run of the same request), one at a time.
    for (std::size_t j = 0; j < sample.size() && j < kAttributionSamples; ++j) {
      const serve::SweepRequest rq =
          sweep_request(spec, request_seed(opt.seed, sample[j].k));
      engine::ResultCache cache("perfbench.ref");
      if (direct_sweep(lib, rq, cache, sample[j].k) != sample[j].body) ++bad;
      attribute_plan_layers(lib, rq.spec, sample[j].k);
    }
    attrib_t1 = obs::now_us();
    obs::configure(false, false);
    spans = export_and_read_trace(trace_path(opt), "perfbench");
  }
  {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kClients; ++t)
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < sample.size();
             i = next.fetch_add(1)) {
          try {
            engine::ResultCache cache("perfbench.check");
            const std::string ref =
                serve::exec_sweep(
                    lib, sweep_request(spec, request_seed(opt.seed, sample[i].k)),
                    &cache)
                    .body;
            if (ref != sample[i].body) mismatches.fetch_add(1);
          } catch (const std::exception&) {
            mismatches.fetch_add(1);
          }
        }
      });
    for (std::thread& t : pool) t.join();
    if (mismatches > 0)
      out.notes.push_back(std::to_string(mismatches.load()) +
                          " served bodies differ from exec_sweep");
    bad += mismatches;
  }
  out.notes.push_back("checked " + std::to_string(sample.size()) + " of " +
                      std::to_string(completions) + " responses");

  // Every written row must survive a reopen of the cache file.
  const double entries = server_stats(d->socket).cache_entries;
  const std::string cache_path = d->cache_path;
  clients.clear();
  d.reset();
  {
    engine::ResultCache mem("perfbench.reload");
    serve::DiskCache disk(cache_path, mem);
    const serve::DiskCache::LoadReport rep = disk.open();
    disk.close();
    if (rep.rejected != 0 || double(rep.loaded) != entries) {
      ++bad;
      out.notes.push_back("disk cache reload: loaded " +
                          std::to_string(rep.loaded) + " of " +
                          json::number(entries) + " entries, rejected " +
                          std::to_string(rep.rejected));
    }
  }

  const double new_rows = s1.cache_entries - s0.cache_entries;
  out.attempted = p.attempted + tp.attempted;
  out.failed = p.failed + tp.failed + bad;
  out.correct = out.failed == 0;
  out.notes.push_back("batch size: " +
                      json::number((s1.batched_requests - s0.batched_requests) /
                                   (s1.batches - s0.batches)) +
                      "; rows per request: " + std::to_string(shape.rows) +
                      "; new cache rows per request: " +
                      json::number(new_rows / double(p.completed())));
  out.notes.push_back("host.calib_ms: " + json::number(calib));

  if (!opt.trace) {
    end_to_end(out, p, setups, shape.rows, bad, Normalise::Everything);
    return out;
  }

  Layers l;
  serve_layers(l, spans, tp, tp.t1_us, attrib_t1, shape);
  l["engine.cache_hit_ratio"] =
      1.0 - (s2.cache_entries - s1.cache_entries) /
                (double(tp.completed()) * double(shape.rows));
  l["serve.batch_size"] =
      (s2.batched_requests - s1.batched_requests) / (s2.batches - s1.batches);
  l["serve.disk_bytes_per_row"] = (bytes1 - bytes0) / new_rows;
  l["load.lag_p90_ms"] = 0.0; // closed loop: nothing is sent late
  l["trace.overhead_share"] =
      quantile(tp.latency_ms, 0.5) / quantile(p.latency_ms, 0.5) - 1.0;
  l["host.calib_ms"] = calib;
  per_layer(out, l);
  return out;
}

} // namespace perfbench
