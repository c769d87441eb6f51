// The direct sweep path and the per-layer attribution calls, each layer
// call wrapped in a span named after its metric.
#include <fstream>

#include "common.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "scpg/model.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace scpg;

namespace {

constexpr std::string_view kCat = "perfbench";

/// A span named after its metric, tagged with the request id.
class LayerSpan {
public:
  LayerSpan(std::string_view name, std::uint64_t req) : scope_(name, kCat) {
    if (obs::trace_enabled())
      scope_.args("{\"req\": " + std::to_string(req) + "}");
  }

private:
  obs::Scope scope_;
};

} // namespace

std::string direct_sweep(const Library& lib, const serve::SweepRequest& rq,
                         engine::ResultCache& cache, std::uint64_t req,
                         DirectStats* stats) {
  campaign::CampaignPlan plan;
  {
    const LayerSpan s("campaign.build", req);
    plan = campaign::build_campaign(lib, rq.spec, rq.jobs, &cache);
  }
  {
    // The design gate (the linter) and the row digests; run() would do
    // this first thing, so splitting it out changes no work.
    const LayerSpan s("engine.prepare", req);
    (void)plan.experiment->points();
  }
  engine::SweepResult res;
  {
    const LayerSpan s("engine.run", req);
    res = plan.experiment->run();
  }
  std::string body;
  {
    const LayerSpan s("serve.render", req);
    body = serve::render_sweep_body(
        plan, rq, [&](const std::string& tag) { return res.find(tag); });
  }
  if (stats != nullptr) {
    *stats = DirectStats{};
    stats->rows = res.size();
    stats->cache_hits = res.cache_hits();
    for (const engine::PointResult& r : res) {
      const bool event = r.backend == sim::Backend::Event;
      stats->event_rows += event ? 1 : 0;
      stats->is_event[r.point.tag] = event;
    }
  }
  return body;
}

void probe_fallbacks(const Library& lib, const serve::SweepRequest& rq,
                     DirectStats& stats) {
  engine::ResultCache cache("perfbench.probe");
  const campaign::CampaignPlan plan =
      campaign::build_campaign(lib, rq.spec, rq.jobs, &cache);
  const std::vector<engine::OperatingPoint>& pts = plan.experiment->points();
  const obs::Counter& fallbacks = obs::Registry::global().counter(
      "sim.backend.compiled.dynamic_fallbacks");
  const bool tracing = obs::trace_enabled();
  const bool metrics = obs::metrics_enabled();
  obs::configure(true, tracing);
  for (std::size_t row = 0; row < pts.size(); ++row) {
    bool& event = stats.is_event.at(pts[row].tag);
    if (event) continue;
    const std::uint64_t before = fallbacks.value();
    (void)plan.experiment->run_row(row);
    if (fallbacks.value() == before) continue;
    event = true;
    stats.fell_back.insert(pts[row].tag);
    ++stats.event_rows;
    ++stats.fallback_rows;
  }
  obs::configure(metrics, tracing);
}

void attribute_plan_layers(const Library& lib,
                           const campaign::CampaignSpec& spec,
                           std::uint64_t req) {
  const Netlist original = [&] {
    const LayerSpan s("netlist.parse", req);
    std::ifstream in(spec.netlist_path);
    if (!in) throw Error("cannot open input netlist: " + spec.netlist_path);
    return read_verilog(in, lib, {}, spec.netlist_path);
  }();
  bool already_gated = false;
  for (std::uint32_t ci = 0; ci < original.num_cells(); ++ci)
    if (original.cell(CellId{ci}).domain == Domain::Gated) already_gated = true;

  Netlist gated = original;
  const power::Policy* pol = power::find_policy(spec.policy);
  SCPG_REQUIRE(pol != nullptr, "unknown power policy: " + spec.policy);
  if (!already_gated && pol->transforms()) {
    const LayerSpan s("policy.apply", req);
    power::PolicyOptions popt;
    popt.clock_port = spec.clock_port;
    (void)pol->apply(gated, popt);
  }

  const Corner corner{Voltage{spec.vdd}, spec.temp_c};
  volatile double sink = 0;
  {
    const LayerSpan s("scpg.model", req);
    SimConfig cfg;
    cfg.corner = corner;
    const Energy e_dyn =
        campaign::estimate_dynamic_energy(gated, corner, spec.activity);
    sink = ScpgPowerModel::extract(gated, cfg, e_dyn).p_always_on().v;
  }
  {
    const LayerSpan s("sta.run", req);
    sink = run_sta(gated, corner).t_eval.v;
  }
  {
    // The engine gate lints both designs of the plan with these options
    // (lint::install_engine_gate).
    const LayerSpan s("lint.run", req);
    lint::LintOptions lopt;
    lopt.clock_port = spec.clock_port;
    lopt.policy = spec.policy;
    sink = double(lint::run_lint(original, lopt).errors() +
                  lint::run_lint(gated, lopt).errors());
  }
  (void)sink;
}

} // namespace perfbench
