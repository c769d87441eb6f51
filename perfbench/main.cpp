// perfbench: end-to-end and per-layer benchmark of the paper's request,
// a power-vs-frequency sweep with SCPG engaged.
//
//   perfbench --workload sweep_scpg|serve_hot|serve_cold --seed N
//             --seconds S --trace 0|1 --root CHECKOUT
//
// Runs in the current directory (its scratch files go there) and prints
// a few human-readable lines, then one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit 0 when every check passed, 1 when a check failed, 2 on bad
// arguments, 3 when the run itself could not complete.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "lint/lint.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep_scpg|serve_hot|serve_cold"
               " --seed N --seconds S --trace 0|1 --root DIR\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_flag = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") trace_flag = v;
      else if (a == "--root") opt.root = v;
      else return usage("unknown option " + a);
    } catch (const std::exception&) {
      return usage("bad value for " + a + ": " + v);
    }
  }
  if (trace_flag != "0" && trace_flag != "1")
    return usage("--trace takes 0 or 1");
  opt.trace = trace_flag == "1";
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  if (opt.root.empty()) return usage("--root is required");

  RunResult r;
  try {
    const scpg::Library lib = scpg::Library::scpg90();
    // Same engine gate as `scpgc sweep` and `scpgc serve` by default.
    scpg::lint::install_engine_gate();
    if (opt.workload == "sweep_scpg") r = run_sweep_scpg(lib, opt);
    else if (opt.workload == "serve_hot") r = run_serve_hot(lib, opt);
    else if (opt.workload == "serve_cold") r = run_serve_cold(lib, opt);
    else return usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 3;
  }
  // A failed check of a non-request output (e.g. the cache reload) adds
  // to `failed`; keep the count a share of what was attempted.
  r.failed = std::min(r.failed, r.attempted);

  std::cout << "workload " << opt.workload << ", seed " << opt.seed
            << ", trace " << trace_flag << ": attempted " << r.attempted
            << ", succeeded " << r.attempted - r.failed
            << ", failed " << r.failed << "\n";
  for (const std::string& n : r.notes) std::cout << "  " << n << "\n";
  for (const auto& [name, m] : r.metrics)
    std::cout << "  " << name << " = " << scpg::json::number(m.value) << " "
              << m.unit << "\n";

  std::ostringstream line;
  scpg::json::Writer w(line);
  w.begin_object(scpg::json::Writer::Style::Compact);
  w.key("correct").value(r.correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object(scpg::json::Writer::Style::Compact);
  for (const auto& [name, m] : r.metrics) {
    w.key(name).begin_object(scpg::json::Writer::Style::Compact);
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return r.correct ? 0 : 1;
}
