// flowbench: the whole-flow benchmark.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             --objs DIR --work DIR
//
// Repeats cycles of passes of the workload (workload.hpp) for S seconds
// of wall time; every time it reports is host CPU time (trace.hpp).
// --trace 0 prints the end-to-end metrics (medians over the passes);
// --trace 1 alternates untraced and traced passes and prints the
// per-layer metrics from the traced ones.  A human-readable report goes
// to stderr; the last line of stdout is one JSON object.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace flowbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

const char* const kLayers[] = {"synth",   "sim",   "tlm",   "pattern",
                               "pci",     "osss",  "check", "verify"};
const char* const kRungs[] = {"lt", "functional", "pin", "rtl"};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, 0 < p <= 1.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Process memory high-water mark in MB (10^6 bytes).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024 / 1e6;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double count(const std::map<std::string, double>& counts,
             const std::string& k) {
  const auto it = counts.find(k);
  return it == counts.end() ? 0.0 : it->second;
}

std::vector<const PassResult*> of_part(const std::vector<PassResult>& passes,
                                       Part part) {
  std::vector<const PassResult*> out;
  for (const PassResult& p : passes) {
    if (p.part == part) out.push_back(&p);
  }
  return out;
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> all;
  for (const PassResult& p : passes) {
    for (const auto& [k, v] : p.samples) {
      all[k].insert(all[k].end(), v.begin(), v.end());
    }
  }
  auto m = [&](const char* name) { return median(all[name]); };
  // Each design's times are medians over the passes, so a burst of host
  // load during one pass moves one sample, not the metric.
  const std::vector<const PassResult*> design_passes =
      of_part(passes, Part::Designs);
  double flow_s = 0, equiv_s = 0;
  const std::size_t designs = design_passes.front()->designs.size();
  for (std::size_t d = 0; d < designs; ++d) {
    std::vector<double> flow, equiv;
    for (const PassResult* p : design_passes) {
      flow.push_back(p->designs[d].flow_s);
      equiv.push_back(p->designs[d].equiv_s);
    }
    flow_s += median(flow);
    equiv_s += median(equiv);
  }
  const std::map<std::string, double>& c = design_passes.front()->counts;
  const double bytes =
      count(c, "synth.verilog_bytes") + count(c, "synth.testbench_bytes");
  return {
      {"designs_per_s", ratio(static_cast<double>(designs), flow_s),
       "designs/s"},
      {"verify_lane_cycles_per_s",
       ratio(count(c, "synth.equiv_lane_cycles"), equiv_s), "lane-cycles/s"},
      {"verilog_mb", bytes / 1e6, "MB"},
      {"lt_txn_per_s", m("lt_txn_per_s"), "txn/s"},
      {"functional_txn_per_s", m("functional_txn_per_s"), "txn/s"},
      {"pin_txn_per_s", m("pin_txn_per_s"), "txn/s"},
      {"rtl_txn_per_s", m("rtl_txn_per_s"), "txn/s"},
      {"waveform_check_s", m("waveform_check_s"), "s"},
      {"setup_s", m("ladder_setup_s") + m("design_setup_s"), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer metrics: span self times rolled up by stage and by layer,
/// each a mean per traced pass of the part it ran in, plus the counts of
/// the first traced pass of each part.
std::vector<Metric> per_layer(const WorkloadSpec& w, const Tracer& tr,
                              const std::vector<PassResult>& traced,
                              const std::vector<PassResult>& untraced) {
  const std::vector<Span>& spans = tr.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  // Keyed "<module>.<stage>_s[.<rung>]" and "<module>".
  std::map<std::string, double> stage_self, stage_total, layer_self;
  std::map<std::string, double> counts;
  std::vector<double> design_s;
  double traced_s = 0, overhead = 0;
  for (Part part : {Part::Ladder, Part::Designs}) {
    const std::vector<const PassResult*> mine = of_part(traced, part);
    const double n = static_cast<double>(mine.size());
    std::vector<double> times, plain_times;
    for (const PassResult* p : mine) {
      times.push_back(seconds(p->pass_ns));
      traced_s += seconds(p->pass_ns) / n;
      for (const DesignTimes& d : p->designs) design_s.push_back(d.flow_s);
      for (std::size_t i = p->span_begin; i < p->span_end; ++i) {
        const Span& s = spans[i];
        const double total = seconds(s.end_ns - s.start_ns) / n;
        const double self = total - seconds(child_ns[i]) / n;
        const std::string key =
            std::string(s.name) + "_s" + (*s.tag ? "." : "") + s.tag;
        stage_self[key] += self;
        stage_total[key] += total;
        const char* dot = std::strchr(s.name, '.');
        layer_self[std::string(s.name, dot ? dot : s.name)] += self;
      }
    }
    for (const PassResult* p : of_part(untraced, part)) {
      plain_times.push_back(seconds(p->pass_ns));
    }
    overhead += median(times) - median(plain_times);
    counts.insert(mine.front()->counts.begin(), mine.front()->counts.end());
  }
  auto self = [&](const std::string& k) { return stage_self[k]; };
  // A stage's self time summed over every rung.
  auto all_rungs = [&](const std::string& stage) {
    double t = 0;
    for (const auto& [k, v] : stage_self) {
      if (k.rfind(stage, 0) == 0) t += v;
    }
    return t;
  };
  auto count = [&](const std::string& k) { return ::count(counts, k); };

  std::vector<Metric> out;
  auto add = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  for (const char* stage : {"parse", "synthesize", "optimize", "equiv",
                            "verilog", "testbench"}) {
    const std::string k = std::string("synth.") + stage + "_s";
    add(k, self(k), "s");
  }
  add("synth.verilog_bytes", count("synth.verilog_bytes"), "bytes");
  add("synth.testbench_bytes", count("synth.testbench_bytes"), "bytes");
  add("synth.equiv_lane_cycles", count("synth.equiv_lane_cycles"),
      "lane-cycles");
  add("synth.equiv_grants", count("synth.equiv_grants"), "count");
  add("synth.equiv_ns_per_lane_cycle",
      ratio(self("synth.equiv_s") * 1e9, count("synth.equiv_lane_cycles")),
      "ns");
  add("synth.comb_nodes", count("synth.comb_nodes"), "count");
  add("synth.opt_nodes_removed", count("synth.opt_nodes_removed"), "count");
  add("synth.design_s_p50", percentile(design_s, 0.5), "s");
  add("synth.design_s_p90", percentile(design_s, 0.9), "s");
  add("synth.design_samples", static_cast<double>(design_s.size()), "count");

  for (const char* rung : {"lt", "functional", "pin", "rtl", "wave"}) {
    const std::string r(rung);
    add("sim.run_s." + r, self("sim.run_s." + r), "s");
    add("sim.build_s." + r, stage_total["sim.build_s." + r], "s");
    add("sim.deltas." + r, count("sim.deltas." + r), "count");
  }
  for (const char* rung : kRungs) {
    const std::string r(rung);
    add("sim.timed_actions." + r, count("sim.timed_actions." + r), "count");
    add("sim.host_ns_per_delta." + r,
        ratio(self("sim.run_s." + r) * 1e9, count("sim.deltas." + r)), "ns");
    add("sim.sim_ps." + r, count("sim.sim_ps." + r), "ps");
    add("osss.grants." + r, count("osss.grants." + r), "count");
  }
  add("sim.teardown_s", all_rungs("sim.teardown_s"), "s");
  const double wave_txns = 2.0 * static_cast<double>(w.ladder.wave);
  add("sim.trace_ns_per_txn",
      ratio(self("sim.run_s.wave") * 1e9, wave_txns), "ns");
  add("sim.vcd_bytes", count("sim.vcd_bytes"), "bytes");

  add("tlm.workload_gen_s", self("tlm.workload_gen_s"), "s");
  add("tlm.quanta", count("tlm.quanta"), "count");
  add("tlm.time_warps", count("tlm.time_warps"), "count");
  add("tlm.dmi_hit_ratio",
      ratio(count("tlm.dmi_hits"),
            count("tlm.dmi_hits") + count("tlm.dmi_misses")),
      "ratio");
  add("tlm.batched_calls", count("tlm.batched_calls"), "count");
  add("pci.tenures.pin", count("pci.tenures.pin"), "count");
  add("pci.tenures.rtl", count("pci.tenures.rtl"), "count");
  add("check.prop_attempts", count("check.prop_attempts"), "count");
  add("check.prop_fails", count("check.prop_fails"), "count");

  const double vcd_s = self("verify.vcd_compare_s.wave");
  add("verify.vcd_compare_s", vcd_s, "s");
  add("verify.vcd_mb_per_s", ratio(count("sim.vcd_bytes") / 1e6, vcd_s),
      "MB/s");
  add("verify.transcript_compare_s",
      all_rungs("verify.transcript_compare_s"), "s");
  add("verify.coverage_s", all_rungs("verify.coverage_s"), "s");

  double self_sum = 0;
  for (const char* layer : kLayers) {
    const double s = layer_self[layer];
    self_sum += s;
    add(std::string("layer.") + layer + ".self_s", s, "s");
    add(std::string("layer.") + layer + ".share", ratio(s, traced_s), "ratio");
  }
  add("traced_cpu_s", traced_s, "s");
  add("self_time_sum_s", self_sum, "s");
  add("unattributed_s", traced_s - self_sum, "s");
  add("unattributed_share", ratio(traced_s - self_sum, traced_s), "ratio");
  add("trace_overhead_s", overhead, "s");
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string objs = "tools/objs";
  std::string work = ".bench_build/flowbench/work";
};

int usage(const char* why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--objs DIR] [--work DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 0);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) {
        return usage("--trace takes 0 or 1");
      }
    } else if (k == "--objs") {
      a.objs = v;
    } else if (k == "--work") {
      a.work = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
    if (end && *end) return usage(("bad number for " + k).c_str());
  }
  if (a.workload.empty()) return usage("--workload is required");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  try {
    const WorkloadSpec w = workload_spec(a.workload);
    std::filesystem::create_directories(a.work);
    Tracer off(false), on(true);
    PassContext ctx;
    ctx.objs_dir = a.objs;
    ctx.work_dir = a.work;
    ctx.seed = a.seed;
    std::vector<PassResult> plain, traced;
    // The run lasts --seconds of wall time, untimed checks included, so
    // its length does not depend on the host's load.  Cycling the two
    // parts spreads each part's samples over the whole run.
    const auto start = std::chrono::steady_clock::now();
    const auto budget = std::chrono::duration<double>(a.seconds);
    auto pass = [&](Part part) {
      ctx.tracer = &off;
      plain.push_back(run_pass(w, part, ctx));
      if (a.trace) {
        ctx.tracer = &on;
        traced.push_back(run_pass(w, part, ctx));
      }
    };
    do {
      pass(Part::Designs);
      for (unsigned i = 0; i < w.ladder_passes; ++i) pass(Part::Ladder);
    } while (std::chrono::steady_clock::now() - start < budget);

    std::size_t attempted = 0, failed = 0;
    for (const auto* set : {&plain, &traced}) {
      for (const PassResult& p : *set) {
        attempted += p.attempted;
        failed += p.failed;
        for (const std::string& f : p.failures) {
          std::fprintf(stderr, "FAILED: %s\n", f.c_str());
        }
      }
    }

    const std::vector<Metric> metrics =
        a.trace ? per_layer(w, on, traced, plain) : end_to_end(plain);
    std::fprintf(stderr,
                 "flowbench %s seed=%llu: %zu untraced + %zu traced passes, "
                 "%zu operations, %zu failed\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.seed),
                 plain.size(), traced.size(), attempted, failed);
    for (const Metric& m : metrics) {
      std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    if (a.trace) {
      const std::string path = a.work + "/spans-" + w.name + "-" +
                               std::to_string(a.seed) + ".json";
      if (on.write(path)) {
        std::fprintf(stderr, "spans written to %s\n", path.c_str());
      }
    }

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += (i ? ", \"" : "\"") + metrics[i].name +
              "\": {\"value\": " + number(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
