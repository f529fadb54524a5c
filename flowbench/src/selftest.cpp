// Determinism test for the benchmark itself: each workload at reduced
// size runs twice per seed (once untraced, once traced) and must give
// identical per-layer counts, no failed operation, and counts that do
// depend on the seed.
//
//   flowbench_selftest OBJS_DIR WORK_DIR
#include <cstdio>
#include <filesystem>
#include <string>

#include "workload.hpp"

namespace {

using namespace flowbench;

// Counts named by the benchmark doc as exactly repeatable; each must be
// exercised (non-zero) by every workload.
const char* const kRequired[] = {
    "synth.equiv_lane_cycles", "synth.equiv_grants",
    "synth.verilog_bytes",     "synth.testbench_bytes",
    "sim.sim_ps.lt",           "sim.sim_ps.pin",
    "sim.sim_ps.rtl",          "sim.deltas.functional",
    "sim.deltas.pin",          "sim.deltas.rtl",
    "sim.deltas.wave",         "pci.tenures.pin",
    "pci.tenures.rtl",         "sim.vcd_bytes",
    "check.prop_attempts",     "osss.grants.functional"};

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// One design pass and one ladder pass, as a run starts them.
PassResult run(const WorkloadSpec& w, const std::string& objs,
               const std::string& work, std::uint64_t seed, bool traced) {
  Tracer tr(traced);
  PassContext ctx;
  ctx.objs_dir = objs;
  ctx.work_dir = work;
  ctx.seed = seed;
  ctx.tracer = &tr;
  PassResult out = run_pass(w, Part::Designs, ctx);
  const PassResult ladder = run_pass(w, Part::Ladder, ctx);
  out.counts.insert(ladder.counts.begin(), ladder.counts.end());
  out.attempted += ladder.attempted;
  out.failures.insert(out.failures.end(), ladder.failures.begin(),
                      ladder.failures.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s OBJS_DIR WORK_DIR\n", argv[0]);
    return 2;
  }
  const std::string objs = argv[1], work = argv[2];
  std::filesystem::create_directories(work);
  for (const std::string& name : workload_names()) {
    const WorkloadSpec w = reduced(workload_spec(name));
    std::map<std::string, double> by_seed[2];
    for (std::uint64_t seed : {1u, 2u}) {
      const PassResult a = run(w, objs, work, seed, false);
      const PassResult b = run(w, objs, work, seed, true);
      const std::string at = name + " seed " + std::to_string(seed);
      for (const PassResult* r : {&a, &b}) {
        for (const std::string& f : r->failures) expect(false, at + ": " + f);
        expect(r->attempted > 0, at + ": no operations attempted");
      }
      expect(a.counts == b.counts, at + ": counts differ between two runs");
      for (const char* key : kRequired) {
        const auto it = a.counts.find(key);
        expect(it != a.counts.end() && it->second > 0,
               at + ": count " + key + " missing or zero");
      }
      by_seed[seed - 1] = a.counts;
      std::fprintf(stderr, "%s: %zu operations, %zu counts\n", at.c_str(),
                   a.attempted, a.counts.size());
    }
    expect(by_seed[0] != by_seed[1],
           name + ": counts do not depend on the seed");
  }
  std::fprintf(stderr, "%s\n", failures ? "flowbench selftest FAILED"
                                        : "flowbench selftest PASS");
  return failures ? 1 : 0;
}
