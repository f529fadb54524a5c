// The benchmark's three workloads and one pass over each.
//
// Every workload runs both of the paper's flows; they differ in how much
// of each.  The Sec. 3 synthesis flow takes a list of designs from
// object text to a PASS verdict, Verilog and a testbench.  The Fig. 4
// refinement flow replays one seeded command stream on the LT,
// functional, pin-level and synthesised-RTL rungs and then runs the
// waveform check.  A design pass takes every design through the flow
// once; a ladder pass runs the ladder once.  A run repeats cycles of one
// design pass and `ladder_passes` ladder passes for its time budget.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hlcs/pattern/command.hpp"
#include "trace.hpp"

namespace flowbench {

struct DesignSpec {
  std::string object;  ///< mailbox | semaphore | counters | channel
  std::string policy;  ///< as hlcs_synth --policy spells it
  std::size_t clients = 1;
};

/// Command counts per rung.  LT replays the same commands as the
/// functional rung (the reference every rung is compared with), so each
/// rung's count is at most `functional`.
struct LadderSpec {
  std::size_t functional = 0;
  std::size_t pin = 0;
  std::size_t rtl = 0;
  std::size_t wave = 0;  ///< commands in each traced run of the waveform check
};

struct WorkloadSpec {
  std::string name;
  std::vector<DesignSpec> designs;
  std::size_t lanes = 1;
  std::size_t cycles = 1000;
  LadderSpec ladder;
  unsigned ladder_passes = 1;  ///< ladder passes per design pass
};

enum class Part { Ladder, Designs };

/// The named workload; throws hlcs::Error on an unknown name.
WorkloadSpec workload_spec(const std::string& name);
const std::vector<std::string>& workload_names();
/// The same work shape at a small fraction of the cost (for tests).
WorkloadSpec reduced(WorkloadSpec w);

/// One design's pass through the Sec. 3 flow (zero if it failed).
struct DesignTimes {
  double flow_s = 0;   ///< object text to verified Verilog + testbench
  double equiv_s = 0;  ///< inside check_equivalence
};

/// Results of one pass.  `samples` holds the ladder's raw observations
/// and the pass's set-up time (end-to-end metrics are their medians over
/// the run); `designs` holds
/// one entry per design, in workload order; `counts` holds every
/// per-layer count, which must repeat exactly for a seed.
struct PassResult {
  Part part = Part::Ladder;
  std::int64_t pass_ns = 0;  ///< pass host time, untimed checks excluded
  std::size_t span_begin = 0;  ///< the pass's spans in the tracer
  std::size_t span_end = 0;
  std::map<std::string, std::vector<double>> samples;
  std::vector<DesignTimes> designs;
  std::map<std::string, double> counts;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

struct PassContext {
  std::string objs_dir;  ///< directory holding the .obj inputs
  std::string work_dir;  ///< scratch directory for the VCD dumps
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;
  std::uint32_t next_op = 0;  ///< operation ids, running across passes
  /// Passes run so far, per part.  The p-th pass of a part draws its
  /// inputs from lane p of the part's seed, so a run measures many
  /// streams and stimuli, not one.
  std::uint64_t passes[2] = {0, 0};
  /// The command stream the ladder passes replay, made by the last
  /// design pass's set-up (before its designs run).
  std::vector<hlcs::pattern::CommandType> stream;
  /// Designs whose emitted netlist has been checked.  Every pass of a
  /// run synthesises the same netlists, so each is checked once a run.
  std::set<std::string> netlists_checked;
};

PassResult run_pass(const WorkloadSpec& w, Part part, PassContext& ctx);

}  // namespace flowbench
