#include "workload.hpp"

#include <fstream>
#include <sstream>

#include "hlcs/osss/arbitration.hpp"
#include "hlcs/sim/assert.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "ladder.hpp"
#include "synth_flow.hpp"

namespace flowbench {

namespace {

// Seed lanes: the command stream and, per design i, the equivalence
// stimulus (lane 2i) and the emitted-netlist check (lane 2i+1).
constexpr std::uint64_t kStreamLane = 0xF16'4000;

// The ladder counts give the rungs comparable host time, 30-130 ms each
// on a 2 GHz x86-64 core (LT replays the functional rung's commands).
// Every workload runs this ladder; the synthesis workloads run three
// ladder passes per design pass, so the ladder stays small next to their
// designs.  Rung runs a fifth as long spread up to twice as much from
// run to run.
constexpr LadderSpec kLadder{
    .functional = 50000, .pin = 20000, .rtl = 1500, .wave = 750};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) hlcs::fail("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"synth-sweep", "verify-wide",
                                                 "refine-ladder"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "synth-sweep") {
    for (const char* object : {"mailbox", "semaphore", "counters", "channel"}) {
      for (const char* policy : {"static_priority", "round_robin", "fifo",
                                 "random", "adaptive"}) {
        for (std::size_t clients : {1, 2, 4, 8, 16, 32}) {
          w.designs.push_back(DesignSpec{object, policy, clients});
        }
      }
    }
    w.lanes = 1;
    w.cycles = 1000;
    w.ladder = kLadder;
    w.ladder_passes = 3;
  } else if (name == "verify-wide") {
    w.designs = {{"mailbox", "round_robin", 4},
                 {"semaphore", "fifo", 4},
                 {"counters", "adaptive", 4},
                 {"channel", "fifo", 2}};
    w.lanes = 256;
    w.cycles = 2000;
    w.ladder = kLadder;
    w.ladder_passes = 3;
  } else if (name == "refine-ladder") {
    // The channel the RTL rung co-simulates, taken through the Sec. 3 flow.
    w.designs = {{"channel", "fifo", 2}};
    w.lanes = 1;
    w.cycles = 1000;
    w.ladder = kLadder;
    w.ladder_passes = 1;
  } else {
    hlcs::fail("unknown workload '" + name +
               "' (synth-sweep, verify-wide or refine-ladder)");
  }
  return w;
}

WorkloadSpec reduced(WorkloadSpec w) {
  std::vector<DesignSpec> few;
  for (std::size_t i = 0; i < w.designs.size(); i += 13) {
    few.push_back(w.designs[i]);
    few.back().clients = std::min<std::size_t>(few.back().clients, 4);
  }
  w.designs = few;
  w.lanes = std::min<std::size_t>(w.lanes, 8);
  w.cycles = 200;
  w.ladder = LadderSpec{.functional = 400, .pin = 100, .rtl = 20, .wave = 40};
  return w;
}

PassResult run_pass(const WorkloadSpec& w, Part part, PassContext& ctx) {
  namespace sim = hlcs::sim;
  PassResult out;
  out.part = part;
  Tracer& tr = *ctx.tracer;
  out.span_begin = tr.spans().size();
  const std::int64_t p0 = cpu_ns();
  std::int64_t untimed_ns = 0;
  const auto k = static_cast<std::size_t>(part);
  const std::uint64_t seed =
      sim::lane_seed(sim::lane_seed(ctx.seed, k), ctx.passes[k]++);
  const std::uint32_t setup_op = ctx.next_op++;

  if (part == Part::Ladder) {
    const LadderTimes t = run_ladder(w.ladder, ctx.stream, ctx, out);
    untimed_ns += t.untimed_ns;
    out.samples["ladder_setup_s"].push_back(seconds(t.setup_ns));
  } else {
    // Set-up: read the object texts, derive every seeded input.
    std::map<std::string, std::string> sources;
    for (const DesignSpec& d : w.designs) {
      if (d.object != "channel" && !sources.count(d.object)) {
        sources[d.object] = read_file(ctx.objs_dir + "/" + d.object + ".obj");
      }
    }
    std::vector<DesignJob> jobs;
    for (std::size_t i = 0; i < w.designs.size(); ++i) {
      const DesignSpec& d = w.designs[i];
      DesignJob job;
      job.label = d.object + "/" + std::to_string(d.clients) + "/" + d.policy;
      job.source = d.object == "channel" ? nullptr : &sources.at(d.object);
      job.opt.clients = d.clients;
      job.opt.policy = traced(tr, "osss.parse_policy", setup_op, [&] {
        return hlcs::osss::parse_policy(d.policy);
      });
      job.eopt = hlcs::synth::EquivOptions{
          .cycles = w.cycles, .seed = sim::lane_seed(seed, 2 * i),
          .lanes = w.lanes};
      job.netlist_check_seed = sim::lane_seed(seed, 2 * i + 1);
      job.check_netlist = ctx.netlists_checked.insert(job.label).second;
      jobs.push_back(std::move(job));
    }
    // The stream for this cycle's ladder passes.  It is made here, before
    // the designs run, so that its memory does not land in the heap the
    // design flow leaves behind: made after 120 designs, the ladder's
    // rates swung by up to 30% from run to run.
    ctx.stream = traced(tr, "tlm.workload_gen", setup_op, [&] {
      return hlcs::tlm::random_workload(
          hlcs::tlm::WorkloadConfig{
              .base = 0x1000,
              .span = 0x400,
              .seed = sim::lane_seed(seed, kStreamLane)},
          w.ladder.functional);
    });
    out.samples["design_setup_s"].push_back(seconds(cpu_ns() - p0));

    for (const DesignJob& job : jobs) {
      const DesignOutcome d = run_design(job, tr, ctx.next_op++);
      ++out.attempted;
      untimed_ns += d.check_ns;
      out.designs.emplace_back();
      if (!d.error.empty()) {
        out.fail(d.error);
        continue;
      }
      out.designs.back() = DesignTimes{seconds(d.flow_ns), seconds(d.equiv_ns)};
      auto add = [&](const char* key, std::uint64_t v) {
        out.counts[key] += static_cast<double>(v);
      };
      add("synth.equiv_lane_cycles", d.lane_cycles);
      add("synth.equiv_grants", d.grants);
      add("synth.verilog_bytes", d.verilog_bytes);
      add("synth.testbench_bytes", d.testbench_bytes);
      add("synth.comb_nodes", d.comb_nodes);
      add("synth.opt_nodes_removed", d.nodes_removed);
    }
  }
  out.pass_ns = cpu_ns() - p0 - untimed_ns;
  out.span_end = tr.spans().size();
  return out;
}

}  // namespace flowbench
