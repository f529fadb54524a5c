#include "synth_flow.hpp"

#include <exception>
#include <vector>

#include "hlcs/pattern/synthesisable_channel.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/optimize.hpp"
#include "hlcs/synth/parser.hpp"
#include "hlcs/synth/poly.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "hlcs/synth/verilog.hpp"

namespace flowbench {

namespace synth = hlcs::synth;

namespace {

synth::ObjectDesc parse_design(const std::string& source) {
  std::vector<synth::ObjectDesc> parsed = synth::parse_objects(source);
  if (parsed.size() == 1) return std::move(parsed[0]);
  // Several objects in one file: a polymorphic object, as hlcs_synth
  // builds it.
  std::vector<const synth::ObjectDesc*> impls;
  for (const synth::ObjectDesc& d : parsed) impls.push_back(&d);
  return synth::make_polymorphic(parsed[0].name() + "_poly", impls, 0);
}

}  // namespace

std::string check_emitted_netlist(const synth::Netlist& reference,
                                  const synth::Netlist& optimized,
                                  std::uint64_t seed, std::size_t cycles) {
  struct Pair {
    synth::NetId ref, opt;
    bool rst;
  };
  std::vector<Pair> ins, outs;
  for (synth::NetId n : reference.inputs()) {
    const std::string& name = reference.nets()[n].name;
    ins.push_back(Pair{n, optimized.find(name), name == "rst"});
  }
  for (synth::NetId n : reference.outputs()) {
    outs.push_back(Pair{n, optimized.find(reference.nets()[n].name), false});
  }
  synth::NetlistSim a(reference), b(optimized);
  hlcs::sim::Xorshift rng(seed);
  auto differs = [&](std::size_t cycle, const char* phase) -> std::string {
    for (const Pair& o : outs) {
      if (a.get(o.ref) != b.get(o.opt)) {
        return "cycle " + std::to_string(cycle) + " " + phase + ": output " +
               reference.nets()[o.ref].name + " differs";
      }
    }
    return "";
  };
  for (std::size_t c = 0; c < cycles; ++c) {
    for (const Pair& in : ins) {
      const std::uint64_t v = in.rst ? rng.chance(1, 64) : rng.next();
      a.set_input(in.ref, v);
      b.set_input(in.opt, v);
    }
    a.settle();
    b.settle();
    if (std::string d = differs(c, "settle"); !d.empty()) return d;
    a.clock_edge();
    b.clock_edge();
    if (std::string d = differs(c, "edge"); !d.empty()) return d;
  }
  return "";
}

DesignOutcome run_design(const DesignJob& job, Tracer& tr, std::uint32_t op) {
  DesignOutcome out;
  try {
    const std::int64_t t0 = cpu_ns();
    synth::ObjectDesc desc =
        job.source ? traced(tr, "synth.parse", op,
                            [&] { return parse_design(*job.source); })
                   : traced(tr, "pattern.channel_desc", op, [] {
                       return hlcs::pattern::make_synthesisable_channel().desc;
                     });
    const synth::Netlist nl = traced(tr, "synth.synthesize", op, [&] {
      return synth::synthesize(desc, job.opt);
    });
    synth::OptimizeStats ost;
    const synth::Netlist emitted = traced(
        tr, "synth.optimize", op, [&] { return synth::optimize(nl, &ost); });
    const std::int64_t e0 = cpu_ns();
    const synth::EquivResult eq = traced(tr, "synth.equiv", op, [&] {
      return synth::check_equivalence(desc, job.opt, job.eopt);
    });
    out.equiv_ns = cpu_ns() - e0;
    const std::string verilog = traced(
        tr, "synth.verilog", op, [&] { return synth::emit_verilog(emitted); });
    const std::string bench = traced(tr, "synth.testbench", op, [&] {
      return synth::emit_verilog_testbench(emitted, eq.vectors);
    });
    out.flow_ns = cpu_ns() - t0;

    out.lane_cycles = eq.cycles;
    out.grants = eq.grants;
    out.verilog_bytes = verilog.size();
    out.testbench_bytes = bench.size();
    out.comb_nodes = ost.nodes_after;
    out.nodes_removed = ost.nodes_before - ost.nodes_after;

    if (!eq) {
      out.error = "equivalence FAILED: " + eq.first_mismatch;
    } else if (eq.cycles != job.eopt.lanes * job.eopt.cycles) {
      out.error = "checked " + std::to_string(eq.cycles) +
                  " lane-cycles, expected " +
                  std::to_string(job.eopt.lanes * job.eopt.cycles);
    } else if (job.check_netlist) {
      const std::int64_t c0 = cpu_ns();
      const std::string diff = check_emitted_netlist(
          nl, emitted, job.netlist_check_seed, job.eopt.cycles);
      out.check_ns = cpu_ns() - c0;
      if (!diff.empty()) out.error = "emitted netlist disagrees: " + diff;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (!out.error.empty()) out.error = job.label + ": " + out.error;
  return out;
}

}  // namespace flowbench
