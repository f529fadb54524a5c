#include "hlcs/synth/equiv.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "hlcs/sim/random.hpp"
#include "hlcs/sim/sweep.hpp"

namespace hlcs::synth {

namespace {

/// Lanes per block, the unit a worker thread claims.  Fixed, so the
/// partition -- and with it the summed JIT counters -- depends only on
/// the lane count; each block compiles its own NetlistSim once.
constexpr std::size_t kBlockLanes = 64;

/// Port NetIds resolved once per netlist; the per-cycle hot loops index
/// these instead of re-resolving names through Netlist::find.
struct Ports {
  NetId rst;
  std::vector<NetId> req, sel, args, grant, ret;
  std::vector<NetId> vars;
};

Ports resolve_ports(const Netlist& nl, const ObjectDesc& desc,
                    const SynthOptions& opt) {
  Ports p;
  p.rst = nl.find("rst");
  p.req.reserve(opt.clients);
  for (std::size_t c = 0; c < opt.clients; ++c) {
    p.req.push_back(nl.find(req_port(c)));
    p.sel.push_back(nl.find(sel_port(c)));
    p.args.push_back(nl.find(args_port(c)));
    p.grant.push_back(nl.find(grant_port(c)));
    p.ret.push_back(nl.find(ret_port(c)));
  }
  p.vars.reserve(desc.vars().size());
  for (std::size_t v = 0; v < desc.vars().size(); ++v) {
    p.vars.push_back(nl.find(var_port(desc, v)));
  }
  return p;
}

/// One lane's stimulus state: an independently seeded RNG plus the
/// client request bookkeeping.  Stimulus depends only on this state and
/// the golden model's grant decisions, never on RTL outputs, so a lane
/// generates the identical stream in any block or as a one-lane replay.
struct LaneStim {
  sim::Xorshift rng{0};
  std::vector<GoldenCycleModel::ClientIn> in;
  std::vector<unsigned> blocked;

  void init(std::uint64_t seed, std::size_t clients) {
    rng = sim::Xorshift(seed);
    in.assign(clients, {});
    blocked.assign(clients, 0);
  }

  /// Advance one cycle of stimulus; returns whether rst pulses.
  bool advance(const EquivOptions& eopt, std::size_t n_methods) {
    const bool rst =
        eopt.reset_percent > 0 && rng.chance(eopt.reset_percent, 100);
    for (std::size_t c = 0; c < in.size(); ++c) {
      if (!in[c].req) {
        if (rng.chance(eopt.request_percent, 100)) {
          in[c].req = true;
          in[c].sel = rng.below(n_methods);
          in[c].args = rng.next();
          blocked[c] = 0;
        }
      } else if (++blocked[c] > eopt.reroll_after) {
        in[c].sel = rng.below(n_methods);
        in[c].args = rng.next();
        blocked[c] = 0;
      }
    }
    return rst;
  }

  /// Client reaction to the (golden) grant, after the edge.
  void react(const std::optional<std::size_t>& granted, bool rst) {
    if (granted) {
      in[*granted].req = false;
      blocked[*granted] = 0;
    }
    if (rst) {
      for (auto& ci : in) ci.req = false;
    }
  }
};

/// Per-lane verdict, merged across lanes in index order afterwards.
struct LaneOutcome {
  bool equal = true;
  std::size_t grants = 0;
  std::string mismatch;  ///< first divergence, without the lane prefix
};

void note_mismatch(LaneOutcome& out, std::size_t cycle,
                   const std::string& what) {
  if (out.equal) {
    out.equal = false;
    out.mismatch = "cycle " + std::to_string(cycle) + ": " + what;
  }
}

/// Record one golden-model cycle into `vec` (reusing its buffers) and
/// append a copy to `record`.
void record_vector(std::vector<EquivVector>& record, EquivVector& vec,
                   bool rst, const LaneStim& stim,
                   const GoldenCycleModel::StepResult& g,
                   const GoldenCycleModel& golden, const ObjectDesc& desc) {
  vec.rst = rst;
  vec.in.assign(stim.in.begin(), stim.in.end());
  vec.grant.assign(stim.in.size(), false);
  vec.ret.assign(stim.in.size(), 0);
  if (g.granted) {
    vec.grant[*g.granted] = true;
    const MethodDesc& m = desc.methods()[stim.in[*g.granted].sel];
    if (m.ret_width > 0) {
      vec.ret[*g.granted] = g.ret & ExprArena::mask(m.ret_width);
    }
  }
  vec.vars.clear();
  for (std::size_t v = 0; v < desc.vars().size(); ++v) {
    vec.vars.push_back(golden.var(v));
  }
  record.push_back(vec);
}

/// One complete scalar lock-step lane on a (possibly reused) NetlistSim.
/// The caller resets `rtl` between lanes.
LaneOutcome run_scalar_lane(const ObjectDesc& desc, const SynthOptions& opt,
                            const EquivOptions& eopt, const Ports& ports,
                            NetlistSim& rtl, std::size_t lane,
                            std::vector<EquivVector>* record) {
  LaneOutcome out;
  GoldenCycleModel golden(desc, opt);
  LaneStim stim;
  stim.init(sim::lane_seed(eopt.seed, lane), opt.clients);
  // Stimulus/record buffers live outside the cycle loop; each iteration
  // reuses their capacity instead of reallocating.
  EquivVector vec;

  for (std::size_t cycle = 0; cycle < eopt.cycles; ++cycle) {
    // --- stimulus ---------------------------------------------------
    const bool rst = stim.advance(eopt, desc.methods().size());
    for (std::size_t c = 0; c < opt.clients; ++c) {
      rtl.set_input(ports.req[c], stim.in[c].req ? 1 : 0);
      rtl.set_input(ports.sel[c], stim.in[c].sel);
      rtl.set_input(ports.args[c], stim.in[c].args);
    }
    rtl.set_input(ports.rst, rst ? 1 : 0);
    rtl.settle();

    // --- compare combinational grants/returns -----------------------
    std::optional<std::size_t> rtl_grant;
    for (std::size_t c = 0; c < opt.clients; ++c) {
      if (rtl.get(ports.grant[c]) != 0) {
        if (rtl_grant) note_mismatch(out, cycle, "grant not one-hot");
        rtl_grant = c;
      }
    }
    const GoldenCycleModel::StepResult g = golden.step(stim.in, rst);
    if (rtl_grant != g.granted) {
      note_mismatch(out, cycle,
                    "grant differs (rtl=" +
                        (rtl_grant ? std::to_string(*rtl_grant)
                                   : std::string("none")) +
                        " golden=" +
                        (g.granted ? std::to_string(*g.granted)
                                   : std::string("none")) +
                        ")");
    }
    if (g.granted) {
      const MethodDesc& m = desc.methods()[stim.in[*g.granted].sel];
      if (m.ret_width > 0) {
        const std::uint64_t rtl_ret =
            rtl.get(ports.ret[*g.granted]) & ExprArena::mask(m.ret_width);
        if (rtl_ret != (g.ret & ExprArena::mask(m.ret_width))) {
          note_mismatch(out, cycle, "return value differs on method " + m.name);
        }
      }
      out.grants++;
    }

    // --- latch and compare state ------------------------------------
    rtl.clock_edge();
    for (std::size_t v = 0; v < desc.vars().size(); ++v) {
      if (rtl.get(ports.vars[v]) != golden.var(v)) {
        note_mismatch(out, cycle, "state variable '" + desc.vars()[v].name +
                                      "' differs");
      }
    }
    if (record) record_vector(*record, vec, rst, stim, g, golden, desc);

    // --- client reaction ---------------------------------------------
    stim.react(g.granted, rst);
  }
  return out;
}

std::string lane_prefix(std::size_t lane, std::uint64_t seed) {
  std::ostringstream os;
  os << "lane " << lane << " (seed 0x" << std::hex << seed << "): ";
  return os.str();
}

/// Fold per-lane outcomes (in lane order) into the result and, on a
/// mismatch, re-run the failing lane alone to record its vectors.
void merge_outcomes(EquivResult& result, const std::vector<LaneOutcome>& outs,
                    const ObjectDesc& desc, const SynthOptions& opt,
                    const EquivOptions& eopt, const Netlist& nl,
                    const Ports& ports) {
  result.lanes = outs.size();
  result.cycles = eopt.cycles * outs.size();
  for (const LaneOutcome& o : outs) result.grants += o.grants;

  for (std::size_t lane = 0; lane < outs.size(); ++lane) {
    if (outs[lane].equal) continue;
    result.equal = false;
    result.first_bad_lane = lane;
    result.first_bad_seed = sim::lane_root(eopt.seed, lane);
    result.first_mismatch =
        lane_prefix(lane, result.first_bad_seed) + outs[lane].mismatch;
    // The recorded vectors describe the counterexample, not lane 0.
    NetlistSim rtl(nl);
    result.vectors.clear();
    run_scalar_lane(desc, opt, eopt, ports, rtl, lane, &result.vectors);
    return;
  }
}

}  // namespace

EquivResult check_equivalence(const ObjectDesc& desc, const SynthOptions& opt,
                              const EquivOptions& eopt) {
  return check_equivalence(desc, opt, synthesize(desc, opt), eopt);
}

EquivResult check_equivalence(const ObjectDesc& desc, const SynthOptions& opt,
                              const Netlist& nl, const EquivOptions& eopt) {
  const Ports ports = resolve_ports(nl, desc, opt);
  const std::size_t lanes = eopt.lanes == 0 ? 1 : eopt.lanes;

  EquivResult result;
  result.vectors.reserve(eopt.cycles);
  std::vector<LaneOutcome> outs(lanes);

  // Each block runs its lanes one after another on its own NetlistSim
  // and writes only its own outcome and JIT-counter slots, so the merge
  // below sees the same data at any thread count.
  const std::size_t nblocks = (lanes + kBlockLanes - 1) / kBlockLanes;
  std::vector<JitStats> jstats(nblocks);
  sim::parallel_for_indexed(nblocks, eopt.threads, [&](std::size_t block) {
    const std::size_t lane0 = block * kBlockLanes;
    const std::size_t end = std::min(lanes, lane0 + kBlockLanes);
    NetlistSim rtl(nl);
    for (std::size_t lane = lane0; lane < end; ++lane) {
      if (lane > lane0) rtl.reset_state();  // inputs are re-driven every cycle
      outs[lane] = run_scalar_lane(desc, opt, eopt, ports, rtl, lane,
                                   lane == 0 ? &result.vectors : nullptr);
    }
    if (const JitStats* js = rtl.jit_stats()) jstats[block] = *js;
  });
  for (const JitStats& s : jstats) result.jit_stats += s;

  merge_outcomes(result, outs, desc, opt, eopt, nl, ports);
  return result;
}

std::string emit_verilog_testbench(const Netlist& nl,
                                   const std::vector<EquivVector>& vectors) {
  if (vectors.empty()) fail("emit_verilog_testbench: no vectors");
  const std::size_t clients = vectors[0].in.size();
  std::ostringstream os;
  os << "// Self-checking testbench generated by hlcs (golden-model "
        "vectors)\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << nl.name() << "_tb;\n";
  os << "  reg clk = 0;\n  always #5 clk = ~clk;\n";
  os << "  reg rst;\n";

  auto width_of = [&](const std::string& name) {
    return nl.nets()[nl.find(name)].width;
  };
  for (std::size_t c = 0; c < clients; ++c) {
    os << "  reg " << req_port(c) << ";\n";
    os << "  reg [" << width_of(sel_port(c)) - 1 << ":0] " << sel_port(c)
       << ";\n";
    os << "  reg [" << width_of(args_port(c)) - 1 << ":0] " << args_port(c)
       << ";\n";
    os << "  wire " << grant_port(c) << ";\n";
    os << "  wire [" << width_of(ret_port(c)) - 1 << ":0] " << ret_port(c)
       << ";\n";
  }

  os << "\n  " << nl.name() << " dut (\n    .clk(clk), .rst(rst)";
  for (std::size_t c = 0; c < clients; ++c) {
    os << ",\n    ." << req_port(c) << "(" << req_port(c) << "), ."
       << sel_port(c) << "(" << sel_port(c) << "), ." << args_port(c) << "("
       << args_port(c) << "),\n    ." << grant_port(c) << "(" << grant_port(c)
       << "), ." << ret_port(c) << "(" << ret_port(c) << ")";
  }
  os << "\n  );\n\n";

  os << "  integer errors = 0;\n";
  os << "  task check(input exp, input act, input [31:0] cyc);\n"
        "    if (exp !== act) begin\n"
        "      $display(\"MISMATCH at cycle %0d\", cyc);\n"
        "      errors = errors + 1;\n"
        "    end\n"
        "  endtask\n\n";

  os << "  initial begin\n";
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const EquivVector& v = vectors[i];
    // Drive just after the previous edge, check combinational grants
    // before the next edge, then latch.
    os << "    #1; rst = " << (v.rst ? 1 : 0) << ";";
    for (std::size_t c = 0; c < clients; ++c) {
      os << " " << req_port(c) << " = " << (v.in[c].req ? 1 : 0) << "; "
         << sel_port(c) << " = " << v.in[c].sel << "; " << args_port(c)
         << " = " << width_of(args_port(c)) << "'d" << v.in[c].args << ";";
    }
    os << "\n    #2;\n";
    for (std::size_t c = 0; c < clients; ++c) {
      os << "    check(1'b" << (v.grant[c] ? 1 : 0) << ", " << grant_port(c)
         << ", " << i << ");\n";
    }
    os << "    @(posedge clk);\n";
  }
  os << "    if (errors == 0) $display(\"PASS: %0d vectors\", "
     << vectors.size() << ");\n";
  os << "    else $fatal(1, \"FAIL: %0d mismatches\", errors);\n";
  os << "    $finish;\n  end\nendmodule\n";
  return os.str();
}

}  // namespace hlcs::synth
