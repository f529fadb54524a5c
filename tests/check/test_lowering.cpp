// RTL lowering consistency: randomized traces replayed through the
// behavioural automaton (one node-order pass over the property arena per
// edge) and through the lowered netlist -- in NetlistSim and in the
// netlist test oracle -- must give bit-identical attempt/pass/fail/
// vacuous verdicts on every edge, including random disable pulses that
// cancel in-flight attempts.  Root-by-root synth::eval of every verdict
// and next state is the reference oracle both engines are held to.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hlcs/check/check.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/tape.hpp"
#include "hlcs/synth/verilog.hpp"
#include "../synth/netlist_gen.hpp"

namespace hlcs::check {
namespace {

/// Every sequence kind, the temporal sugar, and a spread of widths/ops.
Spec kitchen_sink() {
  Spec s("sink");
  E a = s.signal("a");
  E b = s.signal("b");
  E v = s.signal("v", 8);
  E w = s.signal("w", 8);
  s.prop("imp", a, b);
  s.prop("del3", s.rose(a), s.delay(3, b || s.fell(a)));
  s.prop("until_q", a, s.until(b, v == w));
  s.prop("event4", s.stable(v), s.eventually_within(4, b));
  s.prop("cmp", v != w, (v < w) || (v > w));
  s.prop("past3", a, s.past(b, 3));
  s.always("mux_pick", s.mux(a, v, w) == s.mux(!a, w, v));
  s.prop("parity", a,
         s.red_xor(s.concat(v, w)) == (s.red_xor(v) ^ s.red_xor(w)));
  return s;
}

/// Reference oracle: each verdict and next state by its own recursive
/// synth::eval over a private copy of the state, committed two-phase.
struct RefEval {
  const Automaton& a;
  std::vector<std::uint64_t> vars;  ///< signals then states

  explicit RefEval(const Automaton& au)
      : a(au), vars(au.signals.size() + au.states.size(), 0) {
    reset();
  }
  void reset() {
    for (std::size_t i = 0; i < a.states.size(); ++i) {
      vars[a.signals.size() + i] = a.states[i].init;
    }
  }
  std::uint64_t eval(ExprId root) const {
    return synth::eval(a.arena, root, vars, {});
  }
  void step(const std::vector<std::uint64_t>& samples, bool disabled,
            std::vector<AutomatonEval::Verdict>& v) {
    v.assign(a.props.size(), AutomatonEval::Verdict{});
    for (std::size_t i = 0; i < samples.size(); ++i) {
      vars[i] = samples[i] & synth::ExprArena::mask(a.signals[i].width);
    }
    if (disabled) {
      reset();
      return;
    }
    for (std::size_t i = 0; i < a.props.size(); ++i) {
      const PropertyAutomaton& p = a.props[i];
      v[i] = AutomatonEval::Verdict{eval(p.attempt), eval(p.pass),
                                    eval(p.fail), eval(p.vacuous)};
    }
    std::vector<std::uint64_t> next(a.states.size());
    for (std::size_t i = 0; i < a.states.size(); ++i) {
      next[i] = eval(a.states[i].next) &
                synth::ExprArena::mask(a.states[i].width);
    }
    for (std::size_t i = 0; i < a.states.size(); ++i) {
      vars[a.signals.size() + i] = next[i];
    }
  }
  std::uint64_t state(std::size_t i) const {
    return vars[a.signals.size() + i];
  }
};

/// Where the behavioural engine departs from the oracle on this edge
/// (a verdict field or a committed state), or "" when it agrees.
std::string oracle_diff(const Automaton& a, const AutomatonEval& ev,
                        const std::vector<AutomatonEval::Verdict>& vb,
                        const RefEval& ref,
                        const std::vector<AutomatonEval::Verdict>& vr) {
  if (vb.size() != vr.size()) return "verdict count";
  for (std::size_t i = 0; i < vb.size(); ++i) {
    const std::string& p = a.props[i].name;
    if (vb[i].attempt != vr[i].attempt) return p + " attempt";
    if (vb[i].pass != vr[i].pass) return p + " pass";
    if (vb[i].fail != vr[i].fail) return p + " fail";
    if (vb[i].vacuous != vr[i].vacuous) return p + " vacuous";
  }
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    if (ev.state(i) != ref.state(i)) return "state " + a.states[i].name;
  }
  return "";
}

/// Drive the lowered netlist the way NetlistMonitor does: inputs + rst,
/// settle, read verdicts, clock_edge.
/// The lowered netlist on `Sim`: synth::NetlistSim, or the test oracle
/// synth::OracleSim.
template <class Sim>
struct NlDriver {
  synth::Netlist nl;
  Sim sim;
  synth::NetId rst;
  std::vector<synth::NetId> sigs;
  struct Outs {
    synth::NetId attempt, vacuous, pass, fail;
  };
  std::vector<Outs> outs;

  explicit NlDriver(const Automaton& a)
      : nl(lower(a)), sim(nl), rst(nl.find("rst")) {
    for (const SignalDecl& sd : a.signals) sigs.push_back(nl.find(sd.name));
    for (const PropertyAutomaton& p : a.props) {
      outs.push_back(Outs{nl.find(p.name + "_attempt"),
                          nl.find(p.name + "_vacuous"),
                          nl.find(p.name + "_pass"),
                          nl.find(p.name + "_fail")});
    }
  }

  /// `resettle` settles once more before reading the verdicts: a settle
  /// with nothing changed must leave every net as it was.
  void step(const std::vector<std::uint64_t>& samples, bool disabled,
            std::vector<AutomatonEval::Verdict>& v, bool resettle = false) {
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      sim.set_input(sigs[i], samples[i]);
    }
    sim.set_input(rst, disabled ? 1 : 0);
    sim.settle();
    if (resettle) sim.settle();
    v.resize(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      v[i] = AutomatonEval::Verdict{sim.get(outs[i].attempt),
                                    sim.get(outs[i].pass),
                                    sim.get(outs[i].fail),
                                    sim.get(outs[i].vacuous)};
    }
    sim.clock_edge();
  }
};

template <class Sim>
void run_lockstep(const Automaton& a, std::uint64_t seed, int edges,
                  bool resettle = false) {
  AutomatonEval ev(a);
  RefEval ref(a);
  NlDriver<Sim> nld(a);
  sim::Xorshift rng(seed);
  std::vector<std::uint64_t> samples(a.signals.size());
  std::vector<AutomatonEval::Verdict> vb, vn, vr;
  std::uint64_t resolved = 0;
  for (int t = 0; t < edges; ++t) {
    samples[0] = rng.chance(1, 2);                  // a
    samples[1] = rng.chance(1, 2);                  // b
    // Mostly small values so v==w / stable(v) actually happen, with
    // occasional full-width bytes to exercise the parity logic.
    samples[2] = rng.chance(1, 4) ? (rng.next() & 0xFF) : rng.below(4);
    samples[3] = rng.chance(1, 4) ? (rng.next() & 0xFF) : rng.below(4);
    const bool disabled = rng.chance(1, 16);
    ev.step(samples, disabled, vb);
    ref.step(samples, disabled, vr);
    nld.step(samples, disabled, vn, resettle);
    ASSERT_EQ(oracle_diff(a, ev, vb, ref, vr), "")
        << "seed " << seed << " edge " << t;
    ASSERT_EQ(vb.size(), vn.size());
    for (std::size_t i = 0; i < vb.size(); ++i) {
      ASSERT_EQ(vb[i].attempt, vn[i].attempt)
          << "seed " << seed << " edge " << t << " prop "
          << a.props[i].name;
      ASSERT_EQ(vb[i].pass, vn[i].pass)
          << "seed " << seed << " edge " << t << " prop "
          << a.props[i].name;
      ASSERT_EQ(vb[i].fail, vn[i].fail)
          << "seed " << seed << " edge " << t << " prop "
          << a.props[i].name;
      ASSERT_EQ(vb[i].vacuous, vn[i].vacuous)
          << "seed " << seed << " edge " << t << " prop "
          << a.props[i].name;
      resolved += vb[i].pass + vb[i].fail;
    }
  }
  // The trace must actually exercise the automata.
  EXPECT_GT(resolved, 0u);
}

TEST(CheckLowering, LockstepIncremental) {
  // NetlistSim re-settles only when an input or register changed: an
  // extra settle before every read must change nothing.
  const Automaton a = compile(kitchen_sink());
  run_lockstep<synth::NetlistSim>(a, 1, 1500, /*resettle=*/true);
}

TEST(CheckLowering, LockstepFullTape) {
  const Automaton a = compile(kitchen_sink());
  run_lockstep<synth::NetlistSim>(a, 2, 1500);
}

TEST(CheckLowering, LockstepTreeWalk) {
  const Automaton a = compile(kitchen_sink());
  run_lockstep<synth::OracleSim>(a, 3, 1500);
}

TEST(CheckLowering, LockstepManySeeds) {
  const Automaton a = compile(kitchen_sink());
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    run_lockstep<synth::NetlistSim>(a, seed, 400);
  }
}

TEST(CheckLowering, BatchedLockstep64Lanes) {
  // The same behavioural-vs-RT lock-step over 64 independently seeded
  // stimulus lanes, run one after another on NetlistSim: every lane's
  // verdict nets must match its own behavioural monitor on every edge.
  const Automaton a = compile(kitchen_sink());
  const synth::Netlist nl = lower(a);
  constexpr std::size_t kLanes = 64;

  const synth::NetId rst = nl.find("rst");
  std::vector<synth::NetId> sigs;
  for (const SignalDecl& sd : a.signals) sigs.push_back(nl.find(sd.name));
  struct Outs {
    synth::NetId attempt, vacuous, pass, fail;
  };
  std::vector<Outs> outs;
  for (const PropertyAutomaton& p : a.props) {
    outs.push_back(Outs{nl.find(p.name + "_attempt"),
                        nl.find(p.name + "_vacuous"),
                        nl.find(p.name + "_pass"),
                        nl.find(p.name + "_fail")});
  }

  std::vector<std::uint64_t> samples(a.signals.size());
  std::vector<AutomatonEval::Verdict> vb, vr;
  std::uint64_t resolved = 0;

  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    synth::NetlistSim sim(nl);
    AutomatonEval ev(a);
    RefEval ref(a);
    sim::Xorshift rng(sim::lane_seed(0xC4EC, lane));
    for (int t = 0; t < 300; ++t) {
      samples[0] = rng.chance(1, 2);
      samples[1] = rng.chance(1, 2);
      samples[2] = rng.chance(1, 4) ? (rng.next() & 0xFF) : rng.below(4);
      samples[3] = rng.chance(1, 4) ? (rng.next() & 0xFF) : rng.below(4);
      const bool disabled = rng.chance(1, 16);
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        sim.set_input(sigs[i], samples[i]);
      }
      sim.set_input(rst, disabled ? 1 : 0);
      sim.settle();
      ev.step(samples, disabled, vb);
      ref.step(samples, disabled, vr);
      ASSERT_EQ(oracle_diff(a, ev, vb, ref, vr), "")
          << "lane " << lane << " edge " << t;
      for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_EQ(vb[i].attempt, sim.get(outs[i].attempt))
            << "lane " << lane << " edge " << t << " " << a.props[i].name;
        ASSERT_EQ(vb[i].pass, sim.get(outs[i].pass))
            << "lane " << lane << " edge " << t << " " << a.props[i].name;
        ASSERT_EQ(vb[i].fail, sim.get(outs[i].fail))
            << "lane " << lane << " edge " << t << " " << a.props[i].name;
        ASSERT_EQ(vb[i].vacuous, sim.get(outs[i].vacuous))
            << "lane " << lane << " edge " << t << " " << a.props[i].name;
        resolved += vb[i].pass + vb[i].fail;
      }
      sim.clock_edge();
    }
  }
  EXPECT_GT(resolved, 0u);
}

TEST(CheckLowering, PciPackLockstep) {
  const Automaton a = compile(
      pci_rules(PciRuleOptions{.arbitration = true, .latency_bound = 6}));
  AutomatonEval ev(a);
  RefEval ref(a);
  NlDriver<synth::NetlistSim> nld(a);
  sim::Xorshift rng(42);
  std::vector<std::uint64_t> samples(a.signals.size());
  std::vector<AutomatonEval::Verdict> vb, vn, vr;
  std::uint64_t parity_checks = 0;
  for (int t = 0; t < 2000; ++t) {
    for (std::size_t i = 0; i < a.signals.size(); ++i) {
      samples[i] = rng.next() & synth::ExprArena::mask(a.signals[i].width);
    }
    ev.step(samples, false, vb);
    ref.step(samples, false, vr);
    nld.step(samples, false, vn);
    ASSERT_EQ(oracle_diff(a, ev, vb, ref, vr), "") << "edge " << t;
    for (std::size_t i = 0; i < vb.size(); ++i) {
      ASSERT_EQ(vb[i].attempt, vn[i].attempt) << "edge " << t << " "
                                              << a.props[i].name;
      ASSERT_EQ(vb[i].pass, vn[i].pass) << "edge " << t << " "
                                        << a.props[i].name;
      ASSERT_EQ(vb[i].fail, vn[i].fail) << "edge " << t << " "
                                        << a.props[i].name;
      ASSERT_EQ(vb[i].vacuous, vn[i].vacuous) << "edge " << t << " "
                                              << a.props[i].name;
      if (a.props[i].name == "m5_parity") parity_checks += vb[i].attempt;
    }
  }
  // Random samples must reach the shared red_xor fold, not only
  // vacuous edges.
  EXPECT_GT(parity_checks, 100u);
}

TEST(CheckLowering, PciPackKeepsTheSpecDag) {
  // Spec::red_xor's shift-fold reads each of its 6 levels twice; an
  // unfolded tree made this 529 automaton nodes and 1014 tape
  // instructions.  compile() and lower() keep the sharing instead.
  const Automaton a = compile(pci_rules(PciRuleOptions{.arbitration = true}));
  EXPECT_LT(a.arena.size(), 150u);
  const synth::TapeProgram tape = synth::TapeProgram::compile(lower(a));
  EXPECT_LT(tape.code().size(), 400u);
}

TEST(CheckLowering, LoweredNetlistShape) {
  const Automaton a = compile(kitchen_sink());
  const synth::Netlist nl = lower(a);
  EXPECT_NO_THROW(nl.validate_and_order());
  // rst + the four signals.
  EXPECT_EQ(nl.inputs().size(), 1u + a.signals.size());
  // Four verdict nets per property.
  EXPECT_EQ(nl.outputs().size(), 4 * a.props.size());
  // One register per automaton state.
  EXPECT_EQ(nl.regs().size(), a.states.size());
  const std::string v = synth::emit_verilog(nl);
  EXPECT_NE(v.find("module"), std::string::npos);
  EXPECT_NE(v.find("imp_fail"), std::string::npos);
  EXPECT_NE(v.find("rst"), std::string::npos);
}

TEST(CheckLowering, ResetInputRestoresInitialState) {
  Spec s("rst");
  E a = s.signal("a");
  s.prop("p", a, s.delay(1, a));
  const Automaton au = compile(s);
  NlDriver<synth::NetlistSim> nld(au);
  std::vector<AutomatonEval::Verdict> v;
  nld.step({1}, false, v);   // attempt in flight
  nld.step({0}, true, v);    // disable: verdicts zero, state back to init
  EXPECT_EQ(v[0].attempt, 0u);
  EXPECT_EQ(v[0].fail, 0u);
  nld.step({0}, false, v);   // cancelled attempt must not resolve
  EXPECT_EQ(v[0].pass, 0u);
  EXPECT_EQ(v[0].fail, 0u);
}

}  // namespace
}  // namespace hlcs::check
