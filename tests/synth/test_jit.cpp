// Native tape JIT: bit-identity against the interpreter, everywhere.
//
// A simulation whose combs run as native code must be
// indistinguishable, net for net and cycle for cycle, from the netlist
// test oracle and the interpreted tape -- across random netlists
// (including Mul and data-dependent shifts, which deopt per comb),
// full-width 64-bit nets, the shipped CLI objects, the lowered monitor
// automata and reset pulses.  On hosts where host_supported() is false
// (non-x86-64, or HLCS_JIT=OFF builds) NetlistSim falls back to the
// interpreter and these suites check it against the same references.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "hlcs/check/object_rules.hpp"
#include "hlcs/check/pci_rules.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/jit.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "equiv_replay.hpp"
#include "netlist_gen.hpp"
#include "objects.hpp"
#include "shipped_objects.hpp"

namespace hlcs::synth {
namespace {

// ---------------------------------------------------------------------
// Scalar JIT (NetlistSim) vs the oracle
// ---------------------------------------------------------------------

/// Drive a NetlistSim (native where the host supports it) and the
/// oracle in lock step with identical stimulus and require bit identity
/// on every net after every settle and edge.
void drive_scalar_lockstep(const Netlist& nl, std::uint64_t seed, int edges) {
  NetlistSim jit(nl);
  OracleSim ref(nl);
  sim::Xorshift rng(seed);
  const std::vector<NetId>& ins = nl.inputs();

  auto expect_identical = [&](int edge, const char* phase) {
    for (NetId n = 0; n < nl.nets().size(); ++n) {
      ASSERT_EQ(jit.get(n), ref.get(n))
          << "net '" << nl.nets()[n].name << "' (" << phase << ", edge "
          << edge << ")";
    }
  };

  for (int e = 0; e < edges; ++e) {
    for (NetId in : ins) {
      if (rng.chance(1, 4)) continue;
      const std::uint64_t v =
          rng.chance(1, 4) ? ref.get(in) : rng.next();
      jit.set_input(in, v);
      ref.set_input(in, v);
    }
    if ((e & 3) == 0) {
      jit.settle();
      ref.settle();
      expect_identical(e, "settle");
    }
    jit.clock_edge();
    ref.clock_edge();
    expect_identical(e, "edge");
  }
}

TEST(TapeJitScalar, RandomNetlistsMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("netlist seed " + std::to_string(seed));
    Netlist nl = make_random_netlist(seed * 0x117C0DE + 3);
    drive_scalar_lockstep(nl, seed * 0x2F00D, 72);
  }
}

TEST(TapeJitScalar, Width64Boundary) {
  // Full-width nets: masks of all ones (which the JIT skips), 64-bit
  // immediates and reductions over exactly 64 bits, where an off-by-one
  // in a width or mask would show.
  Netlist nl("wide");
  const NetId a = nl.add_net("a", 64);
  const NetId b = nl.add_net("b", 64);
  const NetId s = nl.add_net("s", 1);
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_input(s);
  auto& A = nl.arena();
  const NetId x = nl.add_net("x", 64);
  nl.add_comb(x, A.bin(ExprOp::Xor, nl.net_ref(a), nl.net_ref(b)));
  const NetId m = nl.add_net("m", 64);
  nl.add_comb(m, A.mux(nl.net_ref(s), nl.net_ref(x),
                       A.un(ExprOp::Not, nl.net_ref(a))));
  const NetId r = nl.add_net("r", 1);
  nl.add_comb(r, A.un(ExprOp::RedAnd, nl.net_ref(m)));
  const NetId cat = nl.add_net("cat", 64);
  nl.add_comb(cat, A.bin(ExprOp::Concat, A.slice(nl.net_ref(m), 0, 32),
                         A.slice(nl.net_ref(x), 32, 32)));
  nl.mark_output(m);
  nl.mark_output(r);
  nl.mark_output(cat);
  nl.validate_and_order();
  drive_scalar_lockstep(nl, 0x64646464, 40);
}

TEST(TapeJitScalar, RegistersResetAndLatchIdentically) {
  // Register-heavy synthesized object: init values, feedback, and the
  // two-phase latch must behave identically through reset_state().
  const ObjectDesc d = testobj::counter();
  SynthOptions opt;
  opt.clients = 3;
  const Netlist nl = synthesize(d, opt);
  NetlistSim jit(nl);
  OracleSim ref(nl);
  for (NetId n = 0; n < nl.nets().size(); ++n) {
    ASSERT_EQ(jit.get(n), ref.get(n)) << "after construction, net " << n;
  }
  jit.reset_state();
  ref.reset_state();
  for (NetId n = 0; n < nl.nets().size(); ++n) {
    ASSERT_EQ(jit.get(n), ref.get(n)) << "after reset_state, net " << n;
  }
  drive_scalar_lockstep(nl, 0xC0117E4, 40);
}

TEST(TapeJitScalar, StatsReportCompilationAndDeopts) {
  if (!TapeJit::host_supported()) GTEST_SKIP() << "no JIT on this host";
  // The generator's op mix includes Mul/Shl/Shr, so across a handful of
  // seeds we must observe both native combs and per-opcode deopts, and
  // the counters must be consistent with the tape.
  bool saw_deopt = false, saw_native = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = make_random_netlist(seed * 0xDE0B7 + 1);
    NetlistSim sim(nl);
    const JitStats* js = sim.jit_stats();
    if (js == nullptr) continue;  // nothing compilable in this netlist
    EXPECT_TRUE(js->enabled);
    EXPECT_GT(js->compile_ns, 0u);
    EXPECT_GT(js->code_bytes, 0u);
    EXPECT_GT(js->stencils, 0u);
    EXPECT_EQ(js->combs_native + js->combs_deopt,
              sim.tape().combs().size());
    std::uint64_t attributed = 0;
    for (const auto& [name, hits] : js->deopt_hits()) {
      EXPECT_FALSE(name.empty());
      attributed += hits;
    }
    EXPECT_EQ(attributed, js->combs_deopt);
    if (js->combs_native > 0) saw_native = true;
    if (js->combs_deopt > 0) {
      saw_deopt = true;
      // Run a few edges: deopted combs are interpreted and counted.
      sim::Xorshift rng(seed);
      for (int e = 0; e < 4; ++e) {
        for (NetId in : nl.inputs()) sim.set_input(in, rng.next());
        sim.clock_edge();
      }
      EXPECT_GT(sim.jit_stats()->deopt_comb_evals, 0u);
    }
  }
  EXPECT_TRUE(saw_native);
  EXPECT_TRUE(saw_deopt);
}

TEST(TapeJitScalar, CrossPageEmissionStaysBitIdentical) {
  // A netlist big enough that the emitted code spans several pages:
  // many wide arithmetic combs chained together.  Exercises segment
  // layout and the mmap'd buffer end to end.
  NetlistGen g(0xB16C0DE);
  for (int i = 0; i < 6; ++i) {
    NetId n = g.nl.add_net("in" + std::to_string(i), 48);
    g.nl.mark_input(n);
    g.avail.push_back(n);
  }
  for (int i = 0; i < 400; ++i) {
    NetId n = g.nl.add_net("m" + std::to_string(i), 48);
    g.nl.add_comb(n, g.expr(48, 3));
    g.avail.push_back(n);
  }
  g.nl.validate_and_order();
  if (TapeJit::host_supported()) {
    NetlistSim sim(g.nl);
    const JitStats* js = sim.jit_stats();
    ASSERT_NE(js, nullptr);
    EXPECT_GT(js->code_bytes, 2u * 4096u) << "netlist too small to span pages";
  }
  drive_scalar_lockstep(g.nl, 0x9A6E5, 8);
}

TEST(TapeJitScalar, WriteXorExecuteRoundTrip) {
  // Many compile/run/destroy cycles: every TapeJit maps, protects and
  // unmaps its own executable pages; leaks or stale mappings show up
  // under the ASan leg of this suite.
  const Netlist nl = make_random_netlist(0x3E4C15E);
  const TapeProgram tape = TapeProgram::compile(nl);
  for (int i = 0; i < 64; ++i) {
    TapeJit jit(tape);
    if (!TapeJit::host_supported()) {
      EXPECT_FALSE(jit.available());
      continue;
    }
    if (!jit.available()) continue;
    std::vector<std::uint64_t> nets(nl.nets().size(), 0);
    std::vector<std::uint64_t> stack(
        std::max<std::uint32_t>(tape.max_stack(), 1), 0);
    std::vector<std::uint64_t> slots(
        std::max<std::uint32_t>(tape.max_slots(), 1), 0);
    NetlistStats stats;
    jit.run_full(nets.data(), stack.data(), slots.data(), &stats);
    EXPECT_EQ(stats.combs_evaluated, tape.combs().size());
  }
}

TEST(TapeJitScalar, RtlModuleRunsInJitMode) {
  // The kernel-integration wrapper settles through the same NetlistSim:
  // native where the host supports it, and publishing the oracle's
  // values on every edge.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 2;
  const Netlist nl = synthesize(d, opt);
  drive_scalar_lockstep(nl, 0x4E7115, 32);

  sim::Kernel k;
  sim::Clock clk(k, "clk", sim::Time::ns(10));
  RtlModule m(k, "dut", nl, clk);
  EXPECT_EQ(m.netlist_sim().jit_stats() != nullptr, TapeJit::host_supported());
  OracleSim ref(nl);
  sim::Xorshift rng(0x4E7116);
  for (int e = 0; e < 24; ++e) {
    for (const std::string& pin : m.input_pins()) {
      const std::uint64_t v = rng.next();
      m.in(pin).write(v);
      ref.set_input(pin, v);
    }
    k.run_for(sim::Time::ns(10));
    ref.clock_edge();
    for (const std::string& pin : m.output_pins()) {
      ASSERT_EQ(m.out(pin).read(), ref.get(pin)) << pin << " edge " << e;
    }
  }
}

// ---------------------------------------------------------------------
// Monitor automata (PR 4 property packs) under the JIT
// ---------------------------------------------------------------------

TEST(TapeJitMonitor, LoweredPropertyPacksBitIdentical) {
  for (int pack = 0; pack < 2; ++pack) {
    const check::Spec spec =
        pack == 0 ? check::pci_rules(check::PciRuleOptions{
                        .arbitration = true, .latency_bound = 16})
                  : check::shared_object_rules(/*starvation_bound=*/8);
    SCOPED_TRACE(pack == 0 ? "pci" : "shared_object");
    const check::Automaton a = check::compile(spec);
    const Netlist nl = check::lower(a);
    drive_scalar_lockstep(nl, 0x1107 + pack, 96);
  }
}

// ---------------------------------------------------------------------
// check_equivalence with the JIT backend
// ---------------------------------------------------------------------

TEST(TapeJitEquiv, ShippedObjectsVerdictsBitIdentical) {
  // The shipped .obj surface: a 64-lane check (one NetlistSim block, on
  // the JIT where the host has one) must produce the verdicts, grants and
  // vectors of its 64 one-lane replays, with reset pulses in the
  // stimulus.
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    SCOPED_TRACE(file);
    const ObjectDesc d = shipped_object(file);
    SynthOptions opt;
    opt.clients = 3;
    opt.policy = osss::PolicyKind::RoundRobin;
    const EquivResult rj = expect_matches_replays(
        d, opt,
        EquivOptions{.cycles = 120,
                     .seed = 0x71D,
                     .reset_percent = 4,
                     .lanes = 64});
    EXPECT_TRUE(rj.equal) << rj.first_mismatch;
    EXPECT_EQ(rj.jit_stats.enabled, TapeJit::host_supported());
    if (rj.jit_stats.enabled) {
      EXPECT_GT(rj.jit_stats.native_calls, 0u);
      EXPECT_GT(rj.jit_stats.code_bytes, 0u);
    }
  }
}

TEST(TapeJitEquiv, DeterministicAtAnyThreadCount) {
  // 130 lanes = three 64-lane blocks claimed in racy order; the JIT
  // backend must be invariant to who compiled and ran what.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = osss::PolicyKind::RoundRobin;
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<EquivResult> runs;
  for (unsigned threads : {1u, 2u, hw == 0 ? 4u : hw}) {
    EquivOptions eopt{.cycles = 100,
                      .seed = 0x7EAD1,
                      .reset_percent = 3,
                      .lanes = 130,
                      .threads = threads};
    runs.push_back(check_equivalence(d, opt, eopt));
  }
  for (const EquivResult& r : runs) {
    EXPECT_TRUE(r.equal) << r.first_mismatch;
    EXPECT_EQ(r.cycles, 100u * 130u);
    EXPECT_EQ(r.grants, runs[0].grants);
    expect_same_vectors(r.vectors, runs[0].vectors);
  }
  // JIT compile counters accumulate per block, independent of threads.
  EXPECT_EQ(runs[0].jit_stats.combs_native, runs[1].jit_stats.combs_native);
  EXPECT_EQ(runs[0].jit_stats.combs_deopt, runs[2].jit_stats.combs_deopt);
  EXPECT_EQ(runs[0].jit_stats.native_calls, runs[1].jit_stats.native_calls);
}

}  // namespace
}  // namespace hlcs::synth
