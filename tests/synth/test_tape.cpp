// Tape engine: structure tests plus the randomized bit-identity suite.
//
// NetlistSim (the compiled tape, run natively or interpreted) must be
// indistinguishable from the test oracle (netlist_gen.hpp's OracleSim,
// the recursive tree-walking interpreter) on every net, every cycle.
// The suite generates seeded random netlists (DAG-shaped expressions,
// shared subtrees, registers, feedback through regs) and random
// ObjectDescs (synthesised and cross-checked against the
// ObjectInterp-backed golden model), then drives thousands of edges in
// lock step.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/optimize.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "hlcs/synth/tape.hpp"
#include "netlist_gen.hpp"

namespace hlcs::synth {
namespace {

/// Drive `sim` and the oracle in lock step with random stimulus and
/// require bit identity on every net after every settle and every edge.
void drive_lockstep(const Netlist& nl, NetlistSim& sim, std::uint64_t seed,
                    int edges) {
  OracleSim oracle(nl);
  sim::Xorshift rng(seed);
  const std::vector<NetId>& ins = nl.inputs();
  auto expect_identical = [&](int edge, const char* phase) {
    for (NetId n = 0; n < nl.nets().size(); ++n) {
      ASSERT_EQ(sim.get(n), oracle.get(n))
          << "net '" << nl.nets()[n].name << "' differs (" << phase
          << ", edge " << edge << ")";
    }
  };
  for (int e = 0; e < edges; ++e) {
    for (NetId in : ins) {
      // Sometimes rewrite with the same value, sometimes skip the input
      // entirely: the settle skip must behave exactly like a settle.
      if (rng.chance(1, 4)) continue;
      const std::uint64_t v = rng.chance(1, 4) ? oracle.get(in) : rng.next();
      sim.set_input(in, v);
      oracle.set_input(in, v);
    }
    if (rng.chance(1, 3)) {
      sim.settle();
      oracle.settle();
      expect_identical(e, "settle");
    }
    sim.clock_edge();
    oracle.clock_edge();
    expect_identical(e, "edge");
  }
}

// ---------------------------------------------------------------------
// Structure tests
// ---------------------------------------------------------------------

TEST(Tape, CompilesCounterToExpectedShape) {
  Netlist nl("counter8");
  NetId rst = nl.add_net("rst", 1);
  NetId en = nl.add_net("en", 1);
  NetId q = nl.add_net("q", 8);
  NetId d = nl.add_net("d", 8);
  nl.mark_input(rst);
  nl.mark_input(en);
  nl.mark_output(q);
  nl.add_reg(q, d, 0);
  auto& A = nl.arena();
  ExprId inc = A.bin(ExprOp::Add, nl.net_ref(q), A.cst(1, 8));
  ExprId held = A.mux(nl.net_ref(en), inc, nl.net_ref(q));
  nl.add_comb(d, A.mux(nl.net_ref(rst), A.cst(0, 8), held));

  TapeProgram p = TapeProgram::compile(nl);
  ASSERT_EQ(p.combs().size(), 1u);
  EXPECT_EQ(p.combs()[0].target, d);
  EXPECT_GE(p.max_stack(), 3u);
  // The comb reads rst, en and q but not d.
  std::vector<NetId> reads;
  for (std::uint32_t i = p.combs()[0].begin; i < p.combs()[0].end; ++i) {
    if (p.code()[i].op == TapeOp::PushNet) reads.push_back(p.code()[i].aux);
  }
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  EXPECT_EQ(reads, (std::vector<NetId>{rst, en, q}));
}

TEST(Tape, LevelsFollowDependencyChains) {
  Netlist nl("chain");
  NetId in = nl.add_net("in", 4);
  nl.mark_input(in);
  NetId a = nl.add_net("a", 4);
  NetId b = nl.add_net("b", 4);
  NetId c = nl.add_net("c", 4);
  nl.mark_output(c);
  auto& A = nl.arena();
  nl.add_comb(c, A.bin(ExprOp::Add, nl.net_ref(b), A.cst(1, 4)));
  nl.add_comb(b, A.bin(ExprOp::Add, nl.net_ref(a), A.cst(1, 4)));
  nl.add_comb(a, A.bin(ExprOp::Add, nl.net_ref(in), A.cst(1, 4)));
  TapeProgram p = TapeProgram::compile(nl);
  ASSERT_EQ(p.combs().size(), 3u);
  // Topo order a, b, c: one dependency level after another, whatever
  // the order the combs were added in.
  EXPECT_EQ(p.combs()[0].target, a);
  EXPECT_EQ(p.combs()[1].target, b);
  EXPECT_EQ(p.combs()[2].target, c);
}

TEST(Tape, SharedSubtreesCompileToSlots) {
  // (x*x) appears three times through the same arena node: the tape
  // must compute it once (one Mul) and re-push it from a slot.
  Netlist nl("cse");
  NetId x = nl.add_net("x", 16);
  nl.mark_input(x);
  NetId y = nl.add_net("y", 16);
  nl.mark_output(y);
  auto& A = nl.arena();
  ExprId sq = A.bin(ExprOp::Mul, nl.net_ref(x), nl.net_ref(x));
  ExprId sum = A.bin(ExprOp::Add, sq, sq);
  nl.add_comb(y, A.bin(ExprOp::Add, sum, sq));
  TapeProgram p = TapeProgram::compile(nl);
  EXPECT_GE(p.max_slots(), 1u);
  std::size_t muls = 0, pushes = 0;
  for (const TapeInsn& i : p.code()) {
    if (i.op == TapeOp::Mul) ++muls;
    if (i.op == TapeOp::PushSlot) ++pushes;
  }
  EXPECT_EQ(muls, 1u) << "shared subtree evaluated more than once";
  EXPECT_EQ(pushes, 3u);

  NetlistSim s(nl);
  s.set_input("x", 7);
  s.settle();
  EXPECT_EQ(s.get("y"), (7u * 7u) * 3u);
}

// ---------------------------------------------------------------------
// Settle skipping (NetlistStats)
// ---------------------------------------------------------------------

TEST(NetlistSimIncremental, QuiescentSettleEvaluatesNothing) {
  Netlist nl = make_random_netlist(0xBEEF);
  NetlistSim s(nl);
  s.clock_edge();
  s.clock_edge();
  // Let register feedback reach a fixed point (or not -- either way a
  // settle with no new events after a settle must be free).
  s.settle();
  const std::uint64_t before = s.stats().combs_evaluated;
  const std::uint64_t full = s.stats().full_settles;
  s.settle();
  EXPECT_EQ(s.stats().combs_evaluated, before)
      << "settle with nothing changed re-evaluated combs";
  // Re-writing an input with its current value must not count as a
  // change either.
  const NetId in = nl.inputs()[0];
  s.set_input(in, s.get(in));
  s.settle();
  EXPECT_EQ(s.stats().combs_evaluated, before);
  EXPECT_EQ(s.stats().full_settles, full);
  // A real change re-runs the whole tape once.
  s.set_input(in, s.get(in) ^ 1);
  s.settle();
  s.settle();
  EXPECT_EQ(s.stats().combs_evaluated, before + s.tape().combs().size());
  EXPECT_EQ(s.stats().full_settles, full + 1);
}

// ---------------------------------------------------------------------
// Randomized bit-identity
// ---------------------------------------------------------------------

TEST(TapeEquivalence, RandomNetlistsAllModesBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Netlist nl = make_random_netlist(seed * 0x9E3779B9u);
    NetlistSim sim(nl);
    drive_lockstep(nl, sim, seed ^ 0xD1CE, 400);
  }
}

TEST(TapeEquivalence, OptimizedRandomNetlistsStayBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = make_random_netlist(seed * 0xABCDu + 17);
    Netlist opt = optimize(nl);
    OracleSim ref(nl);
    NetlistSim fast(opt);
    sim::Xorshift rng(seed);
    for (int e = 0; e < 300; ++e) {
      for (NetId in : nl.inputs()) {
        const std::uint64_t v = rng.next();
        ref.set_input(in, v);
        fast.set_input(in, v);
      }
      ref.clock_edge();
      fast.clock_edge();
      for (NetId out : nl.outputs()) {
        ASSERT_EQ(fast.get(out), ref.get(out))
            << "seed " << seed << " edge " << e << " net "
            << nl.nets()[out].name;
      }
      for (const RegDesc& r : nl.regs()) {
        ASSERT_EQ(fast.get(r.q), ref.get(r.q)) << "seed " << seed;
      }
    }
  }
}

/// Randomized ObjectDesc -> synthesis -> lock-step against the
/// ObjectInterp-backed golden model (check_equivalence drives the
/// scalar NetlistSim).
TEST(TapeEquivalence, RandomObjectsMatchInterpreter) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Xorshift rng(seed * 77 + 3);
    ObjectDesc d("rand_obj");
    const std::size_t n_vars = rng.range(1, 3);
    std::vector<unsigned> var_w;
    for (std::size_t v = 0; v < n_vars; ++v) {
      var_w.push_back(static_cast<unsigned>(rng.range(1, 16)));
      d.add_var("v" + std::to_string(v), var_w.back(), rng.next());
    }
    const std::size_t n_methods = rng.range(1, 3);
    for (std::size_t m = 0; m < n_methods; ++m) {
      auto mb = d.add_method("m" + std::to_string(m));
      unsigned arg_w = 0;
      if (rng.chance(1, 2)) {
        arg_w = static_cast<unsigned>(rng.range(1, 16));
        mb.arg("a0", arg_w);
      }
      auto operand = [&](unsigned w) -> ExprId {
        // A width-w expression over state, argument and constants.
        ExprId e;
        const std::uint32_t v =
            static_cast<std::uint32_t>(rng.below(n_vars));
        switch (rng.below(3)) {
          case 0:
            e = d.v(v);
            if (var_w[v] < w) e = d.arena().zext(e, w);
            else if (var_w[v] > w) e = d.arena().slice(e, 0, w);
            break;
          case 1:
            if (arg_w > 0) {
              e = d.a(0, arg_w);
              if (arg_w < w) e = d.arena().zext(e, w);
              else if (arg_w > w) e = d.arena().slice(e, 0, w);
              break;
            }
            [[fallthrough]];
          default:
            e = d.lit(rng.next(), w);
        }
        return e;
      };
      if (rng.chance(2, 3)) {
        static constexpr ExprOp cmp[] = {ExprOp::Ne, ExprOp::Lt, ExprOp::Ge};
        const unsigned w = var_w[rng.below(n_vars)];
        mb.guard(d.arena().bin(cmp[rng.below(3)], operand(w), operand(w)));
      }
      for (std::size_t v = 0; v < n_vars; ++v) {
        if (!rng.chance(2, 3)) continue;
        static constexpr ExprOp ops[] = {ExprOp::Add, ExprOp::Sub,
                                         ExprOp::Xor, ExprOp::And};
        mb.assign(static_cast<std::uint32_t>(v),
                  d.arena().bin(ops[rng.below(4)], operand(var_w[v]),
                                operand(var_w[v])));
      }
      if (rng.chance(1, 2)) {
        const unsigned rw = static_cast<unsigned>(rng.range(1, 16));
        mb.returns(operand(rw), rw);
      }
    }
    d.validate();

    SynthOptions opt;
    opt.clients = rng.range(1, 3);
    static constexpr osss::PolicyKind policies[] = {
        osss::PolicyKind::Fifo, osss::PolicyKind::RoundRobin,
        osss::PolicyKind::StaticPriority, osss::PolicyKind::Random};
    opt.policy = policies[rng.below(4)];
    EquivOptions eopt;
    eopt.cycles = 500;
    eopt.seed = seed * 0x5EED;
    eopt.reset_percent = 2;
    EquivResult r = check_equivalence(d, opt, eopt);
    EXPECT_TRUE(r.equal) << "seed " << seed << ": " << r.first_mismatch;
  }
}

/// The real synthesised channel, all policies: thousands of edges of
/// identity with the oracle.
TEST(TapeEquivalence, SynthesisedChannelModesBitIdentical) {
  ObjectDesc d("mbox");
  const std::uint32_t full = d.add_var("full", 1, 0);
  const std::uint32_t data = d.add_var("data", 16, 0);
  d.add_method("put")
      .arg("d", 16)
      .guard(d.arena().bin(ExprOp::Eq, d.v(full), d.lit(0, 1)))
      .assign(full, d.lit(1, 1))
      .assign(data, d.a(0, 16));
  d.add_method("get")
      .guard(d.arena().bin(ExprOp::Eq, d.v(full), d.lit(1, 1)))
      .assign(full, d.lit(0, 1))
      .returns(d.v(data), 16);
  for (auto policy :
       {osss::PolicyKind::Fifo, osss::PolicyKind::RoundRobin,
        osss::PolicyKind::StaticPriority, osss::PolicyKind::Random}) {
    SynthOptions opt;
    opt.clients = 3;
    opt.policy = policy;
    Netlist nl = synthesize(d, opt);
    NetlistSim sim(nl);
    drive_lockstep(nl, sim, 0xCAB + (int)policy, 700);
  }
}

}  // namespace
}  // namespace hlcs::synth
