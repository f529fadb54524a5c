// EQUIV: lock-step verification microbenchmarks.
//
//   BM_BatchEdge   engine-level: 64 random stimulus lanes stepped through
//                  full clock edges on 64 independent NetlistSims.
//                  policy 0 (static_priority) is the comb-dominated
//                  case; policy 1 (round_robin) carries the Add combs of
//                  the rotating-pointer arbiter, which the JIT deopts.
//                  lane_edges/s is the headline number.
//   BM_BatchMonitorEdge  the same over a lowered property-monitor
//                  automaton, whose nets are nearly all one bit wide.
//   BM_JitCompile  one TapeJit compilation of the mailbox channel: the
//                  cost every NetlistSim pays once, outside the edge
//                  rows' timed loops.
//   BM_EquivCheck  end-to-end: check_equivalence over `lanes`
//                  independently seeded lock-step lanes (64-lane blocks,
//                  each compiling its own NetlistSim).  Includes
//                  synthesis + golden-model cost, so the rate is what a
//                  fig.4 gate or a fuzz CI budget actually sees.
//
// Row names are those of the committed baseline (BENCH_equiv.json):
// the edge rows keep their mode:1 argument and BM_JitCompile its K:0
// from when other engines had rows of their own.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hlcs/check/check.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/synth.hpp"

namespace {

using namespace hlcs::synth;

/// The paper's mailbox channel, same shape as netlist_micro: guarded
/// put/get over a 16-bit datapath.  Comb-dominated -- the arbitration
/// one-hot logic, guards and muxes.
ObjectDesc make_mailbox() {
  ObjectDesc d("mailbox");
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
  return d;
}

Netlist make_channel(std::size_t clients, hlcs::osss::PolicyKind policy) {
  SynthOptions opt;
  opt.clients = clients;
  opt.policy = policy;
  return synthesize(make_mailbox(), opt);
}

/// Dense random stimulus lanes through full clock edges, on one
/// NetlistSim per lane.  range(0) = 1 (the row name's mode), range(1) =
/// clients, range(2): 0 = static_priority, 1 = round_robin.  One
/// iteration = 64 lane-edges.
void BM_BatchEdge(benchmark::State& state) {
  constexpr std::size_t lanes = 64;
  const std::size_t clients = static_cast<std::size_t>(state.range(1));
  const auto policy = state.range(2) == 0
                          ? hlcs::osss::PolicyKind::StaticPriority
                          : hlcs::osss::PolicyKind::RoundRobin;
  Netlist nl = make_channel(clients, policy);
  std::vector<NetId> req, sel, args;
  for (std::size_t i = 0; i < clients; ++i) {
    req.push_back(nl.find(req_port(i)));
    sel.push_back(nl.find(sel_port(i)));
    args.push_back(nl.find(args_port(i)));
  }
  std::vector<hlcs::sim::Xorshift> rngs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rngs.emplace_back(hlcs::sim::lane_seed(0xED6E, lane));
  }

  std::vector<std::unique_ptr<NetlistSim>> sims;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    sims.push_back(std::make_unique<NetlistSim>(nl));
  }
  for (auto _ : state) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::uint64_t r = rngs[lane].next();
      for (std::size_t i = 0; i < clients; ++i) {
        sims[lane]->set_input(req[i], (r >> i) & 1);
        sims[lane]->set_input(sel[i], (r >> (8 + i)) & 1);
        sims[lane]->set_input(args[i], r >> 16);
      }
      sims[lane]->clock_edge();
    }
  }
  const double lane_edges =
      static_cast<double>(state.iterations()) * static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchEdge)
    ->ArgNames({"mode", "clients", "policy"})
    ->Args({1, 4, 0})
    ->Args({1, 4, 1});

/// A lowered property-monitor automaton: the temporal operators expand
/// to 1-bit state machines, so nearly every net is one bit wide.  This
/// is the netlist shape the check lock-step tests drive.
hlcs::check::Spec monitor_spec() {
  using namespace hlcs::check;
  Spec s("bench");
  E a = s.signal("a");
  E b = s.signal("b");
  E v = s.signal("v", 8);
  E w = s.signal("w", 8);
  s.prop("imp", a, b);
  s.prop("del3", s.rose(a), s.delay(3, b || s.fell(a)));
  s.prop("until_q", a, s.until(b, v == w));
  s.prop("event4", s.stable(v), s.eventually_within(4, b));
  s.prop("past3", a, s.past(b, 3));
  s.always("mux_pick", s.mux(a, v, w) == s.mux(!a, w, v));
  return s;
}

/// Random stimulus lanes through a lowered monitor netlist, on one
/// NetlistSim per lane.  range(0) = 1 (the row name's mode).
void BM_BatchMonitorEdge(benchmark::State& state) {
  constexpr std::size_t lanes = 64;
  const hlcs::check::Automaton a = hlcs::check::compile(monitor_spec());
  Netlist nl = hlcs::check::lower(a);
  std::vector<NetId> sigs;
  std::vector<std::uint64_t> masks;
  for (const hlcs::check::SignalDecl& sd : a.signals) {
    sigs.push_back(nl.find(sd.name));
    masks.push_back(hlcs::synth::ExprArena::mask(sd.width));
  }
  const NetId rst = nl.find("rst");
  std::vector<hlcs::sim::Xorshift> rngs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rngs.emplace_back(hlcs::sim::lane_seed(0xC4EC, lane));
  }

  std::vector<std::unique_ptr<NetlistSim>> sims;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    sims.push_back(std::make_unique<NetlistSim>(nl));
    sims.back()->set_input(rst, 0);
  }
  for (auto _ : state) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::uint64_t r = rngs[lane].next();
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        sims[lane]->set_input(sigs[i], (r >> (8 * i)) & masks[i]);
      }
      sims[lane]->clock_edge();
    }
  }
  const double lane_edges =
      static_cast<double>(state.iterations()) * static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchMonitorEdge)->ArgName("mode")->Arg(1);

/// JIT compilation priced as its own metric: one iteration = compile
/// the mailbox channel's tape to native code and throw it away.
/// range(0) = 0 (the row name's K).
void BM_JitCompile(benchmark::State& state) {
  Netlist nl = make_channel(4, hlcs::osss::PolicyKind::StaticPriority);
  if (!TapeJit::host_supported()) {
    state.SkipWithError("JIT unavailable on this host");
    return;
  }
  double code_bytes = 0, native = 0;
  const TapeProgram tape = TapeProgram::compile(nl);
  for (auto _ : state) {
    TapeJit jit(tape);
    benchmark::DoNotOptimize(jit.available());
    code_bytes = static_cast<double>(jit.stats().code_bytes);
    native = static_cast<double>(jit.stats().combs_native);
  }
  state.counters["jit_code_bytes"] = code_bytes;
  state.counters["jit_native_combs"] = native;
}
BENCHMARK(BM_JitCompile)->ArgName("K")->Arg(0);

/// End-to-end lock-step equivalence: range(0) independently seeded
/// stimulus lanes against the golden interpreter, one 64-lane block
/// after another on the calling thread (each block recompiling its JIT,
/// like a fresh CI run would).
void BM_EquivCheck(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const ObjectDesc d = make_mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = hlcs::osss::PolicyKind::StaticPriority;
  constexpr std::size_t kCycles = 256;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const EquivResult r = check_equivalence(
        d, opt,
        EquivOptions{.cycles = kCycles, .seed = seed++, .reset_percent = 4,
                     .lanes = lanes});
    if (!r.equal) {
      state.SkipWithError("equivalence mismatch");
      return;
    }
    benchmark::DoNotOptimize(r.grants);
  }
  const double lane_cycles = static_cast<double>(state.iterations()) *
                             static_cast<double>(kCycles * lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_cycles));
  state.counters["lane_cycles/s"] =
      benchmark::Counter(lane_cycles, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EquivCheck)->ArgName("lanes")->Arg(8)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
