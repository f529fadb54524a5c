// NETLIST: microbenchmarks of the scalar netlist engine, NetlistSim:
// the whole compiled tape per settle, as native code where the host
// supports the JIT and on the tape interpreter otherwise (an
// HLCS_JIT=OFF build measures the latter).
//
//   BM_NetlistEdge   dense stimulus -- every client port rewritten each
//                    edge, so every settle evaluates the whole tape.
//   BM_SettleSparse  one 1-bit input toggles between settles: the case
//                    a dirty-cone engine would do least work on.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/synth.hpp"

namespace {

using namespace hlcs::synth;

/// The paper's mailbox channel: two state vars, guarded put/get, a
/// 16-bit datapath -- the same shape sec3_consistency measures.
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

Netlist make_channel(std::size_t clients) {
  SynthOptions opt;
  opt.clients = clients;
  opt.policy = hlcs::osss::PolicyKind::RoundRobin;
  return synthesize(make_mailbox(), opt);
}

void report_stats(benchmark::State& state, const NetlistSim& sim) {
  const NetlistStats& st = sim.stats();
  if (st.edges > 0) {
    state.counters["combs/edge"] =
        static_cast<double>(st.combs_evaluated) / static_cast<double>(st.edges);
  }
  state.counters["tape_insns"] =
      static_cast<double>(sim.tape().code().size());
  state.counters["native"] = sim.jit_stats() != nullptr ? 1 : 0;
}

/// Full clock edges under dense stimulus: every request/select/argument
/// port is rewritten from the RNG each edge.  range(0) = clients.
void BM_NetlistEdge(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  Netlist nl = make_channel(clients);
  NetlistSim sim(nl);
  std::vector<NetId> req, sel, args;
  for (std::size_t i = 0; i < clients; ++i) {
    req.push_back(nl.find(req_port(i)));
    sel.push_back(nl.find(sel_port(i)));
    args.push_back(nl.find(args_port(i)));
  }
  hlcs::sim::Xorshift rng(0xED6E);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    for (std::size_t i = 0; i < clients; ++i) {
      sim.set_input(req[i], (r >> i) & 1);
      sim.set_input(sel[i], (r >> (8 + i)) & 1);
      sim.set_input(args[i], r >> 16);
    }
    sim.clock_edge();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  report_stats(state, sim);
}
BENCHMARK(BM_NetlistEdge)->ArgName("clients")->Arg(1)->Arg(4);

/// Sparse settles: one client's 1-bit request toggles, everything else
/// holds, and every settle still evaluates the whole tape.
void BM_SettleSparse(benchmark::State& state) {
  const std::size_t clients = 4;
  Netlist nl = make_channel(clients);
  NetlistSim sim(nl);
  const NetId toggled = nl.find(req_port(clients - 1));
  sim.clock_edge();  // out of reset, machine in steady state
  sim.reset_stats();
  std::uint64_t v = 0;
  for (auto _ : state) {
    v ^= 1;
    sim.set_input(toggled, v);
    sim.settle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["settles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  report_stats(state, sim);
}
BENCHMARK(BM_SettleSparse);

}  // namespace

BENCHMARK_MAIN();
