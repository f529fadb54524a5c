// hlcs_synth -- the command-line communication synthesiser.
//
// Reads a guarded-method object description (.obj, see
// hlcs/synth/parser.hpp), synthesises it for N clients under a chosen
// arbitration policy, optionally optimises the netlist, verifies the RT
// model against the interpreted specification in lock step, and emits
// structural Verilog plus a self-checking testbench -- the ODETTE flow
// as one tool invocation.
//
//   hlcs_synth mailbox.obj --clients 4 --policy fifo --optimize \
//              --check 2000 -o mailbox.v --testbench mailbox_tb.v --report
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "hlcs/check/check.hpp"
#include "hlcs/osss/osss.hpp"
#include "hlcs/pattern/pattern.hpp"
#include "hlcs/pci/pci.hpp"
#include "hlcs/synth/synth.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "hlcs/verify/compare.hpp"
#include "hlcs/verify/coverage.hpp"
#include "cli_number.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.obj> [options]\n"
               "       %s --monitor <pack> [options]\n"
               "       %s --equiv-lt [N] [--seed S] [--stats]\n"
               "  --clients N        number of connected clients (default 1)\n"
               "  --policy P         fifo | round_robin | static_priority | "
               "random |\n"
               "                     adaptive (default static_priority)\n"
               "  --optimize         run constant folding / simplification\n"
               "  --check N          lock-step equivalence check of the "
               "emitted (optimised, with --optimize) netlist for N cycles "
               "(default 1000; 0 = skip)\n"
               "  --seed S           stimulus seed for --check\n"
               "  --lanes N          run the check as N independently "
               "seeded lanes\n"
               "                     (default 1), in blocks of 64 lanes\n"
               "  --equiv-threads N  worker threads for the lane blocks "
               "(default 1,\n"
               "                     0 = all cores)\n"
               "  --stats            print the JIT's compile/deopt counters "
               "for --check\n"
               "  -o FILE            write Verilog (default: stdout)\n"
               "  --testbench FILE   write a self-checking Verilog testbench\n"
               "  --report           print the resource report to stderr\n"
               "  --monitor PACK     instead of synthesising an object, lower "
               "a shipped\n"
               "                     property pack (pci | shared_object) to "
               "its monitor\n"
               "                     netlist and emit that as Verilog\n"
               "  --equiv-lt [N]     instead of synthesising an object, run "
               "the loosely-timed\n"
               "                     refinement gate: replay N seeded random "
               "transactions\n"
               "                     (default 40) through the LT fast path, "
               "the functional\n"
               "                     model and the synthesised pin-level PCI "
               "system, and\n"
               "                     require transcript + coverage "
               "equivalence.  --stats\n"
               "                     prints the LT counters (quanta, warps, "
               "DMI hits, ...)\n",
               argv0, argv0, argv0);
  return 2;
}

// The loosely-timed refinement gate (`--equiv-lt`): the paper's step-3
// consistency check applied to the temporally decoupled engine.  Three
// runs of the same seeded workload -- LT fast path, functional TLM,
// synthesised pin-level RTL -- must agree on transcript and coverage.
int run_equiv_lt(std::size_t transactions, std::uint64_t seed,
                 bool do_stats) {
  namespace pattern = hlcs::pattern;
  namespace tlm = hlcs::tlm;
  namespace verify = hlcs::verify;
  namespace pci = hlcs::pci;
  namespace sim = hlcs::sim;

  const auto workload = tlm::random_workload(
      tlm::WorkloadConfig{.base = 0x1000, .span = 0x400, .seed = seed},
      transactions);

  // Leg 1: loosely-timed fast path (quantum-decoupled stimuli engine).
  sim::Kernel lt_k;
  tlm::TlmMemory lt_mem(0x1000, 0x1000);
  pattern::LtBusInterface lt_bus(lt_k, "lt", lt_mem);
  pattern::LtStimuliEngine lt_eng(lt_bus, workload);
  for (int s = 0; s < 100 && !lt_eng.done(); ++s)
    lt_k.run_for(sim::Time::ms(1));
  if (!lt_eng.done()) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: LT engine stalled\n");
    return 1;
  }

  // Leg 2: functional (cycle-approximate) model.
  sim::Kernel fn_k;
  tlm::TlmMemory fn_mem(0x1000, 0x1000);
  pattern::FunctionalBusInterface fn_bus(fn_k, "iface", fn_mem);
  pattern::Application fn_app(fn_k, "app", fn_bus, workload);
  for (int s = 0; s < 100 && !fn_app.done(); ++s)
    fn_k.run_for(sim::Time::ms(1));
  if (!fn_app.done()) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: functional model stalled\n");
    return 1;
  }

  // Leg 3: synthesised channel + pin-level PCI system.
  sim::Kernel rtl_k;
  sim::Clock clk(rtl_k, "clk", sim::Time::ns(10));
  pci::PciBus bus(rtl_k, "pci", clk);
  pci::PciArbiter arb(rtl_k, "arb", bus);
  pci::PciMonitor mon(rtl_k, "mon", bus);
  pci::PciTarget target(rtl_k, "t0", bus,
                        pci::TargetConfig{.base = 0x1000, .size = 0x1000});
  pattern::RtlPciSystem system(rtl_k, "rtl_sys", bus, arb);
  verify::Transcript rtl;
  bool rtl_done = false;
  rtl_k.spawn("app", [&]() -> sim::Task {
    for (const pattern::CommandType& cmd : workload) {
      const sim::Time issued = rtl_k.now();
      pattern::ResponseType resp;
      co_await system.execute(cmd, resp);
      rtl.record(cmd, resp, issued, rtl_k.now());
    }
    rtl_done = true;
  });
  for (int s = 0; s < 5000 && !rtl_done; ++s)
    rtl_k.run_for(sim::Time::us(10));
  if (!rtl_done) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: pin-level system stalled\n");
    return 1;
  }
  if (!mon.violations().empty()) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: protocol violation: %s\n",
                 mon.violations().front().c_str());
    return 1;
  }

  const auto fn_cmp =
      verify::compare_functional(fn_app.transcript(), lt_eng.transcript());
  if (!fn_cmp) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: lt vs functional: %s\n",
                 fn_cmp.first_difference.c_str());
    return 1;
  }
  const auto rtl_cmp = verify::compare_functional(lt_eng.transcript(), rtl);
  if (!rtl_cmp) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: lt vs rtl: %s\n",
                 rtl_cmp.first_difference.c_str());
    return 1;
  }
  verify::Coverage cov_lt, cov_fn, cov_rtl;
  cov_lt.observe(lt_eng.transcript());
  cov_fn.observe(fn_app.transcript());
  cov_rtl.observe(rtl);
  if (cov_lt.report() != cov_fn.report() ||
      cov_lt.report() != cov_rtl.report()) {
    std::fprintf(stderr, "LT REFINEMENT FAILED: coverage reports differ\n");
    return 1;
  }

  if (do_stats) {
    const tlm::TlmStats& ts = lt_bus.tlm_stats();
    std::fprintf(stderr,
                 "lt stats: %llu transactions, %llu quanta, %llu syncs "
                 "(%llu warps), %llu dmi hits, %llu dmi misses, %llu "
                 "batched guarded calls\n",
                 static_cast<unsigned long long>(ts.transactions),
                 static_cast<unsigned long long>(ts.quanta),
                 static_cast<unsigned long long>(ts.syncs),
                 static_cast<unsigned long long>(ts.warps),
                 static_cast<unsigned long long>(ts.dmi_hits),
                 static_cast<unsigned long long>(ts.dmi_misses),
                 static_cast<unsigned long long>(ts.batched_guarded_calls));
  }
  std::fprintf(stderr,
               "LT refinement PASS: %zu transactions, seed 0x%llx "
               "(lt == functional == rtl, coverage identical)\n",
               transactions, static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hlcs::synth;
  if (argc < 2) return usage(argv[0]);

  std::string input;
  std::string monitor_pack;
  std::string out_path;
  std::string tb_path;
  SynthOptions opt;
  std::size_t check_cycles = 1000;
  std::uint64_t seed = 0xCAFE;
  std::size_t equiv_lanes = 1;
  unsigned equiv_threads = 1;
  bool equiv_lt = false;
  std::size_t equiv_lt_txns = 40;
  bool do_stats = false;
  bool do_optimize = false;
  bool do_report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument (%s)\n", a.c_str(),
                     what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--clients") {
      opt.clients = hlcs::cli::parse_number<std::size_t>(a, next("count"));
    } else if (a == "--policy") {
      try {
        opt.policy = hlcs::osss::parse_policy(next("name"));
      } catch (const hlcs::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (a == "--optimize") {
      do_optimize = true;
    } else if (a == "--check") {
      check_cycles = hlcs::cli::parse_number<std::size_t>(a, next("cycles"));
    } else if (a == "--seed") {
      seed = hlcs::cli::parse_number(a, next("seed"));
    } else if (a == "--lanes") {
      equiv_lanes = hlcs::cli::parse_number<std::size_t>(a, next("count"));
    } else if (a == "--equiv-lt") {
      equiv_lt = true;
      // Optional transaction count: consume the next argv only if it is
      // a bare number, so `--equiv-lt --stats` still parses.
      if (i + 1 < argc && argv[i + 1][0] != '\0' &&
          std::strspn(argv[i + 1], "0123456789") ==
              std::strlen(argv[i + 1])) {
        equiv_lt_txns = hlcs::cli::parse_number<std::size_t>(a, argv[++i]);
      }
    } else if (a == "--equiv-threads") {
      equiv_threads = hlcs::cli::parse_number<unsigned>(a, next("count"));
    } else if (a == "--stats") {
      do_stats = true;
    } else if (a == "-o") {
      out_path = next("file");
    } else if (a == "--testbench") {
      tb_path = next("file");
    } else if (a == "--report") {
      do_report = true;
    } else if (a == "--monitor") {
      monitor_pack = next("pack");
    } else if (a == "--help" || a == "-h") {
      return usage(argv[0]);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    } else if (input.empty()) {
      input = a;
    } else {
      std::fprintf(stderr, "multiple inputs given\n");
      return 2;
    }
  }
  // LT refinement mode: run the three-way loosely-timed consistency
  // gate -- no .obj input involved.
  if (equiv_lt) {
    if (!input.empty() || !tb_path.empty() || !monitor_pack.empty()) {
      std::fprintf(stderr,
                   "--equiv-lt takes no .obj input, --testbench or "
                   "--monitor\n");
      return 2;
    }
    if (equiv_lt_txns == 0) {
      std::fprintf(stderr, "--equiv-lt requires at least 1 transaction\n");
      return 2;
    }
    try {
      return run_equiv_lt(equiv_lt_txns, seed, do_stats);
    } catch (const hlcs::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  // Monitor mode: lower a shipped property pack to its synthesisable
  // monitor automaton -- no .obj input involved.
  if (!monitor_pack.empty()) {
    if (!input.empty() || !tb_path.empty()) {
      std::fprintf(stderr,
                   "--monitor takes no .obj input and no --testbench\n");
      return 2;
    }
    try {
      const hlcs::check::Spec spec = [&]() -> hlcs::check::Spec {
        if (monitor_pack == "pci") {
          return hlcs::check::pci_rules(hlcs::check::PciRuleOptions{
              .arbitration = true, .latency_bound = 16});
        }
        if (monitor_pack == "shared_object") {
          return hlcs::check::shared_object_rules(/*starvation_bound=*/8);
        }
        hlcs::fail("unknown monitor pack '" + monitor_pack +
                   "' (pci | shared_object)");
      }();
      const hlcs::check::Automaton a = hlcs::check::compile(spec);
      Netlist nl = hlcs::check::lower(a);
      std::fprintf(stderr,
                   "monitor pack '%s': %zu signals, %zu properties, %zu "
                   "state registers\n",
                   monitor_pack.c_str(), a.signals.size(), a.props.size(),
                   a.states.size());
      if (do_optimize) {
        OptimizeStats ost;
        nl = optimize(nl, &ost);
        std::fprintf(stderr,
                     "optimized: %zu -> %zu comb nodes (%zu rewrites)\n",
                     ost.nodes_before, ost.nodes_after, ost.folds);
      }
      if (do_report) {
        std::fprintf(stderr, "%s\n", report(nl).to_string().c_str());
      }
      const std::string verilog = emit_verilog(nl);
      if (out_path.empty()) {
        std::cout << verilog;
      } else {
        std::ofstream(out_path) << verilog;
        std::fprintf(stderr, "wrote %s (%zu bytes)\n", out_path.c_str(),
                     verilog.size());
      }
    } catch (const hlcs::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  if (input.empty()) return usage(argv[0]);

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", input.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  try {
    std::vector<ObjectDesc> parsed = parse_objects(ss.str());
    ObjectDesc desc = [&]() -> ObjectDesc {
      if (parsed.size() == 1) return std::move(parsed[0]);
      // Several objects in one file: synthesise them as a polymorphic
      // object (late-binding dispatch over a type tag).
      std::vector<const ObjectDesc*> impls;
      for (const ObjectDesc& d : parsed) impls.push_back(&d);
      std::fprintf(stderr,
                   "%zu implementations found: building polymorphic object\n",
                   parsed.size());
      return make_polymorphic(parsed[0].name() + "_poly", impls, 0);
    }();
    std::fprintf(stderr, "parsed object '%s': %zu vars, %zu methods\n",
                 desc.name().c_str(), desc.vars().size(),
                 desc.methods().size());

    Netlist nl = synthesize(desc, opt);
    if (do_optimize) {
      OptimizeStats ost;
      nl = optimize(nl, &ost);
      std::fprintf(stderr,
                   "optimized: %zu -> %zu comb nodes (%zu rewrites)\n",
                   ost.nodes_before, ost.nodes_after, ost.folds);
    }
    if (do_report) {
      std::fprintf(stderr, "%s\n", report(nl).to_string().c_str());
    }

    EquivResult equiv;
    if (check_cycles > 0) {
      equiv = check_equivalence(
          desc, opt, nl,
          EquivOptions{.cycles = check_cycles, .seed = seed,
                       .lanes = equiv_lanes, .threads = equiv_threads});
      if (!equiv) {
        std::fprintf(stderr, "EQUIVALENCE FAILED: %s\n",
                     equiv.first_mismatch.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "equivalence PASS: %zu lanes, %zu cycles total, %zu "
                   "method grants\n",
                   equiv.lanes, equiv.cycles, equiv.grants);
      if (do_stats && equiv.jit_stats.enabled) {
        const JitStats& js = equiv.jit_stats;
        std::fprintf(
            stderr,
            "jit stats: %llu ns compile, %llu code bytes, %llu "
            "stencils, %llu segments, %llu/%llu combs native, %llu "
            "native calls, %llu deopt evals\n",
            static_cast<unsigned long long>(js.compile_ns),
            static_cast<unsigned long long>(js.code_bytes),
            static_cast<unsigned long long>(js.stencils),
            static_cast<unsigned long long>(js.segments),
            static_cast<unsigned long long>(js.combs_native),
            static_cast<unsigned long long>(js.combs_native + js.combs_deopt),
            static_cast<unsigned long long>(js.native_calls),
            static_cast<unsigned long long>(js.deopt_comb_evals));
        for (const auto& [name, hits] : js.deopt_hits()) {
          std::fprintf(stderr, "  deopt %-10s x%llu\n", name.c_str(),
                       static_cast<unsigned long long>(hits));
        }
      }
    }

    const std::string verilog = emit_verilog(nl);
    if (out_path.empty()) {
      std::cout << verilog;
    } else {
      std::ofstream(out_path) << verilog;
      std::fprintf(stderr, "wrote %s (%zu bytes)\n", out_path.c_str(),
                   verilog.size());
    }
    if (!tb_path.empty()) {
      if (equiv.vectors.empty()) {
        std::fprintf(stderr,
                     "--testbench requires --check > 0 (vectors come from "
                     "the equivalence run)\n");
        return 2;
      }
      std::ofstream(tb_path) << emit_verilog_testbench(nl, equiv.vectors);
      std::fprintf(stderr, "wrote %s (%zu vectors)\n", tb_path.c_str(),
                   equiv.vectors.size());
    }
  } catch (const hlcs::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
