// hlcs_sweep -- design-space exploration driver for the FW1 experiment.
//
// Sweeps arbitration policy x client count over a clocked global object
// and reports mean/max grant latency and throughput per point.  The
// sweep runs on a ParallelSweep thread pool: each point is a private
// deterministic Kernel, so --threads changes wall-clock time only, never
// the numbers.  --verify demonstrates that by re-running serially and
// comparing every transcript byte for byte.
//
// --equiv [lanes] switches to the fig.4 viability loop instead: every
// policy x client point is synthesised to RT level and verified against
// the interpreted specification over that many seeded lanes (64 by
// default), points sharded over the same worker pool.
//
// --lt switches to the loosely-timed refinement sweep: workload kind x
// quantum length, each point replaying the same seeded stimuli through
// the quantum-decoupled LT engine and the functional reference and
// requiring transcript equality.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "hlcs/osss/osss.hpp"
#include "hlcs/pattern/pattern.hpp"
#include "hlcs/sim/sim.hpp"
#include "hlcs/sim/sweep.hpp"
#include "hlcs/synth/synth.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "hlcs/verify/compare.hpp"
#include "cli_number.hpp"

namespace {

using namespace hlcs;
using namespace hlcs::sim::literals;
using osss::PolicyKind;

constexpr PolicyKind kPolicies[] = {PolicyKind::Fifo, PolicyKind::RoundRobin,
                                    PolicyKind::StaticPriority,
                                    PolicyKind::Random};
constexpr int kClientCounts[] = {1, 2, 4, 8, 16, 32};

struct SweepConfig {
  std::uint64_t cycles = 2000;
  bool cycles_set = false;
};

void run_point(std::size_t index, sim::Kernel& k, std::string& transcript,
               const SweepConfig& cfg) {
  const std::size_t n_clients = std::size(kClientCounts);
  const PolicyKind policy = kPolicies[index / n_clients];
  const int clients = kClientCounts[index % n_clients];

  sim::Clock clk(k, "clk", 10_ns);
  // Each point gets its own policy seed derived from the point index, so
  // RandomArbitration streams are decorrelated across points yet the
  // whole sweep stays reproducible at any thread count.
  osss::SharedObject<std::uint64_t> obj(
      k, "obj", clk, osss::make_policy(policy, sim::lane_seed(0xF1F0, index)),
      0);
  for (int c = 0; c < clients; ++c) {
    auto client = obj.make_client("c" + std::to_string(c));
    k.spawn("p" + std::to_string(c), [&k, client]() -> sim::Task {
      for (;;) co_await client.call([](std::uint64_t& v) { ++v; });
    });
  }
  k.run_for(sim::Time::ns(cfg.cycles * 10));

  const auto& st = obj.stats();
  std::uint64_t waited = 0, granted = 0, max_wait = 0;
  for (const auto& cs : st.clients) {
    waited += cs.wait_total;
    granted += cs.granted;
    if (cs.wait_max > max_wait) max_wait = cs.wait_max;
  }
  const double mean =
      granted ? static_cast<double>(waited) / static_cast<double>(granted) : 0;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-15s clients=%-3d grants=%llu mean_wait=%.3f max_wait=%llu "
                "pool_hits=%llu pool_misses=%llu\n",
                osss::policy_name(policy).c_str(), clients,
                static_cast<unsigned long long>(st.grants), mean,
                static_cast<unsigned long long>(max_wait),
                static_cast<unsigned long long>(st.pending_pool_hits),
                static_cast<unsigned long long>(st.pending_pool_misses));
  transcript += line;
}

/// A small comb-dominated shared object for the --equiv sweep: xor/and/
/// mux datapaths, all of which the JIT compiles natively.
synth::ObjectDesc make_equiv_object() {
  using namespace hlcs::synth;
  ObjectDesc d("sweep_mix");
  auto& A = d.arena();
  const std::uint32_t acc = d.add_var("acc", 16, 0x1234);
  const std::uint32_t flags = d.add_var("flags", 8, 0xA5);
  {
    auto b = d.add_method("mix");
    b.arg("x", 16);
    ExprId x = A.arg(0, 16);
    ExprId a = A.var(acc, 16);
    ExprId sel = A.bin(ExprOp::Eq, A.slice(x, 0, 2), A.cst(3, 2));
    b.assign(acc, A.mux(sel, A.bin(ExprOp::Xor, a, x),
                        A.bin(ExprOp::And, a, A.un(ExprOp::Not, x))));
    b.assign(flags,
             A.bin(ExprOp::Xor, A.var(flags, 8), A.slice(x, 8, 8)));
    b.returns(A.bin(ExprOp::Or, A.var(flags, 8), A.slice(a, 0, 8)), 8);
  }
  {
    auto b = d.add_method("poke");
    b.arg("m", 8);
    b.assign(flags, A.bin(ExprOp::Or, A.var(flags, 8), A.arg(0, 8)));
  }
  return d;
}

void run_equiv_point(std::size_t index, std::string& transcript,
                     const synth::ObjectDesc& desc, const SweepConfig& cfg,
                     std::size_t lanes) {
  using namespace hlcs::synth;
  const std::size_t n_clients = std::size(kClientCounts);
  const PolicyKind policy = kPolicies[index / n_clients];
  const int clients = kClientCounts[index % n_clients];
  // One root seed per point; lanes derive their streams via splitmix64,
  // so the whole sweep is reproducible from the transcript alone.
  const EquivResult r = check_equivalence(
      desc,
      SynthOptions{.clients = static_cast<std::size_t>(clients),
                   .policy = policy},
      EquivOptions{.cycles = cfg.cycles, .seed = 0x5EED0 + index,
                   .reset_percent = 3, .lanes = lanes});
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-15s clients=%-3d equiv=%s lanes=%zu cycles=%zu "
                "grants=%zu\n",
                osss::policy_name(policy).c_str(), clients,
                r.equal ? "PASS" : "FAIL", r.lanes, r.cycles, r.grants);
  transcript += line;
  if (!r.equal) {
    transcript += "  first mismatch: " + r.first_mismatch + "\n";
  }
}

// ----- loosely-timed refinement sweep (--lt) ---------------------------

constexpr const char* kLtWorkloads[] = {"sequential", "random", "dma"};
constexpr std::uint64_t kLtQuanta[] = {1, 16, 1024};  // commands per quantum

std::vector<pattern::CommandType> lt_workload(std::size_t kind,
                                              std::size_t transactions) {
  const tlm::WorkloadConfig cfg{.base = 0x1000, .span = 0x1000,
                                .seed = 0xBADC0DE};
  switch (kind) {
    case 0: return tlm::sequential_workload(cfg, transactions);
    case 1: return tlm::random_workload(cfg, transactions);
    default:
      return tlm::dma_workload(cfg, transactions / 8,
                               /*block_words=*/16);
  }
}

void run_lt_point(std::size_t index, std::string& transcript,
                  const SweepConfig& cfg) {
  const std::size_t n_quanta = std::size(kLtQuanta);
  const std::size_t kind = index / n_quanta;
  const std::uint64_t quantum_cmds = kLtQuanta[index % n_quanta];
  const auto workload = lt_workload(kind, cfg.cycles);

  // Functional reference.
  sim::Kernel fn_k;
  tlm::TlmMemory fn_mem(0x1000, 0x1000);
  pattern::FunctionalBusInterface fn_bus(fn_k, "iface", fn_mem);
  pattern::Application fn_app(fn_k, "app", fn_bus, workload);
  fn_k.run_for(sim::Time::ms(100));

  // LT fast path: the quantum is expressed in commands' worth of the
  // default 60ns single-word cost, matching the tier-1 suite's points.
  pattern::LtConfig lt_cfg;
  lt_cfg.quantum = sim::Time::ns(60) * quantum_cmds;
  sim::Kernel lt_k;
  tlm::TlmMemory lt_mem(0x1000, 0x1000);
  pattern::LtBusInterface lt_bus(lt_k, "lt", lt_mem, lt_cfg);
  pattern::LtStimuliEngine lt_eng(lt_bus, workload);
  lt_k.run_for(sim::Time::ms(100));

  const bool done = fn_app.done() && lt_eng.done();
  const auto cmp =
      verify::compare_functional(fn_app.transcript(), lt_eng.transcript());
  const auto& ts = lt_bus.tlm_stats();
  char line[200];
  std::snprintf(
      line, sizeof(line),
      "%-10s quantum=%-5llu txns=%-5llu lt=%s syncs=%llu warps=%llu "
      "dmi_hits=%llu dmi_misses=%llu batched=%llu\n",
      kLtWorkloads[kind], static_cast<unsigned long long>(quantum_cmds),
      static_cast<unsigned long long>(ts.transactions),
      done && cmp ? "PASS" : "FAIL",
      static_cast<unsigned long long>(ts.syncs),
      static_cast<unsigned long long>(ts.warps),
      static_cast<unsigned long long>(ts.dmi_hits),
      static_cast<unsigned long long>(ts.dmi_misses),
      static_cast<unsigned long long>(ts.batched_guarded_calls));
  transcript += line;
  if (!cmp) transcript += "  first difference: " + cmp.first_difference + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 0;  // 0 = hardware concurrency
  bool verify = false;
  bool equiv_mode = false;
  bool lt_mode = false;
  std::size_t equiv_lanes = 64;
  SweepConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--equiv")) {
      equiv_mode = true;
      // Optional lane count: consume the next argv only if numeric.
      if (i + 1 < argc && argv[i + 1][0] != '\0' &&
          std::strspn(argv[i + 1], "0123456789") ==
              std::strlen(argv[i + 1])) {
        equiv_lanes = cli::parse_number<std::size_t>("--equiv", argv[++i]);
      }
    } else if (!std::strcmp(argv[i], "--lt")) {
      lt_mode = true;
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = cli::parse_number<unsigned>("--threads", argv[++i]);
    } else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      cfg.cycles = cli::parse_number("--cycles", argv[++i]);
      cfg.cycles_set = true;
    } else if (!std::strcmp(argv[i], "--verify")) {
      verify = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--cycles N] [--verify] "
                   "[--equiv [lanes]] [--lt]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t points = std::size(kPolicies) * std::size(kClientCounts);

  if (lt_mode) {
    // Loosely-timed refinement sweep: workload kind x quantum length,
    // every point checked against the functional reference.  Points are
    // private kernels, so any thread count gives the same transcript;
    // --cycles sets the per-point transaction count.
    if (!cfg.cycles_set) cfg.cycles = 200;
    const std::size_t lt_points =
        std::size(kLtWorkloads) * std::size(kLtQuanta);
    std::vector<std::string> lines(lt_points);
    sim::parallel_for_indexed(lt_points, threads, [&](std::size_t i) {
      run_lt_point(i, lines[i], cfg);
    });
    std::size_t passed = 0;
    for (const std::string& l : lines) {
      std::fputs(l.c_str(), stdout);
      if (l.find("lt=PASS") != std::string::npos) ++passed;
    }
    if (verify) {
      std::vector<std::string> serial(lt_points);
      sim::parallel_for_indexed(lt_points, 1, [&](std::size_t i) {
        run_lt_point(i, serial[i], cfg);
      });
      for (std::size_t i = 0; i < lt_points; ++i) {
        if (serial[i] != lines[i]) {
          std::fprintf(stderr, "VERIFY FAILED at point %zu\n", i);
          return 1;
        }
      }
      std::puts("verify: serial and threaded lt sweeps identical");
    }
    std::printf("lt sweep: %zu/%zu points PASS\n", passed, lt_points);
    return passed == lt_points ? 0 : 1;
  }

  if (equiv_mode) {
    // Fig.4 viability sweep: synthesise + verify each point.  The
    // per-point verdicts are deterministic (root seed is the point
    // index), so any thread count produces the same transcript.
    if (!cfg.cycles_set) cfg.cycles = 200;  // per lane
    const synth::ObjectDesc desc = make_equiv_object();
    std::vector<std::string> lines(points);
    sim::parallel_for_indexed(points, threads, [&](std::size_t i) {
      run_equiv_point(i, lines[i], desc, cfg, equiv_lanes);
    });
    bool all_pass = true;
    for (const std::string& l : lines) {
      std::fputs(l.c_str(), stdout);
      if (l.find("equiv=PASS") == std::string::npos) all_pass = false;
    }
    if (verify) {
      std::vector<std::string> serial(points);
      sim::parallel_for_indexed(points, 1, [&](std::size_t i) {
        run_equiv_point(i, serial[i], desc, cfg, equiv_lanes);
      });
      for (std::size_t i = 0; i < points; ++i) {
        if (serial[i] != lines[i]) {
          std::fprintf(stderr, "VERIFY FAILED at point %zu\n", i);
          return 1;
        }
      }
      std::puts("verify: serial and threaded equiv sweeps identical");
    }
    return all_pass ? 0 : 1;
  }

  sim::ParallelSweep sweep(
      [&cfg](std::size_t i, sim::Kernel& k, std::string& t) {
        run_point(i, k, t, cfg);
      });

  auto results = sweep.run(points, threads);
  for (const auto& r : results) std::fputs(r.transcript.c_str(), stdout);

  if (verify) {
    auto serial = sweep.run(points, 1);
    for (std::size_t i = 0; i < points; ++i) {
      if (serial[i].transcript != results[i].transcript ||
          !(serial[i].stats == results[i].stats) ||
          serial[i].end_time != results[i].end_time) {
        std::fprintf(stderr, "VERIFY FAILED at point %zu\n", i);
        return 1;
      }
    }
    std::puts("verify: serial and threaded sweeps identical");
  }
  return 0;
}
