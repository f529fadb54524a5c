#include "ladder.hpp"

#include <exception>
#include <filesystem>
#include <memory>
#include <optional>

#include "hlcs/check/check.hpp"
#include "hlcs/pattern/pattern.hpp"
#include "hlcs/pci/pci.hpp"
#include "hlcs/sim/sim.hpp"
#include "hlcs/tlm/tlm.hpp"
#include "hlcs/verify/compare.hpp"
#include "hlcs/verify/coverage.hpp"
#include "hlcs/verify/vcd_reader.hpp"

namespace flowbench {

namespace {

using namespace hlcs;
using pattern::CommandType;

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint32_t kSize = 0x1000;
// One LT run takes about a fifth of the functional rung's host time and
// its speed swings run to run with the allocator's state, so the LT rung
// runs this many times per ladder run: comparable host time to the other
// rungs and enough samples for a steady median.
constexpr int kLtRuns = 4;
// 33 MHz PCI clock for every clocked rung.
constexpr sim::Time kPciPeriod = sim::Time::ns(30);
const pci::TargetConfig kTarget{.base = kBase, .size = kSize};

/// Construct `slot` in place inside a span named `name`.
template <class T, class... Args>
T& make(std::optional<T>& slot, Tracer& tr, const char* name,
        std::uint32_t op, const char* tag, Args&&... args) {
  Scope s(tr, name, op, tag);
  return slot.emplace(std::forward<Args>(args)...);
}

std::vector<CommandType> head(const std::vector<CommandType>& s,
                              std::size_t n) {
  return {s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// State shared by the rung runs of one ladder run.
struct Ladder {
  Tracer& tr;
  std::uint32_t op = 0;  ///< operation id of the run in progress
  PassResult& out;
  const verify::Transcript* reference = nullptr;  ///< functional transcript
  std::int64_t setup_ns = 0;

  void count(const std::string& key, double v) { out.counts[key] += v; }
};

/// One rung's host-side record, filled by drive() and check().
struct Rung {
  const char* name;
  std::size_t cmds;
  std::string error;
  std::int64_t run_ns = 0;
};

/// Advance the kernel in `slice` steps until `done()`.  A rung is
/// stalled when its kernel runs out of work first, which is how a hung
/// untimed rung shows, or when a clocked rung has not finished after
/// 100 us of simulated time per command.
template <class Done>
void drive(Ladder& L, Rung& r, sim::Kernel& k, sim::Time slice, Done done) {
  const sim::Time limit =
      sim::Time::ms(1) + sim::Time::us(100) * std::uint64_t{r.cmds};
  bool idle = false;
  {
    Scope s(L.tr, "sim.run", L.op, r.name);
    const std::int64_t t0 = cpu_ns();
    while (!done() && k.now() < limit) {
      idle = k.next_activity() == sim::Time::max();
      if (idle) break;
      k.run_for(slice);
    }
    r.run_ns = cpu_ns() - t0;
  }
  if (!done()) {
    r.error = std::string(idle ? "stalled (kernel idle)" : "stalled") +
              " at " + k.now().to_string();
  }
  const sim::KernelStats& ks = k.stats();
  const std::string tag(r.name);
  L.count("sim.deltas." + tag, static_cast<double>(ks.deltas));
  L.count("sim.timed_actions." + tag, static_cast<double>(ks.timed_actions));
  L.count("sim.sim_ps." + tag, static_cast<double>(k.now().picos()));
}

/// Transcript of `got` against the functional rung's first r.cmds
/// commands.  compare_functional matches every entry's op, address,
/// status and data, and coverage bins only op, status and burst length,
/// so equal transcripts have equal coverage; collecting `got`'s coverage
/// is timed as the cost of that report, not as a second check.
void check(Ladder& L, Rung& r, const verify::Transcript& got) {
  if (!r.error.empty()) return;
  const verify::Transcript& ref = *L.reference;
  const verify::CompareResult cmp =
      traced(L.tr, "verify.transcript_compare", L.op,
             [&] { return verify::compare_functional(ref, got); }, r.name);
  if (got.size() != r.cmds || cmp.compared != r.cmds) {
    r.error = "transcript differs from functional: " + cmp.first_difference;
    return;
  }
  verify::Coverage c;
  traced(L.tr, "verify.coverage", L.op, [&] { c.observe(got); }, r.name);
}

/// Record a finished rung: its rate sample, or its failure.
void finish(Ladder& L, const Rung& r) {
  ++L.out.attempted;
  if (!r.error.empty()) {
    L.out.fail(std::string(r.name) + " rung: " + r.error);
    return;
  }
  L.out.samples[std::string(r.name) + "_txn_per_s"].push_back(
      static_cast<double>(r.cmds) / seconds(r.run_ns));
}

template <class Sys>
void teardown(Ladder& L, const char* rung, std::unique_ptr<Sys>& sys) {
  Scope s(L.tr, "sim.teardown", L.op, rung);
  sys.reset();
}

struct FunctionalSystem {
  std::optional<sim::Kernel> k;
  std::optional<tlm::TlmMemory> mem;
  std::optional<pattern::FunctionalBusInterface> bus;
  std::optional<pattern::Application> app;
};

/// The reference rung; the caller keeps the system alive while the other
/// rungs are compared with its transcript.
std::unique_ptr<FunctionalSystem> run_functional(
    Ladder& L, const std::vector<CommandType>& stream, std::size_t n) {
  Rung r{"functional", n, "", 0};
  auto sys = std::make_unique<FunctionalSystem>();
  {
    const std::int64_t t0 = cpu_ns();
    Scope s(L.tr, "sim.build", L.op, r.name);
    sim::Kernel& k = sys->k.emplace();
    auto& mem = make(sys->mem, L.tr, "tlm.memory", L.op, r.name, kBase, kSize);
    auto& bus = make(sys->bus, L.tr, "pattern.interface", L.op, r.name, k,
                     "iface", mem);
    make(sys->app, L.tr, "pattern.application", L.op, r.name, k, "app", bus,
         head(stream, n));
    L.setup_ns += cpu_ns() - t0;
  }
  drive(L, r, *sys->k, sim::Time::ms(1), [&] { return sys->app->done(); });
  L.count("osss.grants.functional",
          static_cast<double>(sys->bus->channel().object().stats().grants));
  if (r.error.empty() && sys->app->transcript().size() != n) {
    r.error = "transcript has " +
              std::to_string(sys->app->transcript().size()) + " entries";
  }
  finish(L, r);
  if (!r.error.empty()) teardown(L, r.name, sys);
  return sys;
}

void run_lt(Ladder& L, const std::vector<CommandType>& stream, std::size_t n) {
  struct Sys {
    std::optional<sim::Kernel> k;
    std::optional<tlm::TlmMemory> mem;
    std::optional<pattern::LtBusInterface> bus;
    std::optional<pattern::LtStimuliEngine> eng;
  };
  Rung r{"lt", n, "", 0};
  auto sys = std::make_unique<Sys>();
  {
    const std::int64_t t0 = cpu_ns();
    Scope s(L.tr, "sim.build", L.op, r.name);
    sim::Kernel& k = sys->k.emplace();
    auto& mem = make(sys->mem, L.tr, "tlm.memory", L.op, r.name, kBase, kSize);
    auto& bus =
        make(sys->bus, L.tr, "pattern.interface", L.op, r.name, k, "lt", mem);
    make(sys->eng, L.tr, "pattern.application", L.op, r.name, bus,
         head(stream, n));
    L.setup_ns += cpu_ns() - t0;
  }
  drive(L, r, *sys->k, sim::Time::ms(1), [&] { return sys->eng->done(); });
  const tlm::TlmStats& ts = sys->bus->tlm_stats();
  L.count("tlm.quanta", static_cast<double>(ts.quanta));
  L.count("tlm.time_warps", static_cast<double>(ts.warps));
  L.count("tlm.dmi_hits", static_cast<double>(ts.dmi_hits));
  L.count("tlm.dmi_misses", static_cast<double>(ts.dmi_misses));
  L.count("tlm.batched_calls", static_cast<double>(ts.batched_guarded_calls));
  L.count("osss.grants.lt",
          static_cast<double>(sys->bus->channel().object().stats().grants));
  check(L, r, sys->eng->transcript());
  teardown(L, r.name, sys);
  finish(L, r);
}

void run_pin(Ladder& L, const std::vector<CommandType>& stream, std::size_t n) {
  struct Sys {
    std::optional<sim::Kernel> k;
    std::optional<sim::Clock> clk;
    std::optional<pci::PciBus> bus;
    std::optional<pci::PciArbiter> arb;
    std::optional<pci::PciMonitor> mon;
    std::optional<pci::PciTarget> tgt;
    std::optional<pattern::PciBusInterface> iface;
    std::optional<pattern::Application> app;
  };
  Rung r{"pin", n, "", 0};
  auto sys = std::make_unique<Sys>();
  {
    const std::int64_t t0 = cpu_ns();
    Scope s(L.tr, "sim.build", L.op, r.name);
    sim::Kernel& k = sys->k.emplace();
    auto& clk = sys->clk.emplace(k, "clk", kPciPeriod);
    auto& bus = make(sys->bus, L.tr, "pci.bus", L.op, r.name, k, "pci", clk);
    auto& arb =
        make(sys->arb, L.tr, "pci.arbiter", L.op, r.name, k, "arb", bus);
    make(sys->mon, L.tr, "pci.monitor", L.op, r.name, k, "mon", bus);
    make(sys->tgt, L.tr, "pci.target", L.op, r.name, k, "t0", bus, kTarget);
    auto& iface = make(sys->iface, L.tr, "pattern.interface", L.op, r.name, k,
                       "iface", bus, arb);
    make(sys->app, L.tr, "pattern.application", L.op, r.name, k, "app", iface,
         head(stream, n));
    L.setup_ns += cpu_ns() - t0;
  }
  drive(L, r, *sys->k, sim::Time::us(10), [&] { return sys->app->done(); });
  if (r.error.empty() && !sys->mon->violations().empty()) {
    r.error = "PCI violation: " + sys->mon->violations().front();
  }
  L.count("pci.tenures.pin", static_cast<double>(sys->mon->records().size()));
  L.count("osss.grants.pin",
          static_cast<double>(sys->iface->channel().object().stats().grants));
  check(L, r, sys->app->transcript());
  teardown(L, r.name, sys);
  finish(L, r);
}

void run_rtl(Ladder& L, const std::vector<CommandType>& stream, std::size_t n) {
  struct Sys {
    // Declared first so the kernel destroys the application coroutine
    // before these go.
    std::vector<CommandType> cmds;
    verify::Transcript transcript;
    bool done = false;
    std::optional<sim::Kernel> k;
    std::optional<sim::Clock> clk;
    std::optional<pci::PciBus> bus;
    std::optional<pci::PciArbiter> arb;
    std::optional<pci::PciMonitor> mon;
    std::optional<pci::PciTarget> tgt;
    std::optional<pattern::RtlPciSystem> system;
  };
  Rung r{"rtl", n, "", 0};
  auto sys = std::make_unique<Sys>();
  {
    const std::int64_t t0 = cpu_ns();
    Scope s(L.tr, "sim.build", L.op, r.name);
    sim::Kernel& k = sys->k.emplace();
    auto& clk = sys->clk.emplace(k, "clk", kPciPeriod);
    auto& bus = make(sys->bus, L.tr, "pci.bus", L.op, r.name, k, "pci", clk);
    auto& arb =
        make(sys->arb, L.tr, "pci.arbiter", L.op, r.name, k, "arb", bus);
    make(sys->mon, L.tr, "pci.monitor", L.op, r.name, k, "mon", bus);
    make(sys->tgt, L.tr, "pci.target", L.op, r.name, k, "t0", bus, kTarget);
    make(sys->system, L.tr, "pattern.rtl_system", L.op, r.name, k, "rtl_sys",
         bus, arb);
    sys->cmds = head(stream, n);
    Sys* p = sys.get();
    k.spawn("app", [p]() -> sim::Task {
      for (const CommandType& cmd : p->cmds) {
        const sim::Time issued = p->k->now();
        pattern::ResponseType resp;
        co_await p->system->execute(cmd, resp);
        p->transcript.record(cmd, resp, issued, p->k->now());
      }
      p->done = true;
    });
    L.setup_ns += cpu_ns() - t0;
  }
  drive(L, r, *sys->k, sim::Time::us(10), [&] { return sys->done; });
  if (r.error.empty() && !sys->mon->violations().empty()) {
    r.error = "PCI violation: " + sys->mon->violations().front();
  }
  L.count("pci.tenures.rtl", static_cast<double>(sys->mon->records().size()));
  L.count("osss.grants.rtl",
          static_cast<double>(sys->system->rtl_channel().grants()));
  check(L, r, sys->transcript);
  teardown(L, r.name, sys);
  finish(L, r);
}

/// One traced, property-monitored pin-level run writing `vcd`, as
/// bench/fig4_waveforms runs it.  Returns the failure, or "".
std::string wave_run(Ladder& L, const std::vector<CommandType>& stream,
                     std::size_t n, const std::string& vcd) {
  struct Sys {
    std::optional<sim::Trace> trace;  // outlives every traced signal
    std::optional<sim::Kernel> k;
    std::optional<sim::Clock> clk;
    std::optional<pci::PciBus> bus;
    std::optional<pci::PciArbiter> arb;
    std::optional<pci::PciMonitor> mon;
    std::optional<pci::PciTarget> tgt;
    std::optional<pattern::PciBusInterface> iface;
    std::optional<check::Monitor> beh;
    std::optional<check::NetlistMonitor> rtl;
    std::optional<pattern::Application> app;
  };
  Rung r{"wave", n, "", 0};
  auto sys = std::make_unique<Sys>();
  {
    Scope s(L.tr, "sim.build", L.op, r.name);
    auto& trace = make(sys->trace, L.tr, "sim.trace_open", L.op, r.name, vcd);
    sim::Kernel& k = sys->k.emplace();
    auto& clk = sys->clk.emplace(k, "clk", kPciPeriod);
    auto& bus = make(sys->bus, L.tr, "pci.bus", L.op, r.name, k, "pci", clk);
    auto& arb =
        make(sys->arb, L.tr, "pci.arbiter", L.op, r.name, k, "arb", bus);
    make(sys->mon, L.tr, "pci.monitor", L.op, r.name, k, "mon", bus);
    make(sys->tgt, L.tr, "pci.target", L.op, r.name, k, "t0", bus, kTarget);
    auto& iface = make(sys->iface, L.tr, "pattern.interface", L.op, r.name, k,
                       "iface", bus, arb);
    {
      Scope c(L.tr, "check.monitors", L.op, r.name);
      const check::Spec spec =
          check::pci_rules(check::PciRuleOptions{.arbitration = true});
      const check::ProbeSet probes =
          check::pci_probes(bus, {iface.arb_port().gnt});
      sys->beh.emplace(k, "beh", spec, clk, probes);
      sys->rtl.emplace(k, "rtl", spec, clk, probes);
    }
    {
      Scope t(L.tr, "pci.trace_all", L.op, r.name);
      bus.trace_all(trace);
    }
    k.attach_trace(trace);
    make(sys->app, L.tr, "pattern.application", L.op, r.name, k, "app", iface,
         head(stream, n));
  }
  drive(L, r, *sys->k, sim::Time::us(10), [&] { return sys->app->done(); });
  const check::CheckStats& beh = sys->beh->stats();
  const check::CheckStats& rtl = sys->rtl->stats();
  L.count("check.prop_attempts",
          static_cast<double>(beh.attempts() + rtl.attempts()));
  L.count("check.prop_fails", static_cast<double>(beh.fails() + rtl.fails()));
  if (r.error.empty() && !sys->mon->violations().empty()) {
    r.error = "PCI violation: " + sys->mon->violations().front();
  }
  if (r.error.empty() && beh.fails() + rtl.fails() != 0) {
    r.error = std::to_string(beh.fails() + rtl.fails()) + " property failures";
  }
  bool agree = beh.edges == rtl.edges && beh.props.size() == rtl.props.size();
  for (std::size_t i = 0; agree && i < beh.props.size(); ++i) {
    const check::PropertyStats& a = beh.props[i];
    const check::PropertyStats& b = rtl.props[i];
    agree = a.attempts == b.attempts && a.passes == b.passes &&
            a.fails == b.fails && a.vacuous == b.vacuous;
  }
  if (r.error.empty() && !agree) {
    r.error = "behavioural and netlist monitors disagree";
  }
  check(L, r, sys->app->transcript());
  teardown(L, r.name, sys);
  return r.error;
}

/// Fig. 4 step 3: two traced runs, then a streaming VCD comparison.
void run_wave_check(Ladder& L, const std::vector<CommandType>& stream,
                    std::size_t n, const std::string& dir,
                    std::int64_t& untimed_ns) {
  const std::string a = dir + "/wave_a.vcd";
  const std::string b = dir + "/wave_b.vcd";
  const std::int64_t t0 = cpu_ns();
  std::string error = wave_run(L, stream, n, a);
  if (error.empty()) error = wave_run(L, stream, n, b);
  if (error.empty()) {
    const verify::WaveCompareResult wc = traced(
        L.tr, "verify.vcd_compare", L.op,
        [&] { return verify::compare_vcd_files(a, b); }, "wave");
    if (!wc) {
      error = "VCD mismatch: " + wc.first_difference;
    } else if (wc.signals_compared == 0) {
      error = "VCD comparison saw no common signals";
    }
  }
  const std::int64_t t1 = cpu_ns();
  ++L.out.attempted;
  if (!error.empty()) {
    L.out.fail("waveform check: " + error);
  } else {
    L.out.samples["waveform_check_s"].push_back(seconds(t1 - t0));
  }
  std::error_code ec;
  L.count("sim.vcd_bytes",
          static_cast<double>(std::filesystem::file_size(a, ec) +
                              std::filesystem::file_size(b, ec)));
  std::filesystem::remove(a, ec);
  std::filesystem::remove(b, ec);
  untimed_ns += cpu_ns() - t1;
}

}  // namespace

LadderTimes run_ladder(const LadderSpec& spec,
                       const std::vector<CommandType>& stream,
                       PassContext& ctx, PassResult& out) {
  Ladder L{*ctx.tracer, ctx.next_op++, out, nullptr, 0};
  LadderTimes times;
  // A library call that throws fails the operation in progress and ends
  // this ladder run.
  try {
    const std::uint32_t fn_op = L.op;
    std::unique_ptr<FunctionalSystem> fn =
        run_functional(L, stream, spec.functional);
    if (fn) {
      L.reference = &fn->app->transcript();
      for (int i = 0; i < kLtRuns; ++i) {
        L.op = ctx.next_op++;
        run_lt(L, stream, spec.functional);
      }
      L.op = ctx.next_op++;
      run_pin(L, stream, spec.pin);
      L.op = ctx.next_op++;
      run_rtl(L, stream, spec.rtl);
      L.op = ctx.next_op++;
      run_wave_check(L, stream, spec.wave, ctx.work_dir, times.untimed_ns);
      L.op = fn_op;
      teardown(L, "functional", fn);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail("ladder operation " + std::to_string(L.op) + " threw: " +
             e.what());
  }
  times.setup_ns = L.setup_ns;
  return times;
}

}  // namespace flowbench
