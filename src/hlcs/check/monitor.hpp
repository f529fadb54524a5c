// Clocked property monitors.  Both flavours sample the same ProbeSet on
// every rising edge and keep CheckStats; they differ only in the engine
// that turns samples into verdicts:
//
//   * check::Monitor         -- AutomatonEval (behavioural: one pass over
//                               the automaton arena per edge)
//   * check::NetlistMonitor  -- the lowered netlist in a NetlistSim
//
// Running one of each against the same design is the paper's Fig. 4
// step-3 consistency check restated over properties: identical stats
// from two independent evaluators of one specification.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hlcs/check/automaton.hpp"
#include "hlcs/check/stats.hpp"
#include "hlcs/sim/clock.hpp"
#include "hlcs/sim/module.hpp"
#include "hlcs/sim/probe.hpp"
#include "hlcs/synth/rtl_sim.hpp"

namespace hlcs::check {

/// Named probes bound to automaton signals by name at monitor
/// construction; width mismatches and missing probes throw there.
class ProbeSet {
public:
  ProbeSet& add(sim::Probe p) {
    probes_.push_back(std::move(p));
    return *this;
  }
  const std::vector<sim::Probe>& probes() const { return probes_; }

  /// Probe readers in automaton signal order.
  std::vector<const sim::Probe*> bind(const Automaton& a) const {
    std::vector<const sim::Probe*> out;
    out.reserve(a.signals.size());
    for (const SignalDecl& s : a.signals) {
      const sim::Probe* found = nullptr;
      for (const sim::Probe& p : probes_) {
        if (p.name == s.name) {
          found = &p;
          break;
        }
      }
      if (!found) fail(a.name + ": no probe bound for signal '" + s.name + "'");
      if (found->width != s.width) {
        fail(a.name + ": probe '" + s.name + "' width " +
             std::to_string(found->width) + " != signal width " +
             std::to_string(s.width));
      }
      out.push_back(found);
    }
    return out;
  }

private:
  std::vector<sim::Probe> probes_;
};

struct MonitorOptions {
  std::size_t max_recorded_failures = 64;
  bool throw_on_fail = false;
  /// Optional disable-iff condition, sampled per edge (e.g. reset).
  std::function<bool()> disable;
};

namespace detail {

/// Everything engine-independent: sampling, accounting, failure capture.
class MonitorBase : public sim::Module {
public:
  const CheckStats& stats() const { return stats_; }
  const Automaton& automaton() const { return a_; }

  std::string describe(const CheckFailure& f) const {
    return "cycle " + std::to_string(f.cycle) + ": property " +
           a_.props[f.property].name + " failed (x" +
           std::to_string(f.count) + ")";
  }
  /// Failing cycles of one property, by name (A/B comparison helper).
  std::vector<std::uint64_t> fail_cycles(const std::string& prop) const {
    std::vector<std::uint64_t> out;
    for (const CheckFailure& f : stats_.failures) {
      if (a_.props[f.property].name == prop) out.push_back(f.cycle);
    }
    return out;
  }

protected:
  MonitorBase(sim::Kernel& k, std::string name, Automaton a, sim::Clock& clk,
              const ProbeSet& probes, MonitorOptions opt)
      : Module(k, std::move(name)),
        a_(std::move(a)),
        clk_(clk),
        probes_(probes),  // owned copy: binding points into it
        bound_(probes_.bind(a_)),
        opt_(std::move(opt)),
        samples_(a_.signals.size(), 0) {
    stats_.props.resize(a_.props.size());
    for (std::size_t i = 0; i < a_.props.size(); ++i) {
      stats_.props[i].name = a_.props[i].name;
    }
    sim::MethodProcess& m =
        method("sample", [this] { on_edge(); }, /*initial_trigger=*/false);
    clk.posedge().add_static(m);
  }

  /// Engine hook: consume this edge's samples, produce verdicts.
  virtual void evaluate(const std::vector<std::uint64_t>& samples,
                        bool disabled,
                        std::vector<AutomatonEval::Verdict>& verdicts) = 0;

  Automaton a_;

private:
  void on_edge() {
    for (std::size_t i = 0; i < bound_.size(); ++i) {
      samples_[i] = bound_[i]->read();
    }
    const bool disabled = opt_.disable && opt_.disable();
    evaluate(samples_, disabled, verdicts_);
    ++stats_.edges;
    if (disabled) {
      ++stats_.disabled_edges;
      return;
    }
    for (std::size_t i = 0; i < verdicts_.size(); ++i) {
      const AutomatonEval::Verdict& v = verdicts_[i];
      PropertyStats& ps = stats_.props[i];
      ps.attempts += v.attempt;
      ps.passes += v.pass;
      ps.fails += v.fail;
      ps.vacuous += v.vacuous;
      if (v.fail != 0) {
        const CheckFailure f{clk_.cycles(), static_cast<std::uint32_t>(i),
                             v.fail};
        if (stats_.failures.size() < opt_.max_recorded_failures) {
          stats_.failures.push_back(f);
        } else {
          ++stats_.dropped_failures;
        }
        if (opt_.throw_on_fail) throw ProtocolError(name() + ": " + describe(f));
      }
    }
  }

  sim::Clock& clk_;
  ProbeSet probes_;
  std::vector<const sim::Probe*> bound_;
  MonitorOptions opt_;
  std::vector<std::uint64_t> samples_;
  std::vector<AutomatonEval::Verdict> verdicts_;
  CheckStats stats_;
};

}  // namespace detail

/// Behavioural monitor: the automaton evaluated by AutomatonEval.
class Monitor final : public detail::MonitorBase {
public:
  Monitor(sim::Kernel& k, std::string name, const Spec& spec, sim::Clock& clk,
          const ProbeSet& probes, MonitorOptions opt = {})
      : MonitorBase(k, std::move(name), compile(spec), clk, probes,
                    std::move(opt)),
        eval_(a_) {}

private:
  void evaluate(const std::vector<std::uint64_t>& samples, bool disabled,
                std::vector<AutomatonEval::Verdict>& verdicts) override {
    eval_.step(samples, disabled, verdicts);
  }

  AutomatonEval eval_;
};

/// RT-level monitor: the same spec lowered to a netlist and co-simulated
/// cycle by cycle.  Verdict nets are combinational over the pre-edge
/// register state, so the order is settle -> read -> clock_edge.
class NetlistMonitor final : public detail::MonitorBase {
public:
  NetlistMonitor(sim::Kernel& k, std::string name, const Spec& spec,
                 sim::Clock& clk, const ProbeSet& probes,
                 MonitorOptions opt = {})
      : MonitorBase(k, std::move(name), compile(spec), clk, probes,
                    std::move(opt)),
        nl_(lower(a_)),
        sim_(nl_),
        rst_(nl_.find("rst")) {
    for (const SignalDecl& s : a_.signals) sig_nets_.push_back(nl_.find(s.name));
    for (const PropertyAutomaton& p : a_.props) {
      outs_.push_back(Outs{nl_.find(p.name + "_attempt"),
                           nl_.find(p.name + "_vacuous"),
                           nl_.find(p.name + "_pass"),
                           nl_.find(p.name + "_fail")});
    }
  }

  const synth::Netlist& netlist() const { return nl_; }
  synth::NetlistSim& netlist_sim() { return sim_; }

private:
  void evaluate(const std::vector<std::uint64_t>& samples, bool disabled,
                std::vector<AutomatonEval::Verdict>& verdicts) override {
    for (std::size_t i = 0; i < sig_nets_.size(); ++i) {
      sim_.set_input(sig_nets_[i], samples[i]);
    }
    sim_.set_input(rst_, disabled ? 1 : 0);
    sim_.settle();
    verdicts.resize(outs_.size());
    for (std::size_t i = 0; i < outs_.size(); ++i) {
      verdicts[i] = AutomatonEval::Verdict{
          sim_.get(outs_[i].attempt), sim_.get(outs_[i].pass),
          sim_.get(outs_[i].fail), sim_.get(outs_[i].vacuous)};
    }
    sim_.clock_edge();
  }

  struct Outs {
    synth::NetId attempt, vacuous, pass, fail;
  };

  synth::Netlist nl_;
  synth::NetlistSim sim_;
  synth::NetId rst_;
  std::vector<synth::NetId> sig_nets_;
  std::vector<Outs> outs_;
};

}  // namespace hlcs::check
