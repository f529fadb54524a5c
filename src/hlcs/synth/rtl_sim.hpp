// Cycle-accurate netlist simulator.
//
// NetlistSim is a standalone two-phase evaluator (settle combinational
// logic, latch registers on clock_edge()) used by the consistency
// experiments and tests.  The combinational logic is compiled once to a
// bytecode tape (hlcs/synth/tape.hpp), and every settle evaluates the
// whole tape in topological order: through TapeJit's native segments
// where the host supports the JIT, through the tape interpreter
// otherwise.  A settle with no input or register change since the last
// one returns at once, since every comb would recompute the value it
// already holds.
//
// RtlModule wraps a NetlistSim into a kernel Module driven by a Clock
// with Signal<uint64_t> pins, so synthesised blocks co-simulate with
// behavioural models.  Pins are resolved string->NetId once at
// construction and iterated as flat name-sorted arrays on each edge, so
// sampling/publishing order is deterministic across platforms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hlcs/sim/clock.hpp"
#include "hlcs/sim/module.hpp"
#include "hlcs/sim/signal.hpp"
#include "hlcs/synth/jit.hpp"
#include "hlcs/synth/netlist.hpp"
#include "hlcs/synth/tape.hpp"

namespace hlcs::synth {

/// Not movable: the TapeJit holds a reference to tape_.
class NetlistSim {
public:
  explicit NetlistSim(const Netlist& nl)
      : nl_(nl),
        tape_(TapeProgram::compile(nl)),
        values_(nl.nets().size(), 0),
        stack_(std::max<std::uint32_t>(tape_.max_stack(), 1), 0),
        slots_(std::max<std::uint32_t>(tape_.max_slots(), 1), 0),
        latch_(nl.regs().size(), 0) {
    if (TapeJit::host_supported()) {
      jit_ = std::make_unique<TapeJit>(tape_);
      if (!jit_->available()) jit_.reset();  // fall back to the tape loop
    }
    reset_state();
  }
  NetlistSim(const NetlistSim&) = delete;
  NetlistSim& operator=(const NetlistSim&) = delete;

  /// Latch every register's initial value and settle.
  void reset_state() {
    for (const RegDesc& r : nl_.regs()) values_[r.q] = r.init;
    changed_ = true;
    settle();
  }

  void set_input(NetId n, std::uint64_t v) {
    v &= ExprArena::mask(nl_.nets()[n].width);
    if (values_[n] == v) return;
    values_[n] = v;
    changed_ = true;
    ++stats_.input_changes;
  }
  void set_input(const std::string& name, std::uint64_t v) {
    set_input(nl_.find(name), v);
  }

  std::uint64_t get(NetId n) const { return values_.at(n); }
  std::uint64_t get(const std::string& name) const {
    return values_.at(nl_.find(name));
  }

  /// Propagate combinational logic: evaluate every comb in topological
  /// order, unless nothing changed since the last settle.
  void settle() {
    ++stats_.settles;
    if (!changed_) return;
    changed_ = false;
    ++stats_.full_settles;
    if (jit_) {
      jit_->run_full(values_.data(), stack_.data(), slots_.data(), &stats_);
      return;
    }
    for (const TapeComb& c : tape_.combs()) {
      values_[c.target] =
          tape_.run(c, values_.data(), stack_.data(), slots_.data());
      stats_.tape_instructions += c.end - c.begin;
    }
    stats_.combs_evaluated += tape_.combs().size();
  }

  /// One rising clock edge: settle, latch all registers simultaneously,
  /// settle again so outputs reflect the new state.
  void clock_edge() {
    settle();
    const std::vector<RegDesc>& regs = nl_.regs();
    for (std::size_t i = 0; i < regs.size(); ++i) {
      latch_[i] = values_[regs[i].d];
    }
    for (std::size_t i = 0; i < regs.size(); ++i) {
      const NetId q = regs[i].q;
      if (values_[q] == latch_[i]) continue;
      values_[q] = latch_[i];
      changed_ = true;
      ++stats_.reg_changes;
    }
    settle();
    ++stats_.edges;
  }

  const Netlist& netlist() const { return nl_; }
  const TapeProgram& tape() const { return tape_; }
  const NetlistStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NetlistStats{}; }
  /// Non-null when settles run through the native JIT.
  const JitStats* jit_stats() const { return jit_ ? &jit_->stats() : nullptr; }

private:
  const Netlist& nl_;
  TapeProgram tape_;
  std::unique_ptr<TapeJit> jit_;  ///< null = interpreter settles
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> stack_;  ///< tape evaluation stack
  std::vector<std::uint64_t> slots_;  ///< tape CSE slots
  std::vector<std::uint64_t> latch_;  ///< persistent two-phase reg scratch
  bool changed_ = true;  ///< an input or register changed since the last settle
  NetlistStats stats_;
};

/// Kernel integration: the synthesised block as a clocked module.  Input
/// nets are sampled from bound signals just before each rising edge
/// (i.e. the values written during the previous cycle), and output nets
/// are published to bound signals after the edge.  Pins live in dense
/// name-sorted arrays: resolution happens once here, and edge traversal
/// order (hence VCD trace and transcript order) is deterministic.
class RtlModule : public sim::Module {
public:
  RtlModule(sim::Kernel& k, std::string name, const Netlist& nl,
            sim::Clock& clk)
      : Module(k, std::move(name)), sim_(nl) {
    auto build = [&](const std::vector<NetId>& nets, std::vector<Pin>& pins,
                     std::unordered_map<std::string, std::size_t>& index) {
      std::vector<NetId> sorted = nets;
      std::sort(sorted.begin(), sorted.end(), [&](NetId a, NetId b) {
        return nl.nets()[a].name < nl.nets()[b].name;
      });
      pins.reserve(sorted.size());
      for (NetId n : sorted) {
        const std::string& pin_name = nl.nets()[n].name;
        index.emplace(pin_name, pins.size());
        pins.push_back(Pin{pin_name, n,
                           std::make_unique<sim::Signal<std::uint64_t>>(
                               k, sub(pin_name), 0)});
      }
    };
    build(nl.inputs(), in_, in_ix_);
    build(nl.outputs(), out_, out_ix_);
    sim::MethodProcess& m =
        method("edge", [this] { on_edge(); }, /*initial_trigger=*/false);
    clk.posedge().add_static(m);
    publish_outputs();
  }

  sim::Signal<std::uint64_t>& in(const std::string& pin_name) {
    auto it = in_ix_.find(pin_name);
    HLCS_ASSERT(it != in_ix_.end(), "RtlModule: no input pin " + pin_name);
    return *in_[it->second].sig;
  }
  sim::Signal<std::uint64_t>& out(const std::string& pin_name) {
    auto it = out_ix_.find(pin_name);
    HLCS_ASSERT(it != out_ix_.end(), "RtlModule: no output pin " + pin_name);
    return *out_[it->second].sig;
  }

  /// Pin names in traversal (publish) order: sorted, deterministic.
  std::vector<std::string> input_pins() const { return names(in_); }
  std::vector<std::string> output_pins() const { return names(out_); }

  NetlistSim& netlist_sim() { return sim_; }
  std::uint64_t edges() const { return edges_; }

private:
  struct Pin {
    std::string name;
    NetId net;
    std::unique_ptr<sim::Signal<std::uint64_t>> sig;
  };

  static std::vector<std::string> names(const std::vector<Pin>& pins) {
    std::vector<std::string> out;
    out.reserve(pins.size());
    for (const Pin& p : pins) out.push_back(p.name);
    return out;
  }

  void on_edge() {
    for (const Pin& pin : in_) sim_.set_input(pin.net, pin.sig->read());
    sim_.clock_edge();
    publish_outputs();
    ++edges_;
  }

  void publish_outputs() {
    for (const Pin& pin : out_) pin.sig->write(sim_.get(pin.net));
  }

  NetlistSim sim_;
  std::vector<Pin> in_;
  std::vector<Pin> out_;
  std::unordered_map<std::string, std::size_t> in_ix_;
  std::unordered_map<std::string, std::size_t> out_ix_;
  std::uint64_t edges_ = 0;
};

}  // namespace hlcs::synth
