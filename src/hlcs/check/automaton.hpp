// Property automata: the compile target shared by both checker engines.
//
// compile() turns a Spec into a synchronous automaton -- state registers
// (next-value expressions over signals and other registers) plus four
// verdict expressions per property:
//
//   attempt  (1 bit)   the antecedent held on this edge
//   vacuous  (1 bit)   enabled edge, antecedent did not hold
//   pass     (count)   attempts resolving as satisfied on this edge
//   fail     (count)   attempts resolving as violated on this edge
//
// pass/fail are kCountWidth-bit *counts* because delayed sequences keep
// several attempts in flight and may resolve many at once (e.g. `until`
// released by q passes every pending attempt together).
//
// compile() and lower() keep the Spec's sharing: a subexpression the
// Spec uses twice (Spec::red_xor's shift-fold uses each level twice) is
// one automaton node and one netlist node, not an unfolded tree.
//
// Two independent evaluators consume the automaton:
//   * AutomatonEval -- evaluates every automaton node once per edge, in
//     arena (topological) order, with synth::ArenaEval, then reads the
//     verdicts and next states by ExprId (behavioural engine);
//   * lower() -- clones the same expressions into a synth::Netlist whose
//     registers mirror the automaton states, evaluated by NetlistSim
//     (bytecode tape, native JIT or tree-walk).
// Both follow identical sample -> verdict -> state-commit ordering, so
// verdicts are bit-identical by construction; the randomized lock-step
// suite in tests/check/test_lowering.cpp enforces it, with root-by-root
// synth::eval as the reference oracle for both.
//
// Disable/reset: both engines take a per-edge `disabled` flag.  A
// disabled edge yields all-zero verdicts and returns every state to its
// initial value (the netlist does it through an explicit `rst` input
// feeding the register-D and verdict muxes), cancelling in-flight
// attempts -- SVA `disable iff` semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hlcs/check/property.hpp"
#include "hlcs/synth/netlist.hpp"

namespace hlcs::check {

/// Width of the pass/fail count outputs (bounds simultaneous
/// resolutions; counts wrap modulo 2^kCountWidth in both engines).
inline constexpr unsigned kCountWidth = 16;

struct AutomatonState {
  std::string name;
  unsigned width;
  std::uint64_t init;
  ExprId next;
};

struct PropertyAutomaton {
  std::string name;
  ExprId attempt;
  ExprId vacuous;
  ExprId pass;
  ExprId fail;
};

/// Var index layout in `arena`: [0, signals.size()) are sampled signal
/// values, [signals.size(), +states.size()) are state registers.
struct Automaton {
  std::string name;
  ExprArena arena;
  std::vector<SignalDecl> signals;
  std::vector<AutomatonState> states;
  std::vector<PropertyAutomaton> props;

  std::uint32_t state_var(std::size_t i) const {
    return static_cast<std::uint32_t>(signals.size() + i);
  }
};

Automaton compile(const Spec& spec);

/// Lower the automaton to a synthesisable netlist.  Inputs: one net per
/// signal plus 1-bit `rst`; outputs: `<prop>_attempt`, `<prop>_vacuous`
/// (1 bit) and `<prop>_pass`, `<prop>_fail` (kCountWidth bits) per
/// property, combinational over the pre-edge register state.  Read them
/// after settle(), before clock_edge().
synth::Netlist lower(const Automaton& a);

/// Behavioural engine: one pass over the automaton arena per edge.
class AutomatonEval {
public:
  explicit AutomatonEval(const Automaton& a);

  struct Verdict {
    std::uint64_t attempt = 0;
    std::uint64_t pass = 0;
    std::uint64_t fail = 0;
    std::uint64_t vacuous = 0;
  };

  /// Return every state register to its initial value.
  void reset();

  /// One rising edge: publish verdicts for this edge, then advance the
  /// state.  `samples` must hold one value per automaton signal;
  /// `verdicts` is resized to one entry per property.
  void step(const std::vector<std::uint64_t>& samples, bool disabled,
            std::vector<Verdict>& verdicts);

  const Automaton& automaton() const { return a_; }
  /// Current value of state register `i` (tests/diagnostics).
  std::uint64_t state(std::size_t i) const {
    return vars_.at(a_.signals.size() + i);
  }

private:
  const Automaton& a_;
  std::vector<std::uint64_t> vars_;  ///< signals then states
  synth::ArenaEval nodes_;           ///< every node's value this edge
};

}  // namespace hlcs::check
