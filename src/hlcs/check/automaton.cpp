#include "hlcs/check/automaton.hpp"

namespace hlcs::check {

namespace {

/// Sequence compiler: shared by every property of one Spec.  Allocates
/// automaton states (token shift registers, pending counters) and emits
/// pass/fail count expressions, all directly in the automaton arena.
struct Compiler {
  const Spec& spec;
  Automaton& a;

  ExprId clone(ExprId src) const {
    const auto s = static_cast<std::uint32_t>(a.signals.size());
    return synth::clone_expr(
        spec.arena(), src, a.arena,
        [&](std::uint32_t idx, unsigned w) -> ExprId {
          if (idx < kSpecStateBase) return a.arena.var(idx, w);
          return a.arena.var(s + (idx - kSpecStateBase), w);
        },
        [](std::uint32_t, unsigned) -> ExprId {
          throw SynthesisError("check: Arg leaf in a property expression");
        });
  }

  std::uint32_t new_state(std::string name, unsigned width,
                          std::uint64_t init, ExprId next) {
    a.states.push_back(AutomatonState{std::move(name), width, init, next});
    return a.state_var(a.states.size() - 1);
  }
  ExprId state_ref(std::uint32_t var) {
    return a.arena.var(var, a.states[var - a.signals.size()].width);
  }

  ExprId cnt(ExprId bit1) { return a.arena.zext(bit1, kCountWidth); }
  ExprId zero() { return a.arena.cst(0, kCountWidth); }

  struct PF {
    ExprId pass;
    ExprId fail;
  };

  /// Emit pass/fail counts for sequence `sid` whose attempts start on
  /// edges where the 1-bit `att` holds.  `tag` keeps state names unique.
  PF emit(ExprId att, SeqId sid, const std::string& tag) {
    ExprArena& ar = a.arena;
    const SeqNode& n = spec.seq_node(sid);
    switch (n.kind) {
      case SeqKind::Expr: {
        const ExprId b = clone(n.p);
        return PF{cnt(ar.bin(ExprOp::And, att, b)),
                  cnt(ar.bin(ExprOp::And, att, ar.un(ExprOp::Not, b)))};
      }
      case SeqKind::Delay: {
        // n 1-bit token registers pipeline the attempt; at most one
        // attempt starts per edge, so tokens never collide.
        ExprId cur = att;
        for (unsigned i = 1; i <= n.n; ++i) {
          cur = state_ref(new_state(tag + "_d" + std::to_string(i), 1, 0, cur));
        }
        return emit(cur, n.inner, tag + "x");
      }
      case SeqKind::Until: {
        // One pending-attempt counter.  q releases everything as passes;
        // !p && !q fails everything; otherwise attempts accumulate
        // (weak until: unresolved attempts stay pending forever).
        const std::uint32_t r =
            new_state(tag + "_u", kCountWidth, 0, kNoExpr);
        const ExprId p = clone(n.p);
        const ExprId q = clone(n.q);
        const ExprId total = ar.bin(ExprOp::Add, state_ref(r), cnt(att));
        const ExprId notp = ar.un(ExprOp::Not, p);
        a.states[r - a.signals.size()].next = ar.mux(
            ar.bin(ExprOp::Or, q, notp), zero(), total);
        return PF{ar.mux(q, total, zero()),
                  ar.mux(ar.bin(ExprOp::And, ar.un(ExprOp::Not, q), notp),
                         total, zero())};
      }
      case SeqKind::EventuallyWithin: {
        if (n.n == 0) {
          const ExprId p0 = clone(n.p);
          return PF{cnt(ar.bin(ExprOp::And, att, p0)),
                    cnt(ar.bin(ExprOp::And, att, ar.un(ExprOp::Not, p0)))};
        }
        // b[i] = "an attempt has i edges left before expiry".  p resolves
        // every slot (and the incoming attempt) as a pass and clears the
        // window; otherwise b[1] expires as a fail and the rest shift.
        const ExprId p = clone(n.p);
        const ExprId notp = ar.un(ExprOp::Not, p);
        std::vector<std::uint32_t> slots;
        slots.reserve(n.n);
        for (unsigned i = 1; i <= n.n; ++i) {
          slots.push_back(
              new_state(tag + "_e" + std::to_string(i), 1, 0, kNoExpr));
        }
        for (unsigned i = 0; i < n.n; ++i) {
          const ExprId feed = (i + 1 < n.n)
                                  ? state_ref(slots[i + 1])
                                  : ar.bin(ExprOp::And, att, notp);
          a.states[slots[i] - a.signals.size()].next =
              ar.bin(ExprOp::And, notp, feed);
        }
        ExprId sum = cnt(att);
        for (std::uint32_t sv : slots) {
          sum = ar.bin(ExprOp::Add, sum, cnt(state_ref(sv)));
        }
        return PF{ar.mux(p, sum, zero()),
                  ar.mux(p, zero(), cnt(state_ref(slots[0])))};
      }
    }
    throw SynthesisError("check: unknown sequence kind");
  }
};

}  // namespace

Automaton compile(const Spec& spec) {
  Automaton a;
  a.name = spec.name();
  a.signals = spec.signals();
  for (const SignalDecl& s : a.signals) {
    HLCS_ASSERT(s.name != "rst",
                spec.name() + ": signal name 'rst' is reserved");
  }
  Compiler c{spec, a};
  // Spec-level past registers come first so kSpecStateBase+i lands on
  // state slot i; their next expressions may reference each other.
  for (const SpecState& s : spec.states()) {
    a.states.push_back(AutomatonState{s.name, s.width, s.init, kNoExpr});
  }
  for (std::size_t i = 0; i < spec.states().size(); ++i) {
    a.states[i].next = c.clone(spec.states()[i].next);
  }
  for (const PropertyDef& p : spec.properties()) {
    PropertyAutomaton pa;
    pa.name = p.name;
    if (p.antecedent != kNoExpr) {
      pa.attempt = c.clone(p.antecedent);
      pa.vacuous = a.arena.un(ExprOp::Not, pa.attempt);
    } else {
      pa.attempt = a.arena.cst(1, 1);
      pa.vacuous = a.arena.cst(0, 1);
    }
    const Compiler::PF pf = c.emit(pa.attempt, p.consequent, p.name);
    pa.pass = pf.pass;
    pa.fail = pf.fail;
    a.props.push_back(std::move(pa));
  }
  return a;
}

synth::Netlist lower(const Automaton& a) {
  synth::Netlist nl(a.name);
  const synth::NetId rst = nl.add_net("rst", 1);
  nl.mark_input(rst);
  std::vector<synth::NetId> sig_nets;
  sig_nets.reserve(a.signals.size());
  for (const SignalDecl& s : a.signals) {
    const synth::NetId n = nl.add_net(s.name, s.width);
    nl.mark_input(n);
    sig_nets.push_back(n);
  }
  std::vector<synth::NetId> q_nets;
  q_nets.reserve(a.states.size());
  for (const AutomatonState& s : a.states) {
    q_nets.push_back(nl.add_net("st_" + s.name, s.width));
  }
  auto map_var = [&](std::uint32_t idx, unsigned) -> ExprId {
    if (idx < a.signals.size()) return nl.net_ref(sig_nets[idx]);
    return nl.net_ref(q_nets[idx - a.signals.size()]);
  };
  auto no_arg = [](std::uint32_t, unsigned) -> ExprId {
    throw SynthesisError("check: Arg leaf in a property expression");
  };
  auto clone = [&](ExprId id) {
    return synth::clone_expr(a.arena, id, nl.arena(), map_var, no_arg);
  };
  // rst is synchronous: it forces D back to the initial value and zeroes
  // the verdicts combinationally, matching AutomatonEval's disabled step.
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    const AutomatonState& s = a.states[i];
    const synth::NetId d = nl.add_net("st_" + s.name + "_d", s.width);
    nl.add_comb(d, nl.arena().mux(nl.net_ref(rst),
                                  nl.arena().cst(s.init, s.width),
                                  clone(s.next)));
    nl.add_reg(q_nets[i], d, s.init);
  }
  auto out = [&](const std::string& name, ExprId value, unsigned width) {
    const synth::NetId n = nl.add_net(name, width);
    nl.add_comb(n, nl.arena().mux(nl.net_ref(rst),
                                  nl.arena().cst(0, width), clone(value)));
    nl.mark_output(n);
  };
  for (const PropertyAutomaton& p : a.props) {
    out(p.name + "_attempt", p.attempt, 1);
    out(p.name + "_vacuous", p.vacuous, 1);
    out(p.name + "_pass", p.pass, kCountWidth);
    out(p.name + "_fail", p.fail, kCountWidth);
  }
  return nl;
}

AutomatonEval::AutomatonEval(const Automaton& a)
    : a_(a),
      vars_(a.signals.size() + a.states.size(), 0),
      nodes_(a.arena, vars_.size()) {
  // Leaves are checked by ArenaEval; roots are checked here, so step()
  // reads node values unchecked.
  auto check_root = [&](ExprId root) {
    HLCS_ASSERT(root < a.arena.size(), a.name + ": bad automaton root");
  };
  for (const AutomatonState& s : a.states) check_root(s.next);
  for (const PropertyAutomaton& p : a.props) {
    for (ExprId root : {p.attempt, p.vacuous, p.pass, p.fail}) check_root(root);
  }
  reset();
}

void AutomatonEval::reset() {
  for (std::size_t i = 0; i < a_.states.size(); ++i) {
    vars_[a_.signals.size() + i] = a_.states[i].init;
  }
}

void AutomatonEval::step(const std::vector<std::uint64_t>& samples,
                         bool disabled, std::vector<Verdict>& verdicts) {
  HLCS_ASSERT(samples.size() == a_.signals.size(),
              a_.name + ": sample count != signal count");
  verdicts.assign(a_.props.size(), Verdict{});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    vars_[i] = samples[i] & ExprArena::mask(a_.signals[i].width);
  }
  if (disabled) {
    reset();
    return;
  }
  // Every verdict and next value comes from this one pass over the
  // pre-edge state, so the commit below is the netlist's simultaneous
  // register latch.
  nodes_.run(vars_);
  for (std::size_t i = 0; i < a_.props.size(); ++i) {
    const PropertyAutomaton& p = a_.props[i];
    verdicts[i] = Verdict{nodes_[p.attempt], nodes_[p.pass], nodes_[p.fail],
                          nodes_[p.vacuous]};
  }
  for (std::size_t i = 0; i < a_.states.size(); ++i) {
    vars_[a_.signals.size() + i] =
        nodes_[a_.states[i].next] & ExprArena::mask(a_.states[i].width);
  }
}

}  // namespace hlcs::check
