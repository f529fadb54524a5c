// Seeded random netlist generation shared by the tape and JIT
// bit-identity suites: DAG-shaped expressions with shared subtrees (to
// exercise slot CSE), the full operator set including word arithmetic
// (to exercise the JIT's per-comb deopt), and registers feeding back
// into the logic.
//
// OracleSim is the test oracle every netlist engine is checked against.
#pragma once

#include <string>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/netlist.hpp"

namespace hlcs::synth {

/// The reference semantics of a netlist: every comb evaluated by the
/// recursive expression interpreter (synth::eval) in topological order,
/// on every settle, with no compiled tape involved.  Same API as
/// NetlistSim, so lock-step suites drive both with the same stimulus.
class OracleSim {
public:
  explicit OracleSim(const Netlist& nl)
      : nl_(nl), order_(nl.validate_and_order()),
        values_(nl.nets().size(), 0), latch_(nl.regs().size(), 0) {
    reset_state();
  }

  void reset_state() {
    for (const RegDesc& r : nl_.regs()) values_[r.q] = r.init;
    settle();
  }
  void set_input(NetId n, std::uint64_t v) {
    values_[n] = v & ExprArena::mask(nl_.nets()[n].width);
  }
  void set_input(const std::string& name, std::uint64_t v) {
    set_input(nl_.find(name), v);
  }
  std::uint64_t get(NetId n) const { return values_.at(n); }
  std::uint64_t get(const std::string& name) const {
    return values_.at(nl_.find(name));
  }

  void settle() {
    for (std::size_t ci : order_) {
      const CombAssign& c = nl_.combs()[ci];
      values_[c.target] = eval(nl_.arena(), c.value, values_, {});
    }
  }
  void clock_edge() {
    settle();
    const std::vector<RegDesc>& regs = nl_.regs();
    for (std::size_t i = 0; i < regs.size(); ++i) {
      latch_[i] = values_[regs[i].d];
    }
    for (std::size_t i = 0; i < regs.size(); ++i) {
      values_[regs[i].q] = latch_[i];
    }
    settle();
  }

private:
  const Netlist& nl_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> latch_;
};

struct NetlistGen {
  Netlist nl;
  sim::Xorshift rng;
  std::vector<NetId> inputs;
  /// Nets usable as expression sources at the current build point.
  std::vector<NetId> avail;
  /// Previously built expressions by rough size class, for DAG sharing.
  std::vector<ExprId> pool;

  explicit NetlistGen(std::uint64_t seed) : nl("rand"), rng(seed) {}

  unsigned rand_width() {
    // Bias towards narrow nets, with occasional wide ones.
    switch (rng.below(4)) {
      case 0: return 1;
      case 1: return static_cast<unsigned>(rng.range(2, 8));
      case 2: return static_cast<unsigned>(rng.range(9, 24));
      default: return static_cast<unsigned>(rng.range(25, 64));
    }
  }

  /// An expression of exactly `width` bits from an existing net.
  ExprId net_leaf(unsigned width) {
    const NetId n = avail[rng.below(avail.size())];
    const unsigned w = nl.nets()[n].width;
    ExprId e = nl.net_ref(n);
    if (w == width) return e;
    if (w > width) {
      const unsigned lsb = static_cast<unsigned>(rng.below(w - width + 1));
      return nl.arena().slice(e, lsb, width);
    }
    return nl.arena().zext(e, width);
  }

  ExprId expr(unsigned width, unsigned depth) {
    // Occasionally reuse an already-built expression of this width: that
    // makes the arena a DAG and exercises the tape's slot-CSE path.
    if (!pool.empty() && rng.chance(1, 5)) {
      const ExprId cand = pool[rng.below(pool.size())];
      if (nl.arena().at(cand).width == width) return cand;
    }
    ExprId out = build(width, depth);
    pool.push_back(out);
    return out;
  }

  ExprId build(unsigned width, unsigned depth) {
    auto& A = nl.arena();
    if (depth == 0 || rng.chance(1, 4)) {
      if (rng.chance(1, 3)) return A.cst(rng.next(), width);
      return net_leaf(width);
    }
    const unsigned d = depth - 1;
    if (width == 1 && rng.chance(1, 2)) {
      // 1-bit results: comparisons and reductions.
      const unsigned ow = rand_width();
      switch (rng.below(4)) {
        case 0: return A.un(ExprOp::RedOr, expr(ow, d));
        case 1: return A.un(ExprOp::RedAnd, expr(ow, d));
        case 2: {
          static constexpr ExprOp cmp[] = {ExprOp::Eq, ExprOp::Ne, ExprOp::Lt,
                                           ExprOp::Le, ExprOp::Gt, ExprOp::Ge};
          return A.bin(cmp[rng.below(6)], expr(ow, d), expr(ow, d));
        }
        default: break;  // fall through to the generic ops
      }
    }
    switch (rng.below(8)) {
      case 0: return A.un(rng.chance(1, 2) ? ExprOp::Not : ExprOp::Neg,
                          expr(width, d));
      case 1: {
        static constexpr ExprOp arith[] = {ExprOp::Add, ExprOp::Sub,
                                           ExprOp::Mul};
        return A.bin(arith[rng.below(3)], expr(width, d), expr(width, d));
      }
      case 2: {
        static constexpr ExprOp bitw[] = {ExprOp::And, ExprOp::Or, ExprOp::Xor};
        return A.bin(bitw[rng.below(3)], expr(width, d), expr(width, d));
      }
      case 3:
        return A.bin(rng.chance(1, 2) ? ExprOp::Shl : ExprOp::Shr,
                     expr(width, d),
                     expr(static_cast<unsigned>(rng.range(1, 7)), d));
      case 4:
        if (width >= 2) {
          const unsigned wb = static_cast<unsigned>(rng.range(1, width - 1));
          return A.bin(ExprOp::Concat, expr(width - wb, d), expr(wb, d));
        }
        [[fallthrough]];
      case 5:
        return A.mux(expr(1, d), expr(width, d), expr(width, d));
      case 6:
        if (width < 64) {
          const unsigned narrower =
              static_cast<unsigned>(rng.range(1, width));
          return A.zext(expr(narrower, d), width);
        }
        [[fallthrough]];
      default: {
        const unsigned wider = static_cast<unsigned>(rng.range(width, 64));
        const unsigned lsb =
            static_cast<unsigned>(rng.below(wider - width + 1));
        return A.slice(expr(wider, d), lsb, width);
      }
    }
  }
};

/// A random-but-valid netlist: inputs, a comb pipeline where net i only
/// reads earlier nets (acyclic by construction), and registers feeding
/// back into the logic.
inline Netlist make_random_netlist(std::uint64_t seed) {
  NetlistGen g(seed);
  const std::size_t n_in = g.rng.range(1, 4);
  const std::size_t n_reg = g.rng.range(1, 4);
  const std::size_t n_mid = g.rng.range(2, 10);

  for (std::size_t i = 0; i < n_in; ++i) {
    NetId n = g.nl.add_net("in" + std::to_string(i), g.rand_width());
    g.nl.mark_input(n);
    g.inputs.push_back(n);
    g.avail.push_back(n);
  }
  struct Reg {
    NetId q, d;
  };
  std::vector<Reg> regs;
  for (std::size_t i = 0; i < n_reg; ++i) {
    const unsigned w = g.rand_width();
    Reg r;
    r.q = g.nl.add_net("q" + std::to_string(i), w);
    r.d = g.nl.add_net("d" + std::to_string(i), w);
    g.nl.add_reg(r.q, r.d, g.rng.next());
    regs.push_back(r);
    g.avail.push_back(r.q);  // feedback: combs may read register outputs
  }
  for (std::size_t i = 0; i < n_mid; ++i) {
    const unsigned w = g.rand_width();
    NetId n = g.nl.add_net("m" + std::to_string(i), w);
    g.nl.add_comb(n, g.expr(w, static_cast<unsigned>(g.rng.range(1, 4))));
    g.avail.push_back(n);  // later combs may read it: stays acyclic
    if (g.rng.chance(1, 2)) g.nl.mark_output(n);
  }
  for (const Reg& r : regs) {
    const unsigned w = g.nl.nets()[r.d].width;
    g.nl.add_comb(r.d, g.expr(w, static_cast<unsigned>(g.rng.range(1, 4))));
  }
  g.nl.validate_and_order();
  return g.nl;
}

}  // namespace hlcs::synth
