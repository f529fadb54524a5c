// Compiled execution engine for Netlist combinational logic.
//
// TapeProgram linearises every comb expression into a flat postorder
// bytecode tape evaluated on a value stack: no recursion, no allocation,
// no virtual dispatch on the per-settle hot path.  Within one comb,
// subexpressions shared through the arena DAG (after the optimizer's
// hash-consing CSE) are computed once into a scratch slot and re-pushed,
// so the tape length tracks the DAG size, not the expanded tree size.
#pragma once

#include <cstdint>
#include <vector>

#include "hlcs/synth/netlist.hpp"

namespace hlcs::synth {

enum class TapeOp : std::uint8_t {
  PushConst,  ///< push imm
  PushNet,    ///< push nets[aux]
  PushSlot,   ///< push slots[aux]
  StoreSlot,  ///< slots[aux] = pop
  // unary (replace stack top); imm = result mask unless noted
  Not,
  Neg,
  RedOr,
  RedAnd,  ///< imm = operand mask
  Slice,   ///< aux = lsb, imm = result mask
  // binary (pop rhs, replace top)
  Add, Sub, Mul,          ///< imm = result mask
  And, Or, Xor,
  Eq, Ne, Lt, Le, Gt, Ge,
  Shl,                    ///< imm = result mask
  Shr,
  Concat,                 ///< aux = width of the low (rhs) part
  // ternary: pop else/then, replace top (the selector)
  Mux,
};

struct TapeInsn {
  TapeOp op;
  std::uint32_t aux = 0;
  std::uint64_t imm = 0;
};

struct TapeComb {
  NetId target;
  std::uint32_t begin;  ///< [begin, end) into TapeProgram::code()
  std::uint32_t end;
};

/// Observability counters for NetlistSim, mirroring sim::KernelStats
/// (docs/PERF.md documents each field's meaning and expected shape).
struct NetlistStats {
  std::uint64_t settles = 0;            ///< settle() calls
  std::uint64_t full_settles = 0;       ///< settles that evaluated every comb
  std::uint64_t edges = 0;              ///< clock_edge() calls
  std::uint64_t combs_evaluated = 0;    ///< comb evaluations performed
  std::uint64_t tape_instructions = 0;  ///< bytecode instructions interpreted
  std::uint64_t input_changes = 0;      ///< set_input calls that changed a value
  std::uint64_t reg_changes = 0;        ///< register latches that changed Q

  friend bool operator==(const NetlistStats&, const NetlistStats&) = default;
};

/// Evaluate one comb's tape.  `stack` and `slots` are caller-provided
/// scratch sized by TapeProgram::max_stack() / max_slots().
inline std::uint64_t tape_exec(const TapeInsn* ip, const TapeInsn* end,
                               const std::uint64_t* nets, std::uint64_t* stack,
                               std::uint64_t* slots) {
  std::uint64_t* sp = stack;
  for (; ip != end; ++ip) {
    switch (ip->op) {
      case TapeOp::PushConst: *sp++ = ip->imm; break;
      case TapeOp::PushNet: *sp++ = nets[ip->aux]; break;
      case TapeOp::PushSlot: *sp++ = slots[ip->aux]; break;
      case TapeOp::StoreSlot: slots[ip->aux] = *--sp; break;
      case TapeOp::Not: sp[-1] = ~sp[-1] & ip->imm; break;
      case TapeOp::Neg: sp[-1] = (~sp[-1] + 1) & ip->imm; break;
      case TapeOp::RedOr: sp[-1] = sp[-1] != 0; break;
      case TapeOp::RedAnd: sp[-1] = sp[-1] == ip->imm; break;
      case TapeOp::Slice: sp[-1] = (sp[-1] >> ip->aux) & ip->imm; break;
      case TapeOp::Add: --sp; sp[-1] = (sp[-1] + sp[0]) & ip->imm; break;
      case TapeOp::Sub: --sp; sp[-1] = (sp[-1] - sp[0]) & ip->imm; break;
      case TapeOp::Mul: --sp; sp[-1] = (sp[-1] * sp[0]) & ip->imm; break;
      case TapeOp::And: --sp; sp[-1] &= sp[0]; break;
      case TapeOp::Or: --sp; sp[-1] |= sp[0]; break;
      case TapeOp::Xor: --sp; sp[-1] ^= sp[0]; break;
      case TapeOp::Eq: --sp; sp[-1] = sp[-1] == sp[0]; break;
      case TapeOp::Ne: --sp; sp[-1] = sp[-1] != sp[0]; break;
      case TapeOp::Lt: --sp; sp[-1] = sp[-1] < sp[0]; break;
      case TapeOp::Le: --sp; sp[-1] = sp[-1] <= sp[0]; break;
      case TapeOp::Gt: --sp; sp[-1] = sp[-1] > sp[0]; break;
      case TapeOp::Ge: --sp; sp[-1] = sp[-1] >= sp[0]; break;
      case TapeOp::Shl:
        --sp;
        sp[-1] = sp[0] >= 64 ? 0 : (sp[-1] << sp[0]) & ip->imm;
        break;
      case TapeOp::Shr:
        --sp;
        sp[-1] = sp[0] >= 64 ? 0 : sp[-1] >> sp[0];
        break;
      case TapeOp::Concat:
        --sp;
        sp[-1] = (sp[-1] << ip->aux) | sp[0];
        break;
      case TapeOp::Mux:
        sp -= 2;
        sp[-1] = sp[-1] ? sp[0] : sp[1];
        break;
    }
  }
  return sp[-1];
}

/// A Netlist compiled once into flat tapes.  Combs are stored in
/// topological evaluation order; "comb index" below always means a
/// position in that order.
class TapeProgram {
public:
  static TapeProgram compile(const Netlist& nl);

  const std::vector<TapeInsn>& code() const { return code_; }
  const std::vector<TapeComb>& combs() const { return combs_; }
  std::uint32_t max_stack() const { return max_stack_; }
  std::uint32_t max_slots() const { return max_slots_; }

  std::uint64_t run(const TapeComb& c, const std::uint64_t* nets,
                    std::uint64_t* stack, std::uint64_t* slots) const {
    return tape_exec(code_.data() + c.begin, code_.data() + c.end, nets, stack,
                     slots);
  }

private:
  std::vector<TapeInsn> code_;
  std::vector<TapeComb> combs_;
  std::uint32_t max_stack_ = 0;
  std::uint32_t max_slots_ = 0;
};

}  // namespace hlcs::synth
