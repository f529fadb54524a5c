// Expression IR for the synthesisable subset.
//
// The ODETTE tool accepted a restricted SystemC+ language; this library
// makes the restriction explicit: a synthesisable object is *described*
// as data (hlcs/synth/object_desc.hpp) whose guards and method bodies are
// trees of these expression nodes.  One description feeds both the
// reference interpreter (pre-synthesis executable semantics) and the
// netlist compiler (post-synthesis), so the paper's consistency check is
// a real comparison of two independent evaluators.
//
// All values are unsigned bit-vectors of width 1..64; arithmetic wraps
// (i.e. is performed modulo 2^width), comparisons are unsigned.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hlcs/sim/assert.hpp"

namespace hlcs::synth {

using ExprId = std::uint32_t;
inline constexpr ExprId kNoExpr = ~ExprId{0};

enum class ExprOp : std::uint8_t {
  // leaves
  Const,  ///< imm = value
  Var,    ///< imm = variable / net index
  Arg,    ///< imm = argument index (object descriptions only)
  // unary (operand a)
  Not,     ///< bitwise complement
  Neg,     ///< two's complement negation
  RedOr,   ///< OR-reduction to 1 bit
  RedAnd,  ///< AND-reduction to 1 bit
  ZExt,    ///< zero-extend a to this node's width
  Slice,   ///< bits [imm +: width] of a
  // binary (operands a, b)
  Add, Sub, Mul,
  And, Or, Xor,
  Eq, Ne, Lt, Le, Gt, Ge,  ///< unsigned comparisons, 1-bit result
  Shl, Shr,                ///< shift a by b (b unsigned)
  Concat,                  ///< {a, b}: a is the high part
  // ternary (operands a=sel, b=then, c=else)
  Mux,
};

bool is_unary(ExprOp op);
bool is_binary(ExprOp op);
const char* op_name(ExprOp op);

struct ExprNode {
  ExprOp op;
  unsigned width;         ///< result width in bits
  std::uint64_t imm = 0;  ///< Const value / Var index / Arg index / Slice lsb
  ExprId a = kNoExpr;
  ExprId b = kNoExpr;
  ExprId c = kNoExpr;
};

/// Append-only arena of expression nodes.  Children always precede
/// parents, so iterating by index is a topological order.
class ExprArena {
public:
  const ExprNode& at(ExprId id) const {
    HLCS_ASSERT(id < nodes_.size(), "ExprArena: bad ExprId");
    return nodes_[id];
  }
  std::size_t size() const { return nodes_.size(); }

  ExprId cst(std::uint64_t value, unsigned width) {
    check_width(width);
    return push({ExprOp::Const, width, value & mask(width)});
  }
  ExprId var(std::uint32_t index, unsigned width) {
    check_width(width);
    return push({ExprOp::Var, width, index});
  }
  ExprId arg(std::uint32_t index, unsigned width) {
    check_width(width);
    return push({ExprOp::Arg, width, index});
  }
  ExprId un(ExprOp op, ExprId a) {
    HLCS_ASSERT(is_unary(op) && op != ExprOp::ZExt && op != ExprOp::Slice,
                "ExprArena::un: not a plain unary op");
    const unsigned wa = at(a).width;
    const unsigned w =
        (op == ExprOp::RedOr || op == ExprOp::RedAnd) ? 1 : wa;
    return push({op, w, 0, a});
  }
  ExprId zext(ExprId a, unsigned width) {
    check_width(width);
    HLCS_ASSERT(width >= at(a).width, "zext must not narrow");
    return push({ExprOp::ZExt, width, 0, a});
  }
  ExprId slice(ExprId a, unsigned lsb, unsigned width) {
    check_width(width);
    HLCS_ASSERT(lsb + width <= at(a).width, "slice out of range");
    return push({ExprOp::Slice, width, lsb, a});
  }
  ExprId bin(ExprOp op, ExprId a, ExprId b) {
    HLCS_ASSERT(is_binary(op), "ExprArena::bin: not a binary op");
    const unsigned wa = at(a).width;
    const unsigned wb = at(b).width;
    unsigned w;
    switch (op) {
      case ExprOp::Eq: case ExprOp::Ne: case ExprOp::Lt: case ExprOp::Le:
      case ExprOp::Gt: case ExprOp::Ge:
        HLCS_ASSERT(wa == wb, "comparison operand widths differ");
        w = 1;
        break;
      case ExprOp::Shl: case ExprOp::Shr:
        w = wa;
        break;
      case ExprOp::Concat:
        HLCS_ASSERT(wa + wb <= 64, "concat exceeds 64 bits");
        w = wa + wb;
        break;
      default:
        HLCS_ASSERT(wa == wb, "binary operand widths differ");
        w = wa;
        break;
    }
    return push({op, w, 0, a, b});
  }
  ExprId mux(ExprId sel, ExprId then_e, ExprId else_e) {
    HLCS_ASSERT(at(sel).width == 1, "mux selector must be 1 bit");
    HLCS_ASSERT(at(then_e).width == at(else_e).width,
                "mux branch widths differ");
    return push({ExprOp::Mux, at(then_e).width, 0, sel, then_e, else_e});
  }

  static constexpr std::uint64_t mask(unsigned w) {
    return w >= 64 ? ~0ull : (1ull << w) - 1;
  }

private:
  static void check_width(unsigned w) {
    HLCS_ASSERT(w >= 1 && w <= 64, "expression width must be in [1,64]");
  }
  ExprId push(ExprNode n) {
    nodes_.push_back(n);
    return static_cast<ExprId>(nodes_.size() - 1);
  }
  std::vector<ExprNode> nodes_;
};

/// Evaluate an expression.  `vars` / `args` supply leaf values; widths of
/// supplied values are trusted (the arena enforces widths structurally).
/// A recursive walk: a node shared inside `root`'s cone is evaluated once
/// per path to it, so use ArenaEval where roots share a DAG.
std::uint64_t eval(const ExprArena& arena, ExprId root,
                   const std::vector<std::uint64_t>& vars,
                   const std::vector<std::uint64_t>& args);

/// Evaluates every node of an arena once per run(), in index order --
/// a topological order, so each operand is ready before its users and a
/// subexpression shared by many roots costs one evaluation.  The per-op
/// semantics are eval()'s.  Leaf indices are checked once, here: every
/// Var must index below `vars`, and Arg leaves are rejected.  The arena
/// must not grow afterwards.
class ArenaEval {
public:
  ArenaEval(const ExprArena& arena, std::size_t vars);

  /// Evaluate every node over `vars` (at least the constructor's count).
  void run(const std::vector<std::uint64_t>& vars);

  /// Value of node `id` as of the last run().
  std::uint64_t operator[](ExprId id) const { return values_[id]; }

private:
  const ExprArena& arena_;
  std::size_t vars_;
  std::vector<std::uint64_t> values_;
};

/// Longest path (levels of logic) of an expression; leaves are depth 0.
unsigned depth(const ExprArena& arena, ExprId root);

/// Human-readable rendering (for diagnostics and tests).
std::string to_string(const ExprArena& arena, ExprId root);

/// Clone an expression from one arena into another, rewriting Var and
/// Arg leaves through the supplied mappers.  Each source node is cloned
/// once per call, so a DAG clones to a DAG (and a mapper runs once per
/// source leaf node); a tree clones to the same tree.  Used by the
/// synthesiser (Vars -> nets, Args -> port slices), the polymorphism
/// transform (Vars -> per-implementation variables) and the property
/// compiler (check::compile / check::lower).
ExprId clone_expr(const ExprArena& src, ExprId root, ExprArena& dst,
                  const std::function<ExprId(std::uint32_t, unsigned)>& map_var,
                  const std::function<ExprId(std::uint32_t, unsigned)>& map_arg);

}  // namespace hlcs::synth
