#include "hlcs/synth/expr.hpp"

#include <algorithm>
#include <functional>

namespace hlcs::synth {

bool is_unary(ExprOp op) {
  switch (op) {
    case ExprOp::Not: case ExprOp::Neg: case ExprOp::RedOr:
    case ExprOp::RedAnd: case ExprOp::ZExt: case ExprOp::Slice:
      return true;
    default:
      return false;
  }
}

bool is_binary(ExprOp op) {
  switch (op) {
    case ExprOp::Add: case ExprOp::Sub: case ExprOp::Mul:
    case ExprOp::And: case ExprOp::Or: case ExprOp::Xor:
    case ExprOp::Eq: case ExprOp::Ne: case ExprOp::Lt: case ExprOp::Le:
    case ExprOp::Gt: case ExprOp::Ge:
    case ExprOp::Shl: case ExprOp::Shr: case ExprOp::Concat:
      return true;
    default:
      return false;
  }
}

const char* op_name(ExprOp op) {
  switch (op) {
    case ExprOp::Const: return "const";
    case ExprOp::Var: return "var";
    case ExprOp::Arg: return "arg";
    case ExprOp::Not: return "not";
    case ExprOp::Neg: return "neg";
    case ExprOp::RedOr: return "red_or";
    case ExprOp::RedAnd: return "red_and";
    case ExprOp::ZExt: return "zext";
    case ExprOp::Slice: return "slice";
    case ExprOp::Add: return "add";
    case ExprOp::Sub: return "sub";
    case ExprOp::Mul: return "mul";
    case ExprOp::And: return "and";
    case ExprOp::Or: return "or";
    case ExprOp::Xor: return "xor";
    case ExprOp::Eq: return "eq";
    case ExprOp::Ne: return "ne";
    case ExprOp::Lt: return "lt";
    case ExprOp::Le: return "le";
    case ExprOp::Gt: return "gt";
    case ExprOp::Ge: return "ge";
    case ExprOp::Shl: return "shl";
    case ExprOp::Shr: return "shr";
    case ExprOp::Concat: return "concat";
    case ExprOp::Mux: return "mux";
  }
  return "?";
}

namespace {

/// The one definition of every op's semantics: the value of node `n`,
/// given `leaf(n)` for its Var/Arg value and `operand(id)` for each
/// operand's value.  Both evaluators instantiate it: eval() with a
/// recursive walk, ArenaEval with reads of already computed nodes.
template <class Leaf, class Operand>
std::uint64_t apply(const ExprArena& arena, const ExprNode& n, Leaf&& leaf,
                    Operand&& operand) {
  const std::uint64_t m = ExprArena::mask(n.width);
  switch (n.op) {
    case ExprOp::Const:
      return n.imm & m;
    case ExprOp::Var:
    case ExprOp::Arg:
      return leaf(n) & m;
    case ExprOp::Not:
      return ~operand(n.a) & m;
    case ExprOp::Neg:
      return (~operand(n.a) + 1) & m;
    case ExprOp::RedOr:
      return operand(n.a) != 0;
    case ExprOp::RedAnd:
      return operand(n.a) == ExprArena::mask(arena.at(n.a).width);
    case ExprOp::ZExt:
      return operand(n.a) & m;
    case ExprOp::Slice:
      return (operand(n.a) >> n.imm) & m;
    case ExprOp::Add:
      return (operand(n.a) + operand(n.b)) & m;
    case ExprOp::Sub:
      return (operand(n.a) - operand(n.b)) & m;
    case ExprOp::Mul:
      return (operand(n.a) * operand(n.b)) & m;
    case ExprOp::And:
      return operand(n.a) & operand(n.b);
    case ExprOp::Or:
      return operand(n.a) | operand(n.b);
    case ExprOp::Xor:
      return operand(n.a) ^ operand(n.b);
    case ExprOp::Eq:
      return operand(n.a) == operand(n.b);
    case ExprOp::Ne:
      return operand(n.a) != operand(n.b);
    case ExprOp::Lt:
      return operand(n.a) < operand(n.b);
    case ExprOp::Le:
      return operand(n.a) <= operand(n.b);
    case ExprOp::Gt:
      return operand(n.a) > operand(n.b);
    case ExprOp::Ge:
      return operand(n.a) >= operand(n.b);
    case ExprOp::Shl: {
      const std::uint64_t s = operand(n.b);
      return s >= 64 ? 0 : (operand(n.a) << s) & m;
    }
    case ExprOp::Shr: {
      const std::uint64_t s = operand(n.b);
      return s >= 64 ? 0 : (operand(n.a) >> s) & m;
    }
    case ExprOp::Concat:
      return ((operand(n.a) << arena.at(n.b).width) | operand(n.b)) & m;
    case ExprOp::Mux:
      return operand(n.a) ? operand(n.b) : operand(n.c);
  }
  fail("eval: unknown op");
}

}  // namespace

std::uint64_t eval(const ExprArena& arena, ExprId root,
                   const std::vector<std::uint64_t>& vars,
                   const std::vector<std::uint64_t>& args) {
  auto leaf = [&](const ExprNode& n) -> std::uint64_t {
    if (n.op == ExprOp::Var) {
      HLCS_ASSERT(n.imm < vars.size(), "eval: var index out of range");
      return vars[n.imm];
    }
    HLCS_ASSERT(n.imm < args.size(), "eval: arg index out of range");
    return args[n.imm];
  };
  std::function<std::uint64_t(ExprId)> go = [&](ExprId id) -> std::uint64_t {
    return apply(arena, arena.at(id), leaf, go);
  };
  return go(root);
}

ArenaEval::ArenaEval(const ExprArena& arena, std::size_t vars)
    : arena_(arena), vars_(vars), values_(arena.size(), 0) {
  for (ExprId id = 0; id < arena.size(); ++id) {
    const ExprNode& n = arena.at(id);
    HLCS_ASSERT(n.op != ExprOp::Arg, "ArenaEval: Arg leaf in the arena");
    HLCS_ASSERT(n.op != ExprOp::Var || n.imm < vars,
                "ArenaEval: var index out of range");
  }
}

void ArenaEval::run(const std::vector<std::uint64_t>& vars) {
  HLCS_ASSERT(vars.size() >= vars_, "ArenaEval: too few var values");
  HLCS_ASSERT(arena_.size() == values_.size(),
              "ArenaEval: arena grew after construction");
  std::uint64_t* const v = values_.data();
  const auto leaf = [&](const ExprNode& n) { return vars[n.imm]; };
  const auto operand = [v](ExprId id) { return v[id]; };
  for (ExprId id = 0; id < values_.size(); ++id) {
    v[id] = apply(arena_, arena_.at(id), leaf, operand);
  }
}

unsigned depth(const ExprArena& arena, ExprId root) {
  std::function<unsigned(ExprId)> go = [&](ExprId id) -> unsigned {
    const ExprNode& n = arena.at(id);
    switch (n.op) {
      case ExprOp::Const: case ExprOp::Var: case ExprOp::Arg:
        return 0;
      default: {
        unsigned d = 0;
        if (n.a != kNoExpr) d = std::max(d, go(n.a));
        if (n.b != kNoExpr) d = std::max(d, go(n.b));
        if (n.c != kNoExpr) d = std::max(d, go(n.c));
        // Slicing and zero-extension are wiring, not logic.
        const bool free_op = n.op == ExprOp::Slice || n.op == ExprOp::ZExt ||
                             n.op == ExprOp::Concat;
        return d + (free_op ? 0 : 1);
      }
    }
  };
  return go(root);
}

ExprId clone_expr(const ExprArena& src, ExprId root, ExprArena& dst,
                  const std::function<ExprId(std::uint32_t, unsigned)>& map_var,
                  const std::function<ExprId(std::uint32_t, unsigned)>& map_arg) {
  // Children precede parents, so the cone of `root` lies in [0, root].
  HLCS_ASSERT(root < src.size(), "clone_expr: bad root ExprId");
  std::vector<ExprId> memo(std::size_t{root} + 1, kNoExpr);
  std::function<ExprId(ExprId)> go = [&](ExprId id) -> ExprId {
    if (memo[id] != kNoExpr) return memo[id];
    const ExprNode& n = src.at(id);
    ExprId out = kNoExpr;
    switch (n.op) {
      case ExprOp::Const:
        out = dst.cst(n.imm, n.width);
        break;
      case ExprOp::Var:
        out = map_var(static_cast<std::uint32_t>(n.imm), n.width);
        break;
      case ExprOp::Arg:
        out = map_arg(static_cast<std::uint32_t>(n.imm), n.width);
        break;
      case ExprOp::ZExt:
        out = dst.zext(go(n.a), n.width);
        break;
      case ExprOp::Slice:
        out = dst.slice(go(n.a), static_cast<unsigned>(n.imm), n.width);
        break;
      case ExprOp::Mux:
        out = dst.mux(go(n.a), go(n.b), go(n.c));
        break;
      default:
        out = is_unary(n.op) ? dst.un(n.op, go(n.a))
                             : dst.bin(n.op, go(n.a), go(n.b));
        break;
    }
    memo[id] = out;
    return out;
  };
  return go(root);
}

std::string to_string(const ExprArena& arena, ExprId root) {
  std::function<std::string(ExprId)> go = [&](ExprId id) -> std::string {
    const ExprNode& n = arena.at(id);
    switch (n.op) {
      case ExprOp::Const:
        return std::to_string(n.imm) + "'" + std::to_string(n.width);
      case ExprOp::Var:
        return "v" + std::to_string(n.imm);
      case ExprOp::Arg:
        return "a" + std::to_string(n.imm);
      case ExprOp::Slice:
        return go(n.a) + "[" + std::to_string(n.imm + n.width - 1) + ":" +
               std::to_string(n.imm) + "]";
      case ExprOp::Mux:
        return "(" + go(n.a) + " ? " + go(n.b) + " : " + go(n.c) + ")";
      default:
        if (is_unary(n.op)) {
          return std::string(op_name(n.op)) + "(" + go(n.a) + ")";
        }
        return "(" + go(n.a) + " " + op_name(n.op) + " " + go(n.b) + ")";
    }
  };
  return go(root);
}

}  // namespace hlcs::synth
