#include "hlcs/synth/tape.hpp"

#include <algorithm>

namespace hlcs::synth {

namespace {

bool is_leaf(ExprOp op) { return op == ExprOp::Const || op == ExprOp::Var; }

TapeOp tape_op_of(ExprOp op) {
  switch (op) {
    case ExprOp::Not: return TapeOp::Not;
    case ExprOp::Neg: return TapeOp::Neg;
    case ExprOp::RedOr: return TapeOp::RedOr;
    case ExprOp::RedAnd: return TapeOp::RedAnd;
    case ExprOp::Slice: return TapeOp::Slice;
    case ExprOp::Add: return TapeOp::Add;
    case ExprOp::Sub: return TapeOp::Sub;
    case ExprOp::Mul: return TapeOp::Mul;
    case ExprOp::And: return TapeOp::And;
    case ExprOp::Or: return TapeOp::Or;
    case ExprOp::Xor: return TapeOp::Xor;
    case ExprOp::Eq: return TapeOp::Eq;
    case ExprOp::Ne: return TapeOp::Ne;
    case ExprOp::Lt: return TapeOp::Lt;
    case ExprOp::Le: return TapeOp::Le;
    case ExprOp::Gt: return TapeOp::Gt;
    case ExprOp::Ge: return TapeOp::Ge;
    case ExprOp::Shl: return TapeOp::Shl;
    case ExprOp::Shr: return TapeOp::Shr;
    case ExprOp::Concat: return TapeOp::Concat;
    case ExprOp::Mux: return TapeOp::Mux;
    default: fail("tape: op has no bytecode form");
  }
}

/// Per-comb compiler state, reused across combs (epoch-stamped arrays
/// instead of per-comb clears).
struct CombCompiler {
  const ExprArena& arena;
  std::vector<TapeInsn>& code;

  std::vector<std::uint32_t> stamp;      // per arena node
  std::vector<std::uint32_t> refs;       // valid when stamp matches
  std::vector<std::uint32_t> slot;       // valid when slot_stamp matches
  std::vector<std::uint32_t> slot_stamp;
  std::uint32_t epoch = 0;

  std::vector<ExprId> reach;         // cone of the current root
  std::vector<ExprId> walk;          // DFS scratch
  std::vector<std::uint64_t> visit;  // emit scratch: (id << 1) | post

  int cur_depth = 0;
  int max_depth = 0;
  std::uint32_t n_slots = 0;

  CombCompiler(const ExprArena& a, std::vector<TapeInsn>& c)
      : arena(a), code(c), stamp(a.size(), 0), refs(a.size(), 0),
        slot(a.size(), 0), slot_stamp(a.size(), 0) {}

  void emit(TapeOp op, std::uint32_t aux, std::uint64_t imm, int delta) {
    code.push_back(TapeInsn{op, aux, imm});
    cur_depth += delta;
    if (cur_depth > max_depth) max_depth = cur_depth;
  }

  /// Emit one expression (stopping at slotted subtrees); the value ends
  /// up on top of the evaluation stack.
  void emit_expr(ExprId root) { walk_children(root); }

  /// Reachability + reference counts over the cone of `root`.
  void analyze(ExprId root) {
    ++epoch;
    reach.clear();
    walk.clear();
    walk.push_back(root);
    stamp[root] = epoch;
    refs[root] = 0;
    reach.push_back(root);
    while (!walk.empty()) {
      const ExprId id = walk.back();
      walk.pop_back();
      const ExprNode& n = arena.at(id);
      if (n.op == ExprOp::Var) continue;
      for (ExprId ch : {n.a, n.b, n.c}) {
        if (ch == kNoExpr) continue;
        if (stamp[ch] == epoch) {
          ++refs[ch];
        } else {
          stamp[ch] = epoch;
          refs[ch] = 1;
          reach.push_back(ch);
          walk.push_back(ch);
        }
      }
    }
  }

  /// Compile one comb expression; returns the slot count it used.
  void compile(ExprId root) {
    analyze(root);
    cur_depth = 0;
    max_depth = 0;
    n_slots = 0;
    // Shared non-leaf subexpressions (arena DAG nodes referenced more
    // than once inside this cone) are computed once into a slot.
    // Ascending ExprId order is a topological order (children precede
    // parents), so a shared node's own shared children are already
    // stored when its code runs.
    std::sort(reach.begin(), reach.end());
    for (ExprId id : reach) {
      if (refs[id] < 2 || is_leaf(arena.at(id).op)) continue;
      walk_children(id);
      slot[id] = n_slots++;
      slot_stamp[id] = epoch;
      emit(TapeOp::StoreSlot, slot[id], 0, -1);
    }
    emit_expr(root);
  }

private:
  void walk_children(ExprId root) {
    visit.clear();
    visit.push_back(std::uint64_t{root} << 1);
    while (!visit.empty()) {
      const std::uint64_t v = visit.back();
      visit.pop_back();
      const ExprId id = static_cast<ExprId>(v >> 1);
      const ExprNode& n = arena.at(id);
      if (v & 1) {  // post-visit: children are on the stack
        emit_node(n);
        continue;
      }
      if (id != root && slot_stamp[id] == epoch &&
          !is_leaf(n.op)) {  // already computed into a slot
        emit(TapeOp::PushSlot, slot[id], 0, +1);
        continue;
      }
      switch (n.op) {
        case ExprOp::Const:
          emit(TapeOp::PushConst, 0, n.imm, +1);
          continue;
        case ExprOp::Var:
          emit(TapeOp::PushNet, static_cast<std::uint32_t>(n.imm), 0, +1);
          continue;
        case ExprOp::Arg:
          fail("tape: netlists must not contain Arg leaves");
        case ExprOp::ZExt:
          // Values are stored masked, so zero-extension is a no-op:
          // compile straight through to the operand.
          visit.push_back(std::uint64_t{n.a} << 1);
          continue;
        default:
          break;
      }
      visit.push_back((std::uint64_t{id} << 1) | 1);
      // Push c,b,a so a is compiled (and lands on the stack) first.
      if (n.c != kNoExpr) visit.push_back(std::uint64_t{n.c} << 1);
      if (n.b != kNoExpr) visit.push_back(std::uint64_t{n.b} << 1);
      visit.push_back(std::uint64_t{n.a} << 1);
    }
  }

  void emit_node(const ExprNode& n) {
    const std::uint64_t m = ExprArena::mask(n.width);
    switch (n.op) {
      case ExprOp::Not:
      case ExprOp::Neg:
        emit(tape_op_of(n.op), 0, m, 0);
        break;
      case ExprOp::RedOr:
        emit(TapeOp::RedOr, 0, 0, 0);
        break;
      case ExprOp::RedAnd:
        emit(TapeOp::RedAnd, 0, ExprArena::mask(arena.at(n.a).width), 0);
        break;
      case ExprOp::Slice:
        emit(TapeOp::Slice, static_cast<std::uint32_t>(n.imm), m, 0);
        break;
      case ExprOp::Add:
      case ExprOp::Sub:
      case ExprOp::Mul:
      case ExprOp::Shl:
        emit(tape_op_of(n.op), 0, m, -1);
        break;
      case ExprOp::Concat:
        emit(TapeOp::Concat, arena.at(n.b).width, 0, -1);
        break;
      case ExprOp::Mux:
        emit(TapeOp::Mux, 0, 0, -2);
        break;
      default:
        emit(tape_op_of(n.op), 0, 0, -1);  // masked-operand binaries
        break;
    }
  }
};

}  // namespace

TapeProgram TapeProgram::compile(const Netlist& nl) {
  TapeProgram p;
  const std::vector<std::size_t> order = nl.validate_and_order();
  const std::vector<CombAssign>& combs = nl.combs();

  CombCompiler cc(nl.arena(), p.code_);
  p.combs_.reserve(combs.size());
  for (std::size_t ci : order) {
    const CombAssign& c = combs[ci];
    TapeComb tc;
    tc.target = c.target;
    tc.begin = static_cast<std::uint32_t>(p.code_.size());
    cc.compile(c.value);
    tc.end = static_cast<std::uint32_t>(p.code_.size());
    p.max_stack_ = std::max(p.max_stack_,
                            static_cast<std::uint32_t>(cc.max_depth));
    p.max_slots_ = std::max(p.max_slots_, cc.n_slots);
    p.combs_.push_back(tc);
  }
  return p;
}

}  // namespace hlcs::synth
