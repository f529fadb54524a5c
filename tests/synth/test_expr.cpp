#include "hlcs/synth/expr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hlcs/sim/random.hpp"

namespace hlcs::synth {
namespace {

TEST(ExprArena, ConstMasksToWidth) {
  ExprArena a;
  ExprId c = a.cst(0x1FF, 8);
  EXPECT_EQ(a.at(c).imm, 0xFFu);
  EXPECT_EQ(a.at(c).width, 8u);
  EXPECT_EQ(eval(a, c, {}, {}), 0xFFu);
}

TEST(ExprArena, VarAndArgEval) {
  ExprArena a;
  ExprId v = a.var(0, 8);
  ExprId g = a.arg(1, 4);
  EXPECT_EQ(eval(a, v, {0x42}, {}), 0x42u);
  EXPECT_EQ(eval(a, g, {}, {0, 0x1F}), 0xFu) << "arg masked to width 4";
}

TEST(ExprArena, ArithmeticWrapsAtWidth) {
  ExprArena a;
  ExprId x = a.var(0, 8);
  ExprId one = a.cst(1, 8);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Add, x, one), {0xFF}, {}), 0u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Sub, x, one), {0}, {}), 0xFFu);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Mul, x, a.cst(2, 8)), {0x80}, {}), 0u);
}

TEST(ExprArena, BitwiseOps) {
  ExprArena a;
  ExprId x = a.var(0, 8), y = a.var(1, 8);
  std::vector<std::uint64_t> vars = {0xF0, 0x3C};
  EXPECT_EQ(eval(a, a.bin(ExprOp::And, x, y), vars, {}), 0x30u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Or, x, y), vars, {}), 0xFCu);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Xor, x, y), vars, {}), 0xCCu);
  EXPECT_EQ(eval(a, a.un(ExprOp::Not, x), vars, {}), 0x0Fu);
  EXPECT_EQ(eval(a, a.un(ExprOp::Neg, x), vars, {}), 0x10u);
}

TEST(ExprArena, Comparisons) {
  ExprArena a;
  ExprId x = a.var(0, 8), y = a.var(1, 8);
  std::vector<std::uint64_t> vars = {5, 9};
  EXPECT_EQ(eval(a, a.bin(ExprOp::Lt, x, y), vars, {}), 1u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Le, x, y), vars, {}), 1u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Gt, x, y), vars, {}), 0u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Ge, x, y), vars, {}), 0u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Eq, x, y), vars, {}), 0u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Ne, x, y), vars, {}), 1u);
  EXPECT_EQ(a.at(a.bin(ExprOp::Lt, x, y)).width, 1u);
}

TEST(ExprArena, Reductions) {
  ExprArena a;
  ExprId x = a.var(0, 4);
  EXPECT_EQ(eval(a, a.un(ExprOp::RedOr, x), {0}, {}), 0u);
  EXPECT_EQ(eval(a, a.un(ExprOp::RedOr, x), {2}, {}), 1u);
  EXPECT_EQ(eval(a, a.un(ExprOp::RedAnd, x), {0xF}, {}), 1u);
  EXPECT_EQ(eval(a, a.un(ExprOp::RedAnd, x), {0x7}, {}), 0u);
}

TEST(ExprArena, Shifts) {
  ExprArena a;
  ExprId x = a.var(0, 8);
  ExprId s = a.var(1, 8);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Shl, x, s), {0x01, 3}, {}), 0x08u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Shr, x, s), {0x80, 4}, {}), 0x08u);
  EXPECT_EQ(eval(a, a.bin(ExprOp::Shl, x, s), {0x01, 200}, {}), 0u)
      << "oversized shift yields zero";
}

TEST(ExprArena, SliceAndConcat) {
  ExprArena a;
  ExprId x = a.var(0, 16);
  ExprId lo = a.slice(x, 0, 8);
  ExprId hi = a.slice(x, 8, 8);
  EXPECT_EQ(eval(a, lo, {0xABCD}, {}), 0xCDu);
  EXPECT_EQ(eval(a, hi, {0xABCD}, {}), 0xABu);
  ExprId back = a.bin(ExprOp::Concat, hi, lo);
  EXPECT_EQ(a.at(back).width, 16u);
  EXPECT_EQ(eval(a, back, {0xABCD}, {}), 0xABCDu);
}

TEST(ExprArena, ZExt) {
  ExprArena a;
  ExprId x = a.var(0, 4);
  ExprId z = a.zext(x, 12);
  EXPECT_EQ(a.at(z).width, 12u);
  EXPECT_EQ(eval(a, z, {0xF}, {}), 0xFu);
  EXPECT_THROW(a.zext(a.var(0, 8), 4), hlcs::Error) << "narrowing zext";
}

TEST(ExprArena, Mux) {
  ExprArena a;
  ExprId sel = a.var(0, 1);
  ExprId t = a.cst(0xAA, 8), f = a.cst(0x55, 8);
  ExprId m = a.mux(sel, t, f);
  EXPECT_EQ(eval(a, m, {1}, {}), 0xAAu);
  EXPECT_EQ(eval(a, m, {0}, {}), 0x55u);
}

TEST(ExprArena, MuxRequiresOneBitSelector) {
  ExprArena a;
  EXPECT_THROW(a.mux(a.var(0, 2), a.cst(0, 8), a.cst(1, 8)), hlcs::Error);
}

TEST(ExprArena, MuxBranchWidthsMustMatch) {
  ExprArena a;
  EXPECT_THROW(a.mux(a.var(0, 1), a.cst(0, 8), a.cst(1, 4)), hlcs::Error);
}

TEST(ExprArena, BinaryWidthMismatchThrows) {
  ExprArena a;
  EXPECT_THROW(a.bin(ExprOp::Add, a.cst(0, 8), a.cst(0, 4)), hlcs::Error);
  EXPECT_THROW(a.bin(ExprOp::Eq, a.cst(0, 8), a.cst(0, 4)), hlcs::Error);
}

TEST(ExprArena, SliceOutOfRangeThrows) {
  ExprArena a;
  EXPECT_THROW(a.slice(a.var(0, 8), 4, 8), hlcs::Error);
}

TEST(ExprArena, ConcatOver64Throws) {
  ExprArena a;
  EXPECT_THROW(a.bin(ExprOp::Concat, a.var(0, 40), a.var(1, 40)), hlcs::Error);
}

TEST(ExprArena, Width64Arithmetic) {
  ExprArena a;
  ExprId x = a.var(0, 64);
  ExprId r = a.bin(ExprOp::Add, x, a.cst(1, 64));
  EXPECT_EQ(eval(a, r, {~0ull}, {}), 0u);
}

TEST(ExprDepth, LeavesAreZeroLogicFree) {
  ExprArena a;
  EXPECT_EQ(depth(a, a.cst(1, 8)), 0u);
  EXPECT_EQ(depth(a, a.var(0, 8)), 0u);
  // Slices and concat are wiring.
  EXPECT_EQ(depth(a, a.slice(a.var(0, 8), 0, 4)), 0u);
}

TEST(ExprDepth, ChainsAccumulate) {
  ExprArena a;
  ExprId e = a.var(0, 8);
  for (int i = 0; i < 5; ++i) e = a.bin(ExprOp::Add, e, a.cst(1, 8));
  EXPECT_EQ(depth(a, e), 5u);
}

TEST(ExprToString, ReadableOutput) {
  ExprArena a;
  ExprId e = a.bin(ExprOp::Add, a.var(0, 8), a.cst(3, 8));
  EXPECT_EQ(to_string(a, e), "(v0 add 3'8)");
  ExprId m = a.mux(a.var(1, 1), a.cst(1, 4), a.cst(0, 4));
  EXPECT_EQ(to_string(a, m), "(v1 ? 1'4 : 0'4)");
  ExprId s = a.slice(a.var(2, 16), 4, 8);
  EXPECT_EQ(to_string(a, s), "v2[11:4]");
}

TEST(ExprArena, BadIdThrows) {
  ExprArena a;
  EXPECT_THROW(a.at(0), hlcs::Error);
  EXPECT_THROW(a.at(kNoExpr), hlcs::Error);
}

TEST(ExprEval, BadLeafIndexThrows) {
  ExprArena a;
  ExprId v = a.var(3, 8);
  EXPECT_THROW(eval(a, v, {1, 2}, {}), hlcs::Error);
  ExprId g = a.arg(2, 8);
  EXPECT_THROW(eval(a, g, {}, {1}), hlcs::Error);
}

/// A shift-fold in the shape of check::Spec::red_xor, `depth` levels
/// deep over two 64-bit vars: every level reads the one below twice, so
/// the DAG has 3 * depth + 3 nodes and its unfolded tree ~3 * 2^depth.
ExprId shift_fold(ExprArena& a, unsigned depth) {
  ExprId z = a.bin(ExprOp::Xor, a.var(0, 64), a.var(1, 64));
  for (unsigned level = 0; level < depth; ++level) {
    z = a.bin(ExprOp::Xor, z,
              a.bin(ExprOp::Shr, z, a.cst(level % 7 + 1, 64)));
  }
  return z;
}

TEST(ExprClone, DagClonesToDag) {
  ExprArena src;
  const ExprId root = shift_fold(src, 12);
  ExprArena dst;
  dst.cst(0, 1);  // the clone lands after existing nodes
  int var_maps = 0;
  const ExprId croot = clone_expr(
      src, root, dst,
      [&](std::uint32_t idx, unsigned w) {
        ++var_maps;
        return dst.var(idx + 2, w);  // renumbered leaves
      },
      [](std::uint32_t, unsigned) -> ExprId { fail("no args here"); });
  EXPECT_LE(dst.size() - 1, src.size()) << "the clone unfolded the DAG";
  EXPECT_EQ(var_maps, 2) << "one mapper call per source leaf node";

  sim::Xorshift rng(0xDA6);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.next();
    const std::uint64_t y = rng.next();
    EXPECT_EQ(eval(dst, croot, {0, 0, x, y}, {}), eval(src, root, {x, y}, {}));
  }
}

TEST(ExprClone, TreeClonesNodeForNode) {
  // Two leaves with the same var index are distinct tree nodes and stay
  // distinct: cloning shares by node, not by value.
  ExprArena src;
  const ExprId root = src.bin(ExprOp::Add, src.var(0, 8),
                              src.un(ExprOp::Not, src.var(0, 8)));
  ExprArena dst;
  int var_maps = 0;
  const ExprId croot = clone_expr(
      src, root, dst,
      [&](std::uint32_t idx, unsigned w) {
        ++var_maps;
        return dst.var(idx, w);
      },
      [](std::uint32_t, unsigned) -> ExprId { fail("no args here"); });
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_EQ(var_maps, 2);
  EXPECT_EQ(to_string(dst, croot), to_string(src, root));
}

TEST(ArenaEval, EveryNodeMatchesRecursiveEval) {
  ExprArena a;
  const ExprId fold = shift_fold(a, 8);
  const ExprId v8 = a.slice(fold, 3, 8);
  a.mux(a.slice(fold, 0, 1), v8, a.un(ExprOp::Neg, v8));
  a.bin(ExprOp::Concat, a.un(ExprOp::RedAnd, v8), a.zext(v8, 12));
  a.bin(ExprOp::Shl, fold, a.slice(a.var(1, 64), 0, 7));
  a.bin(ExprOp::Le, a.var(2, 8), v8);
  ArenaEval all(a, 3);
  sim::Xorshift rng(0xA4E);
  for (int i = 0; i < 40; ++i) {
    const std::vector<std::uint64_t> vars{rng.next(), rng.next(),
                                          rng.next() & 0xFF};
    all.run(vars);
    for (ExprId id = 0; id < a.size(); ++id) {
      ASSERT_EQ(all[id], eval(a, id, vars, {})) << to_string(a, id);
    }
  }
}

TEST(ArenaEval, LeavesAreCheckedAtConstruction) {
  ExprArena a;
  a.var(3, 8);
  EXPECT_THROW(ArenaEval(a, 3), hlcs::Error);
  EXPECT_NO_THROW(ArenaEval(a, 4));
  ExprArena b;
  b.arg(0, 8);
  EXPECT_THROW(ArenaEval(b, 4), hlcs::Error);
}

}  // namespace
}  // namespace hlcs::synth
