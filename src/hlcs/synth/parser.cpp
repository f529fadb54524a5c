#include "hlcs/synth/parser.hpp"

#include <cctype>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hlcs::synth {

namespace {

// ----------------------------------------------------------------------
// Lexer
// ----------------------------------------------------------------------

enum class Tok {
  Ident, Number, Punct, End,
};

struct Token {
  Tok kind = Tok::End;
  std::string text;          // identifier / punct spelling
  std::uint64_t value = 0;   // Number
  unsigned ann_width = 0;    // Number: annotated width (0 = none)
  int line = 0, col = 0;
};

class Lexer {
public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  const Token& peek() const { return cur_; }
  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

  [[noreturn]] void error(const std::string& msg, const Token& at) const {
    throw ParseError("parse error at " + std::to_string(at.line) + ":" +
                     std::to_string(at.col) + ": " + msg);
  }

private:
  void advance() {
    skip_ws();
    cur_ = Token{};
    cur_.line = line_;
    cur_.col = col_;
    if (pos_ >= src_.size()) {
      cur_.kind = Tok::End;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string id;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        id.push_back(src_[pos_]);
        bump();
      }
      cur_.kind = Tok::Ident;
      cur_.text = std::move(id);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_number();
      return;
    }
    // Multi-char operators first.
    static const char* two[] = {"==", "!=", "<=", ">=", "<<", ">>",
                                "&&", "||"};
    if (pos_ + 1 < src_.size()) {
      const std::string pair = src_.substr(pos_, 2);
      for (const char* op : two) {
        if (pair == op) {
          cur_.kind = Tok::Punct;
          cur_.text = pair;
          bump();
          bump();
          return;
        }
      }
    }
    cur_.kind = Tok::Punct;
    cur_.text = std::string(1, c);
    bump();
  }

  void lex_number() {
    // Forms: 123, 0x1F, W'dNNN, W'hNN, W'bNNN.
    std::uint64_t first = 0;
    std::size_t digits = 0;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
      first = first * 10 + static_cast<std::uint64_t>(src_[pos_] - '0');
      ++digits;
      bump();
    }
    cur_.kind = Tok::Number;
    if (pos_ < src_.size() && src_[pos_] == '\'') {
      bump();
      if (pos_ >= src_.size()) err_here("truncated sized literal");
      const char base = src_[pos_];
      bump();
      std::uint64_t v = 0;
      bool any = false;
      auto hexval = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      while (pos_ < src_.size()) {
        const char d = src_[pos_];
        int dv;
        if (base == 'd') {
          if (!std::isdigit(static_cast<unsigned char>(d))) break;
          dv = d - '0';
          v = v * 10 + static_cast<std::uint64_t>(dv);
        } else if (base == 'h') {
          dv = hexval(d);
          if (dv < 0) break;
          v = v * 16 + static_cast<std::uint64_t>(dv);
        } else if (base == 'b') {
          if (d != '0' && d != '1') break;
          v = v * 2 + static_cast<std::uint64_t>(d - '0');
        } else {
          err_here("bad literal base (expect d/h/b)");
        }
        any = true;
        bump();
      }
      if (!any) err_here("sized literal without digits");
      if (first < 1 || first > 64) err_here("literal width out of [1,64]");
      cur_.value = v;
      cur_.ann_width = static_cast<unsigned>(first);
      return;
    }
    if (digits == 1 && first == 0 && pos_ < src_.size() &&
        (src_[pos_] == 'x' || src_[pos_] == 'X')) {
      bump();
      std::uint64_t v = 0;
      bool any = false;
      while (pos_ < src_.size() &&
             std::isxdigit(static_cast<unsigned char>(src_[pos_]))) {
        const char d = src_[pos_];
        const int dv = std::isdigit(static_cast<unsigned char>(d))
                           ? d - '0'
                           : (std::tolower(d) - 'a' + 10);
        v = v * 16 + static_cast<std::uint64_t>(dv);
        any = true;
        bump();
      }
      if (!any) err_here("0x without digits");
      cur_.value = v;
      return;
    }
    cur_.value = first;
  }

  [[noreturn]] void err_here(const std::string& msg) {
    throw ParseError("parse error at " + std::to_string(line_) + ":" +
                     std::to_string(col_) + ": " + msg);
  }

  void skip_ws() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        bump();
      }
      // // line comments and /* block comments */
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') bump();
        continue;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '*') {
        bump();
        bump();
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          bump();
        }
        if (pos_ + 1 >= src_.size()) err_here("unterminated block comment");
        bump();
        bump();
        continue;
      }
      break;
    }
  }

  void bump() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token cur_;
};

// ----------------------------------------------------------------------
// AST
// ----------------------------------------------------------------------

struct Ast {
  enum class Kind { Num, Ref, Un, Bin, Tern, Zext, Slice, Concat, Red } kind;
  // Num
  std::uint64_t value = 0;
  unsigned ann_width = 0;
  // Ref
  std::string name;
  // Un / Bin: op spelling ("!", "~", "-", "+", "==", "&&", ...)
  std::string op;
  std::unique_ptr<Ast> a, b, c;
  // Zext/Slice numeric parameters
  unsigned p0 = 0, p1 = 0;
  int line = 0, col = 0;
};

using AstPtr = std::unique_ptr<Ast>;

// ----------------------------------------------------------------------
// Parser (recursive descent)
// ----------------------------------------------------------------------

class Parser {
public:
  explicit Parser(const std::string& src) : lex_(src) {}

  ObjectDesc parse() {
    ObjectDesc d = parse_one();
    if (lex_.peek().kind != Tok::End) {
      lex_.error("trailing input after object", lex_.peek());
    }
    return d;
  }

  std::vector<ObjectDesc> parse_all() {
    std::vector<ObjectDesc> out;
    while (lex_.peek().kind != Tok::End) out.push_back(parse_one());
    if (out.empty()) lex_.error("no objects in input", lex_.peek());
    return out;
  }

private:
  ObjectDesc parse_one() {
    vars_.clear();
    args_.clear();
    expect_ident("object");
    const std::string name = take_ident("object name");
    ObjectDesc d(name);
    expect_punct("{");
    while (!at_punct("}")) {
      if (at_ident("var")) {
        parse_var(d);
      } else if (at_ident("method")) {
        parse_method(d);
      } else {
        lex_.error("expected 'var' or 'method'", lex_.peek());
      }
    }
    expect_punct("}");
    d.validate();
    return d;
  }

  // --- declarations ------------------------------------------------------
  void parse_var(ObjectDesc& d) {
    expect_ident("var");
    const std::string name = take_ident("variable name");
    if (vars_.count(name)) lex_.error("duplicate variable " + name, lex_.peek());
    expect_punct(":");
    const unsigned width = take_width("variable '" + name + "'");
    std::uint64_t init = 0;
    if (at_punct("=")) {
      expect_punct("=");
      const Token t = lex_.take();
      if (t.kind != Tok::Number) lex_.error("expected literal initial value", t);
      init = t.value;
    }
    expect_punct(";");
    vars_[name] = {d.add_var(name, width, init), width};
  }

  void parse_method(ObjectDesc& d) {
    expect_ident("method");
    const std::string name = take_ident("method name");
    auto b = d.add_method(name);
    args_.clear();
    if (at_punct("(")) {
      expect_punct("(");
      std::uint32_t index = 0;
      while (!at_punct(")")) {
        const std::string an = take_ident("argument name");
        expect_punct(":");
        const unsigned aw = take_width("argument '" + an + "'");
        b.arg(an, aw);
        args_[an] = {index++, aw};
        if (at_punct(",")) expect_punct(",");
      }
      expect_punct(")");
    }
    AstPtr guard;
    if (at_ident("guard")) {
      expect_ident("guard");
      guard = parse_expr();
    }
    unsigned ret_width = 0;
    if (at_ident("returns")) {
      expect_ident("returns");
      ret_width = take_width("return value of method '" + name + "'");
    }
    expect_punct("{");
    if (guard) b.guard(lower_bool(d, *guard));
    std::vector<ParsedAssign> assigns;
    AstPtr ret_ast;
    parse_stmt_list(assigns, ret_width > 0 ? &ret_ast : nullptr);
    expect_punct("}");
    for (ParsedAssign& pa : assigns) {
      auto it = vars_.find(pa.var);
      if (it == vars_.end()) {
        lex_.error("unknown variable " + pa.var, lex_.peek());
      }
      b.assign(it->second.first, lower(d, *pa.value, it->second.second));
    }
    if (ret_width > 0) {
      if (!ret_ast) {
        lex_.error("method '" + name + "' declares returns but has no return",
                   lex_.peek());
      }
      b.returns(lower(d, *ret_ast, ret_width), ret_width);
    }
  }

  // --- statements ----------------------------------------------------------
  struct ParsedAssign {
    std::string var;
    AstPtr value;
  };

  static AstPtr clone_ast(const Ast& n) {
    auto c = std::make_unique<Ast>();
    c->kind = n.kind;
    c->value = n.value;
    c->ann_width = n.ann_width;
    c->name = n.name;
    c->op = n.op;
    c->p0 = n.p0;
    c->p1 = n.p1;
    c->line = n.line;
    c->col = n.col;
    if (n.a) c->a = clone_ast(*n.a);
    if (n.b) c->b = clone_ast(*n.b);
    if (n.c) c->c = clone_ast(*n.c);
    return c;
  }

  /// Parse statements until the next '}' (not consumed).  `ret_out`
  /// non-null iff a top-level `return` is allowed here.
  void parse_stmt_list(std::vector<ParsedAssign>& out, AstPtr* ret_out) {
    auto find_assign = [&out](const std::string& v) -> ParsedAssign* {
      for (ParsedAssign& pa : out) {
        if (pa.var == v) return &pa;
      }
      return nullptr;
    };
    while (!at_punct("}")) {
      if (at_ident("return")) {
        const Token t = lex_.peek();
        expect_ident("return");
        if (!ret_out) {
          lex_.error("return is only allowed at the top level of a method "
                     "with 'returns'",
                     t);
        }
        if (*ret_out) lex_.error("multiple return statements", t);
        *ret_out = parse_expr();
        expect_punct(";");
        continue;
      }
      if (at_ident("if")) {
        parse_if(out, find_assign);
        continue;
      }
      const Token t = lex_.peek();
      const std::string vn = take_ident("variable name");
      if (!vars_.count(vn)) lex_.error("unknown variable " + vn, t);
      if (find_assign(vn)) {
        lex_.error("variable '" + vn + "' assigned twice in one method", t);
      }
      expect_punct("=");
      AstPtr e = parse_expr();
      expect_punct(";");
      out.push_back(ParsedAssign{vn, std::move(e)});
    }
  }

  /// `if (cond) { ... } [else { ... }]` -- lowered to conditional
  /// parallel assignment: every variable touched in either branch gets
  /// next = cond ? then-value : else-value (holding its old value on the
  /// untaken side).
  template <class FindFn>
  void parse_if(std::vector<ParsedAssign>& out, FindFn find_assign) {
    const Token t = lex_.peek();
    expect_ident("if");
    expect_punct("(");
    AstPtr cond = parse_expr();
    expect_punct(")");
    std::vector<ParsedAssign> then_a, else_a;
    expect_punct("{");
    parse_stmt_list(then_a, nullptr);
    expect_punct("}");
    if (at_ident("else")) {
      expect_ident("else");
      expect_punct("{");
      parse_stmt_list(else_a, nullptr);
      expect_punct("}");
    }
    auto take_from = [](std::vector<ParsedAssign>& v,
                        const std::string& var) -> AstPtr {
      for (ParsedAssign& pa : v) {
        if (pa.var == var && pa.value) return std::move(pa.value);
      }
      return nullptr;
    };
    auto hold = [&](const std::string& var) {
      auto r = std::make_unique<Ast>();
      r->kind = Ast::Kind::Ref;
      r->name = var;
      r->line = t.line;
      r->col = t.col;
      return r;
    };
    // Merge, preserving then-branch order, then else-only variables.
    std::vector<std::string> order;
    for (const ParsedAssign& pa : then_a) order.push_back(pa.var);
    for (const ParsedAssign& pa : else_a) {
      bool seen = false;
      for (const std::string& v : order) seen |= (v == pa.var);
      if (!seen) order.push_back(pa.var);
    }
    for (const std::string& var : order) {
      if (find_assign(var)) {
        lex_.error("variable '" + var + "' assigned twice in one method", t);
      }
      AstPtr tv = take_from(then_a, var);
      AstPtr fv = take_from(else_a, var);
      auto m = std::make_unique<Ast>();
      m->kind = Ast::Kind::Tern;
      m->line = t.line;
      m->col = t.col;
      m->a = clone_ast(*cond);
      m->b = tv ? std::move(tv) : hold(var);
      m->c = fv ? std::move(fv) : hold(var);
      out.push_back(ParsedAssign{var, std::move(m)});
    }
  }

  // --- expression grammar ------------------------------------------------
  AstPtr parse_expr() { return parse_ternary(); }

  AstPtr parse_ternary() {
    AstPtr c = parse_binary(0);
    if (!at_punct("?")) return c;
    expect_punct("?");
    AstPtr t = parse_expr();
    expect_punct(":");
    AstPtr f = parse_expr();
    auto n = node(Ast::Kind::Tern);
    n->a = std::move(c);
    n->b = std::move(t);
    n->c = std::move(f);
    return n;
  }

  static int precedence(const std::string& op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*") return 10;
    return -1;
  }

  AstPtr parse_binary(int min_prec) {
    AstPtr lhs = parse_unary();
    for (;;) {
      if (lex_.peek().kind != Tok::Punct) return lhs;
      const std::string op = lex_.peek().text;
      const int prec = precedence(op);
      if (prec < 0 || prec < min_prec) return lhs;
      lex_.take();
      AstPtr rhs = parse_binary(prec + 1);
      auto n = node(Ast::Kind::Bin);
      n->op = op;
      n->a = std::move(lhs);
      n->b = std::move(rhs);
      lhs = std::move(n);
    }
  }

  AstPtr parse_unary() {
    if (lex_.peek().kind == Tok::Punct) {
      const std::string op = lex_.peek().text;
      if (op == "!" || op == "~" || op == "-") {
        lex_.take();
        auto n = node(Ast::Kind::Un);
        n->op = op;
        n->a = parse_unary();
        return n;
      }
    }
    return parse_primary();
  }

  AstPtr parse_primary() {
    const Token t = lex_.peek();
    if (t.kind == Tok::Number) {
      lex_.take();
      auto n = node(Ast::Kind::Num);
      n->value = t.value;
      n->ann_width = t.ann_width;
      return n;
    }
    if (t.kind == Tok::Punct && t.text == "(") {
      expect_punct("(");
      AstPtr e = parse_expr();
      expect_punct(")");
      return e;
    }
    if (t.kind == Tok::Ident) {
      if (t.text == "true" || t.text == "false") {
        lex_.take();
        auto n = node(Ast::Kind::Num);
        n->value = t.text == "true" ? 1 : 0;
        n->ann_width = 1;
        return n;
      }
      if (t.text == "zext" || t.text == "slice" || t.text == "concat" ||
          t.text == "redor" || t.text == "redand") {
        return parse_builtin(t.text);
      }
      lex_.take();
      auto n = node(Ast::Kind::Ref);
      n->name = t.text;
      return n;
    }
    lex_.error("expected expression", t);
  }

  AstPtr parse_builtin(const std::string& fn) {
    lex_.take();
    expect_punct("(");
    if (fn == "zext") {
      auto n = node(Ast::Kind::Zext);
      n->a = parse_expr();
      expect_punct(",");
      n->p0 = take_width("zext target width");
      expect_punct(")");
      return n;
    }
    if (fn == "slice") {
      auto n = node(Ast::Kind::Slice);
      n->a = parse_expr();
      expect_punct(",");
      n->p0 = take_number("slice lsb");
      expect_punct(",");
      n->p1 = take_width("slice width");
      expect_punct(")");
      return n;
    }
    if (fn == "concat") {
      auto n = node(Ast::Kind::Concat);
      n->a = parse_expr();
      expect_punct(",");
      n->b = parse_expr();
      expect_punct(")");
      return n;
    }
    auto n = node(Ast::Kind::Red);
    n->op = fn;
    n->a = parse_expr();
    expect_punct(")");
    return n;
  }

  // --- width inference + lowering ----------------------------------------
  /// Natural width: 0 means "flexible literal subtree".
  unsigned natural(const Ast& n) {
    switch (n.kind) {
      case Ast::Kind::Num:
        return n.ann_width;
      case Ast::Kind::Ref: {
        if (auto it = vars_.find(n.name); it != vars_.end()) {
          return it->second.second;
        }
        if (auto it = args_.find(n.name); it != args_.end()) {
          return it->second.second;
        }
        err(n, "unknown identifier '" + n.name + "'");
      }
      case Ast::Kind::Un:
        if (n.op == "!") return 1;
        return natural(*n.a);
      case Ast::Kind::Bin: {
        if (n.op == "&&" || n.op == "||" || n.op == "==" || n.op == "!=" ||
            n.op == "<" || n.op == "<=" || n.op == ">" || n.op == ">=") {
          return 1;
        }
        if (n.op == "<<" || n.op == ">>") return natural(*n.a);
        const unsigned wa = natural(*n.a);
        const unsigned wb = natural(*n.b);
        if (wa && wb && wa != wb) {
          err(n, "operand widths differ (" + std::to_string(wa) + " vs " +
                     std::to_string(wb) + "); use zext/slice");
        }
        return wa ? wa : wb;
      }
      case Ast::Kind::Tern: {
        const unsigned wt = natural(*n.b);
        const unsigned wf = natural(*n.c);
        if (wt && wf && wt != wf) err(n, "ternary branch widths differ");
        return wt ? wt : wf;
      }
      case Ast::Kind::Zext:
        return n.p0;
      case Ast::Kind::Slice:
        return n.p1;
      case Ast::Kind::Concat: {
        const unsigned wa = natural(*n.a);
        const unsigned wb = natural(*n.b);
        if (!wa || !wb) err(n, "concat operands need explicit widths");
        return wa + wb;
      }
      case Ast::Kind::Red:
        return 1;
    }
    return 0;
  }

  ExprId lower(ObjectDesc& d, const Ast& n, unsigned want) {
    auto& A = d.arena();
    switch (n.kind) {
      case Ast::Kind::Num: {
        unsigned w = n.ann_width ? n.ann_width : want;
        if (w == 0) err(n, "cannot infer literal width; annotate as W'dN");
        if (n.ann_width && want && n.ann_width != want) {
          err(n, "literal width " + std::to_string(n.ann_width) +
                     " does not match context width " + std::to_string(want));
        }
        return A.cst(n.value, w);
      }
      case Ast::Kind::Ref: {
        if (auto it = vars_.find(n.name); it != vars_.end()) {
          check_want(n, it->second.second, want);
          return A.var(it->second.first, it->second.second);
        }
        auto it = args_.find(n.name);
        if (it == args_.end()) err(n, "unknown identifier '" + n.name + "'");
        check_want(n, it->second.second, want);
        return A.arg(it->second.first, it->second.second);
      }
      case Ast::Kind::Un: {
        if (n.op == "!") {
          check_want(n, 1, want);
          return to_bool_not(d, *n.a);
        }
        const unsigned w = pick(n, natural(*n.a), want);
        ExprId a = lower(d, *n.a, w);
        return A.un(n.op == "~" ? ExprOp::Not : ExprOp::Neg, a);
      }
      case Ast::Kind::Bin:
        return lower_bin(d, n, want);
      case Ast::Kind::Tern: {
        ExprId c = lower_bool(d, *n.a);
        const unsigned w = pick(n, natural(n), want);
        return A.mux(c, lower(d, *n.b, w), lower(d, *n.c, w));
      }
      case Ast::Kind::Zext: {
        check_want(n, n.p0, want);
        const unsigned aw = natural(*n.a);
        if (!aw) err(n, "zext operand needs an explicit width");
        return A.zext(lower(d, *n.a, aw), n.p0);
      }
      case Ast::Kind::Slice: {
        check_want(n, n.p1, want);
        const unsigned aw = natural(*n.a);
        if (!aw) err(n, "slice operand needs an explicit width");
        return A.slice(lower(d, *n.a, aw), n.p0, n.p1);
      }
      case Ast::Kind::Concat: {
        check_want(n, natural(n), want);
        return A.bin(ExprOp::Concat, lower(d, *n.a, natural(*n.a)),
                     lower(d, *n.b, natural(*n.b)));
      }
      case Ast::Kind::Red: {
        check_want(n, 1, want);
        const unsigned aw = natural(*n.a);
        if (!aw) err(n, "reduction operand needs an explicit width");
        return A.un(n.op == "redor" ? ExprOp::RedOr : ExprOp::RedAnd,
                    lower(d, *n.a, aw));
      }
    }
    err(n, "internal: unknown AST node");
  }

  ExprId lower_bin(ObjectDesc& d, const Ast& n, unsigned want) {
    auto& A = d.arena();
    static const std::unordered_map<std::string, ExprOp> cmp = {
        {"==", ExprOp::Eq}, {"!=", ExprOp::Ne}, {"<", ExprOp::Lt},
        {"<=", ExprOp::Le}, {">", ExprOp::Gt},  {">=", ExprOp::Ge}};
    static const std::unordered_map<std::string, ExprOp> arith = {
        {"+", ExprOp::Add}, {"-", ExprOp::Sub}, {"*", ExprOp::Mul},
        {"&", ExprOp::And}, {"|", ExprOp::Or},  {"^", ExprOp::Xor}};

    if (n.op == "&&" || n.op == "||") {
      check_want(n, 1, want);
      ExprId a = lower_bool(d, *n.a);
      ExprId b = lower_bool(d, *n.b);
      return A.bin(n.op == "&&" ? ExprOp::And : ExprOp::Or, a, b);
    }
    if (auto it = cmp.find(n.op); it != cmp.end()) {
      check_want(n, 1, want);
      unsigned w = natural(*n.a);
      if (!w) w = natural(*n.b);
      if (!w) err(n, "cannot infer comparison width");
      return A.bin(it->second, lower(d, *n.a, w), lower(d, *n.b, w));
    }
    if (n.op == "<<" || n.op == ">>") {
      const unsigned w = pick(n, natural(*n.a), want);
      unsigned wb = natural(*n.b);
      if (!wb) wb = 7;  // enough for any shift of <=64 bits
      return A.bin(n.op == "<<" ? ExprOp::Shl : ExprOp::Shr,
                   lower(d, *n.a, w), lower(d, *n.b, wb));
    }
    auto it = arith.find(n.op);
    if (it == arith.end()) err(n, "unknown operator '" + n.op + "'");
    const unsigned w = pick(n, natural(n), want);
    return A.bin(it->second, lower(d, *n.a, w), lower(d, *n.b, w));
  }

  /// Lower an expression used as a Boolean (guards, &&/||, ternary cond,
  /// !): width-1 directly, wider values through an OR-reduction.
  ExprId lower_bool(ObjectDesc& d, const Ast& n) {
    unsigned w = natural(n);
    if (w == 0) w = 1;
    ExprId e = lower(d, n, w);
    if (w == 1) return e;
    return d.arena().un(ExprOp::RedOr, e);
  }

  /// Logical not: !e == (e == 0) for wide e, plain Not for 1-bit.
  ExprId to_bool_not(ObjectDesc& d, const Ast& a) {
    unsigned w = natural(a);
    if (w == 0) w = 1;
    ExprId e = lower(d, a, w);
    if (w == 1) return d.arena().un(ExprOp::Not, e);
    return d.arena().bin(ExprOp::Eq, e, d.arena().cst(0, w));
  }

  unsigned pick(const Ast& n, unsigned nat, unsigned want) {
    if (nat && want && nat != want) {
      err(n, "expression width " + std::to_string(nat) +
                 " does not match context width " + std::to_string(want) +
                 "; use zext/slice");
    }
    const unsigned w = nat ? nat : want;
    if (!w) err(n, "cannot infer width");
    return w;
  }

  void check_want(const Ast& n, unsigned have, unsigned want) {
    if (want && have != want) {
      err(n, "expression width " + std::to_string(have) +
                 " does not match context width " + std::to_string(want) +
                 "; use zext/slice");
    }
  }

  [[noreturn]] void err(const Ast& n, const std::string& msg) {
    throw ParseError("parse error at " + std::to_string(n.line) + ":" +
                     std::to_string(n.col) + ": " + msg);
  }

  // --- token helpers ------------------------------------------------------
  AstPtr node(Ast::Kind k) {
    auto n = std::make_unique<Ast>();
    n->kind = k;
    n->line = lex_.peek().line;
    n->col = lex_.peek().col;
    return n;
  }
  bool at_punct(const std::string& p) const {
    return lex_.peek().kind == Tok::Punct && lex_.peek().text == p;
  }
  bool at_ident(const std::string& id) const {
    return lex_.peek().kind == Tok::Ident && lex_.peek().text == id;
  }
  void expect_punct(const std::string& p) {
    if (!at_punct(p)) lex_.error("expected '" + p + "'", lex_.peek());
    lex_.take();
  }
  void expect_ident(const std::string& id) {
    if (!at_ident(id)) lex_.error("expected '" + id + "'", lex_.peek());
    lex_.take();
  }
  std::string take_ident(const std::string& what) {
    const Token t = lex_.take();
    if (t.kind != Tok::Ident) lex_.error("expected " + what, t);
    return t.text;
  }
  unsigned take_width(const std::string& what) {
    const Token t = lex_.take();
    if (t.kind != Tok::Number) {
      lex_.error("expected a bit width (1..64) for " + what, t);
    }
    if (t.value < 1 || t.value > 64) {
      // Name the offender and the actual limit: widths are bounded by
      // the 64-bit words every engine stores values in.
      lex_.error(what + " is " + std::to_string(t.value) +
                     " bits wide; widths are limited to 1..64 bits (values "
                     "are stored in 64-bit words)",
                 t);
    }
    return static_cast<unsigned>(t.value);
  }
  unsigned take_number(const std::string& what) {
    const Token t = lex_.take();
    if (t.kind != Tok::Number) lex_.error("expected " + what, t);
    return static_cast<unsigned>(t.value);
  }

  Lexer lex_;
  std::unordered_map<std::string, std::pair<std::uint32_t, unsigned>> vars_;
  std::unordered_map<std::string, std::pair<std::uint32_t, unsigned>> args_;
};

}  // namespace

ObjectDesc parse_object(const std::string& source) {
  Parser p(source);
  return p.parse();
}

std::vector<ObjectDesc> parse_objects(const std::string& source) {
  Parser p(source);
  return p.parse_all();
}

}  // namespace hlcs::synth
