// Minimal x86-64 instruction emitter + executable-page holder for the
// tape JIT (hlcs/synth/jit.hpp).
//
// The emitter is a copy-and-patch style assembler: each tape opcode
// expands to a short fixed instruction stencil whose register numbers,
// displacements and immediates are patched in as bytes are appended.
// Assembly happens into an ordinary heap vector; CodeBuffer then copies
// the finished bytes into fresh anonymous pages and flips them RW -> RX
// exactly once (W^X: the pages are never writable and executable at the
// same time).  Emitted code is position-independent by construction --
// no calls, no absolute data addresses, all memory access is
// [arg-register + disp] -- so installation needs no relocation pass.
//
// Only the encodings the JIT actually uses are provided; everything is
// 64-bit operand size unless noted.  The emitter itself is portable C++
// (it just writes bytes); only CodeBuffer::install touches mmap/mprotect
// and reports failure on hosts without executable pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hlcs::synth::jitx64 {

/// Hardware register numbers (x86-64 encoding order).
enum Reg : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// Condition codes for setcc/cmovcc (unsigned compares only: tape values
/// are masked unsigned words).
enum class Cond : std::uint8_t {
  B = 0x2,   ///< below (unsigned <)
  AE = 0x3,  ///< above or equal (unsigned >=)
  E = 0x4,   ///< equal
  NE = 0x5,  ///< not equal
  BE = 0x6,  ///< below or equal (unsigned <=)
  A = 0x7,   ///< above (unsigned >)
};

/// Two-operand ALU ops sharing the standard opcode pattern.
enum class Alu : std::uint8_t { Add, Or, And, Sub, Xor, Cmp };

class X64Emitter {
public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  // --- moves --------------------------------------------------------
  void mov_ri(Reg r, std::uint64_t imm);            ///< r = imm (best form)
  void mov_rr(Reg dst, Reg src);                    ///< dst = src
  void mov_rm(Reg r, Reg base, std::int32_t disp);  ///< r = [base+disp]
  void mov_mr(Reg base, std::int32_t disp, Reg r);  ///< [base+disp] = r
  /// qword [base+disp] = sign-extended imm32.
  void mov_mi32(Reg base, std::int32_t disp, std::int32_t imm);

  // --- ALU ----------------------------------------------------------
  void alu_rr(Alu op, Reg dst, Reg src);  ///< dst = dst OP src
  /// r = r OP sign-extended imm32.
  void alu_ri32(Alu op, Reg r, std::int32_t imm);
  void not_r(Reg r);
  void neg_r(Reg r);
  void shl_ri(Reg r, unsigned imm);  ///< imm in [0,63]
  void shr_ri(Reg r, unsigned imm);
  void test_rr(Reg a, Reg b);

  // --- conditionals -------------------------------------------------
  /// r = condition ? 1 : 0 (setcc on the low byte + zero-extend).
  void setcc_zx(Cond c, Reg r);
  void cmov_rr(Cond c, Reg dst, Reg src);
  void cmov_rm(Cond c, Reg dst, Reg base, std::int32_t disp);

  // --- stack / control ----------------------------------------------
  void sub_rsp(std::int32_t n);
  void add_rsp(std::int32_t n);
  void ret();

private:
  void u8(std::uint8_t b) { buf_.push_back(b); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// REX prefix; emitted whenever W, R or B is set.
  void rex(bool w, unsigned reg, unsigned rm);
  /// ModRM (+ SIB for RSP base, + disp) for a [base+disp] operand.
  void modrm_mem(unsigned reg, Reg base, std::int32_t disp);

  std::vector<std::uint8_t> buf_;
};

/// Executable pages holding installed code.  Movable, not copyable; the
/// mapping is released on destruction (the W^X "round trip" exercised by
/// the test suite: map RW, fill, flip RX, run, unmap).
class CodeBuffer {
public:
  CodeBuffer() = default;
  ~CodeBuffer();
  CodeBuffer(CodeBuffer&& o) noexcept;
  CodeBuffer& operator=(CodeBuffer&& o) noexcept;
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  /// Copy `code` into fresh RW pages and flip them to RX.  Returns false
  /// (leaving the buffer empty) when the host cannot provide executable
  /// pages -- non-x86-64 builds, HLCS_JIT=OFF, or a failed map.
  bool install(const std::vector<std::uint8_t>& code);

  bool installed() const { return base_ != nullptr; }
  std::size_t code_size() const { return code_size_; }

  /// Entry point at byte offset `off`, as a callable.
  template <typename Fn>
  Fn entry(std::size_t off) const {
    return reinterpret_cast<Fn>(
        reinterpret_cast<void*>(const_cast<std::uint8_t*>(base_ + off)));
  }

private:
  void release();

  std::uint8_t* base_ = nullptr;
  std::size_t map_size_ = 0;
  std::size_t code_size_ = 0;
};

/// True when this build can emit and execute native code: x86-64, a
/// POSIX mmap, and the HLCS_JIT CMake option left ON.
bool host_supported();

}  // namespace hlcs::synth::jitx64
