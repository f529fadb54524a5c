#include "hlcs/synth/jit_emit_x64.hpp"

#include <cstring>

// The emitter is portable (it only appends bytes); executable-page
// support is what gates the JIT to x86-64 POSIX hosts, and what the
// HLCS_JIT=OFF build switches off.
#if !defined(HLCS_JIT_OFF) && defined(__x86_64__) && \
    (defined(__unix__) || defined(__linux__) || defined(__APPLE__))
#define HLCS_JITX64_ENABLED 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define HLCS_JITX64_ENABLED 0
#endif

namespace hlcs::synth::jitx64 {

namespace {

/// /r opcode bytes for the r/m64 <- r/m64 OP r64 form; the imm32 form
/// uses 0x81 with the extension digit below.
constexpr std::uint8_t kAluMR[] = {0x01, 0x09, 0x21, 0x29, 0x31, 0x39};
constexpr std::uint8_t kAluExt[] = {0, 1, 4, 5, 6, 7};

}  // namespace

void X64Emitter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void X64Emitter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void X64Emitter::rex(bool w, unsigned reg, unsigned rm) {
  const std::uint8_t b = static_cast<std::uint8_t>(
      0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3));
  if (b != 0x40) u8(b);  // plain 0x40 would be a no-op prefix
}

void X64Emitter::modrm_mem(unsigned reg, Reg base, std::int32_t disp) {
  const unsigned rm = base & 7;
  // RBP/R13 as base require an explicit displacement byte even when 0;
  // the JIT never uses them as bases, but handle it for safety.
  const bool need_disp = disp != 0 || rm == 5;
  const bool disp8 = need_disp && disp >= -128 && disp <= 127;
  const std::uint8_t mod = !need_disp ? 0 : (disp8 ? 1 : 2);
  u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | rm));
  if (rm == 4) u8(0x24);  // SIB: base=RSP, no index
  if (!need_disp) return;
  if (disp8) {
    u8(static_cast<std::uint8_t>(disp));
  } else {
    u32(static_cast<std::uint32_t>(disp));
  }
}

void X64Emitter::mov_ri(Reg r, std::uint64_t imm) {
  if (imm == 0) {
    // xor r32, r32 zeroes the full register.
    rex(false, r, r);
    u8(0x31);
    u8(static_cast<std::uint8_t>(0xC0 | ((r & 7) << 3) | (r & 7)));
    return;
  }
  if (imm <= 0xFFFFFFFFu) {
    // mov r32, imm32 zero-extends.
    if (r >= 8) u8(0x41);
    u8(static_cast<std::uint8_t>(0xB8 | (r & 7)));
    u32(static_cast<std::uint32_t>(imm));
    return;
  }
  if (static_cast<std::int64_t>(imm) < 0 &&
      static_cast<std::int64_t>(imm) >= -2147483648LL) {
    // mov r/m64, imm32 sign-extends: covers ~0 and other high masks.
    rex(true, 0, r);
    u8(0xC7);
    u8(static_cast<std::uint8_t>(0xC0 | (r & 7)));
    u32(static_cast<std::uint32_t>(imm));
    return;
  }
  rex(true, 0, r);  // movabs
  u8(static_cast<std::uint8_t>(0xB8 | (r & 7)));
  u64(imm);
}

void X64Emitter::mov_rr(Reg dst, Reg src) {
  if (dst == src) return;
  rex(true, src, dst);
  u8(0x89);
  u8(static_cast<std::uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void X64Emitter::mov_rm(Reg r, Reg base, std::int32_t disp) {
  rex(true, r, base);
  u8(0x8B);
  modrm_mem(r, base, disp);
}

void X64Emitter::mov_mr(Reg base, std::int32_t disp, Reg r) {
  rex(true, r, base);
  u8(0x89);
  modrm_mem(r, base, disp);
}

void X64Emitter::mov_mi32(Reg base, std::int32_t disp, std::int32_t imm) {
  rex(true, 0, base);
  u8(0xC7);
  modrm_mem(0, base, disp);
  u32(static_cast<std::uint32_t>(imm));
}

void X64Emitter::alu_rr(Alu op, Reg dst, Reg src) {
  rex(true, src, dst);
  u8(kAluMR[static_cast<std::size_t>(op)]);
  u8(static_cast<std::uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
}

void X64Emitter::alu_ri32(Alu op, Reg r, std::int32_t imm) {
  rex(true, 0, r);
  u8(0x81);
  u8(static_cast<std::uint8_t>(
      0xC0 | (kAluExt[static_cast<std::size_t>(op)] << 3) | (r & 7)));
  u32(static_cast<std::uint32_t>(imm));
}

void X64Emitter::not_r(Reg r) {
  rex(true, 0, r);
  u8(0xF7);
  u8(static_cast<std::uint8_t>(0xC0 | (2 << 3) | (r & 7)));
}

void X64Emitter::neg_r(Reg r) {
  rex(true, 0, r);
  u8(0xF7);
  u8(static_cast<std::uint8_t>(0xC0 | (3 << 3) | (r & 7)));
}

void X64Emitter::shl_ri(Reg r, unsigned imm) {
  if (imm == 0) return;
  rex(true, 0, r);
  u8(0xC1);
  u8(static_cast<std::uint8_t>(0xC0 | (4 << 3) | (r & 7)));
  u8(static_cast<std::uint8_t>(imm));
}

void X64Emitter::shr_ri(Reg r, unsigned imm) {
  if (imm == 0) return;
  rex(true, 0, r);
  u8(0xC1);
  u8(static_cast<std::uint8_t>(0xC0 | (5 << 3) | (r & 7)));
  u8(static_cast<std::uint8_t>(imm));
}

void X64Emitter::test_rr(Reg a, Reg b) {
  rex(true, b, a);
  u8(0x85);
  u8(static_cast<std::uint8_t>(0xC0 | ((b & 7) << 3) | (a & 7)));
}

void X64Emitter::setcc_zx(Cond c, Reg r) {
  // setcc r8: REX is required for r8-r15 and harmless for rax..rdx (the
  // JIT never targets rsp/rbp/rsi/rdi here, so the uniform prefix never
  // changes which byte register is named).
  u8(static_cast<std::uint8_t>(0x40 | (r >> 3)));
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x90 | static_cast<std::uint8_t>(c)));
  u8(static_cast<std::uint8_t>(0xC0 | (r & 7)));
  // movzx r64, r8
  rex(true, r, r);
  u8(0x0F);
  u8(0xB6);
  u8(static_cast<std::uint8_t>(0xC0 | ((r & 7) << 3) | (r & 7)));
}

void X64Emitter::cmov_rr(Cond c, Reg dst, Reg src) {
  rex(true, dst, src);
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x40 | static_cast<std::uint8_t>(c)));
  u8(static_cast<std::uint8_t>(0xC0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::cmov_rm(Cond c, Reg dst, Reg base, std::int32_t disp) {
  rex(true, dst, base);
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x40 | static_cast<std::uint8_t>(c)));
  modrm_mem(dst, base, disp);
}

void X64Emitter::sub_rsp(std::int32_t n) {
  if (n == 0) return;
  alu_ri32(Alu::Sub, RSP, n);
}

void X64Emitter::add_rsp(std::int32_t n) {
  if (n == 0) return;
  alu_ri32(Alu::Add, RSP, n);
}

void X64Emitter::ret() { u8(0xC3); }

CodeBuffer::~CodeBuffer() { release(); }

CodeBuffer::CodeBuffer(CodeBuffer&& o) noexcept
    : base_(o.base_), map_size_(o.map_size_), code_size_(o.code_size_) {
  o.base_ = nullptr;
  o.map_size_ = 0;
  o.code_size_ = 0;
}

CodeBuffer& CodeBuffer::operator=(CodeBuffer&& o) noexcept {
  if (this != &o) {
    release();
    base_ = o.base_;
    map_size_ = o.map_size_;
    code_size_ = o.code_size_;
    o.base_ = nullptr;
    o.map_size_ = 0;
    o.code_size_ = 0;
  }
  return *this;
}

void CodeBuffer::release() {
#if HLCS_JITX64_ENABLED
  if (base_ != nullptr) munmap(base_, map_size_);
#endif
  base_ = nullptr;
  map_size_ = 0;
  code_size_ = 0;
}

bool CodeBuffer::install(const std::vector<std::uint8_t>& code) {
#if HLCS_JITX64_ENABLED
  release();
  if (code.empty()) return false;
  const long page = sysconf(_SC_PAGESIZE);
  const std::size_t ps = page > 0 ? static_cast<std::size_t>(page) : 4096;
  map_size_ = (code.size() + ps - 1) / ps * ps;
  void* p = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    map_size_ = 0;
    return false;
  }
  std::memcpy(p, code.data(), code.size());
  if (mprotect(p, map_size_, PROT_READ | PROT_EXEC) != 0) {
    munmap(p, map_size_);
    map_size_ = 0;
    return false;
  }
  base_ = static_cast<std::uint8_t*>(p);
  code_size_ = code.size();
  return true;
#else
  (void)code;
  return false;
#endif
}

bool host_supported() { return HLCS_JITX64_ENABLED != 0; }

}  // namespace hlcs::synth::jitx64
