// Outside-in span tracer: the benchmark wraps each call it makes into a
// library module in a Scope, so a traced run can say which layer the
// host time went to.  Spans live in memory until the run ends; an
// untraced run opens none (one predictable branch per call site).
#pragma once

#include <cstdint>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

namespace flowbench {

/// Host time, in ns: the CPU time of the whole process.  On a shared VM
/// the hypervisor at times runs other guests on this guest's vCPU, and a
/// kernel that accounts steal time leaves that time out of a task's CPU
/// time, so this clock counts the program's own work and not its
/// neighbours' load.  The benchmark runs on one thread, so CPU time is
/// the time its work takes.
inline std::int64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return std::int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

inline double seconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// One call into a module.  `name` is "<module>.<stage>" (the module is
/// the layer); `tag` names the refinement rung, or is empty.
struct Span {
  const char* name = "";
  const char* tag = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint32_t op = 0;      ///< operation the span belongs to
};

class Tracer {
public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::int32_t open(const char* name, const char* tag, std::uint32_t op) {
    spans_.push_back(Span{name, tag, cpu_ns(), 0, current_, op});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = cpu_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Write every span as Chrome trace-event JSON (viewable in any trace
  /// viewer).  Returns false if the file cannot be written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << (*s.tag ? "." : "") << s.tag << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << (s.start_ns - t0) / 1000.0
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

private:
  bool on_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class Scope {
public:
  Scope(Tracer& t, const char* name, std::uint32_t op, const char* tag = "")
      : t_(t), id_(t.on() ? t.open(name, tag, op) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer& t_;
  std::int32_t id_;
};

/// Run `f` inside a span and return its result.
template <class F>
auto traced(Tracer& t, const char* name, std::uint32_t op, F&& f,
            const char* tag = "") {
  Scope s(t, name, op, tag);
  return f();
}

}  // namespace flowbench
