// hlcs_fabric -- generate and run a hierarchical multi-segment bus
// fabric (hlcs/fabric) on the sharded simulation kernel (hlcs/sim/shard).
//
//   hlcs_fabric --topo ring --segments 16 --shards 4 --threads 4
//   hlcs_fabric --segments 8 --verify          # serial vs sharded identity
//   hlcs_fabric --segments 4 --dump-topo       # deterministic topology dump
//
// Exit status is 0 only when every master finished, every DMA copy
// verified, and no protocol violations or property failures were seen
// (and, with --verify, when the sharded run is bit-identical to the
// serial reference).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hlcs/fabric/fabric.hpp"
#include "cli_number.hpp"

using namespace hlcs;

namespace {

void usage() {
  std::printf(
      "usage: hlcs_fabric [options]\n"
      "  --topo ring|star      fabric topology (default ring)\n"
      "  --segments N          bus segments (default 4)\n"
      "  --masters N           masters per segment (default 2)\n"
      "  --targets N           targets per segment (default 2)\n"
      "  --shards N            kernel partitions (default 1)\n"
      "  --threads N           worker threads, 0 = hardware (default 1)\n"
      "  --ops N               commands per application master (default 12)\n"
      "  --blocks N            DMA blocks per channel (default 2)\n"
      "  --words N             DMA words per block (default 8)\n"
      "  --latency PS          bridge hop latency in ps (default 120000)\n"
      "  --run US              simulated microseconds (default 2000)\n"
      "  --seed S              workload seed (default 0xB001)\n"
      "  --checkers            attach a temporal property pack per segment\n"
      "  --stats               print per-shard engine statistics\n"
      "  --dump-topo           print the topology and exit (no simulation)\n"
      "  --trace DIR           write one VCD per shard under DIR\n"
      "  --verify              also run the serial reference and compare\n");
}

struct Args {
  fabric::FabricConfig cfg;
  std::uint64_t run_us = 2000;
  bool stats = false;
  bool dump_topo = false;
  bool verify = false;
  std::string trace_dir;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", opt.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (opt == "--topo") {
      const std::string t = value();
      if (t == "ring") {
        a.cfg.topo = fabric::Topology::Ring;
      } else if (t == "star") {
        a.cfg.topo = fabric::Topology::Star;
      } else {
        std::fprintf(stderr, "unknown topology '%s'\n", t.c_str());
        return false;
      }
    } else if (opt == "--segments") {
      a.cfg.segments = cli::parse_number(opt, value());
    } else if (opt == "--masters") {
      a.cfg.masters = cli::parse_number(opt, value());
    } else if (opt == "--targets") {
      a.cfg.targets = cli::parse_number(opt, value());
    } else if (opt == "--shards") {
      a.cfg.shards = cli::parse_number(opt, value());
    } else if (opt == "--threads") {
      a.cfg.threads = cli::parse_number<unsigned>(opt, value());
    } else if (opt == "--ops") {
      a.cfg.app_ops = cli::parse_number(opt, value());
    } else if (opt == "--blocks") {
      a.cfg.blocks = cli::parse_number(opt, value());
    } else if (opt == "--words") {
      a.cfg.words = cli::parse_number(opt, value());
    } else if (opt == "--latency") {
      a.cfg.bridge_latency = sim::Time::ps(cli::parse_number(opt, value()));
    } else if (opt == "--run") {
      a.run_us = cli::parse_number(opt, value());
    } else if (opt == "--seed") {
      a.cfg.seed = cli::parse_number(opt, value());
    } else if (opt == "--checkers") {
      a.cfg.checkers = true;
    } else if (opt == "--stats") {
      a.stats = true;
    } else if (opt == "--dump-topo") {
      a.dump_topo = true;
    } else if (opt == "--trace") {
      a.trace_dir = value();
    } else if (opt == "--verify") {
      a.verify = true;
    } else if (opt == "--help" || opt == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", opt.c_str());
      return false;
    }
  }
  return true;
}

struct RunResult {
  bool done = false;
  std::string transcript;
  std::uint64_t digest = 0;
  std::size_t copy_errors = 0;
  std::size_t violations = 0;
  std::uint64_t check_fails = 0;
};

RunResult run_one(const Args& a, std::size_t shards, unsigned threads,
                  bool attach_trace) {
  fabric::FabricConfig cfg = a.cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  fabric::FabricSystem sys(cfg);
  if (attach_trace && !a.trace_dir.empty()) {
    for (const std::string& p : sys.attach_traces(a.trace_dir)) {
      std::printf("trace: %s\n", p.c_str());
    }
  }
  sys.run_for(sim::Time::us(a.run_us));
  sys.flush_traces();

  RunResult r;
  r.done = sys.all_done();
  r.transcript = sys.transcript();
  r.digest = sys.state_digest();
  r.copy_errors = sys.copy_errors();
  r.violations = sys.violations();
  r.check_fails = sys.check_fails();

  if (a.stats) {
    const auto& st = sys.engine().stats();
    std::printf("engine: %llu windows, window=%s, %u threads\n",
                static_cast<unsigned long long>(sys.engine().windows_run()),
                sys.engine().window().to_string().c_str(),
                sys.engine().threads());
    for (std::size_t i = 0; i < st.size(); ++i) {
      std::printf(
          "  shard %zu: %llu events, %llu deltas, %llu windows "
          "(%llu stalled), %llu msgs out, %llu msgs in, %.1f ms busy\n",
          i, static_cast<unsigned long long>(st[i].kernel.timed_actions),
          static_cast<unsigned long long>(st[i].kernel.deltas),
          static_cast<unsigned long long>(st[i].windows),
          static_cast<unsigned long long>(st[i].stalled_windows),
          static_cast<unsigned long long>(st[i].msgs_sent),
          static_cast<unsigned long long>(st[i].msgs_received),
          static_cast<double>(st[i].busy_ns) / 1e6);
    }
  }
  return r;
}

int run(const Args& a) {
  if (a.dump_topo) {
    fabric::FabricSystem sys(a.cfg);
    std::printf("%s", sys.dump_topology().c_str());
    return 0;
  }

  std::printf("fabric: topo=%s segments=%zu masters=%zu targets=%zu "
              "shards=%zu threads=%u\n",
              fabric::to_string(a.cfg.topo), a.cfg.segments, a.cfg.masters,
              a.cfg.targets, a.cfg.shards, a.cfg.threads);

  const RunResult r = run_one(a, a.cfg.shards, a.cfg.threads,
                              /*attach_trace=*/true);
  std::printf("done=%d copy_errors=%zu violations=%zu check_fails=%llu "
              "digest=%016llx\n",
              r.done, r.copy_errors, r.violations,
              static_cast<unsigned long long>(r.check_fails),
              static_cast<unsigned long long>(r.digest));

  bool ok = r.done && r.copy_errors == 0 && r.violations == 0 &&
            r.check_fails == 0;

  if (a.verify) {
    // The serial reference: everything on one kernel, one thread.
    const RunResult ref = run_one(a, 1, 1, /*attach_trace=*/false);
    const bool identical = ref.done == r.done &&
                           ref.transcript == r.transcript &&
                           ref.digest == r.digest;
    std::printf("verify vs serial reference: %s (digest %016llx vs %016llx)\n",
                identical ? "identical" : "DIVERGED",
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(ref.digest));
    ok = ok && identical;
  }

  std::printf("%s\n", ok ? "FABRIC PASS" : "FABRIC FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 2;
  }
  try {
    return run(a);
  } catch (const hlcs::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
