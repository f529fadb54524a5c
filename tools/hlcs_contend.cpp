// hlcs_contend -- contention cost-model driver for guarded method calls.
//
// Sweeps arbitration policy x client count x traffic shape over a
// clocked SharedObject and records the grant-latency distribution of
// every cell (docs/CONTENTION.md).  Modes:
//
//   --cell         run one cell and print its JSON record
//   --sweep KIND   run the full or reduced grid; print/emit the dataset
//   --check-dataset FILE  recompute the selected grid and diff each cell
//                  against the committed dataset (byte-identical or fail)
//   --derive       print the tuning derived from the full grid
//   --verify       run the adaptive-arbitration fairness pack on the
//                  adversarial shapes under behavioural + lowered
//                  monitors
//
// Every cell seeds itself from its own key, so a reduced grid computes
// the exact bytes the full grid would for the same cells, at any
// --threads count.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hlcs/contend/contend.hpp"
#include "hlcs/osss/osss.hpp"
#include "hlcs/sim/sim.hpp"
#include "cli_number.hpp"

namespace {

using namespace hlcs;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s MODE [options]\n"
      "modes:\n"
      "  --cell               run one cell (--policy/--clients/--traffic)\n"
      "  --sweep full|reduced run a grid and print the dataset JSON\n"
      "  --check-dataset FILE recompute a grid (default reduced; override\n"
      "                       with --sweep) and diff against FILE\n"
      "  --derive             derive adaptive tuning from the full grid\n"
      "  --verify             run the adaptive fairness property pack\n"
      "options:\n"
      "  --policy NAME        fifo|round_robin|static_priority|random|"
      "adaptive\n"
      "  --clients N          2..64 (default 8)\n"
      "  --traffic NAME       uniform|bursty|convoy|stampede\n"
      "  --cycles N           cycles per cell (default %llu)\n"
      "  --threads N          worker threads (0 = hardware concurrency)\n"
      "  -o FILE              write the dataset to FILE instead of stdout\n",
      argv0,
      static_cast<unsigned long long>(contend::kDefaultCycles));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { None, Cell, Sweep, CheckDataset, Derive, Verify };
  Mode mode = Mode::None;
  contend::GridKind grid_kind = contend::GridKind::Reduced;
  std::string dataset_path;
  std::string out_path;
  contend::CellConfig cell;
  cell.policy = osss::PolicyKind::Fifo;
  cell.clients = 8;
  cell.traffic = contend::TrafficShape::Uniform;
  unsigned threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument (%s)\n", a.c_str(),
                     what);
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--cell") {
        mode = Mode::Cell;
      } else if (a == "--sweep") {
        if (mode == Mode::None) mode = Mode::Sweep;
        const std::string kind = next("full|reduced");
        if (kind == "full") grid_kind = contend::GridKind::Full;
        else if (kind == "reduced") grid_kind = contend::GridKind::Reduced;
        else {
          std::fprintf(stderr, "--sweep expects full or reduced, got '%s'\n",
                       kind.c_str());
          return 2;
        }
      } else if (a == "--check-dataset") {
        mode = Mode::CheckDataset;
        dataset_path = next("file");
      } else if (a == "--derive") {
        mode = Mode::Derive;
      } else if (a == "--verify") {
        mode = Mode::Verify;
      } else if (a == "--policy") {
        cell.policy = osss::parse_policy(next("name"));
      } else if (a == "--clients") {
        cell.clients = cli::parse_number<std::size_t>(a, next("count"));
      } else if (a == "--traffic") {
        cell.traffic = contend::parse_traffic(next("name"));
      } else if (a == "--cycles") {
        cell.cycles = cli::parse_number(a, next("count"));
      } else if (a == "--threads") {
        threads = cli::parse_number<unsigned>(a, next("count"));
      } else if (a == "-o") {
        out_path = next("file");
      } else {
        return usage(argv[0]);
      }
    } catch (const hlcs::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (mode == Mode::None) return usage(argv[0]);

  try {
    switch (mode) {
      case Mode::Cell: {
        const contend::CellResult r = contend::run_cell(cell);
        std::printf("%s\n", contend::cell_json(r).c_str());
        return 0;
      }
      case Mode::Sweep:
      case Mode::CheckDataset: {
        // --check-dataset defaults to the reduced grid so the gate stays
        // cheap; --sweep full --check-dataset FILE checks every cell.
        const auto grid = contend::make_grid(grid_kind, cell.cycles,
                                             contend::kRootSeed);
        const auto cells = contend::run_grid(grid, threads);
        if (mode == Mode::CheckDataset) {
          std::ifstream in(dataset_path);
          if (!in) {
            std::fprintf(stderr, "cannot read dataset '%s'\n",
                         dataset_path.c_str());
            return 2;
          }
          std::ostringstream ss;
          ss << in.rdbuf();
          const std::string diff =
              contend::diff_against_dataset(cells, ss.str());
          if (!diff.empty()) {
            std::fprintf(stderr, "%s\n", diff.c_str());
            return 1;
          }
          std::printf("dataset OK: %zu cells identical (%s grid)\n",
                      cells.size(),
                      grid_kind == contend::GridKind::Full ? "full"
                                                           : "reduced");
          return 0;
        }
        const std::string json = contend::dataset_json(
            cells, cell.cycles, contend::kRootSeed);
        if (out_path.empty()) {
          std::fputs(json.c_str(), stdout);
        } else {
          std::ofstream out(out_path);
          if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
            return 2;
          }
          out << json;
          std::fprintf(stderr, "wrote %zu cells to %s\n", cells.size(),
                       out_path.c_str());
        }
        return 0;
      }
      case Mode::Derive: {
        const auto grid = contend::make_grid(contend::GridKind::Full,
                                             cell.cycles, contend::kRootSeed);
        const auto cells = contend::run_grid(grid, threads);
        const osss::AdaptiveTuning t = contend::derive_tuning(cells);
        std::printf("derived tuning: starve_bound=%llu window=%u "
                    "hot_threshold=%u\n",
                    static_cast<unsigned long long>(t.starve_bound), t.window,
                    t.hot_threshold);
        const osss::AdaptiveTuning d{};
        std::printf("compiled defaults: starve_bound=%llu window=%u "
                    "hot_threshold=%u (%s)\n",
                    static_cast<unsigned long long>(d.starve_bound), d.window,
                    d.hot_threshold,
                    t.starve_bound == d.starve_bound ? "match" : "DIVERGED");
        return t.starve_bound == d.starve_bound ? 0 : 1;
      }
      case Mode::Verify: {
        const contend::FairnessReport rep =
            contend::verify_fairness(cell.cycles);
        std::printf("%s\n", rep.detail.c_str());
        return rep.ok ? 0 : 1;
      }
      case Mode::None:
        break;
    }
  } catch (const hlcs::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
