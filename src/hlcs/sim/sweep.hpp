// ParallelSweep -- run N independent simulation scenarios across a
// thread pool.
//
// The kernel is strictly single-threaded by design (determinism depends
// on it), but design-space exploration -- the paper's FW1 experiment
// sweeping client counts and arbitration policies -- is embarrassingly
// parallel ACROSS simulations: every sweep point owns a private Kernel
// and shares nothing.  ParallelSweep exploits exactly that boundary:
// each worker thread claims whole sweep points and runs an ordinary
// deterministic Kernel to completion, so results are bit-identical to a
// serial loop regardless of thread count or scheduling order.
//
// The scenario callback builds the model, runs the kernel, and appends
// whatever it wants recorded to `transcript`.  Anything it touches
// outside its own sweep point is a data race; keep all state local.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "hlcs/sim/kernel.hpp"

namespace hlcs::sim {

/// The worker-pool core shared by ParallelSweep and the lane blocks of
/// synth::check_equivalence: run `fn(0) .. fn(n-1)` across `threads` workers, each index
/// claimed dynamically off a shared atomic cursor.  `threads == 0`
/// picks the hardware concurrency; `threads == 1` runs serially on the
/// calling thread (no workers spawned).  If any call throws, the
/// exception of the lowest failing index is rethrown after all workers
/// finish.  Determinism is the caller's contract: fn must write only
/// per-index state, so results are identical at any thread count.
void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn);

/// Outcome of one sweep point, indexed deterministically.
struct SweepResult {
  std::size_t index = 0;
  std::string transcript;  ///< scenario-written record
  Time end_time;           ///< kernel time when the scenario returned
  KernelStats stats;       ///< kernel statistics at completion
};

class ParallelSweep {
 public:
  /// `fn(index, kernel, transcript)` runs one sweep point.  The kernel
  /// is freshly constructed for the point; the scenario is responsible
  /// for calling run()/run_for() itself.
  using Scenario =
      std::function<void(std::size_t, Kernel&, std::string&)>;

  explicit ParallelSweep(Scenario fn);

  /// Run `points` sweep points on `threads` worker threads and return
  /// results ordered by index.  `threads == 0` picks the hardware
  /// concurrency; `threads == 1` runs serially on the calling thread
  /// (no workers spawned) -- useful as the determinism reference.
  /// If any scenario throws, the exception of the lowest-indexed
  /// failing point is rethrown after all workers finish.
  std::vector<SweepResult> run(std::size_t points, unsigned threads = 0);

 private:
  Scenario scenario_;
};

}  // namespace hlcs::sim
