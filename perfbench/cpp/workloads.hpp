// The three perfbench workloads. Each builds its inputs from the seed,
// sets itself up at least three times (setup_s is the median), measures for the
// requested number of seconds (and at least its own minimum of rounds or
// passes) with tracing off, and checks every
// operation's output against its oracle. With trace on, the workload
// instead runs an untraced and a traced phase and reports per-layer
// metrics; `probe` asks for the shortest traced phase that still reports
// every per-layer metric the workload owns.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

enum class Mode { kMeasure, kTrace, kProbe };

Outcome run_infer(const RunOptions& opts, Mode mode);
Outcome run_serve(const RunOptions& opts, Mode mode);
Outcome run_explore(const RunOptions& opts, Mode mode);

/// Prints the recorded-oracle lines of one explore variant (see
/// expected/explore.txt) instead of checking against them.
int record_explore(const RunOptions& opts);

/// Builds the workload state at least `reps` times — and, for cheap
/// setups, until kSetupMinSeconds have been spent, at most kSetupMaxReps
/// times — timing each build; returns the last state (earlier ones are
/// destroyed before the next starts) and the median build time in seconds.
template <typename T>
std::unique_ptr<T> repeated_setup(int reps, double& setup_s,
                                  const std::function<std::unique_ptr<T>()>& make) {
  constexpr double kSetupMinSeconds = 2.0;
  constexpr int kSetupMaxReps = 1000;
  std::vector<double> secs;
  std::unique_ptr<T> state;
  double spent = 0.0;
  for (int i = 0; i < reps || (reps > 1 && spent < kSetupMinSeconds && i < kSetupMaxReps);
       ++i) {
    state.reset();
    const double t0 = now_ms();
    state = make();
    secs.push_back((now_ms() - t0) / 1000.0);
    spent += secs.back();
  }
  setup_s = netcut::util::median(secs);
  return state;
}

/// Number of setups per measured run.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
