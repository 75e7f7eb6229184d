// perfbench: the repository's wall-clock benchmark program.
//
//   perfbench --workload infer|serve|explore --seed N --seconds S --trace 0|1
//             --data-dir perfbench --work-dir DIR
//   perfbench --record-explore --seed N --data-dir perfbench --work-dir DIR
//
// Prints a stamp line, a detail line with the workload's own metric names,
// and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1, printing no result, when the run cannot complete.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "tensor/backend.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kPoolThreads = 1;

struct Args {
  std::string workload;
  RunOptions run;
  bool record = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-explore") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(v);
        have_seconds = a.run.seconds > 0;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        a.run.trace = v == "1";
        have_trace = true;
      } else if (flag == "--data-dir") {
        a.run.data_dir = v;
      } else if (flag == "--work-dir") {
        a.run.work_dir = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.run.data_dir.empty() || a.run.work_dir.empty())
    usage("--data-dir and --work-dir are required");
  if (a.record) {
    if (!have_seed) usage("--record-explore needs --seed");
    return a;
  }
  if (a.workload != "infer" && a.workload != "serve" && a.workload != "explore")
    usage("--workload must be infer, serve or explore");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds (> 0) and --trace are required");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Backend, ISA, pool size, nproc, compiler and build type of this run.
void print_stamp() {
  std::printf(
      "stamp: {\"backend\": \"%s\", \"simd_isa\": \"%s\", \"pool_threads\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\"}\n",
      netcut::tensor::backend_name(netcut::tensor::active_backend_kind()),
      netcut::tensor::simd_isa(), netcut::util::ThreadPool::instance().num_threads(),
      std::thread::hardware_concurrency(), json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
}

Outcome run_workload(const std::string& name, const RunOptions& opts, Mode mode) {
  if (name == "infer") return run_infer(opts, mode);
  if (name == "serve") return run_serve(opts, mode);
  return run_explore(opts, mode);
}

/// Traced run: the chosen workload's untraced and traced phases, then a
/// short traced probe of the other two so every per-layer metric appears.
/// Each metric comes from the workload that owns its layer.
Outcome traced_run(const Args& a) {
  tracer().set_enabled(true);
  Outcome main = run_workload(a.workload, a.run, Mode::kTrace);
  tracer().clear();
  main.layers.set("bench.trace_overhead_ms", main.named.get("trace_overhead_ms"), "ms");

  for (const char* other : {"infer", "serve", "explore"}) {
    if (a.workload == other) continue;
    RunOptions probe = a.run;
    probe.seconds = 1.0;
    Outcome o = run_workload(other, probe, Mode::kProbe);
    tracer().clear();
    main.tally.attempted += o.tally.attempted;
    main.tally.failed += o.tally.failed;
    main.layers.merge(o.layers);
  }
  return main;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // One pool thread. On a shared host a pool of nproc threads meets at a
  // barrier after every kernel, so one preempted worker stalls the whole
  // layer and round times spread by 2-3x between runs; a single thread
  // measures the engine, not the neighbours.
  netcut::util::set_num_threads(kPoolThreads);
  try {
    std::filesystem::create_directories(a.run.work_dir);
    if (a.record) return record_explore(a.run);

    print_stamp();
    Outcome o;
    if (a.run.trace) {
      o = traced_run(a);
    } else {
      o = run_workload(a.workload, a.run, Mode::kMeasure);
      const double pass_rate =
          o.tally.attempted == 0
              ? 0.0
              : 1.0 - static_cast<double>(o.tally.failed) / static_cast<double>(o.tally.attempted);
      o.end_to_end.set("pass_rate", pass_rate, "ratio");
      o.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    std::printf("detail: %s\n", o.named.to_json().c_str());
    if (o.tally.attempted < 1) throw std::runtime_error("no operation was attempted");
    const MetricSet& metrics = a.run.trace ? o.layers : o.end_to_end;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                o.tally.failed == 0 ? "true" : "false",
                static_cast<long long>(o.tally.attempted),
                static_cast<long long>(o.tally.failed), metrics.to_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
