// infer: one client in a closed loop at batch 1 — the paper's deployment
// case, one frame against a deadline.
//
// The TRN set is the seven zoo trunks at 32 px, each as a full-trunk TRN
// and as one mid-depth blockwise TRN (core::build_trn), so it covers
// 1x1-heavy, depthwise and concat-heavy graphs and the narrow GEMM panels of
// deep cuts. A round runs one nn::Network::forward per TRN (fp32), then one
// quant::QuantizedNetwork::forward_int8 per TRN (BN folded and calibrated in
// setup). Interleaving the fourteen TRNs inside a round spreads host drift
// across all of them.
//
// Oracles, per forward, against references the scalar backend computes
// after the timed setups: fp32 within 4*k ULP of the larger magnitude, k
// being the TRN's deepest GEMM reduction (the repo's per-GEMM budget); int8
// within test_quant's bound (0.15 * output range + 0.05) of the scalar
// backend's int8 output, which the repo contracts to be bit-exact across
// backends.
// (Against fp32 itself the int8 outputs of these untrained deep TRNs
// differ by more than that bound — quantization error, not an engine fault.)
//
// A measured run lasts --seconds and at least kMinRounds rounds, so the
// p90 has ten rounds beyond it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/trn.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "quant/qnetwork.hpp"
#include "fixtures.hpp"
#include "replay.hpp"
#include "tensor/backend.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

using namespace netcut;
using tensor::Tensor;

constexpr int kResolution = 32;
constexpr std::size_t kMinRounds = 100;
constexpr int kInputs = 2;  // distinct frames (and calibration images), cycled round by round

struct Trn {
  std::string name;
  std::unique_ptr<nn::Network> fp32;
  std::unique_ptr<quant::QuantizedNetwork> int8;
  int max_reduction = 1;          // deepest GEMM reduction (the ULP budget's k)
  std::vector<Tensor> reference;       // scalar-backend fp32 output per input
  std::vector<Tensor> reference_int8;  // scalar-backend int8 output per input
};

struct InferState {
  std::vector<Tensor> inputs;
  std::vector<Trn> trns;
};

std::unique_ptr<InferState> make_state(std::uint64_t seed) {
  auto st = std::make_unique<InferState>();
  util::Rng rng(util::derive_seed(seed, "perfbench/infer"));
  st->inputs = make_frames(kInputs, kResolution, rng);
  const std::vector<Tensor> calib = make_frames(kInputs, kResolution, rng);
  std::vector<const Tensor*> calib_ptrs;
  for (const Tensor& t : calib) calib_ptrs.push_back(&t);

  const core::HeadConfig head;
  for (zoo::NetId id : zoo::all_nets()) {
    const nn::Graph trunk = conditioned_trunk(id, kResolution, rng, calib);
    const std::vector<int> cuts = core::blockwise_cutpoints(trunk);
    for (int cut : {cuts.back(), cuts[cuts.size() / 2]}) {
      Trn t;
      t.name = core::trn_name(zoo::net_name(id), trunk, cut);
      t.fp32 = std::make_unique<nn::Network>(core::build_trn(trunk, cut, head, rng));
      t.int8 = std::make_unique<quant::QuantizedNetwork>(quant::fold_batchnorm(t.fp32->graph()));
      t.int8->calibrate(calib_ptrs);
      t.max_reduction = max_reduction(t.fp32->graph());
      st->trns.push_back(std::move(t));
    }
  }
  return st;
}

/// The oracles' scalar-backend outputs, computed once after the timed
/// setups: they check the engine rather than being part of its set-up.
void add_references(InferState& st) {
  const tensor::BackendKind active = tensor::active_backend_kind();
  tensor::set_backend(tensor::BackendKind::kScalar);
  for (Trn& t : st.trns)
    for (const Tensor& x : st.inputs) {
      t.reference.push_back(t.fp32->forward(x));
      t.reference_int8.push_back(t.int8->forward_int8(x));
    }
  tensor::set_backend(active);
}

bool int8_ok(const Tensor& got, const Tensor& ref) {
  if (!(got.shape() == ref.shape())) return false;
  const float range = std::max(std::fabs(ref.max()), std::fabs(ref.min()));
  return tensor::max_abs_diff(got, ref) < 0.15f * range + 0.05f;
}

struct RoundTimes {
  double fp32_ms = 0.0;
  double int8_ms = 0.0;
};

/// One round: an fp32 forward per TRN, then an int8 forward per TRN, on
/// frame `r`; every output checked after the timed loops.
RoundTimes run_round(InferState& st, std::int64_t r, Tally& tally) {
  const std::size_t x = static_cast<std::size_t>(r % kInputs);
  const Tensor& input = st.inputs[x];
  std::vector<Tensor> fp32(st.trns.size()), int8(st.trns.size());
  RoundTimes t;
  double t0 = now_ms();
  for (std::size_t i = 0; i < st.trns.size(); ++i) {
    ScopedSpan span("nn.forward_fp32");
    fp32[i] = st.trns[i].fp32->forward(input);
  }
  t.fp32_ms = now_ms() - t0;
  t0 = now_ms();
  for (std::size_t i = 0; i < st.trns.size(); ++i) {
    ScopedSpan span("quant.forward_int8");
    int8[i] = st.trns[i].int8->forward_int8(input);
  }
  t.int8_ms = now_ms() - t0;
  for (std::size_t i = 0; i < st.trns.size(); ++i) {
    const Trn& trn = st.trns[i];
    const bool ok32 = ulp_close(fp32[i], trn.reference[x], trn.max_reduction);
    const bool ok8 = int8_ok(int8[i], trn.reference_int8[x]);
    if (!ok32 || !ok8)
      std::fprintf(stderr, "infer: %s %s output outside its oracle\n", trn.name.c_str(),
                   ok32 ? "int8" : "fp32");
    tally.record(ok32);
    tally.record(ok8);
  }
  return t;
}

/// Per-layer metrics of one replay round plus the counted/computed ones.
void layer_metrics(InferState& st, int replays, Outcome& out) {
  // Allocation count of one fp32 forward per TRN (steady state).
  const std::uint64_t a0 = tensor::tensor_alloc_count();
  for (Trn& t : st.trns) t.fp32->forward(st.inputs[0]);
  const std::uint64_t allocs = tensor::tensor_alloc_count() - a0;

  std::int64_t flops = 0, params = 0;
  for (const Trn& t : st.trns) {
    flops += t.fp32->graph().total_cost().flops;
    params += t.fp32->graph().total_cost().params;
  }
  std::int64_t gemm_flops = 0;
  for (int r = 0; r < replays; ++r) {
    for (Trn& t : st.trns) {
      std::vector<Tensor> acts;
      {
        ScopedSpan span("nn.replay");
        acts = replay_nodes(t.fp32->graph(), st.inputs[static_cast<std::size_t>(r % kInputs)]);
      }
      gemm_flops += replay_gemms(t.fp32->graph(), acts);
      replay_s8u8(t.int8->network().graph());
    }
  }

  const auto totals = tracer().totals();
  const double rounds = static_cast<double>(span_count(totals, "nn.forward_fp32")) /
                        static_cast<double>(st.trns.size());
  const double reps = static_cast<double>(replays);
  const double forward_ms = span_self_ms(totals, "nn.forward_fp32") / rounds;
  const double replay_ms = span_mean_ms(totals, "nn.replay") *
                           static_cast<double>(st.trns.size());
  const double gemm_ms = span_self_ms(totals, "tensor.gemm") / reps;
  out.layers.set("nn.forward_fp32_ms", forward_ms, "ms");
  out.layers.set("nn.replay_ms", replay_ms, "ms");
  out.layers.set("nn.executor_ratio", forward_ms / replay_ms, "ratio");
  for (const char* g : kind_groups())
    out.layers.set(std::string("nn.kind.") + g + "_ms",
                   span_self_ms(totals, std::string("nn.kind.") + g) / reps, "ms");
  out.layers.set("tensor.gemm_ms", gemm_ms, "ms");
  out.layers.set("tensor.im2col_ms", span_self_ms(totals, "tensor.im2col") / reps, "ms");
  out.layers.set("tensor.gemm_gflops",
                 static_cast<double>(gemm_flops) / reps / (gemm_ms * 1e6), "GFLOP/s");
  out.layers.set("tensor.gemm_share", gemm_ms / forward_ms, "ratio");
  out.layers.set("tensor.allocs_per_forward",
                 static_cast<double>(allocs) / static_cast<double>(st.trns.size()), "count");
  out.layers.set("tensor.flops_per_round", static_cast<double>(flops), "FLOP");
  out.layers.set("tensor.weight_mb_per_round", static_cast<double>(params) * 4.0 / 1e6, "MB");
  out.layers.set("quant.forward_int8_ms", span_self_ms(totals, "quant.forward_int8") / rounds,
                 "ms");
  out.layers.set("tensor.gemm_s8u8_ms", span_self_ms(totals, "tensor.gemm_s8u8") / reps, "ms");
}

}  // namespace

Outcome run_infer(const RunOptions& opts, Mode mode) {
  Outcome out;
  double setup_s = 0.0;
  const int reps = mode == Mode::kMeasure ? kSetupReps : 1;
  std::unique_ptr<InferState> st = repeated_setup<InferState>(
      reps, setup_s, [&] { return make_state(opts.seed); });
  add_references(*st);

  const bool traced = tracer().enabled();
  tracer().set_enabled(false);
  Tally warm;
  for (int r = 0; r < 2; ++r) run_round(*st, r, warm);  // plans, arenas, caches
  out.tally.attempted += warm.attempted;
  out.tally.failed += warm.failed;

  // Measure: the whole budget untraced. Trace: first half untraced (the
  // overhead baseline), second half traced. Probe: a few traced rounds.
  std::vector<double> fp32_ms, int8_ms, traced_fp32_ms;
  const double budget_ms = mode == Mode::kProbe ? 0.0 : opts.seconds * 1000.0;
  const double untraced_ms = mode == Mode::kMeasure ? budget_ms : budget_ms / 2;
  const double t0 = now_ms();
  std::int64_t r = 0;
  while (mode != Mode::kProbe &&
         (now_ms() - t0 < untraced_ms || (mode == Mode::kMeasure && fp32_ms.size() < kMinRounds))) {
    const RoundTimes t = run_round(*st, r++, out.tally);
    fp32_ms.push_back(t.fp32_ms);
    int8_ms.push_back(t.int8_ms);
  }
  if (mode == Mode::kMeasure) {
    const double p50 = util::median(fp32_ms);
    out.end_to_end.set("primary_ms_p50", p50, "ms");
    out.end_to_end.set("secondary_ms_p50", util::median(int8_ms), "ms");
    out.end_to_end.set("setup_s", setup_s, "s");
    out.named.set("infer_fp32_ms_p50", p50, "ms");
    out.named.set("infer_fp32_ms_p90", util::percentile(fp32_ms, 90.0), "ms");
    out.named.set("infer_int8_ms_p50", util::median(int8_ms), "ms");
    out.named.set("infer_int8_ms_p90", util::percentile(int8_ms, 90.0), "ms");
    out.named.set("rounds", static_cast<double>(fp32_ms.size()), "count");
    return out;
  }

  tracer().set_enabled(traced);
  const std::size_t first_span = tracer().size();
  const double t1 = now_ms();
  do {
    traced_fp32_ms.push_back(run_round(*st, r++, out.tally).fp32_ms);
  } while (mode == Mode::kProbe ? traced_fp32_ms.size() < 3 : now_ms() - t1 < budget_ms / 2);
  if (mode == Mode::kTrace)
    out.layers.set("bench.self_time_share", tracer().root_ms_since(first_span) / (now_ms() - t1),
                   "ratio");
  layer_metrics(*st, mode == Mode::kProbe ? 1 : 3, out);
  if (mode == Mode::kTrace)
    out.named.set("trace_overhead_ms", util::median(traced_fp32_ms) - util::median(fp32_ms),
                  "ms");
  return out;
}

}  // namespace perfbench
