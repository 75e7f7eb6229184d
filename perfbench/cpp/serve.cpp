// serve: seeded Poisson arrivals at one fixed rate into a serve::BatchServer
// (max_batch 8) serving one confidence-gated cascade option with real
// compute — CascadeTrn::stage1_batch, then escalation through
// forward_from_batch — alternating with saturated closed segments.
//
// The cascade is cut from a MobileNetV2-1.40 trunk at 32 px: a mid-depth
// shallow TRN and the full-depth deep TRN. Setup sets the escalation
// threshold so 5 of the 16 request frames escalate, and measures the batch
// latency curves the batch former plans with (stage1_batch and
// escalate_batch at n = 1..8, median of kCurveReps).
//
// The run alternates two segments until --seconds have passed and at least
// kMinRequests open-loop requests were served, so both sample the same host
// conditions. Open segment: Poisson arrivals at kRateRps for kSegmentMs; the
// client pushes every request that has come due between step() calls and
// times each response in wall clock from its due time, on time when within
// kDeadlineMs. Saturated segment: kSaturatedRequests requests queued at once
// with distant deadlines, so every step serves a full batch; capacity is
// requests per second. The rate is about half the reference host's
// saturated capacity on one pool thread (~230 rps).
//
// serve is not among BENCHMARK.json's workloads: on the shared VM host the
// reference numbers come from, with a four-thread pool, its open-loop
// latency spread 25-30% of its median across seeds even at a quarter of
// capacity (and over 100% at two-thirds), more than the largest bound the
// benchmark allows. It still runs by hand (`run.py --workload serve`), and
// every traced run probes it for the serve-layer metrics.
//
// Oracle, per request: the output matches the setup-time single-image
// output of the same frame — the shallow TRN's, or the deep TRN's when the
// request was escalated — within the 4*k ULP budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/cascade.hpp"
#include "fixtures.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netcut;
using tensor::Tensor;

constexpr int kResolution = 32;
constexpr int kMaxBatch = 8;
constexpr int kFrames = 16;            // distinct request inputs
constexpr int kCurveReps = 5;
constexpr double kRateRps = 120.0;
constexpr double kSegmentMs = 1000.0;  // one open-loop segment
constexpr double kDeadlineMs = 40.0;
constexpr int kEscalated = 5;  // of kFrames: ~31% of requests escalate
constexpr std::size_t kMinRequests = 1000;  // p99 with ten requests beyond it
constexpr int kSaturatedRequests = 64;  // 8 full batches per segment

struct ServeState {
  std::vector<Tensor> frames;
  std::unique_ptr<core::CascadeTrn> cascade;
  double threshold = 0.0;
  std::vector<double> stage1_ms;  // [n] for n = 1..kMaxBatch (index 0 unused)
  std::vector<double> stage2_ms;
  std::vector<Tensor> shallow_ref, deep_ref;
  int k_shallow = 1, k_deep = 1;
};

std::vector<const Tensor*> first_frames(const ServeState& st, int n) {
  std::vector<const Tensor*> out;
  for (int i = 0; i < n; ++i) out.push_back(&st.frames[static_cast<std::size_t>(i % kFrames)]);
  return out;
}

/// Median wall time of fn() over kCurveReps calls, after one warm-up call.
template <typename Fn>
double median_ms(Fn&& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < kCurveReps; ++r) {
    const double t0 = now_ms();
    fn();
    t.push_back(now_ms() - t0);
  }
  return util::median(t);
}

std::unique_ptr<ServeState> make_state(std::uint64_t seed) {
  auto st = std::make_unique<ServeState>();
  util::Rng rng(util::derive_seed(seed, "perfbench/serve"));
  st->frames = make_frames(kFrames, kResolution, rng);
  const std::vector<Tensor> calib = make_frames(4, kResolution, rng);
  const nn::Graph trunk =
      conditioned_trunk(zoo::NetId::kMobileNetV2_140, kResolution, rng, calib);
  const std::vector<int> cuts = core::blockwise_cutpoints(trunk);
  st->cascade = std::make_unique<core::CascadeTrn>(trunk, cuts[cuts.size() * 3 / 5],
                                                   cuts.back(), core::HeadConfig{}, rng);
  st->k_shallow = max_reduction(st->cascade->shallow().graph());
  st->k_deep = max_reduction(st->cascade->deep().graph());

  // Threshold: halfway between the margins of the kEscalated-th and the
  // next least confident request frame, so exactly kEscalated of the
  // kFrames frames escalate whatever the seed — the escalated share, and
  // with it the work per request, does not vary from seed to seed.
  std::vector<double> margins;
  for (const Tensor& x : st->frames) margins.push_back(st->cascade->stage1(x).margin);
  std::sort(margins.begin(), margins.end());
  st->threshold = 0.5 * (margins[kEscalated - 1] + margins[kEscalated]);

  for (const Tensor& x : st->frames) {
    st->shallow_ref.push_back(st->cascade->stage1(x).output);
    st->deep_ref.push_back(st->cascade->deep().forward(x));
  }

  st->stage1_ms.assign(kMaxBatch + 1, 0.0);
  st->stage2_ms.assign(kMaxBatch + 1, 0.0);
  for (int n = 1; n <= kMaxBatch; ++n) {
    const std::vector<const Tensor*> in = first_frames(*st, n);
    {
      ScopedSpan span(n == 1 ? "core.cascade.stage1_batch.b1"
                      : n == kMaxBatch ? "core.cascade.stage1_batch.b8"
                                       : "core.cascade.stage1_batch");
      st->stage1_ms[static_cast<std::size_t>(n)] =
          median_ms([&] { st->cascade->stage1_batch(in); });
    }
    const std::vector<core::CascadeTrn::Stage1> stages = st->cascade->stage1_batch(in);
    std::vector<const core::CascadeTrn::Stage1*> sp;
    for (const auto& s : stages) sp.push_back(&s);
    ScopedSpan span(n == 1 ? "core.cascade.escalate_batch.b1"
                    : n == kMaxBatch ? "core.cascade.escalate_batch.b8"
                                     : "core.cascade.escalate_batch");
    st->stage2_ms[static_cast<std::size_t>(n)] =
        median_ms([&] { st->cascade->escalate_batch(sp); });
  }
  // The batch former needs curves non-decreasing in n.
  for (int n = 2; n <= kMaxBatch; ++n) {
    auto& a = st->stage1_ms;
    auto& b = st->stage2_ms;
    a[static_cast<std::size_t>(n)] = std::max(a[static_cast<std::size_t>(n)], a[static_cast<std::size_t>(n - 1)]);
    b[static_cast<std::size_t>(n)] = std::max(b[static_cast<std::size_t>(n)], b[static_cast<std::size_t>(n - 1)]);
  }
  return st;
}

std::vector<serve::ServeOption> options(ServeState& st) {
  serve::ServeOption opt;
  opt.name = "MobileNetV2-1.40 cascade";
  opt.latency_ms = [&st](int n) { return st.stage1_ms[static_cast<std::size_t>(std::clamp(n, 1, kMaxBatch))]; };
  opt.cascade.enabled = true;
  opt.cascade.trn = st.cascade.get();
  opt.cascade.threshold = st.threshold;
  opt.cascade.p_escalate = static_cast<double>(kEscalated) / kFrames;
  opt.cascade.stage2_ms = [&st](int k) { return st.stage2_ms[static_cast<std::size_t>(std::clamp(k, 1, kMaxBatch))]; };
  return {opt};
}

serve::ServeConfig server_config(std::uint64_t seed) {
  serve::ServeConfig c;
  c.max_batch = kMaxBatch;
  c.nominal_deadline_ms = kDeadlineMs;
  c.seed = seed;
  c.watchdog.enabled = false;  // one option: nothing to fall back to
  return c;
}

/// Per-request and per-step records of one phase.
struct PhaseLog {
  std::vector<double> latency_ms;     // response time from due time
  std::vector<double> queue_wait_ms;  // step start - due time
  std::vector<double> step_ms;
  std::vector<int> batch;
  std::vector<double> gen_lag_ms;     // how late each request was pushed
  std::int64_t on_time = 0;
  std::int64_t escalated = 0;
  double span_ms = 0.0;  // scheduled open-loop time
};

void check(const ServeState& st, const serve::Completion& c, std::size_t frame, Tally& tally) {
  const bool ok = !c.failed && !c.rejected &&
                  (c.escalated ? ulp_close(c.output, st.deep_ref[frame], st.k_deep)
                               : ulp_close(c.output, st.shallow_ref[frame], st.k_shallow));
  if (!ok) std::fprintf(stderr, "serve: request %llu output outside its oracle\n",
                        static_cast<unsigned long long>(c.id));
  tally.record(ok);
}

/// Serves every completion of one step: latency, oracle, bookkeeping.
void record_step(const ServeState& st, const std::vector<serve::Completion>& done, double start,
                 double finish, const std::vector<std::size_t>& frame_of, PhaseLog& log,
                 Tally& tally) {
  log.step_ms.push_back(finish - start);
  log.batch.push_back(static_cast<int>(done.size()));
  for (const serve::Completion& c : done) {
    const double latency = finish - c.arrival_ms;
    log.latency_ms.push_back(latency);
    log.queue_wait_ms.push_back(start - c.arrival_ms);
    if (latency <= kDeadlineMs && !c.failed) ++log.on_time;
    if (c.escalated) ++log.escalated;
    check(st, c, frame_of[c.id], tally);
  }
}

/// One open-loop segment: Poisson arrivals at kRateRps for kSegmentMs,
/// drawn from `arrivals`, into a fresh server and queue. Times are ms since
/// the segment started; responses are timed from their due time.
void open_segment(ServeState& st, std::uint64_t seed, util::Rng& arrivals, PhaseLog& log,
                  Tally& tally) {
  std::vector<double> due;
  std::vector<std::size_t> frame_of;
  for (double t = -std::log(1.0 - arrivals.uniform()) * 1000.0 / kRateRps; t < kSegmentMs;
       t += -std::log(1.0 - arrivals.uniform()) * 1000.0 / kRateRps) {
    due.push_back(t);
    frame_of.push_back(static_cast<std::size_t>(arrivals.uniform_int(0, kFrames - 1)));
  }
  serve::RequestQueue queue;
  serve::BatchServer server(options(st), queue, server_config(seed));
  const double t0 = now_ms();
  std::size_t next = 0;
  std::size_t completed = 0;
  while (completed < due.size()) {
    const double now = now_ms() - t0;
    for (; next < due.size() && due[next] <= now; ++next) {
      serve::Request r;
      r.id = next;
      r.arrival_ms = due[next];
      r.deadline_ms = due[next] + kDeadlineMs;
      r.input = &st.frames[frame_of[next]];
      queue.push(r);
      log.gen_lag_ms.push_back(now - due[next]);
    }
    // Spin until the next arrival rather than sleep: on the shared VM host
    // the reference numbers come from, an idle vCPU comes back slowly, and
    // sleeping made the speed of whole runs vary up to 3x.
    if (queue.empty()) continue;
    std::vector<serve::Completion> done;
    {
      ScopedSpan span("serve.step");
      done = server.step(now);
    }
    completed += done.size();
    record_step(st, done, now, now_ms() - t0, frame_of, log, tally);
  }
  log.span_ms += kSegmentMs;
}

/// One saturated segment: kSaturatedRequests requests queued at once with a
/// distant deadline, so every step serves a full batch. Returns its wall
/// time in ms.
double saturated_segment(ServeState& st, std::uint64_t seed, PhaseLog& log, Tally& tally) {
  serve::RequestQueue queue;
  serve::BatchServer server(options(st), queue, server_config(seed));
  std::vector<std::size_t> frame_of;
  for (int i = 0; i < kSaturatedRequests; ++i) {
    serve::Request r;
    r.id = static_cast<std::uint64_t>(i);
    r.deadline_ms = 1e12;
    frame_of.push_back(static_cast<std::size_t>(i % kFrames));
    r.input = &st.frames[frame_of.back()];
    queue.push(r);
  }
  const double t0 = now_ms();
  while (!queue.empty()) {
    const double start = now_ms() - t0;
    std::vector<serve::Completion> done;
    {
      ScopedSpan span("serve.step");
      done = server.step(start);
    }
    record_step(st, done, start, now_ms() - t0, frame_of, log, tally);
  }
  return now_ms() - t0;
}

/// Alternates open and saturated segments until `budget_ms` has passed and
/// at least `min_requests` open-loop requests were served, so both phases
/// sample the same host conditions.
struct Cycles {
  PhaseLog open, saturated;
  std::vector<double> capacity_rps;     // one per saturated segment
  std::vector<double> segment_p50_ms;   // median latency of each open segment
};

Cycles run_cycles(ServeState& st, std::uint64_t seed, double budget_ms, std::size_t min_requests,
                  Tally& tally) {
  util::Rng arrivals(util::derive_seed(seed, "perfbench/serve/arrivals"));
  Cycles c;
  const double t0 = now_ms();
  do {
    const std::size_t first = c.open.latency_ms.size();
    open_segment(st, seed, arrivals, c.open, tally);
    if (c.open.latency_ms.size() > first)
      c.segment_p50_ms.push_back(util::median(std::vector<double>(
          c.open.latency_ms.begin() + static_cast<std::ptrdiff_t>(first), c.open.latency_ms.end())));
    const double wall = saturated_segment(st, seed, c.saturated, tally);
    c.capacity_rps.push_back(kSaturatedRequests / (wall / 1000.0));
  } while (now_ms() - t0 < budget_ms || c.open.latency_ms.size() < min_requests);
  return c;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void layer_metrics(const ServeState& st, const Cycles& c, Outcome& out) {
  const PhaseLog& open = c.open;
  const double b1 = st.stage1_ms[1], b8 = st.stage1_ms[kMaxBatch];
  out.layers.set("core.cascade.stage1_batch_ms.b1", b1, "ms");
  out.layers.set("core.cascade.stage1_batch_ms.b8", b8, "ms");
  out.layers.set("core.cascade.escalate_batch_ms.b1", st.stage2_ms[1], "ms");
  out.layers.set("core.cascade.escalate_batch_ms.b8", st.stage2_ms[kMaxBatch], "ms");
  out.layers.set("nn.batch8_per_image_ratio", b8 / (kMaxBatch * b1), "ratio");
  const double requests = static_cast<double>(open.latency_ms.size());
  int full = 0;
  for (int b : open.batch) full += b == kMaxBatch ? 1 : 0;
  out.layers.set("serve.step_ms_p50", util::median(open.step_ms), "ms");
  out.layers.set("serve.step_ms_per_request", sum(open.step_ms) / requests, "ms");
  out.layers.set("serve.queue_wait_ms_p50", util::median(open.queue_wait_ms), "ms");
  out.layers.set("serve.queue_wait_ms_p99",
                 util::percentile(open.queue_wait_ms, tail_p(open.queue_wait_ms.size())),
                 "ms");
  out.layers.set("serve.batch_mean", requests / static_cast<double>(open.batch.size()), "count");
  out.layers.set("serve.batch_full_share",
                 full / static_cast<double>(open.batch.size()), "ratio");
  out.layers.set("serve.escalated_share", static_cast<double>(open.escalated) / requests,
                 "ratio");
  out.layers.set("serve.saturated_batches",
                 static_cast<double>(c.saturated.batch.size()) /
                     static_cast<double>(c.capacity_rps.size()),
                 "count");
  out.layers.set("bench.gen_lag_ms_p99",
                 util::percentile(open.gen_lag_ms, tail_p(open.gen_lag_ms.size())), "ms");
}

}  // namespace

Outcome run_serve(const RunOptions& opts, Mode mode) {
  Outcome out;
  double setup_s = 0.0;
  const int reps = mode == Mode::kMeasure ? kSetupReps : 1;
  std::unique_ptr<ServeState> st =
      repeated_setup<ServeState>(reps, setup_s, [&] { return make_state(opts.seed); });

  const bool traced = tracer().enabled();
  if (mode == Mode::kProbe) {
    layer_metrics(*st, run_cycles(*st, opts.seed, 0.0, 0, out.tally), out);
    return out;
  }
  tracer().set_enabled(false);
  if (mode == Mode::kTrace) {
    // Untraced half (the overhead baseline), then the traced half.
    const Cycles plain = run_cycles(*st, opts.seed, opts.seconds * 500.0, 0, out.tally);
    tracer().set_enabled(traced);
    const std::size_t first_span = tracer().size();
    const double t1 = now_ms();
    const Cycles c = run_cycles(*st, opts.seed, opts.seconds * 500.0, 0, out.tally);
    out.layers.set("bench.self_time_share", tracer().root_ms_since(first_span) / (now_ms() - t1),
                   "ratio");
    layer_metrics(*st, c, out);
    out.named.set("trace_overhead_ms",
                  util::median(c.open.latency_ms) - util::median(plain.open.latency_ms), "ms");
    return out;
  }

  const Cycles c = run_cycles(*st, opts.seed, opts.seconds * 1000.0, kMinRequests, out.tally);
  // Medians over segments, so a host stall in one segment does not move them.
  const double p50 = util::median(c.segment_p50_ms);
  const double p99 = util::percentile(c.open.latency_ms, 99.0);
  const double goodput = static_cast<double>(c.open.on_time) / (c.open.span_ms / 1000.0);
  const double cap = util::median(c.capacity_rps);
  out.end_to_end.set("primary_ms_p50", p50, "ms");
  out.end_to_end.set("secondary_ms_p50", 1000.0 / cap, "ms");
  out.end_to_end.set("setup_s", setup_s, "s");
  out.named.set("serve_latency_ms_p50", p50, "ms");
  out.named.set("serve_latency_ms_p99", p99, "ms");
  out.named.set("serve_goodput_rps", goodput, "1/s");
  out.named.set("serve_capacity_rps", cap, "1/s");
  out.named.set("requests", static_cast<double>(c.open.latency_ms.size()), "count");
  out.named.set("batch_mean", static_cast<double>(c.open.latency_ms.size()) /
                                  static_cast<double>(c.open.batch.size()), "count");
  out.named.set("rate_rps", kRateRps, "1/s");
  out.named.set("deadline_ms", kDeadlineMs, "ms");
  return out;
}

}  // namespace perfbench
