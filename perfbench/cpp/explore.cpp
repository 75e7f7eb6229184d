// explore: the NetCut pipeline across all seven nets at the 0.9 ms deadline.
//
// One pass = pretrain the seven trunks in-process (small seeded source
// task), TrnEvaluator::prepare (BN calibration + feature harvest), the
// off-the-shelf reference accuracies, NetCut::run with the profiler
// estimator, the SVR fit on the blockwise latency samples, NetCut::run
// again with the SVR, and finally core::finetune_trn on the winner.
// explore_s times prepare .. second NetCut run; train_s times pretraining
// plus the fine-tune. Weights go to a per-pass directory under the run's
// private work directory (removed afterwards) and the accuracy memo is
// off, so every pass — first run or later — does the same work.
//
// A measured run makes at least kMinPasses passes (more while --seconds
// lasts) and reports medians.
//
// The seed picks one of kVariants input variants (dataset, pretraining and
// head seeds). Each variant's winners and retrained accuracies are recorded
// in expected/explore.txt; every pass is checked against them.
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "core/finetune.hpp"
#include "core/lab.hpp"
#include "core/netcut.hpp"
#include "core/pretrained_cache.hpp"
#include "data/hands.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

using namespace netcut;

constexpr int kVariants = 16;
constexpr int kResolution = 24;
constexpr double kDeadlineMs = 0.9;
constexpr int kMinPasses = 3;
/// Accuracy tolerance of the recorded oracle (absolute angular similarity).
/// Exact on the recording host; the slack admits reordered float sums.
constexpr double kAccuracyTol = 0.02;

int variant_of(std::uint64_t seed) { return static_cast<int>(seed % kVariants); }

data::HandsConfig dataset_config(int variant) {
  data::HandsConfig c;
  c.resolution = kResolution;
  c.train_count = 24;
  c.test_count = 12;
  c.seed = 4200 + static_cast<std::uint64_t>(variant);
  return c;
}

data::PretrainedConfig pretrain_config(int variant) {
  data::PretrainedConfig c;
  c.seed = 700 + static_cast<std::uint64_t>(variant);
  c.source_images = 10;
  c.epochs = 1;
  return c;
}

core::EvalConfig eval_config(int variant, const std::string& weight_dir) {
  core::EvalConfig c;
  c.resolution = kResolution;
  c.seed = 42 + static_cast<std::uint64_t>(variant);
  c.epochs = 6;
  c.calibration_images = 8;
  c.pretrained = pretrain_config(variant);
  c.cache_path = "";  // no accuracy memo on disk
  c.weight_cache_dir = weight_dir;
  return c;
}

core::FinetuneConfig finetune_config(int variant) {
  core::FinetuneConfig c;
  c.head_epochs = 1;
  c.full_epochs = 1;
  c.seed = 99 + static_cast<std::uint64_t>(variant);
  return c;
}

/// Counts and spans every estimator query NetCut makes.
class CountingEstimator final : public core::LatencyEstimator {
 public:
  explicit CountingEstimator(core::LatencyEstimator& inner) : inner_(inner) {}
  double estimate_ms(zoo::NetId base, int cut_node) override {
    ++queries;
    ScopedSpan span("core.estimator.estimate_ms");
    return inner_.estimate_ms(base, cut_node);
  }
  std::string name() const override { return inner_.name(); }
  std::int64_t queries = 0;

 private:
  core::LatencyEstimator& inner_;
};

struct ExploreState {
  int variant = 0;
  data::HandsDataset dataset;
  explicit ExploreState(int v) : variant(v), dataset(dataset_config(v)) {}
};

/// What one pass produced, in the recorded-oracle vocabulary.
struct PassResult {
  double wall_ms = 0.0;
  double explore_ms = 0.0;
  double train_ms = 0.0;
  std::vector<std::string> lines;  // "<kind> <key> <value...>"
  std::int64_t estimator_queries = 0;
  std::int64_t accuracy_calls = 0;
  std::int64_t retrained = 0;  // head trainings that ran (memo misses)
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// The blockwise latency samples and 20/80 split the fig08-fig10 harnesses
/// train the SVR on.
void latency_samples(core::LatencyLab& lab, std::vector<core::LatencySample>& train) {
  int i = 0;
  for (zoo::NetId net : zoo::all_nets()) {
    for (int cut : lab.blockwise(net)) {
      core::LatencySample s;
      s.base = net;
      s.cut_node = cut;
      s.features = core::compute_trn_features(lab, net, cut);
      s.measured_ms = lab.measured_ms(net, cut);
      if (i++ % 5 == 2) train.push_back(s);
    }
  }
}

PassResult run_pass(const ExploreState& st, const std::string& weight_dir) {
  PassResult out;
  const data::PretrainedConfig pcfg = pretrain_config(st.variant);

  const double t_pre = now_ms();
  for (zoo::NetId net : zoo::all_nets()) {
    ScopedSpan span("core.pretrained_trunk");
    core::pretrained_trunk(net, kResolution, pcfg, weight_dir);
  }
  out.train_ms += now_ms() - t_pre;

  const double t_explore = now_ms();
  std::unique_ptr<core::LatencyLab> lab;
  {
    ScopedSpan span("hw.lab");
    lab = std::make_unique<core::LatencyLab>();
  }
  core::TrnEvaluator ev(st.dataset, eval_config(st.variant, weight_dir));
  for (zoo::NetId net : zoo::all_nets()) {
    ScopedSpan span("core.evaluator.prepare");
    ev.prepare(net);
  }
  for (zoo::NetId net : zoo::all_nets()) {
    ScopedSpan span("core.evaluator.accuracy");
    const double acc = ev.accuracy(net, ev.full_cut(net)).angular_similarity;
    ++out.accuracy_calls;
    out.lines.push_back("offshelf " + zoo::net_name(net) + " " + fmt(acc));
  }
  core::NetCut netcut(*lab, ev);
  core::NetCutConfig cfg;
  cfg.deadline_ms = kDeadlineMs;

  core::ProfilerEstimator profiler(*lab);
  CountingEstimator prof(profiler);
  core::NetCutResult by_prof;
  {
    ScopedSpan span("core.netcut.run");
    by_prof = netcut.run(prof, cfg);
  }
  std::vector<core::LatencySample> train;
  {
    ScopedSpan span("hw.lab");
    latency_samples(*lab, train);
  }
  core::AnalyticalEstimator svr(*lab);
  {
    ScopedSpan span("ml.svr_fit");
    svr.fit(train);
  }
  CountingEstimator svr_counted(svr);
  core::NetCutResult by_svr;
  {
    ScopedSpan span("core.netcut.run_svr");
    by_svr = netcut.run(svr_counted, cfg);
  }
  out.explore_ms = now_ms() - t_explore;
  out.estimator_queries = prof.queries + svr_counted.queries;
  out.accuracy_calls += by_prof.networks_retrained + by_svr.networks_retrained;
  // The evaluator memoizes accuracy per (base, cut): a proposal already
  // scored off the shelf, or proposed again by the SVR run, trains nothing.
  std::set<std::pair<zoo::NetId, int>> trained;
  for (zoo::NetId net : zoo::all_nets()) trained.insert({net, ev.full_cut(net)});
  for (const core::NetCutResult* r : {&by_prof, &by_svr})
    for (const core::NetCutProposal& p : r->proposals)
      trained.insert({p.trn.base, p.trn.cut_node});
  out.retrained = static_cast<std::int64_t>(trained.size());

  for (const core::NetCutResult* r : {&by_prof, &by_svr}) {
    for (const core::NetCutProposal& p : r->proposals)
      out.lines.push_back("proposal " + r->estimator + ":" + p.trn.trn_name + " " +
                          fmt(p.trn.accuracy));
    out.lines.push_back("winner " + r->estimator + " " + r->winner().trn.trn_name + " " +
                        fmt(r->winner().trn.accuracy));
  }

  // Fine-tune the better of the two winners (the profiler's on a tie).
  const core::Candidate& best = by_svr.winner().trn.accuracy > by_prof.winner().trn.accuracy
                                    ? by_svr.winner().trn
                                    : by_prof.winner().trn;
  const double t_ft = now_ms();
  core::FinetuneResult ft;
  {
    ScopedSpan span("core.finetune");
    const nn::Graph trunk = core::pretrained_trunk(best.base, kResolution, pcfg, weight_dir);
    ft = core::finetune_trn(trunk, best.cut_node, st.dataset, finetune_config(st.variant));
  }
  out.train_ms += now_ms() - t_ft;
  out.lines.push_back("finetune " + best.trn_name + " " + fmt(ft.after_head.angular_similarity) +
                      " " + fmt(ft.after_full.angular_similarity));
  return out;
}

/// expected/explore.txt: "<variant> <kind> <key> <value...>" per line.
std::vector<std::string> expected_lines(const std::string& data_dir, int variant) {
  const std::string path = data_dir + "/expected/explore.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int v = -1;
    ls >> v;
    if (v != variant) continue;
    std::string rest;
    std::getline(ls, rest);
    out.push_back(rest.substr(rest.find_first_not_of(' ')));
  }
  if (out.empty()) throw std::runtime_error("perfbench: no recorded values for variant " +
                                            std::to_string(variant));
  return out;
}

std::vector<std::string> split(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

/// Checks one pass against the recording. Every line is one oracle: its
/// words must match, and every number lie within kAccuracyTol.
void check_pass(const PassResult& got, const std::vector<std::string>& want, Tally& tally) {
  if (got.lines.size() != want.size()) {
    std::fprintf(stderr, "explore: %zu result lines, %zu recorded\n", got.lines.size(),
                 want.size());
    tally.record(false);
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto g = split(got.lines[i]);
    const auto w = split(want[i]);
    bool ok = g.size() == w.size();
    for (std::size_t j = 0; ok && j < g.size(); ++j) {
      char* end = nullptr;
      const double wv = std::strtod(w[j].c_str(), &end);
      const bool numeric = end != w[j].c_str() && *end == '\0';
      ok = numeric ? std::fabs(std::strtod(g[j].c_str(), nullptr) - wv) <= kAccuracyTol
                   : g[j] == w[j];
    }
    if (!ok)
      std::fprintf(stderr, "explore oracle: got '%s', recorded '%s'\n", got.lines[i].c_str(),
                   want[i].c_str());
    tally.record(ok);
  }
}

std::string pass_dir(const RunOptions& opts, int pass) {
  return opts.work_dir + "/explore-weights-" + std::to_string(pass);
}

/// One replayed train step (forward in train mode, loss, backward, Adam)
/// on ResNet-50 at the experiment resolution, for the nn training spans.
void replay_train_step(const ExploreState& st, int reps) {
  util::Rng rng(util::derive_seed(st.dataset.config().seed, "perfbench/train-step"));
  nn::Graph g = zoo::build_trunk(zoo::NetId::kResNet50, kResolution);
  nn::init_graph(g, rng);
  core::HeadConfig head;
  head.with_softmax = false;  // train on logits
  nn::Network net(core::attach_head(std::move(g), head, rng));
  nn::Adam opt(1e-3);
  opt.bind(net.params(), net.grads());
  const data::Sample& s = st.dataset.train()[0];
  for (int i = 0; i < reps; ++i) {
    net.zero_grads();
    tensor::Tensor logits;
    {
      ScopedSpan span("nn.train_forward");
      logits = net.forward(s.image, /*train=*/true);
    }
    const nn::loss::LossResult loss = nn::loss::soft_cross_entropy(logits, s.label);
    {
      ScopedSpan span("nn.backward");
      net.backward(loss.grad);
    }
    {
      ScopedSpan span("nn.optimizer_step");
      opt.step();
    }
  }
}

}  // namespace

Outcome run_explore(const RunOptions& opts, Mode mode) {
  Outcome out;
  const int variant = variant_of(opts.seed);
  const std::vector<std::string> want = expected_lines(opts.data_dir, variant);

  double setup_s = 0.0;
  const int reps = mode == Mode::kMeasure ? kSetupReps : 1;
  std::unique_ptr<ExploreState> st;
  {
    ScopedSpan span("data.dataset");
    st = repeated_setup<ExploreState>(reps, setup_s, [&] {
      return std::make_unique<ExploreState>(variant);
    });
  }

  int passes_run = 0;
  // One pass in a fresh weight directory, checked against the recording.
  // A pass that raises counts as one failed operation.
  auto run_one = [&](std::vector<PassResult>& into) {
    const std::string dir = pass_dir(opts, passes_run++);
    try {
      const double t0 = now_ms();
      PassResult r = run_pass(*st, dir);
      r.wall_ms = now_ms() - t0;
      check_pass(r, want, out.tally);
      into.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "explore: pass failed: %s\n", e.what());
      out.tally.record(false);
    }
    std::filesystem::remove_all(dir);
  };

  // Measure: passes until the budget is spent and at least kMinPasses ran.
  // No pass is discarded: on one pool thread the first pass in a process
  // is no slower than the pass-to-pass spread, and the median discounts
  // one slow pass anyway. Trace: untraced passes for half the budget (the
  // overhead baseline), then traced ones. Probe: one traced pass.
  std::vector<PassResult> untraced, traced;
  const bool tracing = tracer().enabled();
  tracer().set_enabled(false);
  const double budget_ms = opts.seconds * 1000.0;
  if (mode != Mode::kProbe) {
    const double t0 = now_ms();
    const int min_passes = mode == Mode::kMeasure ? kMinPasses : 1;
    const double untraced_budget_ms = mode == Mode::kMeasure ? budget_ms : budget_ms / 2;
    for (int n = 0; n < min_passes || now_ms() - t0 < untraced_budget_ms; ++n) run_one(untraced);
  }
  double traced_wall_ms = 0.0;
  std::size_t first_span = 0;
  if (mode != Mode::kMeasure) {
    tracer().set_enabled(tracing);
    first_span = tracer().size();
    const double t0 = now_ms();
    do run_one(traced);
    while (mode == Mode::kTrace && now_ms() - t0 < budget_ms / 2);
    for (const PassResult& r : traced) traced_wall_ms += r.wall_ms;
  }
  const std::vector<PassResult>& timed = untraced.empty() ? traced : untraced;
  if (timed.empty() || (mode != Mode::kMeasure && traced.empty()))
    throw std::runtime_error("explore: no pass completed");
  const PassResult& last = timed.back();
  auto median_of = [](const std::vector<PassResult>& passes, double PassResult::*field) {
    std::vector<double> v;
    for (const PassResult& r : passes) v.push_back(r.*field);
    return util::median(v);
  };

  const double explore_s = median_of(timed, &PassResult::explore_ms) / 1000.0;
  const double train_s = median_of(timed, &PassResult::train_ms) / 1000.0;
  out.named.set("explore_s", explore_s, "s");
  out.named.set("train_s", train_s, "s");
  out.named.set("passes", static_cast<double>(timed.size()), "count");

  if (mode == Mode::kMeasure) {
    out.end_to_end.set("primary_ms_p50", explore_s * 1000.0, "ms");
    out.end_to_end.set("secondary_ms_p50", train_s * 1000.0, "ms");
    out.end_to_end.set("setup_s", setup_s, "s");
    return out;
  }

  // Layer metrics come from the traced passes (the recorder holds only
  // those), plus one replayed train step.
  if (mode == Mode::kTrace)
    out.layers.set("bench.self_time_share", tracer().root_ms_since(first_span) / traced_wall_ms,
                   "ratio");
  replay_train_step(*st, 3);
  const auto totals = tracer().totals();
  const double passes = static_cast<double>(traced.size());
  auto per_pass = [&](const char* span) { return span_self_ms(totals, span) / passes; };
  out.layers.set("core.pretrained_trunk_ms", span_mean_ms(totals, "core.pretrained_trunk"), "ms");
  out.layers.set("core.finetune_ms", span_mean_ms(totals, "core.finetune"), "ms");
  out.layers.set("nn.train_forward_ms", span_mean_ms(totals, "nn.train_forward"), "ms");
  out.layers.set("nn.backward_ms", span_mean_ms(totals, "nn.backward"), "ms");
  out.layers.set("nn.optimizer_step_ms", span_mean_ms(totals, "nn.optimizer_step"), "ms");
  out.layers.set("core.evaluator.prepare_ms", span_mean_ms(totals, "core.evaluator.prepare"),
                 "ms");
  out.layers.set("core.evaluator.accuracy_ms", span_mean_ms(totals, "core.evaluator.accuracy"),
                 "ms");
  out.layers.set("core.evaluator.accuracy_calls", static_cast<double>(last.accuracy_calls),
                 "count");
  out.layers.set("core.netcut.run_ms", per_pass("core.netcut.run"), "ms");
  out.layers.set("core.netcut.run_svr_ms", per_pass("core.netcut.run_svr"), "ms");
  out.layers.set("core.netcut.retrained", static_cast<double>(last.retrained), "count");
  out.layers.set("core.estimator.queries", static_cast<double>(last.estimator_queries),
                 "count");
  out.layers.set("ml.svr_fit_ms", span_mean_ms(totals, "ml.svr_fit"), "ms");
  out.layers.set("hw.lab_ms", per_pass("hw.lab"), "ms");
  out.layers.set("data.dataset_ms", span_mean_ms(totals, "data.dataset"), "ms");
  if (mode == Mode::kTrace && !untraced.empty() && !traced.empty())
    out.named.set("trace_overhead_ms",
                  median_of(traced, &PassResult::wall_ms) -
                      median_of(untraced, &PassResult::wall_ms),
                  "ms");
  return out;
}

int record_explore(const RunOptions& opts) {
  const int variant = variant_of(opts.seed);
  const ExploreState st(variant);
  const std::string dir = pass_dir(opts, 0);
  const PassResult r = run_pass(st, dir);
  std::filesystem::remove_all(dir);
  for (const std::string& line : r.lines) std::printf("%d %s\n", variant, line.c_str());
  return 0;
}

}  // namespace perfbench
