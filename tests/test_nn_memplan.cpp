// Memory-planned execution: nn::Network's planned forward/backward path must
// be bit-identical to the test-only ReferenceInterpreter (per-node heap
// allocation through Layer::forward) — same activations, same collected
// tensors, same parameter gradients — in train and inference mode, at any
// thread count, on real zoo trunks and on a TRN whose head joins the trunk
// through a multi-input combine node. Also pins down the point of the
// exercise: far fewer heap allocations per planned pass, a planned
// activation peak below the naive sum, and inputs that do not fit the plan
// rejected before they can run past their arena slots.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trn.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/memory_plan.hpp"
#include "nn/network.hpp"
#include "reference_interpreter.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Restores the default pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { util::set_num_threads(util::default_thread_count()); }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << what;
}

/// Two executors over copies of one initialized graph: `planned` runs
/// through the arena, `reference` through per-node allocation.
struct NetPair {
  Network planned;
  ReferenceInterpreter reference;

  explicit NetPair(const Graph& g) : planned(g), reference(g) {}
};

Graph initialized_trunk(zoo::NetId id, int resolution, unsigned seed) {
  Graph g = zoo::build_trunk(id, resolution);
  util::Rng rng(seed);
  init_graph(g, rng);
  return g;
}

class MemPlanZoo : public ::testing::TestWithParam<zoo::NetId> {};

TEST_P(MemPlanZoo, InferenceBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const Graph g = initialized_trunk(GetParam(), 32, 11);
  util::Rng rng(12);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    NetPair nets(g);
    const Tensor yp = nets.planned.forward(x);
    const Tensor yn = nets.reference.forward(x);
    expect_bitwise_equal(yp, yn,
                         zoo::net_name(GetParam()) + " threads=" + std::to_string(threads));
  }
}

TEST_P(MemPlanZoo, ForwardCollectMatchesNaive) {
  PoolGuard guard;
  const Graph g = initialized_trunk(GetParam(), 32, 21);
  util::Rng rng(22);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  std::vector<int> collect;
  for (const BlockInfo& b : g.blocks()) collect.push_back(b.last_node);
  NetPair nets(g);
  const auto ap = nets.planned.forward_collect(x, collect);
  const auto an = nets.reference.forward_collect(x, collect);
  ASSERT_EQ(ap.size(), an.size());
  for (std::size_t i = 0; i < ap.size(); ++i)
    expect_bitwise_equal(ap[i], an[i], "collect[" + std::to_string(i) + "]");
}

TEST_P(MemPlanZoo, PlannedPeakBelowNaiveSum) {
  Graph g = zoo::build_trunk(GetParam(), 32);
  Network net(std::move(g));
  const MemoryPlan& plan = net.plan_for({}, /*train=*/false);
  EXPECT_LT(plan.planned_activation_floats(), plan.naive_activation_floats())
      << zoo::net_name(GetParam());
  EXPECT_GT(plan.planned_activation_floats(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Nets, MemPlanZoo,
                         ::testing::Values(zoo::NetId::kResNet50, zoo::NetId::kMobileNetV2_100,
                                           zoo::NetId::kInceptionV3),
                         [](const ::testing::TestParamInfo<zoo::NetId>& info) {
                           std::string n = zoo::net_name(info.param);
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

TEST_P(MemPlanZoo, BatchedForwardBitIdenticalToSingleImageForwards) {
  // The serving layer's contract: one batch-N launch through the lane-
  // replicated arena returns exactly what N independent single-image
  // forwards would, at any thread count.
  PoolGuard guard;
  const Graph g = initialized_trunk(GetParam(), 32, 71);
  util::Rng rng(72);
  std::vector<Tensor> images;
  for (int i = 0; i < 5; ++i) images.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));
  std::vector<const Tensor*> inputs;
  for (const Tensor& t : images) inputs.push_back(&t);

  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    NetPair nets(g);
    const std::vector<Tensor> batched = nets.planned.forward_batch(inputs);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      const Tensor single = nets.reference.forward(images[i]);
      expect_bitwise_equal(batched[i], single,
                           zoo::net_name(GetParam()) + " lane " + std::to_string(i) +
                               " threads=" + std::to_string(threads));
    }
  }
}

TEST(MemPlan, DistinctBatchSizesNeverShareAPlan) {
  // Regression: the plan-cache key must include the batch size — a batch-4
  // pass reusing a batch-1 plan would run lanes 1..3 through unreserved
  // arena memory.
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  Network net(std::move(g));
  const MemoryPlan& p1 = net.plan_for({}, /*train=*/false, 1);
  EXPECT_EQ(p1.batch(), 1);
  const std::size_t lane = p1.lane_stride();
  EXPECT_EQ(p1.arena_floats(), lane);

  const MemoryPlan& p4 = net.plan_for({}, /*train=*/false, 4);
  EXPECT_EQ(p4.batch(), 4);
  EXPECT_EQ(p4.lane_stride(), lane);  // lane 0 layout is the batch-1 layout
  EXPECT_EQ(p4.arena_floats(), 4 * lane);
  EXPECT_NE(&p1, &p4);

  // Asking for batch 1 again must not hand back the batch-4 plan.
  const MemoryPlan& p1_again = net.plan_for({}, /*train=*/false, 1);
  EXPECT_EQ(p1_again.batch(), 1);
  EXPECT_EQ(p1_again.arena_floats(), lane);
}

TEST(MemPlan, BatchedPlansRejectTrainAndBadBatch) {
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  const auto shapes = g.infer_shapes();
  EXPECT_THROW(MemoryPlan(g, shapes, {}, /*train=*/true, 2), std::invalid_argument);
  EXPECT_THROW(MemoryPlan(g, shapes, {}, /*train=*/false, 0), std::invalid_argument);
}

TEST(MemPlan, EveryZooNetPlansBelowNaiveSum) {
  for (const zoo::NetId id : zoo::all_nets()) {
    Graph g = zoo::build_trunk(id, 32);
    Network net(std::move(g));
    const MemoryPlan& inference = net.plan_for({}, /*train=*/false);
    EXPECT_LT(inference.planned_activation_floats(), inference.naive_activation_floats())
        << zoo::net_name(id);
  }
}

TEST(MemPlan, TrainForwardBackwardBitIdentical) {
  // TRN over a MobileNetV2 prefix: the retraining path. The head attaches
  // through the trunk cut, and train-mode passes must produce identical
  // parameter gradients through either executor.
  PoolGuard guard;
  const Graph trunk = initialized_trunk(zoo::NetId::kMobileNetV2_100, 32, 31);
  const auto cuts = core::blockwise_cutpoints(trunk);
  util::Rng rng(32);
  const Graph trn = core::build_trn(trunk, cuts[cuts.size() / 2], core::HeadConfig{}, rng);

  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    NetPair nets(trn);
    const Tensor yp = nets.planned.forward(x, /*train=*/true);
    const Tensor yn = nets.reference.forward(x, /*train=*/true);
    expect_bitwise_equal(yp, yn, "train forward, threads=" + std::to_string(threads));

    util::Rng grad_rng(33);
    const Tensor gout = Tensor::randn(yp.shape(), grad_rng);
    nets.planned.zero_grads();
    nets.reference.zero_grads();
    nets.planned.backward(gout);
    nets.reference.backward(gout);
    const auto gp = nets.planned.grads();
    const auto gn = nets.reference.grads();
    ASSERT_EQ(gp.size(), gn.size());
    for (std::size_t i = 0; i < gp.size(); ++i)
      expect_bitwise_equal(*gp[i], *gn[i], "grad[" + std::to_string(i) + "]");
  }
}

TEST(MemPlan, MultiInputCombineBitIdentical) {
  // Diamond with an explicit multi-input combine node, train and inference.
  auto diamond = [] {
    Graph g;
    const int in = g.add_input(Shape::chw(2, 8, 8));
    const int stem = g.add(std::make_unique<Conv2D>(2, 4, 3, 1), {in}, "stem");
    const int a = g.add(std::make_unique<Conv2D>(4, 4, 3, 1), {stem}, "a");
    const int b = g.add(std::make_unique<Conv2D>(4, 4, 1, 1), {stem}, "b");
    const int add = g.add(std::make_unique<Add>(2), {a, b}, "add");
    g.add(std::make_unique<ReLU>(false), {add}, "out");
    return g;
  };
  Graph g = diamond();
  util::Rng rng(41);
  init_graph(g, rng);
  const Tensor x = Tensor::randn(Shape::chw(2, 8, 8), rng, 0.5f);
  for (const bool train : {false, true}) {
    NetPair nets(g);
    const Tensor yp = nets.planned.forward(x, train);
    const Tensor yn = nets.reference.forward(x, train);
    expect_bitwise_equal(yp, yn, train ? "train" : "inference");
  }
}

TEST(MemPlan, RepeatedPlannedForwardsAllocateFarLess) {
  // The acceptance bar for the arena path: a steady-state planned forward
  // performs at least 5x fewer heap allocations than the per-node reference
  // interpreter. The first planned call builds the plan and sizes the arena,
  // so measure from the second call on.
  const Graph g = initialized_trunk(zoo::NetId::kMobileNetV2_100, 32, 51);
  util::Rng rng(52);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);

  NetPair nets(g);
  (void)nets.planned.forward(x);  // warm-up: plan + arena + conv scratch
  (void)nets.reference.forward(x);

  const std::uint64_t p0 = tensor::tensor_alloc_count();
  const Tensor yp = nets.planned.forward(x);
  const std::uint64_t planned_allocs = tensor::tensor_alloc_count() - p0;

  const std::uint64_t n0 = tensor::tensor_alloc_count();
  const Tensor yn = nets.reference.forward(x);
  const std::uint64_t naive_allocs = tensor::tensor_alloc_count() - n0;

  expect_bitwise_equal(yp, yn, "steady-state forward");
  EXPECT_GE(naive_allocs, 5 * planned_allocs)
      << "planned=" << planned_allocs << " naive=" << naive_allocs;
}

TEST(MemPlan, CollectedTensorsOutliveTheArena) {
  // Collected activations must be deep copies: mutating the network's state
  // with further passes may not change previously harvested tensors.
  const Graph g = initialized_trunk(zoo::NetId::kMobileNetV1_025, 32, 61);
  util::Rng rng(62);
  const Tensor x1 = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  const Tensor x2 = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  Network net(g);
  std::vector<int> collect;
  for (const BlockInfo& b : net.graph().blocks()) collect.push_back(b.last_node);
  auto first = net.forward_collect(x1, collect);
  std::vector<Tensor> snapshot;
  for (const Tensor& t : first) snapshot.push_back(t);
  (void)net.forward_collect(x2, collect);  // overwrites the arena
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_bitwise_equal(first[i], snapshot[i], "harvested[" + std::to_string(i) + "]");
}

TEST(MemPlan, WrongInputShapeThrowsInsteadOfOverrunningTheArena) {
  // The plan sizes every slot from the declared input shape. A larger image
  // would write past its slots (a heap-buffer-overflow in the im2col of the
  // first conv); a smaller one would silently compute on a truncated plan.
  // Both must be rejected, by the single and the batched forward alike.
  const Graph g = initialized_trunk(zoo::NetId::kResNet50, 32, 81);
  Network net(g);
  util::Rng rng(82);
  for (const int px : {64, 16}) {
    const Tensor x = Tensor::randn(Shape::chw(3, px, px), rng, 0.5f);
    EXPECT_THROW(net.forward(x), std::invalid_argument) << px << " px";
    EXPECT_THROW(net.forward_collect(x, {1}), std::invalid_argument) << px << " px";
    EXPECT_THROW(net.forward_batch({&x, &x}), std::invalid_argument) << px << " px";
    try {
      net.forward(x);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(Shape::chw(3, px, px).to_string()), std::string::npos) << what;
      EXPECT_NE(what.find(Shape::chw(3, 32, 32).to_string()), std::string::npos) << what;
    }
  }
  // The rejected calls left the network usable.
  const Tensor ok = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  ReferenceInterpreter reference(g);
  expect_bitwise_equal(net.forward(ok), reference.forward(ok), "after rejected inputs");
}

TEST(MemPlan, PlanIntervalsNeverAliasLiveBuffers) {
  // Structural invariant: two activations whose live intervals overlap must
  // occupy disjoint arena ranges (offsets are in floats; slots are aligned).
  Graph g = zoo::build_trunk(zoo::NetId::kInceptionV3, 32);
  const auto shapes = g.infer_shapes();
  const MemoryPlan plan(g, shapes, {}, /*train=*/false);
  const int n = plan.node_count();
  for (int i = 1; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const bool overlap = i <= plan.last_use(j) && j <= plan.last_use(i);
      if (!overlap) continue;
      const PlanSlot& si = plan.activation(i);
      const PlanSlot& sj = plan.activation(j);
      const bool disjoint =
          si.offset + si.floats <= sj.offset || sj.offset + sj.floats <= si.offset;
      EXPECT_TRUE(disjoint) << "nodes " << i << " and " << j << " alias";
    }
  }
}

}  // namespace
}  // namespace netcut::nn
