#include "fixtures.hpp"

#include <algorithm>
#include <cmath>

#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"

namespace perfbench {

using namespace netcut;
using tensor::Tensor;

std::vector<Tensor> make_frames(int n, int resolution, util::Rng& rng) {
  std::vector<Tensor> frames;
  for (int i = 0; i < n; ++i)
    frames.push_back(data::render_object(static_cast<data::GraspType>(i % data::kGraspCount),
                                         resolution, rng, 0.06));
  return frames;
}

nn::Graph conditioned_trunk(zoo::NetId id, int resolution, util::Rng& rng,
                            const std::vector<Tensor>& calib) {
  nn::Graph g = zoo::build_trunk(id, resolution);
  nn::init_graph(g, rng);
  for (int node = 1; node < g.node_count(); ++node) {
    if (g.node(node).layer->kind() != nn::LayerKind::kAdd) continue;
    for (int src : g.node(node).inputs) {
      nn::Layer& producer = *g.node(src).layer;
      if (producer.kind() == nn::LayerKind::kBatchNorm)
        static_cast<nn::BatchNorm&>(producer).gamma().fill(0.2f);
    }
  }
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : calib) ptrs.push_back(&t);
  nn::Network net(std::move(g));
  data::calibrate_batchnorm(net, ptrs);
  return std::move(net.graph());
}

int max_reduction(const nn::Graph& g) {
  const std::vector<tensor::Shape>& shapes = g.infer_shapes();
  int k = 1;
  for (int id = 1; id < g.node_count(); ++id) {
    const nn::Node& node = g.node(id);
    if (node.layer->kind() == nn::LayerKind::kConv2D) {
      const auto& c = static_cast<const nn::Conv2D&>(*node.layer);
      k = std::max(k, shapes[static_cast<std::size_t>(node.inputs[0])][0] * c.kernel_h() *
                          c.kernel_w());
    } else if (node.layer->kind() == nn::LayerKind::kDense) {
      k = std::max(k, static_cast<const nn::Dense&>(*node.layer).in_features());
    }
  }
  return k;
}

bool ulp_close(const Tensor& got, const Tensor& ref, int k) {
  if (!(got.shape() == ref.shape())) return false;
  const float ulps = 4.0f * static_cast<float>(k);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float mag = std::max(std::fabs(got[i]), std::fabs(ref[i]));
    if (!(std::fabs(got[i] - ref[i]) <= ulps * mag * 1.19209290e-07f + 1e-6f)) return false;
  }
  return true;
}

}  // namespace perfbench
