#include "replay.hpp"

#include <string>

#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using netcut::nn::LayerKind;
using netcut::tensor::Tensor;

const char* span_for(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2D: return "nn.kind.conv2d";
    case LayerKind::kDepthwiseConv2D: return "nn.kind.depthwise";
    case LayerKind::kDense: return "nn.kind.dense";
    case LayerKind::kBatchNorm: return "nn.kind.batchnorm";
    case LayerKind::kReLU:
    case LayerKind::kReLU6:
    case LayerKind::kSoftmax: return "nn.kind.activation";
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool:
    case LayerKind::kGlobalAvgPool: return "nn.kind.pool";
    case LayerKind::kAdd:
    case LayerKind::kConcat: return "nn.kind.join";
    default: return "nn.kind.other";  // Flatten: no TRN here has one, so not reported
  }
}

/// One conv node's im2col geometry for an input of shape `in` (CHW).
netcut::tensor::ConvGeometry geometry(const netcut::nn::Conv2D& conv,
                                      const netcut::tensor::Shape& in) {
  netcut::tensor::ConvGeometry g;
  g.in_c = in[0];
  g.in_h = in[1];
  g.in_w = in[2];
  g.kernel_h = conv.kernel_h();
  g.kernel_w = conv.kernel_w();
  g.stride = conv.stride();
  g.pad_h = conv.pad_h();
  g.pad_w = conv.pad_w();
  return g;
}

}  // namespace

const std::vector<const char*>& kind_groups() {
  static const std::vector<const char*> groups = {
      "conv2d", "depthwise", "dense", "batchnorm", "activation", "pool", "join"};
  return groups;
}

std::vector<Tensor> replay_nodes(netcut::nn::Graph& graph, const Tensor& input) {
  std::vector<Tensor> acts(static_cast<std::size_t>(graph.node_count()));
  acts[0] = input;
  for (int id = 1; id < graph.node_count(); ++id) {
    netcut::nn::Node& node = graph.node(id);
    std::vector<const Tensor*> ins;
    for (int src : node.inputs) ins.push_back(&acts[static_cast<std::size_t>(src)]);
    ScopedSpan span(span_for(node.layer->kind()));
    acts[static_cast<std::size_t>(id)] = node.layer->forward(ins, /*train=*/false);
  }
  return acts;
}

std::int64_t replay_gemms(const netcut::nn::Graph& graph, const std::vector<Tensor>& acts) {
  std::int64_t flops = 0;
  std::vector<float> cols, out;
  for (int id = 1; id < graph.node_count(); ++id) {
    const netcut::nn::Node& node = graph.node(id);
    const Tensor& x = acts[static_cast<std::size_t>(node.inputs.empty() ? 0 : node.inputs[0])];
    if (node.layer->kind() == LayerKind::kConv2D) {
      const auto& conv = static_cast<const netcut::nn::Conv2D&>(*node.layer);
      const netcut::tensor::ConvGeometry g = geometry(conv, x.shape());
      const int k2 = g.in_c * g.patch();
      const int n = g.out_h() * g.out_w();
      const int m = conv.out_channels();
      cols.resize(static_cast<std::size_t>(k2) * static_cast<std::size_t>(n));
      out.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
      {
        ScopedSpan span("tensor.im2col");
        netcut::tensor::im2col(x.data(), g, cols.data());
      }
      {
        ScopedSpan span("tensor.gemm");
        netcut::tensor::gemm(conv.weight().data(), cols.data(), out.data(), m, k2, n);
      }
      flops += 2LL * m * k2 * n;
    } else if (node.layer->kind() == LayerKind::kDense) {
      const auto& dense = static_cast<const netcut::nn::Dense&>(*node.layer);
      out.resize(static_cast<std::size_t>(dense.out_features()));
      {
        ScopedSpan span("tensor.gemm");
        netcut::tensor::gemv(dense.weight().data(), x.data(), out.data(), dense.out_features(),
                             dense.in_features());
      }
      flops += 2LL * dense.out_features() * dense.in_features();
    }
  }
  return flops;
}

void replay_s8u8(const netcut::nn::Graph& graph) {
  const std::vector<netcut::tensor::Shape>& shapes = graph.infer_shapes();
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  std::vector<std::int32_t> c;
  for (int id = 1; id < graph.node_count(); ++id) {
    const netcut::nn::Node& node = graph.node(id);
    const netcut::tensor::Shape& in =
        shapes[static_cast<std::size_t>(node.inputs.empty() ? 0 : node.inputs[0])];
    int m = 0, k = 0, n = 0;
    if (node.layer->kind() == LayerKind::kConv2D) {
      const auto& conv = static_cast<const netcut::nn::Conv2D&>(*node.layer);
      const netcut::tensor::ConvGeometry g = geometry(conv, in);
      m = conv.out_channels();
      k = g.in_c * g.patch();
      n = g.out_h() * g.out_w();
    } else if (node.layer->kind() == LayerKind::kDense) {
      const auto& dense = static_cast<const netcut::nn::Dense&>(*node.layer);
      m = dense.out_features();
      k = dense.in_features();
      n = 1;
    } else {
      continue;
    }
    a.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(k), std::int8_t{3});
    b.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(n), std::uint8_t{7});
    c.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    ScopedSpan span("tensor.gemm_s8u8");
    netcut::tensor::gemm_s8u8(a.data(), b.data(), c.data(), m, k, n);
  }
}

}  // namespace perfbench
