// Test-only reference interpreter for nn::Graph: the oracle the planned
// executor (nn::Network) is checked against.
//
// It keeps its own copy of the graph and runs Layer::forward node by node,
// heap-allocating every activation and keeping all of them alive — no memory
// plan, arena, lanes or liveness sweep, and no code shared with Network's
// executor. Layer::forward allocates its output and delegates to the same
// forward_into math the planned executor calls on arena views, so the two
// must agree bitwise; any difference is an executor bug (a slot alias, a
// stale view, a wrong lane offset or resume seed).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/graph.hpp"
#include "tensor/tensor.hpp"

namespace netcut::nn {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(Graph graph) : graph_(std::move(graph)) { graph_.infer_shapes(); }

  /// The output node's activation for one input. With train=true, layers
  /// cache for backward().
  tensor::Tensor forward(const tensor::Tensor& input, bool train = false) {
    return forward_collect(input, {}, train).front();
  }

  /// The activations of `collect` (or the output node when empty).
  std::vector<tensor::Tensor> forward_collect(const tensor::Tensor& input,
                                              const std::vector<int>& collect,
                                              bool train = false) {
    run(0, input, train);
    if (collect.empty()) return {acts_.back()};
    std::vector<tensor::Tensor> out;
    for (int id : collect) out.push_back(acts_.at(static_cast<std::size_t>(id)));
    return out;
  }

  /// Inference from node `resume` seeded with `seed`; nodes up to `resume`
  /// do not run. Throws std::logic_error if a later node reads behind it.
  tensor::Tensor forward_from(int resume, const tensor::Tensor& seed) {
    run(resume, seed, /*train=*/false);
    return acts_.back();
  }

  /// Backpropagate `grad_output` from the output node of the last
  /// train-mode forward; parameter gradients accumulate in the layers.
  void backward(const tensor::Tensor& grad_output) {
    if (!trained_) throw std::logic_error("ReferenceInterpreter::backward without train forward");
    const int n = graph_.node_count();
    std::vector<tensor::Tensor> grad(static_cast<std::size_t>(n));
    grad.back() = grad_output;
    for (int id = n - 1; id >= 1; --id) {
      tensor::Tensor& g = grad[static_cast<std::size_t>(id)];
      if (g.empty()) continue;
      Node& nd = graph_.node(id);
      std::vector<tensor::Tensor> gin = nd.layer->backward(g);
      for (std::size_t i = 0; i < nd.inputs.size(); ++i) {
        tensor::Tensor& acc = grad[static_cast<std::size_t>(nd.inputs[i])];
        if (acc.empty())
          acc = std::move(gin.at(i));
        else
          acc += gin.at(i);
      }
    }
  }

  std::vector<tensor::Tensor*> grads() {
    std::vector<tensor::Tensor*> out;
    for (int id = 1; id < graph_.node_count(); ++id)
      for (tensor::Tensor* g : graph_.node(id).layer->grads()) out.push_back(g);
    return out;
  }

  void zero_grads() {
    for (int id = 1; id < graph_.node_count(); ++id) graph_.node(id).layer->zero_grads();
  }

 private:
  void run(int first, const tensor::Tensor& seed, bool train) {
    const int n = graph_.node_count();
    acts_.assign(static_cast<std::size_t>(n), tensor::Tensor());
    acts_.at(static_cast<std::size_t>(first)) = seed;
    for (int id = first + 1; id < n; ++id) {
      Node& nd = graph_.node(id);
      std::vector<const tensor::Tensor*> in;
      for (int src : nd.inputs) {
        const tensor::Tensor& t = acts_[static_cast<std::size_t>(src)];
        if (t.empty())
          throw std::logic_error("ReferenceInterpreter: node " + std::to_string(id) +
                                 " reads node " + std::to_string(src) + ", which did not run");
        in.push_back(&t);
      }
      acts_[static_cast<std::size_t>(id)] = nd.layer->forward(in, train);
    }
    trained_ = train;
  }

  Graph graph_;
  std::vector<tensor::Tensor> acts_;
  bool trained_ = false;
};

}  // namespace netcut::nn
