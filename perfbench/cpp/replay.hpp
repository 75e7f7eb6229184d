// Layer replays for the traced runs. They repeat, from the benchmark's
// side, the calls a forward pass makes into the nn and tensor layers, so
// each call can carry its own span without instrumenting the library:
//
//  * replay_nodes   — node-by-node nn::Layer::forward over a graph (the
//                     unplanned executor), one span per node named
//                     "nn.kind.<group>" by LayerKind;
//  * replay_gemms   — each Conv2D node's im2col + tensor::gemm and each
//                     Dense node's tensor::gemv at the node's real shape and
//                     on its real input activation;
//  * replay_s8u8    — tensor::gemm_s8u8 at every Conv2D / Dense GEMM shape.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/graph.hpp"

namespace perfbench {

/// The LayerKind groups reported as nn.kind.<group>_ms.
const std::vector<const char*>& kind_groups();

/// Runs every node of `graph` through Layer::forward on `input` under
/// spans; returns the activations (node order) for replay_gemms.
std::vector<netcut::tensor::Tensor> replay_nodes(netcut::nn::Graph& graph,
                                                 const netcut::tensor::Tensor& input);

/// Replays the conv/dense GEMMs on the activations replay_nodes produced;
/// returns the floating-point operations they ran.
std::int64_t replay_gemms(const netcut::nn::Graph& graph,
                          const std::vector<netcut::tensor::Tensor>& acts);

/// Replays the integer GEMM shapes of the quantized path once.
void replay_s8u8(const netcut::nn::Graph& graph);

}  // namespace perfbench
