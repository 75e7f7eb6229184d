// Inputs and networks the infer and serve workloads build from their seed,
// and the fp32 output oracle they share.
#pragma once

#include <vector>

#include "nn/graph.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {

/// `n` rendered hand-object frames (3 x res x res), grasp types in turn.
std::vector<netcut::tensor::Tensor> make_frames(int n, int resolution, netcut::util::Rng& rng);

/// A fresh zoo trunk: He/Xavier init, residual branches damped the way the
/// pretraining generator does it (BN gamma 0.2 before every Add), and
/// BatchNorm statistics calibrated on `calib`.
netcut::nn::Graph conditioned_trunk(netcut::zoo::NetId id, int resolution,
                                    netcut::util::Rng& rng,
                                    const std::vector<netcut::tensor::Tensor>& calib);

/// Deepest GEMM reduction (in_c * kh * kw, or dense fan-in) in the graph:
/// the k of the 4*k ULP budget.
int max_reduction(const netcut::nn::Graph& g);

/// |got - ref| <= 4*k ULP of the larger magnitude (+1e-6), elementwise —
/// the repo's scalar-vs-simd budget with k the deepest reduction.
bool ulp_close(const netcut::tensor::Tensor& got, const netcut::tensor::Tensor& ref, int k);

}  // namespace perfbench
