#include "kernels/attention.h"

#include "device/device_manager.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h" // toF32Contig
#include "util/logging.h"

namespace edkm {
namespace kernels {

Tensor
attentionTable(const Tensor &u, const Tensor &c, float tau)
{
    EDKM_CHECK(u.defined() && c.defined(),
               "attentionTable: undefined input");
    EDKM_CHECK(tau > 0.0f, "attentionTable: tau must be positive");
    int64_t rows = u.numel();
    int64_t k = c.numel();
    Tensor uc = toF32Contig(u);
    Tensor cc = toF32Contig(c);
    Tensor out = Tensor::empty({rows, k}, DType::kF32, u.device());
    const float *pu = uc.rawData<const float>();
    const float *pc = cc.rawData<const float>();
    float *po = out.rawData<float>();
    float neg_inv_tau = -1.0f / tau;
    const KernelTable &kt = active();
    runtime::parallelFor(0, rows, runtime::grainFor(rows, 8 * k),
                         [&](int64_t rb, int64_t re) {
                             kt.attentionRows(pu + rb, re - rb, pc, k,
                                              neg_inv_tau, po + rb * k);
                         });
    // Same simulated cost as the composed 4-pass chain it replaces
    // (sub + square + mulScalar + 5-op softmax).
    chargeFlops(8.0 * static_cast<double>(rows) * static_cast<double>(k),
                u.device());
    return out;
}

void
assignNearest(const std::vector<float> &centroids, const float *values,
              int64_t n, int32_t *out)
{
    EDKM_CHECK(!centroids.empty(), "assignNearest: no centroids");
    const float *pc = centroids.data();
    int64_t k = static_cast<int64_t>(centroids.size());
    const KernelTable &kt = active();
    runtime::parallelFor(0, n, runtime::grainFor(n, 2 * k),
                         [&](int64_t cb, int64_t ce) {
                             kt.nearestRows(values + cb, ce - cb, pc, k,
                                            out + cb);
                         });
}

} // namespace kernels
} // namespace edkm
