#include "core/edkm.h"

#include <algorithm>
#include <cmath>

#include "autograd/node.h"
#include "core/kmeans.h"
#include "device/device_manager.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {

namespace {

using runtime::grainFor;
using runtime::parallelFor;
using runtime::parallelReduce;

/** Members per paperRows call in the per-member passes. */
constexpr int64_t kMemberBlock = 256;

/** Combine chunk-local double accumulators elementwise (chunk order). */
std::vector<double>
combineVec(std::vector<double> a, std::vector<double> b)
{
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] += b[i];
    }
    return a;
}

/**
 * Everything the eDKM backward needs, captured during forward. Large
 * payloads are SavedTensors (flow through the marshaling hooks); [k]-
 * sized vectors are kept plain.
 */
struct EdkmTape
{
    EdkmConfig config;
    std::shared_ptr<LearnerGroup> group;

    int64_t n = 0;       ///< number of weights
    int64_t k = 0;       ///< number of centroids
    int64_t uCount = 0;  ///< unique values (== n when uniquify off)
    float tau = 1.0f;
    Shape origShape;

    /** Retained reference to the input weights (a model parameter that
     *  stays resident anyway; used for deterministic regeneration of
     *  sharded payloads, standing in for the all-gather receive). */
    Tensor wRetained;

    // Uniquification payload (empty when uniquify off).
    SavedTensor idxSaved;     ///< u16 [n] or this rank's shard
    SavedTensor uValuesSaved; ///< f32 [U]
    SavedTensor countsSaved;  ///< f32 [U]
    bool idxSharded = false;

    struct Iter
    {
        SavedTensor table; ///< [U,k] table, or dense [n,k] (maybe shard)
        Tensor cIn;        ///< [k]
        Tensor m;          ///< [k] attention mass
        Tensor nv;         ///< [k] attention-weighted value sum
        bool tableSharded = false;
    };
    std::vector<Iter> iters;

    Tensor cFinal; ///< [k]

    int64_t savedBytes = 0; ///< logical bytes stashed via SavedTensor
};

/** scores/table for unique values @p u against centroids @p c:
 *  softmax_rows(-(u-c)^2 / tau), computed by the fused kernel in one
 *  pass (no diff/scores intermediates). */
Tensor
computeTable(const Tensor &u_col, const Tensor &c_row, float tau)
{
    return kernels::attentionTable(u_col, c_row, tau);
}

/**
 * Scatter-add 1-D @p g ([n]) into [U] buckets by u16 @p idx. Chunked:
 * each chunk scatters into a private [U] buffer; buffers merge in chunk
 * order, so the result is thread-count independent. The coarse grain
 * bounds the number of private buffers.
 */
Tensor
scatterAddByIdx(const Tensor &g, const Tensor &idx, int64_t u_count)
{
    Tensor out = Tensor::zeros({u_count}, DType::kF32, g.device());
    Tensor gc = g.isContiguous() ? g : g.contiguous();
    const float *pg = gc.rawData<float>();
    const uint16_t *pi = idx.rawData<const uint16_t>();
    float *po = out.rawData<float>();
    int64_t n = g.numel();
    std::vector<double> acc = parallelReduce<std::vector<double>>(
        0, n, runtime::coarseGrain(n, 16, 1024),
        std::vector<double>(static_cast<size_t>(u_count), 0.0),
        [&](int64_t cb, int64_t ce) {
            std::vector<double> part(static_cast<size_t>(u_count), 0.0);
            for (int64_t i = cb; i < ce; ++i) {
                part[pi[i]] += pg[i];
            }
            return part;
        },
        combineVec);
    for (int64_t r = 0; r < u_count; ++r) {
        po[r] = static_cast<float>(acc[static_cast<size_t>(r)]);
    }
    chargeFlops(static_cast<double>(n), g.device());
    return out;
}

/**
 * The whole unrolled DKM loop as one autograd node. Forward runs in
 * table space (or dense when uniquification is off); backward either
 * runs the paper's per-member arithmetic (paper mode) or stays in table
 * space (fused mode). Gradients equal the composed dense DkmLayer's up
 * to float associativity.
 */
class EdkmClusterNode : public Node
{
  public:
    explicit EdkmClusterNode(std::shared_ptr<EdkmTape> tape)
        : Node("edkm_cluster"), tape_(std::move(tape))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &grad_out) override
    {
        const EdkmTape &t = *tape_;
        Tensor g = grad_out.isContiguous()
                       ? grad_out.view({t.n})
                       : grad_out.contiguous().view({t.n});

        Tensor gw;
        if (t.config.uniquify &&
            t.config.backwardMode == EdkmConfig::BackwardMode::kFused) {
            gw = fusedBackward(g);
        } else {
            gw = denseBackward(g);
        }
        return {gw.view(t.origShape)};
    }

  private:
    /** Recover the full index list (simulated all-gather when sharded). */
    Tensor fullIndexList() const;

    /** Recover iteration @p it's dense attention map [n,k]
     *  (uniquify off). */
    Tensor denseMap(const EdkmTape::Iter &iter,
                    const Tensor &w_dense) const;

    /** Table-space backward (extension; uniquify mode only). */
    Tensor fusedBackward(const Tensor &g);

    /** Per-member backward arithmetic (paper-faithful). */
    Tensor denseBackward(const Tensor &g);

    std::shared_ptr<EdkmTape> tape_;
};

Tensor
EdkmClusterNode::fullIndexList() const
{
    const EdkmTape &t = *tape_;
    EDKM_ASSERT(t.config.uniquify, "index list only exists in U mode");
    if (!t.idxSharded) {
        return t.idxSaved.unpack();
    }
    // Simulated all-gather: regenerate deterministically (identical on
    // every learner under synchronous training) and account the traffic.
    UniqueDecomposition dec = uniquify(t.wRetained, t.config.halfKind);
    if (t.group) {
        t.group->recordAllGather(t.n * 2); // u16 index list
    }
    return dec.indexList;
}

Tensor
EdkmClusterNode::denseMap(const EdkmTape::Iter &iter,
                          const Tensor &w_dense) const
{
    const EdkmTape &t = *tape_;
    Tensor saved = iter.table.unpack(); // dense rows (maybe a shard)
    if (!iter.tableSharded) {
        return saved;
    }
    // Regenerate the full map (simulated all-gather of the other
    // learners' row blocks) and overwrite our shard with the saved rows.
    Tensor full = computeTable(w_dense.view({t.n, 1}),
                               iter.cIn.view({1, t.k}), t.tau);
    auto [b, e] = t.group->shardRange(t.n, t.config.rank);
    copyIntoView(full.slice(0, b, e), saved);
    t.group->recordAllGather(t.n * t.k * 4);
    return full;
}

/**
 * Member i's attention row is row(i) of the iteration's table: idx[i]
 * of the [U,k] table with uniquification, row i of the dense [n,k] map
 * without. Its value is vals[row(i)] (the unique values or the dense
 * weights). Only the last iteration's gA row carries a member-specific
 * term (g_i * c_final); in every earlier one gA starts at 0, so with
 * uniquification the row's whole result depends on idx[i] alone. Those
 * iterations evaluate each unique row once and gather-add the results in
 * member order, inside the same chunked reduce over members, so every
 * sum sees the same terms in the same order as a per-member pass.
 */
Tensor
EdkmClusterNode::denseBackward(const Tensor &g)
{
    const EdkmTape &t = *tape_;
    int64_t n = t.n, k = t.k, U = t.uCount;
    int num_iters = static_cast<int>(t.iters.size());
    bool uniq = t.config.uniquify;

    Tensor idx;
    Tensor vals;
    if (uniq) {
        idx = fullIndexList();
        vals = t.uValuesSaved.unpack();
    } else {
        vals = t.wRetained.isContiguous()
                   ? t.wRetained.view({n})
                   : t.wRetained.contiguous().view({n});
        if (vals.dtype() != DType::kF32) {
            vals = vals.to(DType::kF32);
        }
    }
    const uint16_t *pidx = uniq ? idx.rawData<const uint16_t>() : nullptr;
    const float *pv = vals.rawData<const float>();
    auto row_of = [pidx](int64_t i) -> int64_t {
        return pidx != nullptr ? pidx[i] : i;
    };
    auto table_of = [&](const EdkmTape::Iter &iter) {
        return uniq ? iter.table.unpack() : denseMap(iter, vals);
    };

    Tensor gw = Tensor::zeros({n}, DType::kF32, g.device());
    float *pgw = gw.rawData<float>();
    const float *pg = g.rawData<const float>();
    const kernels::KernelTable &kt = kernels::active();

    // Final step: W~ = A_last * c_final.
    std::vector<float> c_final = t.cFinal.toVector();
    Tensor table_last = table_of(t.iters.back());

    // gc[k]: gradient w.r.t. the centroid vector flowing backwards.
    int64_t row_grain = grainFor(n, 8 * k);
    const float *ptl = table_last.rawData<const float>();
    std::vector<double> gc = parallelReduce<std::vector<double>>(
        0, n, row_grain, std::vector<double>(static_cast<size_t>(k), 0.0),
        [&](int64_t cb, int64_t ce) {
            std::vector<double> part(static_cast<size_t>(k), 0.0);
            for (int64_t i = cb; i < ce; ++i) {
                const float *arow = ptl + row_of(i) * k;
                for (int64_t j = 0; j < k; ++j) {
                    part[static_cast<size_t>(j)] +=
                        static_cast<double>(pg[i]) * arow[j];
                }
            }
            return part;
        },
        combineVec);

    // Per-unique-row scratch of the bucket-invariant iterations: the gc
    // terms ([U,k] f64 in 8-byte slots) and the gw term ([U]).
    bool bucketed = uniq && num_iters > 1;
    Tensor contrib_t, gwb_t;
    if (bucketed) {
        contrib_t = Tensor::empty({U, k}, DType::kI64, g.device());
        gwb_t = Tensor::empty({U}, DType::kF32, g.device());
    }

    for (int it = num_iters - 1; it >= 0; --it) {
        const EdkmTape::Iter &iter = t.iters[static_cast<size_t>(it)];
        bool last = it == num_iters - 1;
        std::vector<float> c_in = iter.cIn.toVector();
        std::vector<float> m = iter.m.toVector();
        std::vector<float> nv = iter.nv.toVector();

        // Gradients of the pooled update c' = nv / m.
        std::vector<float> gn(static_cast<size_t>(k));
        std::vector<float> gm(static_cast<size_t>(k));
        for (int64_t j = 0; j < k; ++j) {
            float mj = std::max(m[static_cast<size_t>(j)], 1e-12f);
            gn[static_cast<size_t>(j)] =
                static_cast<float>(gc[static_cast<size_t>(j)]) / mj;
            gm[static_cast<size_t>(j)] =
                -static_cast<float>(gc[static_cast<size_t>(j)]) *
                nv[static_cast<size_t>(j)] / (mj * mj);
        }
        Tensor table = last ? table_last : table_of(iter);
        kernels::PaperRowArgs args{};
        args.k = k;
        args.invTau = 1.0f / t.tau;
        args.gn = gn.data();
        args.gm = gm.data();
        args.cIn = c_in.data();
        args.table = table.rawData<const float>();
        args.vals = pv;

        if (last || !bucketed) {
            // Per-member pass, gA seeded with the member's own final-step
            // term (last iteration) or 0; gc for the next (earlier)
            // iteration accumulates per chunk (rows i are disjoint).
            args.idx = pidx;
            if (last) {
                args.g = pg;
                args.cFinal = c_final.data();
            }
            gc = parallelReduce<std::vector<double>>(
                0, n, row_grain,
                std::vector<double>(static_cast<size_t>(k), 0.0),
                [&](int64_t cb, int64_t ce) {
                    std::vector<double> part(static_cast<size_t>(k), 0.0);
                    // Row blocks: the terms come back in row order and
                    // are summed in row order.
                    int64_t block = std::min(kMemberBlock, ce - cb);
                    std::vector<double> terms(
                        static_cast<size_t>(block * k));
                    std::vector<float> gwr(static_cast<size_t>(block));
                    for (int64_t b = cb; b < ce; b += block) {
                        int64_t nb = std::min(block, ce - b);
                        kt.paperRows(args, b, nb, terms.data(),
                                     gwr.data());
                        kt.gatherAddRows(terms.data(), gwr.data(), k,
                                         nullptr, nb, part.data(),
                                         pgw + b);
                    }
                    return part;
                },
                combineVec);
            continue;
        }

        // Bucket pass: each unique row once (rows r are disjoint).
        double *pcontrib = contrib_t.rawData<double>();
        float *pgwb = gwb_t.rawData<float>();
        parallelFor(0, U, grainFor(U, 8 * k), [&](int64_t cb, int64_t ce) {
            kt.paperRows(args, cb, ce - cb, pcontrib + cb * k, pgwb + cb);
        });
        // Member pass: gather-add the bucket results in member order.
        gc = parallelReduce<std::vector<double>>(
            0, n, row_grain,
            std::vector<double>(static_cast<size_t>(k), 0.0),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(k), 0.0);
                kt.gatherAddRows(pcontrib, pgwb, k, pidx + cb, ce - cb,
                                 part.data(), pgw + cb);
                return part;
            },
            combineVec);
    }
    // ~8 ops per (row, centroid) pair of each row pass, plus one add per
    // (member, centroid) pair of each gather-add.
    double early_iter_flops =
        bucketed ? 8.0 * U * k + static_cast<double>(n) * k
                 : 8.0 * static_cast<double>(n) * k;
    chargeFlops(8.0 * static_cast<double>(n) * k +
                    (num_iters - 1) * early_iter_flops,
                g.device());
    // gc[0] flows into the constant initialisation: dropped.
    return gw;
}

Tensor
EdkmClusterNode::fusedBackward(const Tensor &g)
{
    const EdkmTape &t = *tape_;
    int64_t n = t.n, k = t.k, U = t.uCount;
    int num_iters = static_cast<int>(t.iters.size());
    float inv_tau = 1.0f / t.tau;

    Tensor idx = fullIndexList();
    Tensor u_t = t.uValuesSaved.unpack();
    Tensor cnt_t = t.countsSaved.unpack();
    const float *pu = u_t.rawData<const float>();
    const float *pcnt = cnt_t.rawData<const float>();
    const uint16_t *pidx = idx.rawData<const uint16_t>();
    const float *pg = g.rawData<const float>();

    // Per-bucket sum of incoming grads: s_r = sum_{i in r} g_i.
    Tensor s_t = scatterAddByIdx(g, idx, U);
    const float *ps = s_t.rawData<const float>();

    std::vector<float> c_final = t.cFinal.toVector();

    // gwBucket: per-member gradient shared by a bucket (gathered at the
    // end); gwScale: per-bucket factor multiplied by each member's own
    // g_i (the member-specific final-step path).
    std::vector<double> gw_bucket(static_cast<size_t>(U), 0.0);
    std::vector<double> gw_scale(static_cast<size_t>(U), 0.0);
    std::vector<double> gc(static_cast<size_t>(k), 0.0);
    // Final-step distance-path contribution to grad(c_{T-1}), folded
    // into the last iteration's gc_prev below.
    std::vector<double> gc_dist_last(static_cast<size_t>(k), 0.0);

    // ---- Final step: W~ = gather(T_last, idx) @ c_final ----
    Tensor table_last = t.iters.back().table.unpack();
    const float *ptl = table_last.rawData<const float>();
    std::vector<float> c_last_in =
        t.iters.back().cIn.toVector(); // centroids T_last was built from

    // Parallel over unique rows: gw_scale[r] is disjoint; the two [k]
    // accumulators travel per chunk (packed as one 2k vector) and merge
    // in chunk order.
    int64_t bucket_grain = grainFor(U, 8 * k);
    {
        std::vector<double> packed = parallelReduce<std::vector<double>>(
            0, U, bucket_grain,
            std::vector<double>(static_cast<size_t>(2 * k), 0.0),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(2 * k),
                                         0.0);
                for (int64_t r = cb; r < ce; ++r) {
                    const float *trow = ptl + r * k;
                    double rowdot = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        rowdot += static_cast<double>(trow[j]) *
                                  c_final[static_cast<size_t>(j)];
                    }
                    double q = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        // gc from the matmul: gc_j += s_r T_rj.
                        part[static_cast<size_t>(j)] +=
                            static_cast<double>(ps[r]) * trow[j];
                        // h = T (c - rowdot); member softmax+distance
                        // path.
                        double h = trow[j] *
                                   (c_final[static_cast<size_t>(j)] -
                                    rowdot);
                        double gdsq_unit = -h * inv_tau; // per unit g_i
                        double d =
                            pu[r] - c_last_in[static_cast<size_t>(j)];
                        q += gdsq_unit * 2.0 * d;
                        // gc_{T-1} distance path: sums over members ->
                        // s_r factor.
                        part[static_cast<size_t>(k + j)] +=
                            static_cast<double>(ps[r]) * gdsq_unit *
                            (-2.0) * d;
                    }
                    gw_scale[static_cast<size_t>(r)] += q;
                }
                return part;
            },
            combineVec);
        for (int64_t j = 0; j < k; ++j) {
            gc[static_cast<size_t>(j)] += packed[static_cast<size_t>(j)];
            gc_dist_last[static_cast<size_t>(j)] +=
                packed[static_cast<size_t>(k + j)];
        }
    }

    // ---- Per-iteration loop in table space ----
    for (int it = num_iters - 1; it >= 0; --it) {
        const EdkmTape::Iter &iter = t.iters[static_cast<size_t>(it)];
        std::vector<float> c_in = iter.cIn.toVector();
        std::vector<float> m = iter.m.toVector();
        std::vector<float> nv = iter.nv.toVector();
        Tensor table = (it == num_iters - 1)
                           ? table_last
                           : iter.table.unpack();
        const float *pt = table.rawData<const float>();

        std::vector<float> gn(static_cast<size_t>(k));
        std::vector<float> gm(static_cast<size_t>(k));
        for (int64_t j = 0; j < k; ++j) {
            float mj = std::max(m[static_cast<size_t>(j)], 1e-12f);
            gn[static_cast<size_t>(j)] =
                static_cast<float>(gc[static_cast<size_t>(j)]) / mj;
            gm[static_cast<size_t>(j)] =
                -static_cast<float>(gc[static_cast<size_t>(j)]) *
                nv[static_cast<size_t>(j)] / (mj * mj);
        }

        std::vector<double> gc_init(static_cast<size_t>(k), 0.0);
        if (it == num_iters - 1) {
            // Fold in the final step's distance-path contribution.
            gc_init = gc_dist_last;
        }

        gc = parallelReduce<std::vector<double>>(
            0, U, bucket_grain, std::move(gc_init),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(k), 0.0);
                std::vector<double> ga_row(static_cast<size_t>(k));
                for (int64_t r = cb; r < ce; ++r) {
                    const float *trow = pt + r * k;
                    float ur = pu[r];
                    double rowdot = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        double ga =
                            static_cast<double>(
                                gn[static_cast<size_t>(j)]) *
                                ur +
                            gm[static_cast<size_t>(j)];
                        ga_row[static_cast<size_t>(j)] = ga;
                        rowdot += ga * trow[j];
                    }
                    double gw_acc = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        gw_acc += static_cast<double>(trow[j]) *
                                  gn[static_cast<size_t>(j)];
                        double gs =
                            trow[j] *
                            (ga_row[static_cast<size_t>(j)] - rowdot);
                        double gdsq = -gs * inv_tau;
                        double d = ur - c_in[static_cast<size_t>(j)];
                        gw_acc += gdsq * 2.0 * d;
                        part[static_cast<size_t>(j)] +=
                            static_cast<double>(pcnt[r]) * gdsq *
                            (-2.0) * d;
                    }
                    gw_bucket[static_cast<size_t>(r)] += gw_acc;
                }
                return part;
            },
            combineVec);
    }

    // Assemble per-member gradient.
    Tensor gw = Tensor::empty({n}, DType::kF32, g.device());
    float *pgw = gw.rawData<float>();
    parallelFor(0, n, grainFor(n, 2), [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
            uint16_t r = pidx[i];
            pgw[i] =
                static_cast<float>(gw_bucket[r] + pg[i] * gw_scale[r]);
        }
    });
    // Table-space backward: ~8 ops per (unique, centroid, iteration)
    // plus the O(n) scatter/gather passes.
    chargeFlops(8.0 * static_cast<double>(U) * k * num_iters + 3.0 * n,
               g.device());
    return gw;
}

} // namespace

EdkmLayer::EdkmLayer(EdkmConfig config, std::shared_ptr<LearnerGroup> group)
    : config_(config), group_(std::move(group))
{
    EDKM_CHECK(config_.dkm.bits >= 1 && config_.dkm.bits <= 8,
               "eDKM: bits must be in [1,8]");
    if (config_.shard) {
        EDKM_CHECK(group_ != nullptr,
                   "eDKM: sharding requires a LearnerGroup");
        EDKM_CHECK(config_.rank >= 0 &&
                       config_.rank < group_->worldSize(),
                   "eDKM: bad rank");
    }
}

Variable
EdkmLayer::forward(const Variable &w)
{
    const Tensor &wd = w.data();
    EDKM_CHECK(wd.defined() && wd.numel() > 0, "eDKM: empty weight");
    int64_t n = wd.numel();
    int64_t k = 1 << config_.dkm.bits;

    bool tracking = gradModeEnabled() && w.requiresGrad();
    auto tape = std::make_shared<EdkmTape>();
    tape->config = config_;
    tape->group = group_;
    tape->n = n;
    tape->k = k;
    tape->origShape = wd.shape();
    tape->wRetained = wd;

    report_ = EdkmReport{};
    report_.denseMapBytes = n * k * 4;

    // ---- Unique decomposition (or dense values) ----
    UniqueDecomposition dec = uniquify(wd, config_.halfKind);
    std::vector<float> u_vals;
    std::vector<float> u_cnts;
    int64_t U;
    if (config_.uniquify) {
        u_vals = dec.values;
        u_cnts = dec.counts;
        U = dec.uniqueCount();
    } else {
        u_vals = wd.toVector();
        u_cnts.assign(static_cast<size_t>(n), 1.0f);
        U = n;
    }
    tape->uCount = U;
    report_.uniqueCount = config_.uniquify ? U : 0;

    // Warm start + temperature on (unique values, counts): identical to
    // DkmLayer's choice for 16-bit-bucketed inputs.
    std::vector<float> c0 =
        DkmLayer::initCentroids(dec.values, dec.counts, config_.dkm);
    tape->tau =
        DkmLayer::resolveTemperature(config_.dkm, dec.values, dec.counts);
    report_.temperatureUsed = tape->tau;

    Device dev = wd.device();
    Tensor u_col = Tensor::fromVector(u_vals, {U, 1}, dev);
    Tensor cnt_row = Tensor::fromVector(u_cnts, {1, U}, dev);
    Tensor cw_row = Tensor::empty({1, U}, DType::kF32, dev);
    {
        float *p = cw_row.rawData<float>();
        for (int64_t r = 0; r < U; ++r) {
            p[r] = u_cnts[static_cast<size_t>(r)] *
                   u_vals[static_cast<size_t>(r)];
        }
    }

    // ---- Save the shared payload ----
    auto account = [&](const Tensor &t_saved) {
        tape->savedBytes += t_saved.numel() * dtypeSize(t_saved.dtype());
    };
    if (tracking && config_.uniquify) {
        Tensor idx = dec.indexList;
        if (config_.shard) {
            auto [b, e] = group_->shardRange(n, config_.rank);
            // clone() so the saved shard owns a compact buffer instead
            // of pinning the full index list.
            idx = idx.slice(0, b, e).clone();
            tape->idxSharded = true;
        }
        tape->idxSaved = SavedTensor(idx, nullptr);
        account(idx);
        tape->uValuesSaved = SavedTensor(u_col.view({U}), nullptr);
        tape->countsSaved =
            SavedTensor(cnt_row.view({U}), nullptr);
        tape->savedBytes += 2 * U * 4;
    }

    // ---- Differentiable iterations (table space) ----
    Tensor c = Tensor::fromVector(c0, {static_cast<int64_t>(k)}, dev);
    Tensor table;
    int iters_done = 0;
    for (int it = 0; it < config_.dkm.maxIters; ++it) {
        table = computeTable(u_col, c.view({1, k}), tape->tau); // [U,k]
        Tensor m = matmul(cnt_row, table).view({k});            // [k]
        Tensor nv = matmul(cw_row, table).view({k});            // [k]
        Tensor c_new = div(nv, addScalar(m, 1e-12f));

        if (tracking) {
            EdkmTape::Iter iter;
            iter.cIn = c.clone();
            iter.m = m;
            iter.nv = nv;
            Tensor to_save = table;
            if (!config_.uniquify && config_.shard) {
                auto [b, e] = group_->shardRange(n, config_.rank);
                to_save = table.slice(0, b, e).clone();
                iter.tableSharded = true;
            }
            iter.table = SavedTensor(to_save, nullptr);
            account(to_save);
            tape->savedBytes += 3 * k * 4;
            tape->iters.push_back(std::move(iter));
        }

        float delta = maxAbsDiff(c_new, c);
        c = c_new;
        iters_done = it + 1;
        if (delta < config_.dkm.convergenceEps) {
            break;
        }
    }
    report_.iterations = iters_done;
    report_.savedBytes = tape->savedBytes;
    tape->cFinal = c.clone();
    centroids_ = c.clone();

    // ---- W~ = gather(T_last, idx-or-identity) @ c_final ----
    Tensor w_unique = matmul(table, c.view({k, 1})).view({U}); // [U]
    Tensor out;
    if (config_.uniquify) {
        out = Tensor::empty({n}, DType::kF32, dev);
        const float *pwu = w_unique.rawData<const float>();
        const uint16_t *pi = dec.indexList.rawData<const uint16_t>();
        float *po = out.rawData<float>();
        parallelFor(0, n, grainFor(n, 2), [&](int64_t cb, int64_t ce) {
            kernels::gatherU16(pwu, pi + cb, ce - cb, po + cb);
        });
    } else {
        out = w_unique;
    }
    out = out.view(tape->origShape);

    if (!tracking) {
        return Variable(std::move(out), false);
    }
    return makeResult(std::move(out), {w}, [&] {
        return std::make_shared<EdkmClusterNode>(tape);
    });
}

PalettizedTensor
EdkmLayer::palettize(const Tensor &w) const
{
    EDKM_CHECK(centroids_.defined(), "palettize: call forward() first");
    std::vector<float> lut = centroids_.toVector();
    std::sort(lut.begin(), lut.end());
    std::vector<float> values = w.toVector();
    std::vector<int32_t> assign(values.size());
    kernels::assignNearest(lut, values.data(),
                           static_cast<int64_t>(values.size()),
                           assign.data());
    return PalettizedTensor::fromAssignments(w.shape(), lut, assign,
                                             config_.dkm.bits);
}

} // namespace edkm
