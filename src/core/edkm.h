/**
 * @file
 * eDKM: memory-efficient differentiable k-means (the paper's primary
 * contribution).
 *
 * EdkmLayer computes exactly the same soft clustering as DkmLayer but
 * restructures what is *saved* for backward, following section 2.2:
 *
 *  - Uniquification: 16-bit weights have at most 2^16 distinct patterns,
 *    so each iteration saves an attention *table* T [unique x |C|] plus a
 *    single shared *index list* [|W|] (u16) instead of the dense map
 *    A [|W| x |C|]. Attention rows are computed once per unique value;
 *    attention pooling uses multiplicity counts, which is algebraically
 *    identical to the dense computation.
 *
 *  - Sharding: in fully synchronous data-parallel training every learner
 *    holds identical weights, so the index list (or the dense map's rows
 *    when uniquification is off) can be sharded across |L| learners,
 *    keeping O(|W|/|L|) per learner. The missing shards are all-gathered
 *    back for backward; the simulation regenerates them deterministically
 *    and accounts the communication (src/dist).
 *
 *  - Backward modes: kReconstruct (paper-faithful) reproduces the
 *    paper's per-member gradient arithmetic bit for bit, reading each
 *    member's attention row from the saved table through the index list.
 *    Every iteration but the last is bucket-invariant (a member's result
 *    depends only on its unique value), so those are evaluated once per
 *    unique value and gathered back in member order; no |W| x |C| map
 *    is materialised. The row arithmetic runs in the kernel layer's
 *    row-lane kernels (kernels::KernelTable::paperRows and
 *    gatherAddRows, see docs/kernels.md): each vector lane replays one
 *    row's scalar sequence, so every backend gives the same bits as
 *    the scalar per-row code. kFused (our extension) also evaluates
 *    the last iteration in table space, with reassociated sums: its
 *    gradients match kReconstruct's to float tolerance, not bit for
 *    bit (see tests/test_edkm.cc).
 *
 * Saved tensors flow through SavedTensor, hence through any installed
 * marshaling context (section 2.1) — benches install MarshalContext to
 * offload them to CPU with duplicate detection.
 */

#ifndef EDKM_CORE_EDKM_H_
#define EDKM_CORE_EDKM_H_

#include <cstdint>
#include <memory>

#include "autograd/variable.h"
#include "core/dkm.h"
#include "core/palettize.h"
#include "core/uniquify.h"
#include "dist/learner_group.h"
#include "tensor/tensor.h"
#include "util/half.h"

namespace edkm {

/** eDKM configuration: DKM hyper-parameters + memory techniques. */
struct EdkmConfig
{
    /** Shared clustering hyper-parameters. */
    DkmConfig dkm;

    /** 16-bit bucketing used by uniquification. */
    HalfKind halfKind = HalfKind::kBf16;

    /** U: save attention tables + index list instead of dense maps. */
    bool uniquify = true;

    /** S: shard the per-learner saved payload over the learner group. */
    bool shard = false;

    /** This learner's rank (simulation runs rank's view). */
    int rank = 0;

    /** How backward consumes the saved representation. */
    enum class BackwardMode {
        kReconstruct, ///< paper: per-member gradient arithmetic
        kFused,       ///< extension: stay in table space
    };
    BackwardMode backwardMode = BackwardMode::kReconstruct;
};

/** Diagnostics of the last EdkmLayer::forward. */
struct EdkmReport
{
    int iterations = 0;
    float temperatureUsed = 0.0f;
    int64_t uniqueCount = 0;   ///< 0 when uniquification is off
    int64_t savedBytes = 0;    ///< logical bytes stashed for backward
    int64_t denseMapBytes = 0; ///< what one dense iteration map would be
};

/**
 * Memory-efficient differentiable weight clustering layer.
 *
 * Construct once per weight tensor family; forward() may be called every
 * fine-tuning step. Pass a LearnerGroup to enable sharding accounting.
 */
class EdkmLayer
{
  public:
    explicit EdkmLayer(EdkmConfig config,
                       std::shared_ptr<LearnerGroup> group = nullptr);

    /** Differentiable soft clustering (same contract as DkmLayer). */
    Variable forward(const Variable &w);

    /** Palettize @p w against the last forward's centroids. */
    PalettizedTensor palettize(const Tensor &w) const;

    /** Centroids after the last forward ([k] f32). */
    const Tensor &centroids() const { return centroids_; }

    /** Diagnostics of the last forward. */
    const EdkmReport &report() const { return report_; }

    const EdkmConfig &config() const { return config_; }

  private:
    EdkmConfig config_;
    std::shared_ptr<LearnerGroup> group_;
    Tensor centroids_;
    EdkmReport report_;
};

} // namespace edkm

#endif // EDKM_CORE_EDKM_H_
