/**
 * @file
 * Tests for cross-device tensor marshaling (paper section 2.1): the
 * Table 1 / Fig 2 duplicate-copy scenario, graph-walk detection at
 * various hop depths, op-trace replay correctness, and the alternative
 * detection strategies.
 */

#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "device/device_manager.h"
#include "marshal/marshal.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace edkm {
namespace {

class MarshalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
    }

    MarshalConfig
    cfg(MarshalConfig::Detection det, int hops = 4)
    {
        MarshalConfig c;
        c.detection = det;
        c.maxHops = hops;
        c.minOffloadBytes = 1; // everything offloads in tests
        return c;
    }

    Rng rng{77};
};

TEST_F(MarshalTest, Fig2Scenario)
{
    // x0 on GPU; save x0 and its view x1. Without marshaling both copy
    // to CPU (Table 1: 8 MB); with graph-walk detection the view is a
    // reference (4 MB).
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x0(Tensor::rand({64, 64}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable x1 = af::view(x0, {-1, 1});   // storage-invariant
        // square saves its input: x1 first, then the raw x0 (0 hops for
        // the second save of x0's data through mul's saved operands).
        Variable a = af::square(x1);           // saves x1 (copy #1)
        Variable b = af::square(x0);           // saves x0 -> dup of x1!
        loss = af::add(af::sumAll(a), af::sumAll(b));
    }
    const MarshalStats &s = ctx.stats();
    EXPECT_EQ(s.copies, 1);
    EXPECT_EQ(s.duplicatesAvoided, 1);
    EXPECT_EQ(s.bytesAvoided, 64 * 64 * 4);
    // Only one CPU-resident copy.
    EXPECT_EQ(ctx.residentBytes(), 64 * 64 * 4);
    // Backward succeeds and gradients are correct: d/dx (sum x^2 twice).
    backward(loss);
    Tensor expect = mulScalar(x0.data(), 4.0f);
    EXPECT_TRUE(allclose(x0.grad(), expect, 1e-4f, 1e-5f));
}

TEST_F(MarshalTest, NoDetectionCopiesEverything)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kNone));
    Variable x0(Tensor::rand({32, 32}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable x1 = af::view(x0, {-1, 1});
        Variable a = af::square(x1);
        Variable b = af::square(x0);
        loss = af::add(af::sumAll(a), af::sumAll(b));
    }
    EXPECT_EQ(ctx.stats().copies, 2);
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 0);
    EXPECT_EQ(ctx.residentBytes(), 2 * 32 * 32 * 4);
    backward(loss); // still correct, just more traffic
    EXPECT_TRUE(allclose(x0.grad(), mulScalar(x0.data(), 4.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, TransposeDetectedAtOneHop)
{
    // softmax saves its output A; a matmul then saves A^T (a transpose
    // view) -- the walk resolves A^T -> A through one hop.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({8, 8}, rng, Device::gpu(0)), true);
    Variable w(Tensor::rand({8, 1}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable a = af::softmaxLastDim(x); // saves A
        Variable at = af::transpose(a, 0, 1);
        Variable y = af::matmul(at, w);     // saves A^T and w
        loss = af::sumAll(y);
    }
    EXPECT_GE(ctx.stats().duplicatesAvoided, 1);
    backward(loss);
    EXPECT_TRUE(x.grad().defined());
    EXPECT_TRUE(w.grad().defined());
}

TEST_F(MarshalTest, ZeroHopsDisablesWalkDetection)
{
    // With maxHops=0 only the exact same variable is detected; the
    // transpose case needs one hop and now copies.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk, 0));
    Variable x(Tensor::rand({8, 8}, rng, Device::gpu(0)), true);
    Variable w(Tensor::rand({8, 1}, rng, Device::gpu(0)), true);
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable a = af::softmaxLastDim(x);
        Variable y = af::matmul(af::transpose(a, 0, 1), w);
        af::sumAll(y);
    }
    // A and A^T both copied (plus w): no transpose dedup at 0 hops.
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 0);
    EXPECT_GE(ctx.stats().copies, 3);
}

TEST_F(MarshalTest, MultiHopChainDetected)
{
    // x -> view -> transpose -> view: the deepest save is 3 hops from
    // the first-saved tensor.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk, 4));
    Variable x(Tensor::rand({4, 6}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x);            // saves x
        Variable v = af::view(x, {6, 4});
        Variable t = af::transpose(v, 0, 1);
        Variable u = af::view(af::contiguous(t), {24, 1});
        // contiguous breaks the chain; use a direct chain instead:
        Variable t2 = af::transpose(v, 0, 1);
        Variable s2 = af::square(t2);           // saves t2: 2 hops to x
        loss = af::add(af::sumAll(s1),
                       af::add(af::sumAll(s2), af::sumAll(u)));
    }
    EXPECT_GE(ctx.stats().duplicatesAvoided, 1);
    backward(loss);
    EXPECT_TRUE(x.grad().defined());
}

TEST_F(MarshalTest, HopBoundRespected)
{
    // Chain longer than maxHops must NOT be detected.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk, 1));
    Variable x(Tensor::rand({4, 6}, rng, Device::gpu(0)), true);
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x); // saves x (registers x)
        // 2 view hops away from x:
        Variable v = af::view(x, {6, 4});
        Variable t = af::transpose(v, 0, 1);
        Variable s2 = af::square(t); // saves t
        af::add(af::sumAll(s1), af::sumAll(s2));
    }
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 0);
    EXPECT_EQ(ctx.stats().copies, 2);
}

TEST_F(MarshalTest, TraceReplayReconstructsExactContent)
{
    // The unpacked tensor after a reference + op-trace must be
    // bit-identical to the original saved view.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({6, 4}, rng, Device::gpu(0)), true);
    Variable loss;
    Tensor t_data;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x);        // saves x, registers it
        Variable t = af::transpose(x, 0, 1);
        t_data = t.data().contiguous();     // ground truth [4,6]
        Variable s2 = af::square(t);        // saves t as reference+trace
        loss = af::add(af::sumAll(s1), af::sumAll(s2));
    }
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 1);
    // Backward unpacks the trace; gradient of sum(x^2)+sum((x^T)^2) is
    // 4x, identical to the no-marshal case -> replay was exact.
    backward(loss);
    EXPECT_TRUE(allclose(x.grad(), mulScalar(x.data(), 4.0f), 1e-4f,
                         1e-5f));
    EXPECT_GE(ctx.stats().unpacks, 2);
}

TEST_F(MarshalTest, SliceTraceReplaysProducerDirection)
{
    // Save full x first, then a slice of x: walk goes consumer->producer
    // (slice is lossy, so only the producer direction can replay it).
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({6, 4}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x);              // registers x
        Variable sl = af::slice(x, 0, 1, 5);      // [4,4] view
        Variable s2 = af::square(sl);             // saves slice
        loss = af::add(af::sumAll(s1), af::sumAll(s2));
    }
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 1);
    backward(loss);
    // grad = 2x everywhere + extra 2x inside the slice region.
    Tensor g = x.grad();
    EXPECT_NEAR(g.at({0, 0}), 2.0f * x.data().at({0, 0}), 1e-4);
    EXPECT_NEAR(g.at({2, 1}), 4.0f * x.data().at({2, 1}), 1e-4);
}

TEST_F(MarshalTest, StorageIdModeDetectsAllAliases)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kStorageId));
    Variable x(Tensor::rand({8, 8}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x);
        Variable t = af::transpose(x, 0, 1);
        Variable s2 = af::square(t); // same storage id -> reference
        loss = af::add(af::sumAll(s1), af::sumAll(s2));
    }
    EXPECT_EQ(ctx.stats().copies, 1);
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 1);
    backward(loss);
    EXPECT_TRUE(allclose(x.grad(), mulScalar(x.data(), 4.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, OffloadMovesBytesOffGpu)
{
    // With offload, dropping forward temporaries releases GPU memory;
    // the saved payload lives on the CPU until backward.
    DeviceManager &mgr = DeviceManager::instance();
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({64, 64}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable y = af::softmaxLastDim(x); // saves y (offloaded)
        loss = af::sumAll(y);
    }
    // y's GPU tensor is gone (only x + small loss remain); the CPU holds
    // the saved copy.
    EXPECT_EQ(ctx.residentBytes(), 64 * 64 * 4);
    EXPECT_GE(mgr.ledger().d2hTransactions, 1);
    int64_t gpu_now = mgr.stats(Device::gpu(0)).currentBytes;
    EXPECT_LT(gpu_now, 2 * 64 * 64 * 4); // x + scalar, not x + y
    backward(loss);
    EXPECT_GE(mgr.ledger().h2dTransactions, 1); // unpack restored to GPU
}

TEST_F(MarshalTest, OffloadDisabledRetainsOnDevice)
{
    MarshalConfig c = cfg(MarshalConfig::Detection::kGraphWalk);
    c.offloadEnabled = false;
    MarshalContext ctx(c);
    Variable x(Tensor::rand({16, 16}, rng, Device::gpu(0)), true);
    {
        SavedTensorHooksGuard guard(&ctx);
        af::sumAll(af::square(x));
    }
    EXPECT_EQ(ctx.stats().copies, 0);
    EXPECT_EQ(ctx.stats().passthroughs, 1);
    EXPECT_EQ(DeviceManager::instance().ledger().d2hTransactions, 0);
}

TEST_F(MarshalTest, SmallTensorsPassThrough)
{
    MarshalConfig c = cfg(MarshalConfig::Detection::kGraphWalk);
    c.minOffloadBytes = 1 << 20; // 1 MB threshold
    MarshalContext ctx(c);
    Variable x(Tensor::rand({4, 4}, rng, Device::gpu(0)), true);
    {
        SavedTensorHooksGuard guard(&ctx);
        af::sumAll(af::square(x));
    }
    EXPECT_EQ(ctx.stats().copies, 0);
    EXPECT_EQ(ctx.stats().passthroughs, 1);
}

TEST_F(MarshalTest, CpuTensorsNeverOffload)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({16, 16}, rng, Device::cpu()), true);
    {
        SavedTensorHooksGuard guard(&ctx);
        af::sumAll(af::square(x));
    }
    EXPECT_EQ(ctx.stats().copies, 0);
    EXPECT_EQ(DeviceManager::instance().ledger().totalTransactions(), 0);
}

TEST_F(MarshalTest, RegistryEntriesDieWithGraph)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({32, 32}, rng, Device::gpu(0)), true);
    {
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            loss = af::sumAll(af::square(x));
        }
        EXPECT_EQ(ctx.residentBytes(), 32 * 32 * 4);
        backward(loss);
    }
    // Graph (and its saved handles) destroyed -> CPU copy released.
    EXPECT_EQ(ctx.residentBytes(), 0);
}

TEST_F(MarshalTest, AsyncOffloadMatchesSyncBehaviour)
{
    // Same Fig 2 scenario, but copies ride the runtime queue: counters
    // and gradients must match the synchronous path after sync().
    MarshalConfig c = cfg(MarshalConfig::Detection::kGraphWalk);
    c.asyncOffload = true;
    MarshalContext ctx(c);
    Variable x0(Tensor::rand({64, 64}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable x1 = af::view(x0, {-1, 1});
        Variable a = af::square(x1);
        Variable b = af::square(x0);
        loss = af::add(af::sumAll(a), af::sumAll(b));
    }
    ctx.sync();
    EXPECT_EQ(ctx.pendingCopies(), 0);
    const MarshalStats &s = ctx.stats();
    EXPECT_EQ(s.copies, 1);
    EXPECT_EQ(s.duplicatesAvoided, 1);
    EXPECT_EQ(s.asyncCopies, 1);
    EXPECT_EQ(ctx.residentBytes(), 64 * 64 * 4);
    backward(loss); // unpack joins per entry even without sync()
    EXPECT_TRUE(allclose(x0.grad(), mulScalar(x0.data(), 4.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, AsyncStorageIdModeDefersViewReconstruction)
{
    MarshalConfig c = cfg(MarshalConfig::Detection::kStorageId);
    c.asyncOffload = true;
    MarshalContext ctx(c);
    Variable x(Tensor::rand({8, 8}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable s1 = af::square(x);
        Variable t = af::transpose(x, 0, 1);
        Variable s2 = af::square(t); // same storage -> deferred view
        loss = af::add(af::sumAll(s1), af::sumAll(s2));
    }
    EXPECT_EQ(ctx.stats().copies, 1);
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 1);
    backward(loss);
    EXPECT_TRUE(allclose(x.grad(), mulScalar(x.data(), 4.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, OffloadAsyncPrefetchDedupsLaterSaves)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable x(Tensor::rand({32, 32}, rng, Device::gpu(0)), true);
    // Prefetch x's storage before the forward ever saves it.
    ctx.offloadAsync(x.data());
    ctx.sync();
    EXPECT_EQ(ctx.stats().copies, 1);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable a = af::square(x);            // saves x -> prefetch hit
        Variable t = af::transpose(x, 0, 1);
        Variable b = af::square(t);            // view of x -> hit too
        loss = af::add(af::sumAll(a), af::sumAll(b));
    }
    EXPECT_EQ(ctx.stats().copies, 1); // no new copies
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 2);
    backward(loss);
    EXPECT_TRUE(allclose(x.grad(), mulScalar(x.data(), 4.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, DoubleBufferRecyclesOffloadStorage)
{
    MarshalConfig c = cfg(MarshalConfig::Detection::kStorageId);
    c.doubleBuffer = true;
    MarshalContext ctx(c);
    // Steady-state loop: one same-sized prefetch per iteration, none of
    // them saved — from the third offload on, the storage rotated out
    // of the two-deep window is recycled instead of reallocated.
    for (int i = 0; i < 5; ++i) {
        Tensor t = Tensor::rand({64, 64}, rng, Device::gpu(0));
        ctx.offloadAsync(t);
    }
    ctx.sync();
    EXPECT_EQ(ctx.stats().copies, 5);
    EXPECT_EQ(ctx.stats().bufferReuses, 3);
    // Window is bounded: exactly two snapshots stay resident.
    EXPECT_EQ(ctx.residentBytes(), 2 * 64 * 64 * 4);
}

TEST_F(MarshalTest, DoubleBufferOffByDefaultNeverRecycles)
{
    MarshalContext ctx(cfg(MarshalConfig::Detection::kStorageId));
    for (int i = 0; i < 4; ++i) {
        Tensor t = Tensor::rand({32, 32}, rng, Device::gpu(0));
        ctx.offloadAsync(t);
    }
    ctx.sync();
    EXPECT_EQ(ctx.stats().bufferReuses, 0);
    EXPECT_EQ(ctx.residentBytes(), 4 * 32 * 32 * 4);
}

TEST_F(MarshalTest, DoubleBufferSkipsReuseWhileSnapshotReferenced)
{
    MarshalConfig c = cfg(MarshalConfig::Detection::kStorageId);
    c.doubleBuffer = true;
    MarshalContext ctx(c);

    // Save a view of the first prefetched tensor: its snapshot is
    // referenced by a live pack handle, so the rotation must NOT steal
    // that storage — unpack must still see the original bytes.
    Variable x(Tensor::rand({16, 16}, rng, Device::gpu(0)), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        ctx.offloadAsync(x.data());
        loss = af::sumAll(af::square(x)); // saves x -> prefetch hit
    }
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 1);
    for (int i = 0; i < 3; ++i) {
        Tensor t = Tensor::rand({16, 16}, rng, Device::gpu(0));
        ctx.offloadAsync(t);
    }
    ctx.sync();
    // The rotation that would have stolen x's snapshot skipped it; the
    // later unreferenced snapshots still recycle among themselves.
    backward(loss);
    EXPECT_TRUE(allclose(x.grad(), mulScalar(x.data(), 2.0f), 1e-4f,
                         1e-5f));
}

TEST_F(MarshalTest, DoubleBufferAsyncMatchesSync)
{
    for (bool async : {false, true}) {
        MarshalConfig c = cfg(MarshalConfig::Detection::kStorageId);
        c.doubleBuffer = true;
        c.asyncOffload = async;
        MarshalContext ctx(c);
        Tensor last;
        for (int i = 0; i < 4; ++i) {
            last = Tensor::rand({48, 48}, rng, Device::gpu(0));
            ctx.offloadAsync(last);
        }
        ctx.sync();
        EXPECT_EQ(ctx.stats().copies, 4) << "async=" << async;
        // Offloads 3 and 4 each recycle the snapshot from two calls
        // earlier; the async leg waits on that copy, so it reuses the
        // same number of buffers as the sync leg.
        EXPECT_EQ(ctx.stats().bufferReuses, 2) << "async=" << async;
        // The newest snapshot still dedups a save of its tensor.
        Variable v(last, true);
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            loss = af::sumAll(af::square(v));
        }
        EXPECT_EQ(ctx.stats().duplicatesAvoided, 1) << "async=" << async;
        backward(loss);
        EXPECT_TRUE(allclose(v.grad(), mulScalar(last, 2.0f), 1e-4f,
                             1e-5f));
    }
}

TEST_F(MarshalTest, CrossIterationDedupOfReusedInput)
{
    // The same weight variable saved in every "iteration" (as in the
    // DKM loop) copies once and references afterwards.
    MarshalContext ctx(cfg(MarshalConfig::Detection::kGraphWalk));
    Variable w(Tensor::rand({32, 1}, rng, Device::gpu(0)), true);
    Variable acc;
    {
        SavedTensorHooksGuard guard(&ctx);
        for (int i = 0; i < 5; ++i) {
            Variable term = af::sumAll(af::square(w)); // saves w each time
            acc = acc.defined() ? af::add(acc, term) : term;
        }
    }
    EXPECT_EQ(ctx.stats().copies, 1);
    EXPECT_EQ(ctx.stats().duplicatesAvoided, 4);
    backward(acc);
    EXPECT_TRUE(allclose(w.grad(), mulScalar(w.data(), 10.0f), 1e-4f,
                         1e-5f));
}

} // namespace
} // namespace edkm
