/**
 * @file
 * Palettized (weight-clustered) tensor format.
 *
 * The deployable artifact of weight clustering: a lookup table of
 * centroids plus a bitstream of n-bit indices, the format consumed by
 * mobile inference accelerators (the paper cites Core ML's training-time
 * palettization). Includes (de)serialisation so compressed models can be
 * written to disk and reloaded for inference.
 */

#ifndef EDKM_CORE_PALETTIZE_H_
#define EDKM_CORE_PALETTIZE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace edkm {

/** Pack @p values (each < 2^bits) into a dense little-endian bitstream. */
std::vector<uint8_t> packBits(const std::vector<int32_t> &values, int bits);

/** Inverse of packBits for @p n values. */
std::vector<int32_t> unpackBits(const std::vector<uint8_t> &stream,
                                int bits, int64_t n);

/**
 * Random-access read of the @p i-th @p bits-wide value of a packBits
 * stream. Touches only the bytes holding the value, so it is safe up to
 * the last element of a minimally-sized stream. (The implementation
 * lives in kernels/kernels.h so the fused palette-decode kernels can
 * use it without a core/ dependency; this re-export keeps the historic
 * edkm:: spelling.)
 */
using kernels::unpackBitsAt;

/**
 * Tiled copy of a 2-d palettized weight's index stream: the layout the
 * fused m==1 decode reads (kernels.h, "Tiled palette indices"). Built
 * once per weight by its owner — the PalettizedTensor, or the
 * ArtifactReader at open — and shared read-only by every view.
 */
using PaletteTiles = std::vector<uint8_t>;

/** Tile the [shape[0], shape[1]] index stream @p packed; null unless
 *  @p shape is 2-d. */
std::shared_ptr<const PaletteTiles>
buildPaletteTiles(const uint8_t *packed, int bits, const Shape &shape);

/**
 * A weight tensor compressed to `bits` per weight via clustering:
 * lookup table (stored in FP16, as deployed) + packed index bitstream.
 */
class PalettizedTensor
{
  public:
    PalettizedTensor() = default;

    /**
     * Hard-cluster @p w to 2^bits centroids with k-means and palettize.
     */
    static PalettizedTensor fromDense(const Tensor &w, int bits, Rng &rng,
                                      int kmeans_iters = 25);

    /**
     * Palettize with externally computed clustering (e.g. DKM/eDKM
     * centroids and assignments).
     */
    static PalettizedTensor fromAssignments(
        Shape shape, const std::vector<float> &lut,
        const std::vector<int32_t> &assignments, int bits);

    /** Reconstruct the dense tensor on @p dev. */
    Tensor decompress(Device dev = Device::cpu()) const;

    int bits() const { return bits_; }
    const Shape &shape() const { return shape_; }
    int64_t numel() const;
    const std::vector<float> &lut() const { return lut_; }

    /** Packed n-bit index bitstream (row-major element order). */
    const std::vector<uint8_t> &packed() const { return packed_; }

    /** The tiled indices, built once with the tensor (null unless
     *  2-d); copies of the tensor share them. */
    const std::shared_ptr<const PaletteTiles> &tiles() const
    {
        return tiles_;
    }

    /** Serialized size: packed indices + FP16 LUT + header. */
    int64_t payloadBytes() const;

    /** Effective bits per weight including LUT overhead. */
    double bitsPerWeight() const;

    /** Binary serialisation (stable little-endian format). */
    std::vector<uint8_t> serialize() const;
    static PalettizedTensor deserialize(const std::vector<uint8_t> &bytes);

    /** File convenience wrappers around (de)serialize. */
    void save(const std::string &path) const;
    static PalettizedTensor load(const std::string &path);

  private:
    Shape shape_;
    int bits_ = 0;
    std::vector<float> lut_;       ///< 2^bits centroids (f32 mirror)
    std::vector<uint8_t> packed_;  ///< n-bit index bitstream
    std::shared_ptr<const PaletteTiles> tiles_; ///< tiled packed_
};

/**
 * Non-owning view of a palettized weight: the decoded f32 LUT (2^bits
 * floats, tiny) plus a borrowed pointer to the packed index bitstream —
 * typically a payload section of an mmap-ed model artifact. @p owner
 * pins the backing memory; serving consumes the view directly through
 * paletteMatmulT / paletteGatherRows without ever decoding the dense
 * tensor.
 *
 * @p tiles is the same index stream in the tiled layout, which the
 * fused m==1 decode reads. It is shared with the weight's owner, never
 * built per view: ArtifactReader::paletteView hands every engine the
 * reader's copy, viewOf the PalettizedTensor's. A view without tiles
 * (parsePaletteView alone) decodes m==1 through the staged path.
 */
struct PaletteView
{
    Shape shape;
    int bits = 0;
    std::vector<float> lut;            ///< f32 mirror of the FP16 LUT
    const uint8_t *packed = nullptr;   ///< packBits stream, borrowed
    int64_t packedBytes = 0;
    std::shared_ptr<const void> owner; ///< keep-alive for @p packed
    std::shared_ptr<const PaletteTiles> tiles; ///< shared tiled indices
};

/**
 * Parse a PalettizedTensor::serialize payload into a view: header and
 * LUT are decoded (validated like deserialize), the index bitstream is
 * borrowed from @p bytes in place. @p owner is stored in the view; the
 * view has no tiles (the caller that owns the bytes attaches them).
 */
PaletteView parsePaletteView(const uint8_t *bytes, size_t size,
                             std::shared_ptr<const void> owner);

/** View over an owned PalettizedTensor (@p p must outlive the view);
 *  shares @p p's tiles. */
PaletteView viewOf(const PalettizedTensor &p);

/**
 * y = x · W^T with W in LUT+index form: bit-identical to
 * matmul(x, transpose(decompress())) while the dense weight is never
 * materialised.
 *
 * Two internal paths, bit-identical to each other by construction:
 *   - m == 1 (the serving decode hot path, more than one output
 *     column, the view carries tiles): the *fused* kernel — tiled
 *     indices -> LUT permutes (gathers above 4 bits) ->
 *     multiply-accumulate straight into the output, no staging buffer
 *     (kernels::KernelTable::paletteDotFused, parallel over output-
 *     column chunks that start on tile boundaries).
 *   - everything else (prefill, batched decode, single-output, no
 *     tiles), or when the fused path is disabled: the staged path —
 *     the packed stream decoded through gatherU16 in blocks and
 *     streamed through matmulStreamed.
 * When @p fused is given, it is set to whether this call took the
 * fused path (per-caller stats such as serve::EngineStats, which a
 * process-wide counter would mix up between concurrent engines).
 */
Tensor paletteMatmulT(const Tensor &x, const PaletteView &w,
                      bool *fused = nullptr);

/** The always-staged reference path (decode tiles, then accumulate);
 *  what paletteMatmulT uses outside the fused m==1 case. Exposed so
 *  tests and benches can A/B the two in one process. */
Tensor paletteMatmulTStaged(const Tensor &x, const PaletteView &w);

/** Programmatic switch for the fused m==1 decode path. Defaults to on
 *  unless EDKM_FUSED_DECODE=off|0|false|staged is set at startup. Both
 *  paths are bit-identical (ctest-gated), so this is an A/B and escape
 *  hatch, never a numerics knob. */
void setPaletteFusedDecode(bool on);
bool paletteFusedDecodeEnabled();

/**
 * Embedding lookup from a palettized [vocab, dim] table: out[i, :] is
 * row tokens[i], decoded LUT-value-for-value — bit-identical to
 * gatherRows(decompress(), tokens) without the dense table.
 */
Tensor paletteGatherRows(const PaletteView &table, const Tensor &tokens);

} // namespace edkm

#endif // EDKM_CORE_PALETTIZE_H_
