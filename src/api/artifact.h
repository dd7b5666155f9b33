/**
 * @file
 * Model-level compression artifact.
 *
 * A ModelArtifact is the whole-model counterpart of PalettizedTensor:
 * a manifest (scheme, model geometry, accounting) plus one payload per
 * parameter, each encoded with the codec its scheme produced
 * (palettized LUT+indices, affine-quantised groups, dense FP16, or raw
 * FP32 for parameters a plan left untouched). save/load round-trips
 * the file bit-exactly, and reconstruct() rebuilds a MiniLlama whose
 * weights are bit-identical to the in-memory model the compression run
 * left behind: every codec decodes to exactly the tensor the adapter
 * installed.
 *
 * On-disk container (v2, the only one; see docs/artifact_v2.md): a
 * 64-byte header, a manifest describing every tensor, a section table,
 * then one 64-byte-aligned payload section per tensor. The layout is
 * mmap-friendly — serve/ArtifactReader maps the file read-only and
 * consumes payload sections in place, without the up-front dense decode
 * this class's reconstruct() performs. Only v2 loads: any other magic,
 * the old v1 single-stream format's included, fails.
 *
 * The manifest's SizeReport is *accounting* (deployed bytes at the
 * scheme's storage format); the container itself trades a few bytes
 * for losslessness, e.g. skipped layers ship as raw FP32.
 */

#ifndef EDKM_API_ARTIFACT_H_
#define EDKM_API_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/compress.h"
#include "nn/transformer.h"
#include "tensor/tensor.h"
#include "util/serial.h"

namespace edkm {
namespace api {

/** Payload encodings a ModelArtifact entry can use. */
enum class Codec : uint32_t {
    kRawF32 = 0,     ///< little-endian f32 stream (lossless)
    kDenseF16 = 1,   ///< fp16 halfword stream (weights live on fp16 grid)
    kPalettized = 2, ///< PalettizedTensor::serialize bytes
    kAffine = 3,     ///< quant::QuantizedMatrix::serialize bytes
};

/** Human-readable codec tag ("raw_f32", "palettized", ...). */
std::string codecName(Codec codec);

/** Container format versions understood by deserialize/load. */
constexpr uint32_t kArtifactVersionV2 = 2;

/** Alignment of the v2 section table and every payload section. */
constexpr int64_t kArtifactAlign = 64;

/**
 * Header flags bit: the container carries a v2.1 checksum table (one
 * 64-bit digest of header+manifest+section table, then one 64-bit
 * checksum per payload section) at the file offset stored in the
 * header word that v2.0 wrote as reserved-zero. Files without the bit
 * are plain v2.0 and skip verification; files with it still parse in
 * v2.0 readers, which ignore flags and never read the reserved word.
 */
constexpr uint32_t kArtifactFlagChecksums = 1u;

/** One parameter's payload. */
struct ArtifactEntry
{
    std::string name; ///< dotted parameter path ("blocks.0.attn.wq.weight")
    Codec codec = Codec::kRawF32;
    int bits = 0;  ///< nominal bits/weight (0 = uncompressed)
    Shape shape;
    std::vector<uint8_t> payload;

    /** Decode the payload back to a dense f32 tensor. */
    Tensor decode() const;

    int64_t
    payloadBytes() const
    {
        return static_cast<int64_t>(payload.size());
    }
};

/** Encode helpers used by compressor adapters and the session. */
ArtifactEntry encodeRawF32(const std::string &name, const Tensor &t);
ArtifactEntry encodeDenseF16(const std::string &name, const Tensor &t,
                             int bits);

/**
 * Manifest-level description of one v2 payload section: entry metadata
 * plus where its bytes live in the container. Offsets are absolute file
 * offsets, kArtifactAlign-aligned.
 */
struct TensorSection
{
    std::string name;
    Codec codec = Codec::kRawF32;
    int bits = 0;
    Shape shape;
    int64_t offset = 0; ///< absolute, kArtifactAlign-aligned
    int64_t bytes = 0;
    /** v2.1: checksum64 of the payload bytes [offset, offset+bytes).
     *  Only meaningful when the layout's hasChecksums is set. */
    uint64_t checksum = 0;
};

/**
 * Everything a v2 container declares ahead of its payload bytes. The
 * parse validates header/manifest/section-table consistency (bounds,
 * alignment, overlap) without touching payload sections, which is what
 * lets serve/ArtifactReader map a file and consume it lazily. Lookup
 * by name lives in ArtifactReader (indexed).
 */
struct ArtifactLayout
{
    std::string scheme;
    nn::LlamaConfig config;
    eval::SizeReport size;
    std::vector<TensorSection> sections;
    /** v2.1: the container carries a checksum table (see
     *  kArtifactFlagChecksums); parse verified the header digest and
     *  populated each section's checksum. */
    bool hasChecksums = false;
    /** Digest of bytes [0, section table end) — header, manifest and
     *  section table together. */
    uint64_t headerDigest = 0;
    /** Absolute offset of the checksum table ([digest][per-section...]),
     *  0 when hasChecksums is false. */
    int64_t checksumTableOffset = 0;
};

/** True when @p data starts with the v2 container magic. */
bool isArtifactV2(const uint8_t *data, size_t size);

/**
 * Parse and validate a v2 container's header, manifest and section
 * table from @p data (the whole file, typically an mmap). Throws
 * FatalError with the offending section's name on any inconsistency;
 * payload bytes themselves are not read.
 */
ArtifactLayout parseArtifactLayout(const uint8_t *data, size_t size);

/**
 * Verify one payload section of @p layout against the file bytes at
 * @p data (the whole container, the same base parseArtifactLayout
 * saw). Throws FatalError naming the section on a checksum mismatch;
 * no-op when the layout carries no checksums (v2.0 files).
 */
void verifyArtifactSection(const ArtifactLayout &layout,
                           const TensorSection &s, const uint8_t *data);

/** A compressed model: manifest + per-parameter payloads. */
class ModelArtifact
{
  public:
    ModelArtifact() = default;

    std::string scheme;        ///< registry name that produced this
    nn::LlamaConfig config;    ///< geometry needed to reconstruct
    eval::SizeReport size;     ///< accounting (deployed format)
    std::vector<ArtifactEntry> entries;

    /** Entry for parameter @p name; throws FatalError when absent. */
    const ArtifactEntry &entry(const std::string &name) const;

    /** Total serialized payload bytes (excluding manifest strings). */
    int64_t payloadBytes() const;

    /**
     * Rebuild a MiniLlama: construct at the manifest geometry, then
     * install every parameter from its decoded payload. Throws when a
     * parameter has no entry or shapes disagree.
     */
    nn::MiniLlama reconstruct() const;

    /** Install the payloads into an existing compatible model. */
    void restoreInto(nn::MiniLlama &model) const;

    /**
     * Binary serialisation. serialize() emits the sectioned, aligned
     * v2 container — by default v2.1, with a per-section checksum
     * table appended and flagged in the header; pass
     * @p with_checksums=false for a plain v2.0 file (compat tooling
     * and the format tests). deserialize() accepts both and rejects
     * any other magic; checksums, when present, are verified (every
     * section) before any payload is decoded. The
     * span overload parses in place (e.g. straight from a file
     * mapping), copying only payloads.
     */
    std::vector<uint8_t> serialize(bool with_checksums = true) const;
    static ModelArtifact deserialize(serial::ByteSpan bytes);
    static ModelArtifact deserialize(const std::vector<uint8_t> &bytes)
    {
        return deserialize(serial::ByteSpan(bytes));
    }

    /** File convenience wrappers around (de)serialize. */
    void save(const std::string &path) const;
    static ModelArtifact load(const std::string &path);
};

} // namespace api
} // namespace edkm

#endif // EDKM_API_ARTIFACT_H_
