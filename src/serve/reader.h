/**
 * @file
 * Zero-copy artifact access for serving.
 *
 * ArtifactReader opens a saved ModelArtifact file for *consumption*:
 * the v2 container is mapped read-only (mmap where available, with a
 * portable whole-file read fallback — EDKM_NO_MMAP=1 forces it) and
 * payload sections are handed out in place:
 *
 *   - denseView():   borrowed Tensor over a raw_f32 / dense_f16 section
 *                    (no copy; Storage in borrowed mode keeps the
 *                    mapping alive).
 *   - paletteView(): LUT + borrowed index bitstream of a palettized
 *                    section, plus the reader's tiled copy of its
 *                    indices, consumed directly by paletteMatmulT.
 *   - decode():      eager dense f32 decode of any section, bit-
 *                    identical to ArtifactEntry::decode.
 *
 * v2.1 checksummed containers are verified on the way in: the header /
 * manifest / section-table digest is always checked at open (inside
 * parseArtifactLayout), and payload sections are checked against their
 * per-section checksum under a VerifyMode — kEager checks every
 * section at open, kLazy (the default) checks each section once on its
 * first payload() view from whichever thread gets there first, kOff
 * trusts the bytes. The EDKM_VERIFY=eager|lazy|off environment knob
 * selects the mode for the env-driven open(); a corruption error
 * always names the bad section. Files without checksums (v2.0) skip
 * payload verification entirely. Any other magic, the retired v1
 * stream's included, fails open().
 */

#ifndef EDKM_SERVE_READER_H_
#define EDKM_SERVE_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/artifact.h"
#include "core/palettize.h"
#include "tensor/tensor.h"

namespace edkm {
namespace serve {

/**
 * A read-only byte source for one artifact file: an mmap-ed range or a
 * heap copy (read fallback). Borrowed storages hold it via
 * shared_ptr, so views outlive the reader safely.
 */
class FileMapping
{
  public:
    /** Map (or read) @p path. @p force_read skips mmap. */
    static std::shared_ptr<FileMapping> open(const std::string &path,
                                             bool force_read);

    ~FileMapping();

    FileMapping(const FileMapping &) = delete;
    FileMapping &operator=(const FileMapping &) = delete;

    const uint8_t *data() const { return data_; }
    size_t size() const { return size_; }

    /** True when the bytes are an actual file mapping (not a copy). */
    bool mapped() const { return mapped_; }

  private:
    FileMapping() = default;

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    bool mapped_ = false;
    std::vector<uint8_t> heap_; ///< fallback bytes when !mapped_
};

/** When payload sections are checked against their v2.1 checksums. */
enum class VerifyMode {
    kOff,   ///< trust the bytes (structural digest still checked)
    kLazy,  ///< each section once, on first payload() view (default)
    kEager, ///< every section at open()
};

/** Serving-side view into one saved model artifact. */
class ArtifactReader
{
  public:
    /**
     * Open @p path. The v2 container is validated (header, manifest,
     * section table) without touching payload bytes. Throws FatalError
     * on a bad magic, and with the offending section named on any
     * corruption. The verify mode is read from
     * EDKM_VERIFY (eager|lazy|off; unset/empty means lazy; anything
     * else throws).
     */
    static std::shared_ptr<ArtifactReader> open(const std::string &path);

    /** Open @p path with an explicit payload verify mode. */
    static std::shared_ptr<ArtifactReader> open(const std::string &path,
                                                VerifyMode verify);

    /** Payload verification policy this reader was opened with. */
    VerifyMode verifyMode() const { return verify_; }

    /** True when the container carries a v2.1 checksum table. */
    bool hasChecksums() const { return layout_.hasChecksums; }

    /** Payload sections checksum-verified so far (eager: all at open;
     *  lazy: grows with first views; off / no checksums: stays 0). */
    int64_t sectionsVerified() const
    {
        return verified_count_.load(std::memory_order_relaxed);
    }

    /** Verify every not-yet-verified payload section now (what kEager
     *  does at open). No-op without checksums or in kOff. */
    void verifyAll() const;

    /** Container version of the underlying file (always 2). */
    uint32_t version() const { return version_; }

    /** True when payloads are served from an actual file mapping. */
    bool mapped() const { return mapping_ && mapping_->mapped(); }

    int64_t fileBytes() const;

    const std::string &scheme() const { return layout_.scheme; }
    const nn::LlamaConfig &config() const { return layout_.config; }
    const eval::SizeReport &sizeReport() const { return layout_.size; }

    /** All payload sections, in container order. */
    const std::vector<api::TensorSection> &sections() const
    {
        return layout_.sections;
    }

    bool contains(const std::string &name) const;

    /** Section metadata for @p name (indexed lookup); throws when
     *  absent. */
    const api::TensorSection &section(const std::string &name) const;

    /** Borrowed pointer to @p s's payload bytes (alive with reader or
     *  any view derived from it). */
    const uint8_t *payload(const api::TensorSection &s) const;

    /**
     * Zero-copy dense tensor over a raw_f32 or dense_f16 section: a
     * borrowed-storage Tensor of the section's shape and storage dtype
     * (kF32 / kF16). Throws for other codecs. The returned tensor must
     * be treated read-only.
     */
    Tensor denseView(const std::string &name) const;

    /** Zero-copy palette view over a palettized section. Every view of
     *  a section shares the tiles the reader built for it at open. */
    PaletteView paletteView(const std::string &name) const;

    /**
     * Bytes of the tiled palette indices built at open, one copy per
     * 2-d palettized section (kernels.h, "Tiled palette indices"). Like
     * the mapping they are weight storage, resident for the reader's
     * lifetime and shared by every engine on it; they are not
     * DeviceManager activation bytes.
     */
    int64_t tileBytes() const { return tile_bytes_; }

    /**
     * Eager dense f32 decode of any section — bit-identical to the
     * ArtifactEntry::decode a ModelArtifact::load would perform.
     */
    Tensor decode(const std::string &name) const;

    /** Materialise the whole artifact (tooling / compat). */
    api::ModelArtifact toArtifact() const;

  private:
    ArtifactReader() = default;

    /** The keep-alive token borrowed storages should hold. */
    std::shared_ptr<const void> keepAlive() const;

    /** Rebuild the name -> section index after layout_ is filled. */
    void buildIndex();

    /** Tile every 2-d palettized section (the open-time repack). */
    void buildTiles();

    /** @p s's payload bytes, without verification. */
    const uint8_t *rawPayload(const api::TensorSection &s) const;

    /** Checksum @p s once (thread-safe, idempotent); throws naming the
     *  section on mismatch. */
    void verifySection(const api::TensorSection &s) const;

    uint32_t version_ = 0;
    int64_t file_bytes_ = 0;
    VerifyMode verify_ = VerifyMode::kLazy;
    api::ArtifactLayout layout_;
    std::unordered_map<std::string, size_t> index_;
    /** Lazy verification bookkeeping: one sticky flag per section.
     *  Concurrent first views may both compute the checksum (benign —
     *  verification is read-only and idempotent); the flag just stops
     *  every later view from paying for it again. */
    mutable std::unique_ptr<std::atomic<bool>[]> verified_;
    mutable std::atomic<int64_t> verified_count_{0};
    std::shared_ptr<FileMapping> mapping_;
    /** Tiled indices per section (by index; null when not tiled). */
    std::vector<std::shared_ptr<const PaletteTiles>> tiles_;
    int64_t tile_bytes_ = 0;
};

} // namespace serve
} // namespace edkm

#endif // EDKM_SERVE_READER_H_
