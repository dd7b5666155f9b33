#include "api/artifact.h"

#include <cstring>
#include <fstream>

#include "core/palettize.h"
#include "quant/affine.h"
#include "util/checksum.h"
#include "util/half.h"
#include "util/logging.h"
#include "util/serial.h"

namespace edkm {
namespace api {

std::string
codecName(Codec codec)
{
    switch (codec) {
      case Codec::kRawF32: return "raw_f32";
      case Codec::kDenseF16: return "dense_f16";
      case Codec::kPalettized: return "palettized";
      case Codec::kAffine: return "affine";
    }
    return "unknown";
}

Tensor
ArtifactEntry::decode() const
{
    int64_t n = 1;
    for (int64_t d : shape) {
        n *= d;
    }
    switch (codec) {
      case Codec::kRawF32: {
          EDKM_CHECK(static_cast<int64_t>(payload.size()) == n * 4,
                     "artifact entry '", name, "': raw_f32 payload is ",
                     payload.size(), " bytes, expected ", n * 4);
          std::vector<float> vals(static_cast<size_t>(n));
          std::memcpy(vals.data(), payload.data(), payload.size());
          return Tensor::fromVector(vals, shape);
      }
      case Codec::kDenseF16: {
          EDKM_CHECK(static_cast<int64_t>(payload.size()) == n * 2,
                     "artifact entry '", name, "': dense_f16 payload is ",
                     payload.size(), " bytes, expected ", n * 2);
          std::vector<float> vals(static_cast<size_t>(n));
          for (int64_t i = 0; i < n; ++i) {
              uint16_t h;
              std::memcpy(&h, payload.data() + i * 2, 2);
              vals[static_cast<size_t>(i)] = fp16ToFloat(h);
          }
          return Tensor::fromVector(vals, shape);
      }
      case Codec::kPalettized: {
          PalettizedTensor p = PalettizedTensor::deserialize(payload);
          EDKM_CHECK(p.shape() == shape, "artifact entry '", name,
                     "': palettized payload shape disagrees with the "
                     "manifest");
          return p.decompress();
      }
      case Codec::kAffine: {
          quant::QuantizedMatrix q =
              quant::QuantizedMatrix::deserialize(payload);
          EDKM_CHECK(q.shape == shape, "artifact entry '", name,
                     "': affine payload shape disagrees with the "
                     "manifest");
          return q.dequantize();
      }
    }
    fatal("artifact entry '", name, "': unknown codec ",
          static_cast<uint32_t>(codec));
}

ArtifactEntry
encodeRawF32(const std::string &name, const Tensor &t)
{
    ArtifactEntry e;
    e.name = name;
    e.codec = Codec::kRawF32;
    e.bits = 0;
    e.shape = t.shape();
    std::vector<float> vals = t.toVector();
    e.payload.resize(vals.size() * 4);
    std::memcpy(e.payload.data(), vals.data(), e.payload.size());
    return e;
}

ArtifactEntry
encodeDenseF16(const std::string &name, const Tensor &t, int bits)
{
    ArtifactEntry e;
    e.name = name;
    e.codec = Codec::kDenseF16;
    e.bits = bits;
    e.shape = t.shape();
    std::vector<float> vals = t.toVector();
    e.payload.resize(vals.size() * 2);
    for (size_t i = 0; i < vals.size(); ++i) {
        uint16_t h = floatToFp16(vals[i]);
        std::memcpy(e.payload.data() + i * 2, &h, 2);
    }
    return e;
}

const ArtifactEntry &
ModelArtifact::entry(const std::string &name) const
{
    for (const ArtifactEntry &e : entries) {
        if (e.name == name) {
            return e;
        }
    }
    fatal("artifact: no entry for parameter '", name, "' (",
          entries.size(), " entries present)");
}

int64_t
ModelArtifact::payloadBytes() const
{
    int64_t total = 0;
    for (const ArtifactEntry &e : entries) {
        total += e.payloadBytes();
    }
    return total;
}

void
ModelArtifact::restoreInto(nn::MiniLlama &model) const
{
    for (auto &[name, param] : model.namedParameters()) {
        const ArtifactEntry &e = entry(name);
        Tensor t = e.decode();
        EDKM_CHECK(t.shape() == param.data().shape(), "artifact: entry '",
                   name, "' shape disagrees with the model");
        param.mutableData() = t;
    }
}

nn::MiniLlama
ModelArtifact::reconstruct() const
{
    nn::MiniLlama model(config);
    restoreInto(model);
    return model;
}

namespace {

constexpr uint64_t kArtifactMagicV2 = 0x324c444d4d4b4445ull; // "EDKMMDL2"

/** Round @p x up to the container alignment. */
int64_t
alignUp(int64_t x)
{
    return (x + kArtifactAlign - 1) / kArtifactAlign * kArtifactAlign;
}

/**
 * Metadata of one v2 manifest record, validated on read: codec range,
 * bits range, rank/dimension sanity, element-count overflow. @p where
 * names the failing entry in errors.
 */
struct EntryMeta
{
    std::string name;
    Codec codec = Codec::kRawF32;
    int bits = 0;
    Shape shape;
    int64_t numel = 1;
};

EntryMeta
readEntryMeta(serial::ByteSpan span, size_t &at, const char *where)
{
    EntryMeta m;
    m.name = serial::readString(span, at);
    uint32_t codec = serial::readPod<uint32_t>(span, at);
    EDKM_CHECK(codec <= static_cast<uint32_t>(Codec::kAffine), where,
               ": entry '", m.name, "' has unknown codec ", codec);
    m.codec = static_cast<Codec>(codec);
    m.bits = static_cast<int>(serial::readPod<int32_t>(span, at));
    EDKM_CHECK(m.bits >= 0 && m.bits <= 32, where, ": entry '", m.name,
               "' has bad bits ", m.bits);
    uint32_t rank = serial::readPod<uint32_t>(span, at);
    EDKM_CHECK(rank >= 1 && rank <= 8, where, ": entry '", m.name,
               "' has bad rank ", rank);
    m.shape.resize(rank);
    for (uint32_t d = 0; d < rank; ++d) {
        m.shape[d] = serial::readPod<int64_t>(span, at);
        EDKM_CHECK(m.shape[d] > 0, where, ": entry '", m.name,
                   "' has bad dimension ", m.shape[d]);
        EDKM_CHECK(m.numel <= (int64_t{1} << 48) / m.shape[d], where,
                   ": entry '", m.name, "' element count overflows");
        m.numel *= m.shape[d];
    }
    return m;
}

void
appendEntryMeta(std::vector<uint8_t> &buf, const ArtifactEntry &e)
{
    serial::appendString(buf, e.name);
    serial::appendPod(buf, static_cast<uint32_t>(e.codec));
    serial::appendPod(buf, static_cast<int32_t>(e.bits));
    serial::appendPod(buf, static_cast<uint32_t>(e.shape.size()));
    for (int64_t d : e.shape) {
        serial::appendPod(buf, d);
    }
}

void
appendManifestHead(std::vector<uint8_t> &buf, const ModelArtifact &a)
{
    serial::appendString(buf, a.scheme);
    serial::appendPod(buf, a.config.vocab);
    serial::appendPod(buf, a.config.dim);
    serial::appendPod(buf, a.config.heads);
    serial::appendPod(buf, a.config.layers);
    serial::appendPod(buf, a.config.hidden);
    serial::appendPod(buf, a.config.seed);
    serial::appendString(buf, a.size.scheme);
    serial::appendPod(buf, a.size.payloadBytes);
    serial::appendPod(buf, a.size.bitsPerWeight);
    serial::appendPod(buf, a.size.projectedGb7B);
}

/** Reads scheme/config/size-report into @p layout-shaped fields. */
void
readManifestHead(serial::ByteSpan span, size_t &at, std::string &scheme,
                 nn::LlamaConfig &config, eval::SizeReport &size,
                 const char *where)
{
    scheme = serial::readString(span, at);
    config.vocab = serial::readPod<int64_t>(span, at);
    config.dim = serial::readPod<int64_t>(span, at);
    config.heads = serial::readPod<int64_t>(span, at);
    config.layers = serial::readPod<int64_t>(span, at);
    config.hidden = serial::readPod<int64_t>(span, at);
    config.seed = serial::readPod<uint64_t>(span, at);
    EDKM_CHECK(config.vocab > 0 && config.dim > 0 && config.heads > 0 &&
                   config.layers > 0 && config.hidden >= 0,
               where, ": bad model geometry");
    size.scheme = serial::readString(span, at);
    size.payloadBytes = serial::readPod<int64_t>(span, at);
    size.bitsPerWeight = serial::readPod<double>(span, at);
    size.projectedGb7B = serial::readPod<double>(span, at);
}

} // namespace

bool
isArtifactV2(const uint8_t *data, size_t size)
{
    if (size < sizeof(uint64_t)) {
        return false;
    }
    uint64_t magic;
    std::memcpy(&magic, data, sizeof(magic));
    return magic == kArtifactMagicV2;
}

ArtifactLayout
parseArtifactLayout(const uint8_t *data, size_t size)
{
    constexpr const char *where = "artifact v2";
    serial::ByteSpan file(data, size);
    EDKM_CHECK(size >= static_cast<size_t>(kArtifactAlign), where,
               ": file is ", size, " bytes, smaller than the ",
               kArtifactAlign, "-byte header");

    size_t at = 0;
    uint64_t magic = serial::readPod<uint64_t>(file, at);
    EDKM_CHECK(magic == kArtifactMagicV2, where,
               ": bad magic (not an eDKM v2 model artifact)");
    uint32_t version = serial::readPod<uint32_t>(file, at);
    EDKM_CHECK(version == kArtifactVersionV2, where,
               ": unsupported container version ", version,
               " (this build reads v", kArtifactVersionV2, ")");
    uint32_t header_bytes = serial::readPod<uint32_t>(file, at);
    EDKM_CHECK(header_bytes == kArtifactAlign, where,
               ": header declares ", header_bytes,
               " header bytes, expected ", kArtifactAlign);
    uint64_t manifest_off = serial::readPod<uint64_t>(file, at);
    uint64_t manifest_bytes = serial::readPod<uint64_t>(file, at);
    uint64_t table_off = serial::readPod<uint64_t>(file, at);
    uint32_t section_count = serial::readPod<uint32_t>(file, at);
    // flags: bit 0 = checksum table present (v2.1). Unknown bits stay
    // ignored, matching the v2.0 "reserved, ignored on read" policy.
    uint32_t flags = serial::readPod<uint32_t>(file, at);
    uint64_t file_bytes = serial::readPod<uint64_t>(file, at);
    // v2.0 wrote this word as reserved-zero and never read it back;
    // v2.1 stores the checksum-table offset here, which is what keeps
    // checksummed files readable by v2.0 parsers.
    uint64_t checksum_off = serial::readPod<uint64_t>(file, at);
    EDKM_CHECK(file_bytes == size, where, ": header declares ",
               file_bytes, " file bytes but ", size,
               " are present (truncated or padded file)");
    EDKM_CHECK(manifest_off == static_cast<uint64_t>(kArtifactAlign),
               where, ": manifest offset ", manifest_off,
               " (expected ", kArtifactAlign, ")");
    EDKM_CHECK(manifest_bytes <= size - manifest_off, where,
               ": manifest (", manifest_bytes,
               " bytes) runs past the end of the file");
    EDKM_CHECK(table_off % kArtifactAlign == 0, where,
               ": section table offset ", table_off, " is not ",
               kArtifactAlign, "-byte aligned");
    EDKM_CHECK(table_off >= manifest_off + manifest_bytes, where,
               ": section table overlaps the manifest");
    EDKM_CHECK(table_off <= size &&
                   static_cast<uint64_t>(section_count) * 16 <=
                       size - table_off,
               where, ": section table (", section_count,
               " sections at offset ", table_off,
               ") runs past the end of the file");

    // Manifest: scheme, geometry, accounting, per-tensor metadata.
    ArtifactLayout layout;
    serial::ByteSpan manifest(data + manifest_off,
                              static_cast<size_t>(manifest_bytes));
    size_t mat = 0;
    readManifestHead(manifest, mat, layout.scheme, layout.config,
                     layout.size, where);
    uint32_t entry_count = serial::readPod<uint32_t>(manifest, mat);
    EDKM_CHECK(entry_count == section_count, where, ": manifest lists ",
               entry_count, " tensors but the section table has ",
               section_count);
    std::vector<EntryMeta> metas;
    metas.reserve(entry_count);
    for (uint32_t i = 0; i < entry_count; ++i) {
        metas.push_back(readEntryMeta(manifest, mat, where));
        uint32_t section_index = serial::readPod<uint32_t>(manifest, mat);
        EDKM_CHECK(section_index == i, where, ": entry '",
                   metas.back().name, "' claims section ", section_index,
                   ", expected ", i);
    }
    EDKM_CHECK(mat == manifest.size, where, ": manifest has ",
               manifest.size - mat, " trailing bytes");

    // Section table: ascending, aligned, in-bounds, non-overlapping.
    size_t tat = static_cast<size_t>(table_off);
    uint64_t payload_floor =
        table_off + static_cast<uint64_t>(section_count) * 16;
    uint64_t prev_end = payload_floor;
    layout.sections.reserve(entry_count);
    for (uint32_t i = 0; i < entry_count; ++i) {
        uint64_t off = serial::readPod<uint64_t>(file, tat);
        uint64_t bytes = serial::readPod<uint64_t>(file, tat);
        const EntryMeta &m = metas[i];
        EDKM_CHECK(off % kArtifactAlign == 0, where, ": section '",
                   m.name, "' at offset ", off, " is not ",
                   kArtifactAlign, "-byte aligned");
        EDKM_CHECK(off >= prev_end, where, ": section '", m.name,
                   "' at offset ", off,
                   " overlaps the preceding section (ends at ", prev_end,
                   ")");
        EDKM_CHECK(bytes <= size && off <= size - bytes, where,
                   ": section '", m.name, "' (offset ", off, ", ", bytes,
                   " bytes) runs past the end of the file");
        // Fixed-stride codecs have a known exact size; catch mismatches
        // here so a corrupt table fails before any payload is touched.
        if (m.codec == Codec::kRawF32) {
            EDKM_CHECK(static_cast<int64_t>(bytes) == m.numel * 4, where,
                       ": section '", m.name, "' holds ", bytes,
                       " bytes, raw_f32 for its shape needs ",
                       m.numel * 4);
        } else if (m.codec == Codec::kDenseF16) {
            EDKM_CHECK(static_cast<int64_t>(bytes) == m.numel * 2, where,
                       ": section '", m.name, "' holds ", bytes,
                       " bytes, dense_f16 for its shape needs ",
                       m.numel * 2);
        }
        TensorSection s;
        s.name = m.name;
        s.codec = m.codec;
        s.bits = m.bits;
        s.shape = m.shape;
        s.offset = static_cast<int64_t>(off);
        s.bytes = static_cast<int64_t>(bytes);
        layout.sections.push_back(std::move(s));
        prev_end = off + bytes;
    }

    // v2.1 checksum table: [header digest][one checksum per section],
    // after the last payload. The header digest (header + manifest +
    // section table) is verified here — it is tiny next to the
    // payloads, and everything it covers was just read anyway; payload
    // verification policy belongs to the caller (ArtifactReader's
    // EDKM_VERIFY modes, ModelArtifact::deserialize's eager check).
    layout.hasChecksums = (flags & kArtifactFlagChecksums) != 0;
    if (layout.hasChecksums) {
        uint64_t table_bytes =
            (1 + static_cast<uint64_t>(section_count)) * 8;
        EDKM_CHECK(checksum_off % kArtifactAlign == 0, where,
                   ": checksum table offset ", checksum_off, " is not ",
                   kArtifactAlign, "-byte aligned");
        EDKM_CHECK(checksum_off >= prev_end, where,
                   ": checksum table at offset ", checksum_off,
                   " overlaps the payload sections (end at ", prev_end,
                   ")");
        EDKM_CHECK(checksum_off <= size &&
                       table_bytes <= size - checksum_off,
                   where, ": checksum table (", table_bytes,
                   " bytes at offset ", checksum_off,
                   ") runs past the end of the file");
        layout.checksumTableOffset = static_cast<int64_t>(checksum_off);
        size_t cat = static_cast<size_t>(checksum_off);
        layout.headerDigest = serial::readPod<uint64_t>(file, cat);
        for (uint32_t i = 0; i < section_count; ++i) {
            layout.sections[i].checksum =
                serial::readPod<uint64_t>(file, cat);
        }
        uint64_t got = checksum64(data, payload_floor);
        EDKM_CHECK(got == layout.headerDigest, where,
                   ": header/manifest/section-table digest mismatch "
                   "(stored ", layout.headerDigest, ", computed ", got,
                   ") — container metadata is corrupted");
    }
    return layout;
}

void
verifyArtifactSection(const ArtifactLayout &layout,
                      const TensorSection &s, const uint8_t *data)
{
    if (!layout.hasChecksums) {
        return;
    }
    uint64_t got = checksum64(data + s.offset,
                              static_cast<size_t>(s.bytes));
    EDKM_CHECK(got == s.checksum, "artifact v2.1: section '", s.name,
               "' payload checksum mismatch (stored ", s.checksum,
               ", computed ", got, ") — payload bytes are corrupted");
}

std::vector<uint8_t>
ModelArtifact::serialize(bool with_checksums) const
{
    // Manifest: head + per-entry metadata + section index.
    std::vector<uint8_t> manifest;
    appendManifestHead(manifest, *this);
    serial::appendPod(manifest, static_cast<uint32_t>(entries.size()));
    for (size_t i = 0; i < entries.size(); ++i) {
        appendEntryMeta(manifest, entries[i]);
        serial::appendPod(manifest, static_cast<uint32_t>(i));
    }

    int64_t table_off =
        alignUp(kArtifactAlign + static_cast<int64_t>(manifest.size()));
    int64_t payload_start =
        alignUp(table_off + static_cast<int64_t>(entries.size()) * 16);
    std::vector<int64_t> offsets(entries.size());
    int64_t cur = payload_start;
    for (size_t i = 0; i < entries.size(); ++i) {
        offsets[i] = cur;
        cur = alignUp(cur + entries[i].payloadBytes());
    }
    // v2.1: the checksum table ([header digest][per-section checksums])
    // trails the last payload; its offset rides in the header word
    // v2.0 wrote as reserved-zero, so v2.0 readers still parse these
    // files (flags and the reserved word are ignored there, and the
    // declared file size simply covers the extra tail).
    int64_t checksum_off = with_checksums ? cur : 0;
    int64_t file_bytes =
        with_checksums
            ? alignUp(checksum_off +
                      (1 + static_cast<int64_t>(entries.size())) * 8)
            : cur;

    std::vector<uint8_t> header;
    serial::appendPod(header, kArtifactMagicV2);
    serial::appendPod(header, kArtifactVersionV2);
    serial::appendPod(header, static_cast<uint32_t>(kArtifactAlign));
    serial::appendPod(header, static_cast<uint64_t>(kArtifactAlign));
    serial::appendPod(header, static_cast<uint64_t>(manifest.size()));
    serial::appendPod(header, static_cast<uint64_t>(table_off));
    serial::appendPod(header, static_cast<uint32_t>(entries.size()));
    serial::appendPod(header,
                      with_checksums ? kArtifactFlagChecksums
                                     : uint32_t{0}); // flags
    serial::appendPod(header, static_cast<uint64_t>(file_bytes));
    serial::appendPod(header, static_cast<uint64_t>(checksum_off));
    EDKM_ASSERT(static_cast<int64_t>(header.size()) <= kArtifactAlign,
                "artifact v2 header grew past its fixed size");

    std::vector<uint8_t> buf(static_cast<size_t>(file_bytes), 0);
    std::memcpy(buf.data(), header.data(), header.size());
    std::memcpy(buf.data() + kArtifactAlign, manifest.data(),
                manifest.size());
    uint8_t *table = buf.data() + table_off;
    for (size_t i = 0; i < entries.size(); ++i) {
        uint64_t off = static_cast<uint64_t>(offsets[i]);
        uint64_t bytes = static_cast<uint64_t>(entries[i].payloadBytes());
        std::memcpy(table + i * 16, &off, 8);
        std::memcpy(table + i * 16 + 8, &bytes, 8);
        std::memcpy(buf.data() + offsets[i], entries[i].payload.data(),
                    entries[i].payload.size());
    }
    if (with_checksums) {
        uint8_t *sums = buf.data() + checksum_off;
        // Header digest covers everything ahead of the payloads:
        // header, manifest (and its padding) and the section table.
        uint64_t digest = checksum64(
            buf.data(), static_cast<size_t>(table_off) +
                            entries.size() * 16);
        std::memcpy(sums, &digest, 8);
        for (size_t i = 0; i < entries.size(); ++i) {
            uint64_t sum = checksum64(buf.data() + offsets[i],
                                      entries[i].payload.size());
            std::memcpy(sums + 8 + i * 8, &sum, 8);
        }
    }
    return buf;
}

ModelArtifact
ModelArtifact::deserialize(serial::ByteSpan bytes)
{
    // Any magic but v2's (a legacy v1 stream included) fails here.
    ArtifactLayout layout = parseArtifactLayout(bytes.data, bytes.size);
    ModelArtifact a;
    a.scheme = layout.scheme;
    a.config = layout.config;
    a.size = layout.size;
    a.entries.reserve(layout.sections.size());
    for (const TensorSection &s : layout.sections) {
        // Eager tooling path: verify every checksummed payload before
        // it is copied (v2.0 layouts have none to verify).
        verifyArtifactSection(layout, s, bytes.data);
        ArtifactEntry e;
        e.name = s.name;
        e.codec = s.codec;
        e.bits = s.bits;
        e.shape = s.shape;
        e.payload.assign(bytes.data + s.offset,
                         bytes.data + s.offset + s.bytes);
        a.entries.push_back(std::move(e));
    }
    return a;
}

void
ModelArtifact::save(const std::string &path) const
{
    std::vector<uint8_t> buf = serialize();
    std::ofstream f(path, std::ios::binary);
    EDKM_CHECK(f.good(), "artifact: cannot open ", path, " for writing");
    f.write(reinterpret_cast<const char *>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    EDKM_CHECK(f.good(), "artifact: write to ", path, " failed");
}

ModelArtifact
ModelArtifact::load(const std::string &path)
{
    return deserialize(serial::readFile(path));
}

} // namespace api
} // namespace edkm
