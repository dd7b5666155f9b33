#include "serve/reader.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/serial.h"

#if defined(__unix__) || defined(__APPLE__)
#define EDKM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace edkm {
namespace serve {

std::shared_ptr<FileMapping>
FileMapping::open(const std::string &path, bool force_read)
{
    auto m = std::shared_ptr<FileMapping>(new FileMapping());
#ifdef EDKM_HAVE_MMAP
    if (!force_read) {
        int fd = ::open(path.c_str(), O_RDONLY);
        EDKM_CHECK(fd >= 0, "artifact reader: cannot open ", path);
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void *p = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                             PROT_READ, MAP_PRIVATE, fd, 0);
            if (p != MAP_FAILED) {
                // The mapping survives the fd; close it now.
                ::close(fd);
                m->data_ = static_cast<const uint8_t *>(p);
                m->size_ = static_cast<size_t>(st.st_size);
                m->mapped_ = true;
                return m;
            }
        }
        ::close(fd);
    }
#else
    (void)force_read;
#endif
    m->heap_ = serial::readFile(path);
    m->data_ = m->heap_.data();
    m->size_ = m->heap_.size();
    m->mapped_ = false;
    return m;
}

FileMapping::~FileMapping()
{
#ifdef EDKM_HAVE_MMAP
    if (mapped_ && data_ != nullptr) {
        ::munmap(const_cast<uint8_t *>(data_), size_);
    }
#endif
}

namespace {

/** EDKM_VERIFY=eager|lazy|off; unset or empty means lazy. */
VerifyMode
verifyModeFromEnv()
{
    const char *env = std::getenv("EDKM_VERIFY");
    if (env == nullptr || *env == '\0') {
        return VerifyMode::kLazy;
    }
    std::string v(env);
    if (v == "eager") {
        return VerifyMode::kEager;
    }
    if (v == "lazy") {
        return VerifyMode::kLazy;
    }
    if (v == "off") {
        return VerifyMode::kOff;
    }
    fatal("artifact reader: EDKM_VERIFY must be eager, lazy or off, "
          "got '",
          v, "'");
}

} // namespace

std::shared_ptr<ArtifactReader>
ArtifactReader::open(const std::string &path)
{
    return open(path, verifyModeFromEnv());
}

std::shared_ptr<ArtifactReader>
ArtifactReader::open(const std::string &path, VerifyMode verify)
{
    bool force_read = std::getenv("EDKM_NO_MMAP") != nullptr;
    auto mapping = FileMapping::open(path, force_read);
    auto r = std::shared_ptr<ArtifactReader>(new ArtifactReader());
    r->file_bytes_ = static_cast<int64_t>(mapping->size());
    r->verify_ = verify;
    EDKM_CHECK(api::isArtifactV2(mapping->data(), mapping->size()),
               "artifact reader: ", path,
               " is not an eDKM v2 model artifact (bad magic)");
    r->version_ = api::kArtifactVersionV2;
    // The header/manifest/section-table digest is checked inside the
    // parse whenever the file carries one, in every mode — it is a
    // handful of KB against the payload gigabytes, and a corrupt
    // section table must never direct payload reads.
    r->layout_ = api::parseArtifactLayout(mapping->data(), mapping->size());
    r->mapping_ = std::move(mapping);
    r->buildIndex();
    if (r->layout_.hasChecksums && verify != VerifyMode::kOff) {
        r->verified_ = std::make_unique<std::atomic<bool>[]>(
            r->layout_.sections.size());
        for (size_t i = 0; i < r->layout_.sections.size(); ++i) {
            r->verified_[i].store(false, std::memory_order_relaxed);
        }
        if (verify == VerifyMode::kEager) {
            r->verifyAll();
        }
    }
    r->buildTiles();
    return r;
}

void
ArtifactReader::buildIndex()
{
    index_.clear();
    index_.reserve(layout_.sections.size());
    for (size_t i = 0; i < layout_.sections.size(); ++i) {
        index_.emplace(layout_.sections[i].name, i);
    }
}

void
ArtifactReader::buildTiles()
{
    tiles_.assign(layout_.sections.size(), nullptr);
    for (size_t i = 0; i < layout_.sections.size(); ++i) {
        const api::TensorSection &s = layout_.sections[i];
        if (s.codec != api::Codec::kPalettized) {
            continue;
        }
        // Lazy and off modes have not verified these bytes. A payload
        // that does not parse is left untiled: its first paletteView()
        // reports the corruption (naming the section) as it always has.
        // One that parses but fails its checksum is rejected by that
        // first view before its tiles are ever served.
        PaletteView v;
        try {
            v = parsePaletteView(rawPayload(s),
                                 static_cast<size_t>(s.bytes), nullptr);
        } catch (const FatalError &) {
            continue;
        }
        tiles_[i] = buildPaletteTiles(v.packed, v.bits, v.shape);
        if (tiles_[i] != nullptr) {
            tile_bytes_ += static_cast<int64_t>(tiles_[i]->size());
        }
    }
}

int64_t
ArtifactReader::fileBytes() const
{
    return file_bytes_;
}

bool
ArtifactReader::contains(const std::string &name) const
{
    return index_.find(name) != index_.end();
}

const api::TensorSection &
ArtifactReader::section(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        fatal("artifact reader: no payload section for parameter '",
              name, "' (", layout_.sections.size(),
              " sections present)");
    }
    return layout_.sections[it->second];
}

const uint8_t *
ArtifactReader::rawPayload(const api::TensorSection &s) const
{
    return mapping_->data() + s.offset;
}

const uint8_t *
ArtifactReader::payload(const api::TensorSection &s) const
{
    // Lazy mode: the first view of a section pays for its checksum
    // right here, before anyone consumes the bytes. Eager mode already
    // verified at open; off mode (or a checksum-less file) never does.
    if (verified_ != nullptr && verify_ == VerifyMode::kLazy) {
        verifySection(s);
    }
    return rawPayload(s);
}

void
ArtifactReader::verifySection(const api::TensorSection &s) const
{
    size_t i = static_cast<size_t>(&s - layout_.sections.data());
    EDKM_CHECK(i < layout_.sections.size(),
               "artifact reader: verifySection called with a foreign "
               "section reference");
    if (verified_[i].load(std::memory_order_acquire)) {
        return;
    }
    api::verifyArtifactSection(layout_, s, mapping_->data());
    if (!verified_[i].exchange(true, std::memory_order_acq_rel)) {
        verified_count_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
ArtifactReader::verifyAll() const
{
    if (verified_ == nullptr) {
        return; // no checksums, or opened with kOff
    }
    for (const api::TensorSection &s : layout_.sections) {
        verifySection(s);
    }
}

std::shared_ptr<const void>
ArtifactReader::keepAlive() const
{
    return mapping_;
}

Tensor
ArtifactReader::denseView(const std::string &name) const
{
    const api::TensorSection &s = section(name);
    EDKM_CHECK(s.codec == api::Codec::kRawF32 ||
                   s.codec == api::Codec::kDenseF16,
               "artifact reader: section '", name, "' is ",
               api::codecName(s.codec),
               ", only raw_f32/dense_f16 payloads have dense views");
    DType dt =
        s.codec == api::Codec::kRawF32 ? DType::kF32 : DType::kF16;
    auto storage = Storage::borrow(
        reinterpret_cast<const std::byte *>(payload(s)), s.bytes,
        Device::cpu(), keepAlive());
    Shape strides(s.shape.size());
    int64_t acc = 1;
    for (int64_t d = static_cast<int64_t>(s.shape.size()) - 1; d >= 0;
         --d) {
        strides[static_cast<size_t>(d)] = acc;
        acc *= s.shape[static_cast<size_t>(d)];
    }
    return Tensor::wrapStorage(std::move(storage), s.shape, strides,
                               /*offset=*/0, dt);
}

PaletteView
ArtifactReader::paletteView(const std::string &name) const
{
    const api::TensorSection &s = section(name);
    EDKM_CHECK(s.codec == api::Codec::kPalettized,
               "artifact reader: section '", name, "' is ",
               api::codecName(s.codec), ", not palettized");
    PaletteView v = parsePaletteView(
        payload(s), static_cast<size_t>(s.bytes), keepAlive());
    EDKM_CHECK(v.shape == s.shape, "artifact reader: section '", name,
               "': palettized payload shape disagrees with the manifest");
    v.tiles = tiles_[static_cast<size_t>(&s - layout_.sections.data())];
    return v;
}

Tensor
ArtifactReader::decode(const std::string &name) const
{
    const api::TensorSection &s = section(name);
    api::ArtifactEntry e;
    e.name = s.name;
    e.codec = s.codec;
    e.bits = s.bits;
    e.shape = s.shape;
    const uint8_t *p = payload(s);
    e.payload.assign(p, p + s.bytes);
    return e.decode();
}

api::ModelArtifact
ArtifactReader::toArtifact() const
{
    api::ModelArtifact a;
    a.scheme = layout_.scheme;
    a.config = layout_.config;
    a.size = layout_.size;
    a.entries.reserve(layout_.sections.size());
    for (const api::TensorSection &s : layout_.sections) {
        api::ArtifactEntry e;
        e.name = s.name;
        e.codec = s.codec;
        e.bits = s.bits;
        e.shape = s.shape;
        const uint8_t *p = payload(s);
        e.payload.assign(p, p + s.bytes);
        a.entries.push_back(std::move(e));
    }
    return a;
}

} // namespace serve
} // namespace edkm
