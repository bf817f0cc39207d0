#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdio>

namespace leaseos::sim {

namespace {

constexpr char kMagic[8] = {'L', 'O', 'S', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;
constexpr std::size_t kDigestOffset = 24;
static_assert(CheckpointWriter::kInitialCapacity >= kHeaderSize);

// Host order is wire order (static_assert in checkpoint.h).
template <typename T>
T
load(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename T>
void
store(std::uint8_t *p, T v)
{
    std::memcpy(p, &v, sizeof v);
}

// XXH64 (seed 0): four 8-byte lanes over each 32-byte stripe, then the
// 8-, 4- and 1-byte tails, then the avalanche. Same output as the
// reference xxHash implementation.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

std::uint64_t
xxhRound(std::uint64_t acc, std::uint64_t lane)
{
    return std::rotl(acc + lane * kP2, 31) * kP1;
}

std::uint64_t
xxhMerge(std::uint64_t h, std::uint64_t acc)
{
    return (h ^ xxhRound(0, acc)) * kP1 + kP4;
}

} // namespace

std::uint64_t
checkpointDigest(const std::uint8_t *data, std::size_t size)
{
    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    std::uint64_t h = kP5;
    if (size >= 32) {
        std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = xxhRound(v1, load<std::uint64_t>(p));
            v2 = xxhRound(v2, load<std::uint64_t>(p + 8));
            v3 = xxhRound(v3, load<std::uint64_t>(p + 16));
            v4 = xxhRound(v4, load<std::uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxhMerge(xxhMerge(xxhMerge(xxhMerge(h, v1), v2), v3), v4);
    }
    h += size;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ xxhRound(0, load<std::uint64_t>(p)), 27) * kP1 +
            kP4;
    if (end - p >= 4) {
        h ^= load<std::uint32_t>(p) * kP1;
        h = std::rotl(h, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p != end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h = (h ^ (h >> 33)) * kP2;
    h = (h ^ (h >> 29)) * kP3;
    return h ^ (h >> 32);
}

std::uint64_t
checkpointStoredDigest(const std::vector<std::uint8_t> &blob)
{
    if (blob.size() < kHeaderSize)
        throw CheckpointError("checkpoint truncated: " +
                              std::to_string(blob.size()) + " bytes");
    return load<std::uint64_t>(blob.data() + kDigestOffset);
}

// ---- CheckpointWriter ----------------------------------------------------

void
CheckpointWriter::grow(std::size_t n)
{
    if (buf_.empty()) pos_ = kHeaderSize; // fresh blob: header goes first
    std::size_t need = pos_ + n;
    if (need <= buf_.size()) return;
    buf_.resize(std::max({need, 2 * buf_.size(), kInitialCapacity}));
}

void
CheckpointWriter::beginSection(std::string_view name, std::uint32_t version)
{
    if (inSection_)
        throw CheckpointError("beginSection('" + std::string(name) +
                              "') inside an open section");
    inSection_ = true;
    str(name);
    u32(version);
    sectionBodyAt_ = pos_;
    u64(0); // body length, patched by endSection()
}

void
CheckpointWriter::endSection()
{
    if (!inSection_) throw CheckpointError("endSection() with none open");
    inSection_ = false;
    store<std::uint64_t>(buf_.data() + sectionBodyAt_,
                         pos_ - sectionBodyAt_ - 8);
}

std::vector<std::uint8_t>
CheckpointWriter::finish()
{
    if (inSection_) throw CheckpointError("finish() with a section open");
    grow(0); // an empty blob still needs its header
    const std::uint8_t *payload = buf_.data() + kHeaderSize;
    const std::uint64_t payloadSize = pos_ - kHeaderSize;
    std::uint8_t *h = buf_.data();
    std::memcpy(h, kMagic, sizeof kMagic);
    store<std::uint32_t>(h + 8, kCheckpointFormatVersion);
    store<std::uint32_t>(h + 12, 0); // reserved
    store<std::uint64_t>(h + 16, payloadSize);
    store<std::uint64_t>(h + kDigestOffset,
                         checkpointDigest(payload, payloadSize));
    buf_.resize(pos_);
    std::vector<std::uint8_t> out;
    out.swap(buf_); // leaves buf_ empty: the next write reserves a header
    pos_ = 0;
    return out;
}

// ---- CheckpointReader ----------------------------------------------------

CheckpointReader::CheckpointReader(const std::uint8_t *data,
                                   std::size_t size)
    : data_(data)
{
    if (size < kHeaderSize)
        throw CheckpointError("checkpoint truncated: " +
                              std::to_string(size) + " bytes");
    if (std::memcmp(data, kMagic, 8) != 0)
        throw CheckpointError("not a checkpoint (bad magic)");
    std::uint32_t format = load<std::uint32_t>(data + 8);
    if (format != kCheckpointFormatVersion)
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(format) + " (this build reads " +
            std::to_string(kCheckpointFormatVersion) + ")");
    std::uint64_t payloadSize = load<std::uint64_t>(data + 16);
    if (kHeaderSize + payloadSize != size)
        throw CheckpointError(
            "checkpoint payload size mismatch: header says " +
            std::to_string(payloadSize) + ", file has " +
            std::to_string(size - kHeaderSize));
    std::uint64_t digest = load<std::uint64_t>(data + kDigestOffset);
    std::uint64_t actual = checkpointDigest(data + kHeaderSize, payloadSize);
    if (digest != actual)
        throw CheckpointError("checkpoint digest mismatch (corrupt blob)");
    pos_ = kHeaderSize;
    end_ = kHeaderSize + payloadSize;
}

const std::uint8_t *
CheckpointReader::take(std::size_t n)
{
    // Compare against what is left, not pos_ + n: a corrupt length near
    // 2^64 would wrap the sum past the limit.
    if (n > remaining())
        throw CheckpointError("checkpoint read past " +
                              std::string(inSection_ ? "section" : "payload") +
                              " end");
    const std::uint8_t *p = data_ + pos_;
    pos_ += n;
    return p;
}

std::uint32_t
CheckpointReader::beginSection(std::string_view name)
{
    std::uint32_t version = 0;
    std::string actual = nextSection(version);
    if (actual != name)
        throw CheckpointError("expected section '" + std::string(name) +
                              "', found '" + actual + "'");
    return version;
}

std::string
CheckpointReader::nextSection(std::uint32_t &versionOut)
{
    if (inSection_) throw CheckpointError("section already open");
    if (pos_ == end_) throw CheckpointError("no section left in payload");
    std::uint32_t nameLen = u32();
    std::string name(reinterpret_cast<const char *>(take(nameLen)), nameLen);
    versionOut = u32();
    std::uint64_t bodyLen = u64();
    if (bodyLen > end_ - pos_) // not pos_ + bodyLen: that can wrap
        throw CheckpointError("section '" + name + "' body truncated");
    sectionEnd_ = pos_ + bodyLen;
    inSection_ = true;
    return name;
}

std::string
CheckpointReader::peekSection() const
{
    if (inSection_ || pos_ == end_) return "";
    CheckpointReader probe = *this;
    std::uint32_t version = 0;
    return probe.nextSection(version);
}

void
CheckpointReader::endSection()
{
    if (!inSection_) throw CheckpointError("endSection() with none open");
    if (pos_ != sectionEnd_)
        throw CheckpointError(
            "section body not fully consumed (" +
            std::to_string(sectionEnd_ - pos_) + " bytes left)");
    inSection_ = false;
}

void
CheckpointReader::skipSection()
{
    if (!inSection_) throw CheckpointError("skipSection() with none open");
    pos_ = sectionEnd_;
    inSection_ = false;
}

bool
CheckpointReader::seekSection(std::string_view name)
{
    if (inSection_) skipSection();
    while (pos_ != end_) {
        std::uint32_t version = 0;
        std::string actual = nextSection(version);
        if (actual == name) return true;
        skipSection();
    }
    return false;
}

std::uint8_t
CheckpointReader::u8()
{
    return *take(1);
}

std::uint32_t
CheckpointReader::u32()
{
    return load<std::uint32_t>(take(4));
}

std::uint64_t
CheckpointReader::u64()
{
    return load<std::uint64_t>(take(8));
}

double
CheckpointReader::f64()
{
    return load<double>(take(8));
}

std::string
CheckpointReader::str()
{
    std::uint32_t n = u32();
    return std::string(reinterpret_cast<const char *>(take(n)), n);
}

void
CheckpointReader::bytes(void *out, std::size_t n)
{
    const std::uint8_t *p = take(n);
    if (n != 0) std::memcpy(out, p, n);
}

std::uint64_t
CheckpointReader::count(std::size_t elemBytes)
{
    std::uint64_t n = u64();
    if (n > remaining() / elemBytes)
        throw CheckpointError(
            "element count " + std::to_string(n) + " exceeds the " +
            std::to_string(remaining()) + " bytes left in the " +
            std::string(inSection_ ? "section" : "payload"));
    return n;
}

// ---- File helpers --------------------------------------------------------

bool
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &blob)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
    bool ok = std::fclose(f) == 0 && written == blob.size();
    return ok;
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw CheckpointError("cannot open checkpoint file " + path);
    std::vector<std::uint8_t> blob;
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        blob.insert(blob.end(), chunk, chunk + n);
    std::fclose(f);
    return blob;
}

} // namespace leaseos::sim
