/**
 * @file
 * Checkpoint wire-format tests (DESIGN.md §11).
 *
 * The blob framing is a compatibility contract — tools/tracereplay and
 * future builds decode blobs produced today — so beyond round-trip
 * coverage these tests pin the exact bytes of a known frame. A failing
 * byte pin means the wire format changed: bump kCheckpointFormatVersion
 * (or the section version) instead of silently re-shaping the encoding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time_series.h"

namespace leaseos::sim {
namespace {

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

constexpr std::size_t kHeaderBytes = 32;

/** Re-seal a hand-edited blob: recompute the payload digest. */
void
reseal(std::vector<std::uint8_t> &blob)
{
    std::uint64_t digest =
        checkpointDigest(blob.data() + kHeaderBytes,
                         blob.size() - kHeaderBytes);
    std::memcpy(blob.data() + 24, &digest, sizeof digest);
}

/** Overwrite the little-endian u64 at @p offset. */
void
patchU64(std::vector<std::uint8_t> &blob, std::size_t offset,
         std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        blob[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(CheckpointWireTest, ScalarRoundTrip)
{
    CheckpointWriter w;
    w.beginSection("scalars", 3);
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(-1234.56789);
    w.time(Time::fromMillis(1500));
    w.str("Pixel XL");
    w.str("");
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    CheckpointReader r(blob);
    EXPECT_EQ(r.peekSection(), "scalars");
    EXPECT_EQ(r.beginSection("scalars"), 3u);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -1234.56789);
    EXPECT_EQ(r.time(), Time::fromMillis(1500));
    EXPECT_EQ(r.str(), "Pixel XL");
    EXPECT_EQ(r.str(), "");
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.peekSection(), "");
}

TEST(CheckpointWireTest, GoldenFrameBytesPinned)
{
    // A fixed two-section blob. These bytes are the on-disk format;
    // any change here must come with a format/section version bump.
    CheckpointWriter w;
    w.beginSection("a", 1);
    w.u8(0x11);
    w.u32(0x22334455);
    w.endSection();
    w.beginSection("bb", 2);
    w.u64(0x66778899aabbccddULL);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    EXPECT_EQ(hex(blob),
              // header: magic "LOSCKPT1" | format=2 | reserved
              "4c4f53434b505431" "02000000" "00000000"
              // u64 payloadSize=48 | u64 xxh64(payload, seed 0)
              "3000000000000000" "f592f48dcfbd37e7"
              // section "a" v1, body 5 bytes: u8 11, u32 55443322(le)
              "01000000" "61" "01000000" "0500000000000000"
              "11" "55443322"
              // section "bb" v2, body 8 bytes: u64 ddccbbaa99887766(le)
              "02000000" "6262" "02000000" "0800000000000000"
              "ddccbbaa99887766");
}

/** Bytes (i*31+7) & 0xff for i in [0, n): the known-answer input. */
std::vector<std::uint8_t>
katBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xff);
    return out;
}

TEST(CheckpointDigestTest, MatchesXxh64KnownAnswers)
{
    // Reference XXH64 (seed 0) values. The lengths cover the short path
    // (< 32), exactly one stripe, stripes plus each of the 8-, 4- and
    // 1-byte tails, and several stripes.
    const std::pair<std::size_t, std::uint64_t> cases[] = {
        {0, 0xef46db3751d8e999ULL},   {3, 0x56e6957632a487f9ULL},
        {31, 0x4a74f3a1a39ad4a1ULL},  {32, 0x8d57d6a4671cc43dULL},
        {33, 0x62c9fd21ed857664ULL},  {36, 0xa4475c606b0abc3cULL},
        {63, 0x5c320a0d2707057fULL},  {64, 0x7bbabbc45729d17eULL},
        {100, 0xefa0ad2d3e70c151ULL}, {257, 0x6ff15897658784e0ULL},
    };
    for (const auto &[n, want] : cases) {
        std::vector<std::uint8_t> in = katBytes(n);
        EXPECT_EQ(checkpointDigest(in.data(), in.size()), want)
            << "length " << n;
    }
    const std::uint8_t abc[] = {'a', 'b', 'c'};
    EXPECT_EQ(checkpointDigest(abc, sizeof abc), 0x44bc2cf5ad770999ULL);
}

TEST(CheckpointDigestTest, EverySingleBitFlipIsRejected)
{
    for (std::size_t n : {1, 31, 32, 33, 100, 4096}) {
        // Frame check only: the payload need not parse as sections.
        std::vector<std::uint8_t> blob = CheckpointWriter().finish();
        std::vector<std::uint8_t> payload = katBytes(n);
        blob.insert(blob.end(), payload.begin(), payload.end());
        patchU64(blob, 16, n);
        reseal(blob);
        ASSERT_EQ(blob.size(), kHeaderBytes + n);
        ASSERT_NO_THROW(CheckpointReader r(blob)) << "length " << n;
        for (std::size_t bit = 0; bit < 8 * n; ++bit) {
            std::vector<std::uint8_t> bad = blob;
            bad[kHeaderBytes + bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
            EXPECT_THROW(CheckpointReader r(bad), CheckpointError)
                << "length " << n << ", bit " << bit;
        }
    }
}

TEST(CheckpointDigestTest, StoredDigestIsReadFromTheHeader)
{
    CheckpointWriter w;
    w.beginSection("s", 1);
    w.u64(7);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();
    EXPECT_EQ(checkpointStoredDigest(blob),
              checkpointDigest(blob.data() + kHeaderBytes,
                               blob.size() - kHeaderBytes));
    blob.resize(kHeaderBytes - 1);
    EXPECT_THROW(checkpointStoredDigest(blob), CheckpointError);
}

TEST(CheckpointDigestTest, FormatOneBlobIsRejectedNamingBothVersions)
{
    // A format-1 frame (FNV-1a-64 digest) is no longer read, even when
    // its digest is right for the payload under the current hash.
    CheckpointWriter w;
    w.beginSection("s", 1);
    w.u64(7);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();
    blob[8] = 1;
    try {
        CheckpointReader r(blob);
        FAIL() << "format-1 blob was accepted";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unsupported checkpoint format version 1 (this build "
                  "reads 2)");
    }
}

TEST(CheckpointWireTest, DigestCorruptionDetected)
{
    CheckpointWriter w;
    w.beginSection("s", 1);
    w.u64(7);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Flip one payload byte: the frame digest must catch it.
    std::vector<std::uint8_t> bad = blob;
    bad.back() ^= 0x01;
    EXPECT_THROW(CheckpointReader r(bad), CheckpointError);

    // Truncation (frame shorter than payloadSize claims).
    std::vector<std::uint8_t> trunc(blob.begin(), blob.end() - 3);
    EXPECT_THROW(CheckpointReader r(trunc), CheckpointError);

    // Bad magic.
    std::vector<std::uint8_t> magic = blob;
    magic[0] = 'X';
    EXPECT_THROW(CheckpointReader r(magic), CheckpointError);

    // Unknown top-level format version.
    std::vector<std::uint8_t> fmt = blob;
    fmt[8] = 0x7f;
    EXPECT_THROW(CheckpointReader r(fmt), CheckpointError);

    // The untampered frame still loads.
    CheckpointReader ok(blob);
    EXPECT_EQ(ok.beginSection("s"), 1u);
    EXPECT_EQ(ok.u64(), 7u);
}

TEST(CheckpointWireTest, SectionDisciplineEnforced)
{
    CheckpointWriter w;
    w.beginSection("first", 1);
    w.u32(1);
    w.endSection();
    w.beginSection("second", 1);
    w.u32(2);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Wrong expected name.
    {
        CheckpointReader r(blob);
        EXPECT_THROW(r.beginSection("second"), CheckpointError);
    }
    // Leaving body bytes unread is an error (catches layout drift).
    {
        CheckpointReader r(blob);
        r.beginSection("first");
        EXPECT_THROW(r.endSection(), CheckpointError);
    }
    // Reading past the section body is an error.
    {
        CheckpointReader r(blob);
        r.beginSection("first");
        r.u32();
        EXPECT_THROW(r.u32(), CheckpointError);
    }
    // seekSection scans forward; skipSection closes.
    {
        CheckpointReader r(blob);
        ASSERT_TRUE(r.seekSection("second"));
        EXPECT_EQ(r.sectionRemaining(), 4u);
        EXPECT_EQ(r.u32(), 2u);
        r.endSection();
        EXPECT_FALSE(r.seekSection("first")); // no rewind
    }
}

TEST(CheckpointWireTest, VersionGateRefusesUnknownVersions)
{
    EXPECT_NO_THROW(requireSectionVersion("cpu", 1, 1));
    EXPECT_THROW(requireSectionVersion("cpu", 2, 1), CheckpointError);
    EXPECT_THROW(requireSectionVersion("cpu", 0, 1), CheckpointError);
}

TEST(CheckpointComponentTest, RandomSourceResumesExactStream)
{
    RandomSource original(0xfeedULL);
    for (int i = 0; i < 1000; ++i) original.uniform();

    CheckpointWriter w;
    original.saveState(w);
    std::vector<std::uint8_t> blob = w.finish();

    RandomSource restored(0x0); // wrong seed on purpose
    CheckpointReader r(blob);
    restored.restoreState(r);

    // Identical draws across every helper after the restore point.
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(original.engine()(), restored.engine()());
        EXPECT_EQ(original.uniform(), restored.uniform());
        EXPECT_EQ(original.uniformInt(0, 1000000),
                  restored.uniformInt(0, 1000000));
        EXPECT_EQ(original.gaussian(5.0, 2.0),
                  restored.gaussian(5.0, 2.0));
    }
}

TEST(CheckpointComponentTest, SimulatorClockAndCountersRoundTrip)
{
    Simulator sim;
    int fired = 0;
    for (int i = 1; i <= 5; ++i)
        sim.scheduleAt(Time::fromSeconds(static_cast<double>(i)),
                       [&fired] { ++fired; });
    sim.run(Time::fromSeconds(3.5));
    ASSERT_EQ(fired, 3);

    CheckpointWriter w;
    sim.saveState(w);
    std::vector<std::uint8_t> blob = w.finish();

    Simulator fresh;
    CheckpointReader r(blob);
    fresh.restoreState(r);
    EXPECT_EQ(fresh.now(), Time::fromSeconds(3.5));
    EXPECT_EQ(fresh.executedEvents(), sim.executedEvents());

    // New events on the restored clock run at their absolute deadlines.
    int after = 0;
    fresh.scheduleAt(Time::fromSeconds(4.0), [&after] { ++after; });
    fresh.run(Time::fromSeconds(5.0));
    EXPECT_EQ(after, 1);
    EXPECT_EQ(fresh.now(), Time::fromSeconds(5.0));
}

/**
 * A series with every awkward bit pattern: negative and extreme times,
 * signed zeros, infinities, denormals and a NaN with payload bits.
 */
TimeSeries
awkwardSeries(std::size_t n)
{
    double nanWithPayload = 0.0;
    std::uint64_t nanBits = 0x7ff4000000c0ffeeULL;
    std::memcpy(&nanWithPayload, &nanBits, sizeof nanWithPayload);
    const double values[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -4.9406564584124654e-320,
                             nanWithPayload,
                             1234.5678};
    const std::int64_t times[] = {-1,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max(),
                                  0, -86400000000000LL, 7};
    TimeSeries series("awkward");
    for (std::size_t i = 0; i < n; ++i)
        series.record(Time::fromNanos(times[i % 6] /
                                      static_cast<std::int64_t>(1 + i % 3)),
                      values[i % 8]);
    return series;
}

TEST(CheckpointWireTest, BulkSeriesEqualsFieldByFieldEncoding)
{
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{100000}}) {
        SCOPED_TRACE(n);
        TimeSeries series = awkwardSeries(n);

        CheckpointWriter bulk;
        bulk.beginSection("series", 1);
        series.saveState(bulk);
        bulk.endSection();
        std::vector<std::uint8_t> bulkBlob = bulk.finish();

        CheckpointWriter fields;
        fields.beginSection("series", 1);
        fields.u64(series.size());
        for (const auto &p : series.points()) {
            fields.time(p.t);
            fields.f64(p.value);
        }
        fields.endSection();
        std::vector<std::uint8_t> fieldBlob = fields.finish();

        ASSERT_EQ(bulkBlob, fieldBlob);
        if (n == 1) {
            // u64 count 1 | i64 -1 ns | f64 -0.0, all little-endian.
            std::vector<std::uint8_t> tail(bulkBlob.end() - 24,
                                           bulkBlob.end());
            EXPECT_EQ(hex(tail), "0100000000000000"
                                 "ffffffffffffffff"
                                 "0000000000000080");
        }

        // The bulk read restores every bit, NaN payload included.
        TimeSeries restored;
        restored.record(Time::fromNanos(5), 5.0); // replaced by restore
        CheckpointReader r(bulkBlob);
        r.beginSection("series");
        restored.restoreState(r);
        r.endSection();
        ASSERT_EQ(restored.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto &a = series.points()[i];
            const auto &b = restored.points()[i];
            ASSERT_EQ(a.t, b.t) << i;
            ASSERT_EQ(std::memcmp(&a.value, &b.value, sizeof a.value), 0)
                << i;
        }
    }
}

TEST(CheckpointWireTest, SectionSpanningSeveralGrowthsPatchesBodyLength)
{
    // 5,000 u64s = 40,000 body bytes: the buffer grows from its initial
    // capacity several times while the section is open.
    constexpr std::uint64_t kWords = 5000;
    static_assert(kWords * 8 > 8 * CheckpointWriter::kInitialCapacity);
    CheckpointWriter w;
    w.beginSection("big", 4);
    for (std::uint64_t i = 0; i < kWords; ++i) w.u64(i * 0x9e3779b97f4a7c15ULL);
    w.endSection();
    w.beginSection("tail", 1);
    w.u8(0x5a);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // section "big": u32 nameLen | "big" | u32 version | u64 bodyLen
    const std::size_t bodyLenAt = kHeaderBytes + 4 + 3 + 4;
    std::uint64_t bodyLen = 0;
    for (std::size_t i = 0; i < 8; ++i)
        bodyLen |= static_cast<std::uint64_t>(blob[bodyLenAt + i]) << (8 * i);
    EXPECT_EQ(bodyLen, kWords * 8);

    CheckpointReader r(blob);
    EXPECT_EQ(r.beginSection("big"), 4u);
    EXPECT_EQ(r.sectionRemaining(), kWords * 8);
    for (std::uint64_t i = 0; i < kWords; ++i)
        ASSERT_EQ(r.u64(), i * 0x9e3779b97f4a7c15ULL);
    r.endSection();
    EXPECT_EQ(r.beginSection("tail"), 1u);
    EXPECT_EQ(r.u8(), 0x5a);
    r.endSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(CheckpointWireTest, EmptyAndOversizedStringsEncode)
{
    const std::string big(3 * CheckpointWriter::kInitialCapacity + 17, 'q');
    CheckpointWriter w;
    w.beginSection("s", 1);
    w.str("");
    w.str(big);
    w.str(std::string_view());
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Body: u32 0 | u32 len | len bytes | u32 0.
    const std::size_t body = kHeaderBytes + 4 + 1 + 4 + 8;
    ASSERT_EQ(blob.size(), body + 4 + 4 + big.size() + 4);
    const std::uint32_t len = static_cast<std::uint32_t>(big.size());
    const std::uint8_t lenLe[4] = {
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 24)};
    EXPECT_EQ(std::vector<std::uint8_t>(blob.begin() + body,
                                        blob.begin() + body + 4),
              std::vector<std::uint8_t>(4, 0));
    EXPECT_EQ(std::memcmp(blob.data() + body + 4, lenLe, 4), 0);
    EXPECT_EQ(std::string(blob.begin() + body + 8,
                          blob.begin() + body + 8 + big.size()),
              big);

    CheckpointReader r(blob);
    r.beginSection("s");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), big);
    EXPECT_EQ(r.str(), "");
    r.endSection();
}

TEST(CheckpointWireTest, WriterStartsAFreshBlobAfterFinish)
{
    // finish() hands its buffer over; the next write starts a new blob
    // (header reserved again), identical to one from a new writer.
    auto fill = [](CheckpointWriter &w, std::uint64_t v) {
        w.beginSection("x", 1);
        w.u64(v);
        w.str(std::string(CheckpointWriter::kInitialCapacity, 'z'));
        w.endSection();
    };
    CheckpointWriter reused;
    fill(reused, 1);
    std::vector<std::uint8_t> first = reused.finish();
    fill(reused, 2);
    std::vector<std::uint8_t> second = reused.finish();
    std::vector<std::uint8_t> empty = reused.finish();

    CheckpointWriter a;
    fill(a, 1);
    CheckpointWriter b;
    fill(b, 2);
    EXPECT_EQ(first, a.finish());
    EXPECT_EQ(second, b.finish());
    EXPECT_EQ(empty, CheckpointWriter().finish());
    EXPECT_EQ(empty.size(), kHeaderBytes);
    CheckpointReader r(empty);
    EXPECT_TRUE(r.atEnd());
}

TEST(CheckpointWireTest, WrappingBodyLengthThrowsInsteadOfLooping)
{
    CheckpointWriter w;
    w.beginSection("a", 1);
    w.u8(1);
    w.endSection();
    w.beginSection("b", 1);
    w.u8(2);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Section "b" starts after "a"'s 1 + 4 + 4 + 8 + 1 = 18 bytes (the
    // name length prefix is 4). Give "b" a body length that wraps its
    // end back to the start of "a": a section walker would then visit
    // a, b, a, b, ... forever.
    const std::size_t aAt = kHeaderBytes;
    const std::size_t bAt = aAt + 4 + 1 + 4 + 8 + 1;
    const std::size_t bBodyAt = bAt + 4 + 1 + 4 + 8;
    patchU64(blob, bAt + 4 + 1 + 4,
             std::uint64_t{0} - static_cast<std::uint64_t>(bBodyAt - aAt));
    reseal(blob);

    CheckpointReader r(blob);
    int visited = 0;
    EXPECT_THROW(
        {
            while (!r.atEnd() && visited < 10) {
                std::uint32_t version = 0;
                r.nextSection(version);
                r.skipSection();
                ++visited;
            }
        },
        CheckpointError);
    EXPECT_EQ(visited, 1); // "a" was fine; "b" must not open

    // A length that would wrap the read cursor itself.
    CheckpointReader s(blob);
    s.beginSection("a");
    std::uint8_t sink = 0;
    EXPECT_THROW(s.bytes(&sink, std::numeric_limits<std::size_t>::max()),
                 CheckpointError);
}

TEST(CheckpointWireTest, AbsurdSeriesCountThrowsBeforeAllocating)
{
    CheckpointWriter w;
    w.beginSection("series", 1);
    awkwardSeries(3).saveState(w);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    const std::size_t countAt = kHeaderBytes + 4 + 6 + 4 + 8;
    for (std::uint64_t n : {std::uint64_t{4}, std::uint64_t{1} << 40,
                            std::uint64_t{1} << 60,
                            ~std::uint64_t{0}}) {
        SCOPED_TRACE(n);
        std::vector<std::uint8_t> bad = blob;
        patchU64(bad, countAt, n);
        reseal(bad);
        CheckpointReader r(bad);
        r.beginSection("series");
        TimeSeries restored;
        EXPECT_THROW(restored.restoreState(r), CheckpointError);
    }
}

TEST(CheckpointWireTest, CountIsCheckedAgainstBytesLeft)
{
    CheckpointWriter w;
    w.beginSection("c", 1);
    w.u64(3);
    w.u32(1);
    w.u32(2);
    w.u32(3);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    CheckpointReader ok(blob);
    ok.beginSection("c");
    EXPECT_EQ(ok.count(4), 3u); // exactly 12 bytes left
    ok.skipSection();

    CheckpointReader tooBig(blob);
    tooBig.beginSection("c");
    EXPECT_THROW(tooBig.count(5), CheckpointError); // 15 > 12
}

} // namespace
} // namespace leaseos::sim
