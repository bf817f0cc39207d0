#ifndef LEASEOS_SIM_CHECKPOINT_H
#define LEASEOS_SIM_CHECKPOINT_H

/**
 * @file
 * Deterministic device snapshots (DESIGN.md §11).
 *
 * A checkpoint serializes the explicit state of a running simulation to a
 * byte blob at a sim-time boundary: fixed little-endian encoding, named
 * versioned sections (one per component), and an XXH64 digest over the
 * payload, so two runs that reach the same state produce byte-identical
 * blobs regardless of host, thread, or how execution was sliced. The
 * blobs back three things:
 *
 *  - sliced execution's boundary verification (equal state ⇒ equal
 *    blob bytes, cheap to compare or checksum across job counts);
 *  - offline triage: tools/tracereplay decodes a blob and re-drives a
 *    slice's validation from it without replaying the whole prefix;
 *  - component restore: every component with saveState() has a
 *    restoreState() that reloads the state onto a freshly-built peer and
 *    re-arms its own timers, so save→restore→run matches run-through
 *    (see the §11 resume contract for what is and isn't captured —
 *    pending closure callbacks are NOT serialized; components re-arm
 *    from recomputable deadlines instead).
 *
 * Wire format (all integers little-endian, which is also the only host
 * byte order this build accepts — see the static_assert below):
 *
 *     header:  "LOSCKPT1" | u32 format | u32 reserved(0)
 *              | u64 payloadSize | u64 xxh64(payload, seed 0)
 *     payload: section*
 *     section: u32 nameLen | name bytes | u32 version | u64 bodyLen | body
 *
 * The header is 32 bytes; the digest is the u64 at offset 24. Format 2
 * (XXH64) is the only format read: format-1 blobs, which carried an
 * FNV-1a-64 digest, fail the format check like any unknown version.
 *
 * Readers fail with CheckpointError (an exception, never abort) on bad
 * magic, unknown format, digest mismatch, truncation, out-of-order
 * sections, or a component version they do not understand.
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace leaseos::sim {

// Writer and reader copy scalars and TimeSeries points between memory
// and the blob as-is, so host order must be the wire order.
static_assert(std::endian::native == std::endian::little,
              "checkpoint encoding copies values in host byte order; the "
              "wire format is little-endian");

/** Any malformed-, truncated-, or mismatched-blob condition. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Current top-level wire-format version. */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** XXH64 with seed 0 over a byte range (the payload digest). */
std::uint64_t checkpointDigest(const std::uint8_t *data, std::size_t size);

/**
 * The payload digest stored in @p blob's frame header, unverified (the
 * reader checks it). Throws CheckpointError when the blob is shorter
 * than the header.
 */
std::uint64_t checkpointStoredDigest(const std::vector<std::uint8_t> &blob);

/**
 * Appends typed values into a sectioned checkpoint payload.
 *
 * Usage: beginSection()/endSection() around each component's fields,
 * then finish() to get the framed blob. Sections cannot nest.
 *
 * The blob is built in place: the first write reserves the 32-byte
 * frame header at the front of one buffer, every scalar is a single
 * memcpy into storage that grows geometrically, and finish() patches the
 * header and hands the buffer over without copying the payload.
 */
class CheckpointWriter
{
  public:
    /** Buffer size reserved by the first write (header included). */
    static constexpr std::size_t kInitialCapacity = 4096;

    CheckpointWriter() = default;

    /** Open a named component section. */
    void beginSection(std::string_view name, std::uint32_t version);
    /** Close the open section (patches its body length). */
    void endSection();

    void u8(std::uint8_t v) { put(&v, sizeof v); }
    void u32(std::uint32_t v) { put(&v, sizeof v); }
    void u64(std::uint64_t v) { put(&v, sizeof v); }
    void i64(std::int64_t v) { put(&v, sizeof v); }
    /** Doubles travel as their IEEE-754 bit pattern — no text rounding. */
    void f64(double v) { put(&v, sizeof v); }
    void time(Time t) { i64(t.nanos()); }
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        put(s.data(), s.size());
    }

    /**
     * Append @p n bytes that are already in wire order — a bulk copy of
     * values whose memory layout equals their encoding (the caller
     * guards that layout with static_asserts, as TimeSeries does).
     */
    void bytes(const void *data, std::size_t n) { put(data, n); }

    /**
     * Frame header + payload + digest. The buffer is handed over, so the
     * writer is empty afterwards: the next write starts a fresh blob.
     */
    std::vector<std::uint8_t> finish();

  private:
    void
    put(const void *data, std::size_t n)
    {
        if (n > buf_.size() - pos_) grow(n);
        // n == 0 may come with data == nullptr (an empty string_view).
        if (n != 0) std::memcpy(buf_.data() + pos_, data, n);
        pos_ += n;
    }
    /** Make room for @p n more bytes (reserving the header if empty). */
    void grow(std::size_t n);

    /**
     * Frame header then payload. buf_.size() is the usable capacity;
     * bytes at and past pos_ are scratch until written.
     */
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;           ///< write cursor into buf_
    std::size_t sectionBodyAt_ = 0; ///< patch offset of open section
    bool inSection_ = false;
};

/**
 * Validates and decodes a checkpoint blob.
 *
 * Construction verifies the frame (magic, format, size, digest).
 * Components consume their own section with beginSection(name) — which
 * enforces that the next section is the expected one and returns its
 * version — and endSection(), which enforces the body was read exactly.
 * Tools can instead walk sections generically with nextSection() /
 * skipSection(), or jump with seekSection().
 */
class CheckpointReader
{
  public:
    CheckpointReader(const std::uint8_t *data, std::size_t size);
    explicit CheckpointReader(const std::vector<std::uint8_t> &blob)
        : CheckpointReader(blob.data(), blob.size()) {}

    /**
     * Open the next section, requiring its name to be @p name.
     * @return the section's version (callers gate on what they support).
     */
    std::uint32_t beginSection(std::string_view name);

    /** Close the open section; throws if its body was not fully read. */
    void endSection();

    /**
     * Peek the next section's name without opening it; empty string at
     * end of payload.
     */
    std::string peekSection() const;

    /** Open whatever section comes next. @return its name. */
    std::string nextSection(std::uint32_t &versionOut);

    /** Skip the remainder of the open section's body. */
    void skipSection();

    /**
     * Scan forward from the current position for section @p name and
     * open it. @retval false when no such section remains.
     */
    bool seekSection(std::string_view name);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    Time time() { return Time::fromNanos(i64()); }
    std::string str();

    /** Copy the next @p n bytes, in wire order, into @p out. */
    void bytes(void *out, std::size_t n);

    /**
     * Read a u64 element count and check that @p elemBytes × count bytes
     * are still left to read, so a corrupt count throws CheckpointError
     * before the caller sizes a container from it. @p elemBytes is the
     * smallest encoding of one element (> 0).
     */
    std::uint64_t count(std::size_t elemBytes);

    /** True once every payload byte has been consumed. */
    bool atEnd() const { return pos_ == end_; }

    /**
     * Unread bytes left in the open section's body — the full body length
     * when called right after nextSection()/beginSection(). Zero when no
     * section is open.
     */
    std::size_t
    sectionRemaining() const
    {
        return inSection_ ? sectionEnd_ - pos_ : 0;
    }

  private:
    /** Bytes left before the open section's (or the payload's) end. */
    std::size_t
    remaining() const
    {
        return (inSection_ ? sectionEnd_ : end_) - pos_;
    }
    const std::uint8_t *take(std::size_t n);

    const std::uint8_t *data_ = nullptr;
    std::size_t pos_ = 0;   ///< cursor into payload
    std::size_t end_ = 0;   ///< payload end offset
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
};

/**
 * Version gate for component restoreState(): throws CheckpointError when
 * @p found is not @p supported. Kept trivial on purpose — components bump
 * their section version on layout changes, and old readers must refuse
 * rather than misparse.
 */
inline void
requireSectionVersion(std::string_view name, std::uint32_t found,
                      std::uint32_t supported)
{
    if (found != supported)
        throw CheckpointError("section '" + std::string(name) +
                              "' has version " + std::to_string(found) +
                              "; this build restores version " +
                              std::to_string(supported));
}

/** Write @p blob to @p path (binary). @retval false on I/O failure. */
bool writeCheckpointFile(const std::string &path,
                         const std::vector<std::uint8_t> &blob);

/**
 * Read a checkpoint blob from @p path. Throws CheckpointError when the
 * file cannot be read (frame validation happens in CheckpointReader).
 */
std::vector<std::uint8_t> readCheckpointFile(const std::string &path);

} // namespace leaseos::sim

#endif // LEASEOS_SIM_CHECKPOINT_H
