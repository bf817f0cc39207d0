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
 *  - component restore: every stateful component describes its section
 *    once, as a `template <class Io> void checkpoint(Io &)` field list
 *    that runs over a CheckpointSaver to save and over a
 *    CheckpointLoader to reload the state onto a freshly-built peer;
 *    after the list, the load direction alone re-arms the component's
 *    timers, so save→restore→run matches run-through (see the §11
 *    resume contract for what is and isn't captured — pending closure
 *    callbacks are NOT serialized; components re-arm from recomputable
 *    deadlines instead).
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
#include <concepts>
#include <cstdint>
#include <cstring>
#include <locale>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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
 * Version gate for CheckpointLoader::beginSection(): throws
 * CheckpointError when @p found is not @p supported. Kept trivial on
 * purpose — components bump their section version on layout changes, and
 * old readers must refuse rather than misparse.
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

// ---- Field-list codec ----------------------------------------------------
//
// A component's section layout is one member template,
//
//     template <class Io> void checkpoint(Io &io);
//
// whose body lists every field once, in wire order. Run over a
// CheckpointSaver it appends the fields to a blob; run over a
// CheckpointLoader it reads them back into the same members. Both
// classes have the same member calls, so the list cannot drift between
// directions; dispatch is static (no virtual call or std::function per
// field). Work only one direction needs — re-arming timers, refusing a
// non-quiescent blob — follows the list under `if constexpr
// (Io::kLoading)`.
//
// Scalars name their wire type: u8/u32/u64/i64 take any integral, enum
// or bool member and cast it (a bool travels as u8; a Uid as u32 and an
// int as i64, though both are int in C++), f64/time/str take their own
// types. seq() and map() carry a u64 element count and then each
// element through a callback; the loader sizes every container through
// CheckpointReader::count(), so a corrupt count throws CheckpointError
// before anything is allocated. expect() writes a value the loading
// device must already have (configuration, not state) and refuses a
// blob whose value differs.

/** A member that travels as a fixed-width integer. */
template <class T>
concept CheckpointInt = std::is_integral_v<T> || std::is_enum_v<T>;

/** A value expect() can compare: an unsigned wire integer, Time, string. */
template <class T>
concept CheckpointExpectable =
    std::same_as<T, std::uint8_t> || std::same_as<T, std::uint32_t> ||
    std::same_as<T, std::uint64_t> || std::same_as<T, Time> ||
    std::same_as<T, std::string>;

/** Saving half of the field-list codec: appends to a CheckpointWriter. */
class CheckpointSaver
{
  public:
    static constexpr bool kLoading = false;

    explicit CheckpointSaver(CheckpointWriter &w) : w_(w) {}

    void
    beginSection(std::string_view name, std::uint32_t version)
    {
        w_.beginSection(name, version);
    }
    void endSection() { w_.endSection(); }

    template <CheckpointInt T>
    void u8(const T &v) { w_.u8(static_cast<std::uint8_t>(v)); }
    template <CheckpointInt T>
    void u32(const T &v) { w_.u32(static_cast<std::uint32_t>(v)); }
    template <CheckpointInt T>
    void u64(const T &v) { w_.u64(static_cast<std::uint64_t>(v)); }
    template <CheckpointInt T>
    void i64(const T &v) { w_.i64(static_cast<std::int64_t>(v)); }
    void f64(const double &v) { w_.f64(v); }
    void time(const Time &t) { w_.time(t); }
    void str(const std::string &s) { w_.str(s); }

    /**
     * A value in its standard stream text form under the classic
     * locale, as a str (std::mt19937_64 guarantees a full-state text).
     */
    template <class T>
    void
    text(const T &v)
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << v;
        w_.str(os.str());
    }

    /**
     * Element count for parallel containers the caller sizes and walks
     * itself; @p elemBytes is the wire size of one element.
     */
    void count(const std::uint64_t &n, std::size_t) { w_.u64(n); }

    /**
     * u64 count, then @p fn(element) per element. @p elemBytes is the
     * smallest wire size of one element (the loader's count() bound).
     */
    template <class C, class F>
    void
    seq(C &c, std::size_t, F &&fn)
    {
        w_.u64(c.size());
        for (auto &e : c) fn(e);
    }

    /** u64 count, then @p fn(key, value) per entry, in key order. */
    template <class M, class F>
    void
    map(M &m, std::size_t, F &&fn)
    {
        w_.u64(m.size());
        for (auto &[k, v] : m) fn(k, v);
    }

    /**
     * u64 count, then the elements' memory as-is in one copy. Only for
     * element types whose layout is their wire encoding (double, or a
     * type guarded by static_asserts as TimeSeries::Point is).
     */
    template <class T>
    void
    block(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        w_.u64(v.size());
        w_.bytes(v.data(), v.size() * sizeof(T));
    }

    /** Write @p device, which a loading device must match. */
    template <CheckpointExpectable T>
    void
    expect(std::string_view, const T &device)
    {
        if constexpr (std::same_as<T, std::uint8_t>) w_.u8(device);
        else if constexpr (std::same_as<T, std::uint32_t>) w_.u32(device);
        else if constexpr (std::same_as<T, std::uint64_t>) w_.u64(device);
        else if constexpr (std::same_as<T, Time>) w_.time(device);
        else w_.str(device);
    }

  private:
    CheckpointWriter &w_;
};

/** Loading half of the field-list codec: reads from a CheckpointReader. */
class CheckpointLoader
{
  public:
    static constexpr bool kLoading = true;

    explicit CheckpointLoader(CheckpointReader &r) : r_(r) {}

    /** Open section @p name, refusing any version but @p version. */
    void
    beginSection(std::string_view name, std::uint32_t version)
    {
        requireSectionVersion(name, r_.beginSection(name), version);
        section_ = name;
    }
    void endSection() { r_.endSection(); }

    template <CheckpointInt T>
    void u8(T &v) { v = static_cast<T>(r_.u8()); }
    template <CheckpointInt T>
    void u32(T &v) { v = static_cast<T>(r_.u32()); }
    template <CheckpointInt T>
    void u64(T &v) { v = static_cast<T>(r_.u64()); }
    template <CheckpointInt T>
    void i64(T &v) { v = static_cast<T>(r_.i64()); }
    void f64(double &v) { v = r_.f64(); }
    void time(Time &t) { t = r_.time(); }
    void str(std::string &s) { s = r_.str(); }

    template <class T>
    void
    text(T &v)
    {
        std::istringstream is(r_.str());
        is.imbue(std::locale::classic());
        is >> v;
        if (is.fail())
            throw CheckpointError("section '" + std::string(section_) +
                                  "' holds text that does not decode");
    }

    void count(std::uint64_t &n, std::size_t elemBytes)
    {
        n = r_.count(elemBytes);
    }

    template <class C, class F>
    void
    seq(C &c, std::size_t elemBytes, F &&fn)
    {
        std::uint64_t n = r_.count(elemBytes);
        c.clear();
        if constexpr (requires { c.reserve(n); }) c.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::remove_cvref_t<decltype(*c.begin())> e{};
            fn(e);
            if constexpr (requires { c.push_back(std::move(e)); })
                c.push_back(std::move(e));
            else
                c.insert(std::move(e));
        }
    }

    template <class M, class F>
    void
    map(M &m, std::size_t elemBytes, F &&fn)
    {
        std::uint64_t n = r_.count(elemBytes);
        m.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            auto v = freshValue(
                static_cast<typename M::mapped_type *>(nullptr));
            fn(k, v);
            m.insert_or_assign(std::move(k), std::move(v));
        }
    }

    template <class T>
    void
    block(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = r_.count(sizeof(T));
        v.resize(n);
        r_.bytes(v.data(), n * sizeof(T));
    }

    /**
     * Read the blob's value and refuse the blob (CheckpointError naming
     * the section, the field and both values) unless it equals @p device.
     */
    template <CheckpointExpectable T>
    void
    expect(std::string_view field, const T &device)
    {
        T blob{};
        if constexpr (std::same_as<T, std::uint8_t>) blob = r_.u8();
        else if constexpr (std::same_as<T, std::uint32_t>) blob = r_.u32();
        else if constexpr (std::same_as<T, std::uint64_t>) blob = r_.u64();
        else if constexpr (std::same_as<T, Time>) blob = r_.time();
        else blob = r_.str();
        if (!(blob == device))
            throw CheckpointError("section '" + std::string(section_) +
                                  "' field '" + std::string(field) +
                                  "': blob has " + show(blob) +
                                  ", this device has " + show(device));
    }

  private:
    /** A map value ready to load into; owned objects are allocated. */
    template <class V>
    static V
    freshValue(V *)
    {
        return V{};
    }
    template <class T>
    static std::unique_ptr<T>
    freshValue(std::unique_ptr<T> *)
    {
        return std::make_unique<T>();
    }

    template <class T>
    static std::string
    show(const T &v)
    {
        if constexpr (std::same_as<T, Time>) return v.toString();
        else if constexpr (std::same_as<T, std::string>) return "'" + v + "'";
        else return std::to_string(v);
    }

    CheckpointReader &r_;
    std::string_view section_; ///< open section (a string literal)
};

/**
 * Save @p c's section(s) by running its field list over a saver. The
 * list takes its component by non-const reference so that one function
 * serves both directions; the saver only reads through it.
 */
template <class T>
void
saveState(CheckpointWriter &w, const T &c)
{
    CheckpointSaver io(w);
    const_cast<T &>(c).checkpoint(io);
}

/** Restore @p c's section(s) by running its field list over a loader. */
template <class T>
void
restoreState(CheckpointReader &r, T &c)
{
    CheckpointLoader io(r);
    c.checkpoint(io);
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
