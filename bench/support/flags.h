#ifndef LEASEOS_BENCH_SUPPORT_FLAGS_H
#define LEASEOS_BENCH_SUPPORT_FLAGS_H

/**
 * @file
 * Strict command-line flags for the bench programs.
 *
 * A bench that reads `--ops=1e6` as 1 op, or ignores a mistyped
 * `--trace_dir=`, still runs and still writes its JSON artifact — which
 * CI gates then read as if it meant something. Benches with their own
 * flag loop therefore stop with a usage message and exit status 2 on an
 * unknown flag or a malformed value (stepping over the runner's jobs
 * flags with harness::ParallelRunner::jobsFlagArgs()).
 */

#include <cstdio>
#include <cstdlib>

namespace leaseos::benchsupport {

/** A bench's usage line, and the exits that print it. */
struct Usage {
    const char *prog;     ///< program name for messages
    const char *synopsis; ///< flags, printed after "usage: <prog> "

    /** Print "<prog>: <what> <flag>" and the usage line; exit 2. */
    [[noreturn]] void
    error(const char *what, const char *flag) const
    {
        std::fprintf(stderr, "%s: %s %s\nusage: %s %s\n", prog, what, flag,
                     prog, synopsis);
        std::exit(2);
    }

    /** Strict decimal integer in [lo, hi]; anything else exits 2. */
    long
    value(const char *text, const char *flag, long lo, long hi) const
    {
        if (text == nullptr || *text == '\0') error("bad value for", flag);
        char *end = nullptr;
        long v = std::strtol(text, &end, 10);
        if (*end != '\0' || v < lo || v > hi) error("bad value for", flag);
        return v;
    }

    /** Non-empty text value (a path); an empty one exits 2. */
    const char *
    text(const char *text, const char *flag) const
    {
        if (text == nullptr || *text == '\0') error("bad value for", flag);
        return text;
    }
};

} // namespace leaseos::benchsupport

#endif // LEASEOS_BENCH_SUPPORT_FLAGS_H
