/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * panic()  -- an internal simulator invariant was violated (a bug in the
 *             simulator itself); aborts so a debugger or core dump can
 *             capture the state.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, impossible kernel, ...); exits cleanly.
 * warn()   -- something is suspicious but simulation can continue.
 * inform() -- purely informational status output.
 */

#ifndef DLP_COMMON_LOGGING_HH
#define DLP_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dlp {

/** Exception thrown by fatal() so tests can observe user-level errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * The FatalError of a bad command line (unknown option, malformed flag
 * value), thrown by usage_error(). guardedMain() exits 2 on it.
 */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Exception thrown by panic() so tests can observe simulator bugs. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace logging_detail {

std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace logging_detail

/** Report an unrecoverable internal error and throw PanicError. */
[[noreturn]] void panicMsg(const char *file, int line, const std::string &msg);

/** Report an unrecoverable user error and throw FatalError. */
[[noreturn]] void fatalMsg(const char *file, int line, const std::string &msg);

/** Report a bad command line and throw UsageError. */
[[noreturn]] void usageMsg(const char *file, int line, const std::string &msg);

/**
 * Run a command-line binary's body(argc, argv) and return its exit
 * code; a UsageError becomes exit code 2 and any other FatalError exit
 * code 1, their message already on stderr. Panics still abort.
 */
int guardedMain(int argc, char **argv, int (*body)(int, char **));

/**
 * Emit a warning to stderr. Identical messages are rate-limited: after
 * warnRepeatLimit occurrences of the same text, further repeats are
 * suppressed (with a one-time note) so traced runs stay readable.
 */
void warnMsg(const std::string &msg);

/** Repeats of one identical warn() message before suppression. */
constexpr unsigned warnRepeatLimit = 5;

/**
 * Maximum distinct warn() messages tracked for rate limiting. Beyond
 * this the least-recently-warned message is evicted (LRU), so the table
 * stays bounded on long fuzz runs while suppression state for messages
 * still firing is preserved.
 */
constexpr size_t warnTableLimit = 4096;

/** Forget which warnings were already seen (tests / new experiments). */
void resetWarnDeduplication();

/** Distinct messages currently tracked by the dedup table (tests). */
size_t warnTableSize();

/** Occurrences recorded for one exact message, 0 if untracked (tests). */
uint64_t warnOccurrences(const std::string &msg);

/** Emit an informational message to stderr. */
void informMsg(const std::string &msg);

/** Globally silence warn()/inform() output (benchmarks use this). */
void setQuietLogging(bool quiet);
bool quietLogging();

#define panic(...) \
    ::dlp::panicMsg(__FILE__, __LINE__, ::dlp::logging_detail::format(__VA_ARGS__))

#define fatal(...) \
    ::dlp::fatalMsg(__FILE__, __LINE__, ::dlp::logging_detail::format(__VA_ARGS__))

#define usage_error(...) \
    ::dlp::usageMsg(__FILE__, __LINE__, ::dlp::logging_detail::format(__VA_ARGS__))

#define warn(...) \
    ::dlp::warnMsg(::dlp::logging_detail::format(__VA_ARGS__))

#define inform(...) \
    ::dlp::informMsg(::dlp::logging_detail::format(__VA_ARGS__))

/**
 * Always-on assertion for simulator invariants. Unlike assert(), this is
 * active in release builds: a cycle-level model that silently corrupts
 * state is worse than one that stops.
 */
#define panic_if(cond, ...)                                                   \
    do {                                                                      \
        if (cond)                                                             \
            panic(__VA_ARGS__);                                               \
    } while (0)

#define fatal_if(cond, ...)                                                   \
    do {                                                                      \
        if (cond)                                                             \
            fatal(__VA_ARGS__);                                               \
    } while (0)

#define usage_error_if(cond, ...)                                             \
    do {                                                                      \
        if (cond)                                                             \
            usage_error(__VA_ARGS__);                                         \
    } while (0)

} // namespace dlp

#endif // DLP_COMMON_LOGGING_HH
