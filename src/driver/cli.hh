/**
 * @file
 * The one command-line layer of every bench and example binary.
 *
 * A binary declares its options as one table of Option entries (name,
 * metavar, one-line help, setter) and calls Cli::parse. The parser
 * takes `--name value` and `--name=value` for every valued option,
 * rejects a value on a flag, prints a Usage block generated from the
 * table on `--help`, and reports every bad command line through
 * usage_error(), which guardedMain() turns into exit code 2.
 *
 * Beside it live the checked value parsers the setters use and the
 * option groups several binaries share: the grid group (--jobs,
 * --audit, --check, --store, --trace-out, --timeseries) and the
 * --kernels / --configs name lists.
 */

#ifndef DLP_DRIVER_CLI_HH
#define DLP_DRIVER_CLI_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace dlp::driver {

struct SweepOptions;

/**
 * Stores one command-line value. Receives the option's name ("--seed")
 * to label its errors, and the value ("" for a flag).
 */
using Setter = std::function<void(const char *name, const std::string &value)>;

/** One entry of a binary's option table. */
struct Option
{
    /** "--name" for an option; a bare word names a positional. */
    const char *name;
    /** Placeholder of the value in --help; nullptr for a flag. */
    const char *metavar;
    std::string help;
    Setter set;
};

/**
 * A binary's option table and its parser. Positional entries are
 * optional and filled in table order.
 */
class Cli
{
  public:
    explicit Cli(std::vector<Option> options = {});

    /** Register a shared option group. */
    void add(std::vector<Option> group);

    /**
     * Apply argv to the table: every setter runs in command-line order.
     * usage_error() on an unknown option, a missing value, a value on a
     * flag, or a positional beyond the table's. `--help` prints usage()
     * to stdout and exits 0.
     */
    void parse(int argc, char **argv);

    /** The Usage block `--help` prints for `program`. */
    std::string usage(const std::string &program) const;

  private:
    std::vector<Option> options;
};

/// @name Setters for the common value kinds.
/// @{
Setter setFlag(bool &out, bool value = true);
Setter setString(std::string &out);
Setter setReal(double &out, double lo = 0.0, double hi = HUGE_VAL);
Setter setUintList(std::vector<uint64_t> &out, uint64_t maxSpan = 4096);
/// @}

/**
 * The checked integer parser of every bench and example flag: the
 * decimal value of `text`, which must not exceed max. usage_error(),
 * naming the flag, when the text is empty, not a number (trailing
 * characters included), negative or out of range.
 */
uint64_t parseUintFlag(const char *flag, const std::string &text,
                       uint64_t max = UINT64_MAX);

/** Stores parseUintFlag() of the value, bounded by out's type. */
template <class T>
Setter
setUint(T &out)
{
    return [&out](const char *name, const std::string &v) {
        out = T(parseUintFlag(name, v, std::numeric_limits<T>::max()));
    };
}

/**
 * The same for a real value (rates, bandwidths, thresholds):
 * usage_error(), naming the flag, unless `text` is a whole finite
 * decimal number in [lo, hi]. The default range is every non-negative
 * number.
 */
double parseRealFlag(const char *flag, const std::string &text,
                     double lo = 0.0, double hi = HUGE_VAL);

/** The items of a comma-separated flag value, empty items dropped. */
std::vector<std::string> splitList(const std::string &text);

/**
 * A flag's list of integers: comma-separated items, each a value or an
 * inclusive range "lo..hi" of at most maxSpan + 1 values, every value
 * checked as parseUintFlag checks it. usage_error() on an empty list or
 * a bad range.
 */
std::vector<uint64_t> parseUintListFlag(const char *flag,
                                        const std::string &text,
                                        uint64_t maxSpan = 4096);

/** JobPool::parseWorkers() of a `--jobs` value; usage_error() if malformed. */
unsigned parseJobsFlag(const char *text);

/** usage_error(), naming the flag, unless `name` is one of `known`. */
void checkName(const char *flag, const std::string &name,
               const std::vector<std::string> &known);

/** The --jobs option, stored into `jobs`. */
Option jobsOption(unsigned &jobs);

/**
 * The grid group: --jobs and --store into `opts`; --audit, --check,
 * --trace-out and --timeseries switch the process-wide audit, check,
 * timeline and time-series settings.
 */
std::vector<Option> gridOptions(SweepOptions &opts);

/**
 * --kernels: comma-separated kernel names, each checked against the
 * catalog, or "all" for every catalog kernel. Without the flag `out`
 * keeps the binary's default, described by `dflt`.
 */
Option kernelsOption(std::vector<std::string> &out, const char *dflt);

/** --configs: the same for Table 5 configuration names. */
Option configsOption(std::vector<std::string> &out, const char *dflt);

} // namespace dlp::driver

#endif // DLP_DRIVER_CLI_HH
