#include "driver/cli.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "arch/configs.hh"
#include "check/verify.hh"
#include "common/logging.hh"
#include "driver/job_pool.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "obs/timeline.hh"
#include "verify/audit.hh"

namespace dlp::driver {

Cli::Cli(std::vector<Option> table) : options(std::move(table)) {}

void
Cli::add(std::vector<Option> group)
{
    options.insert(options.end(), group.begin(), group.end());
}

void
Cli::parse(int argc, char **argv)
{
    auto positional = options.begin();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            while (positional != options.end() && positional->name[0] == '-')
                ++positional;
            usage_error_if(positional == options.end(),
                           "unexpected argument '%s' (see --help)", argv[i]);
            positional->set(positional->name, arg);
            ++positional;
            continue;
        }
        size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        auto it = std::find_if(options.begin(), options.end(),
                               [&](const Option &o) { return name == o.name; });
        bool known = it != options.end();
        usage_error_if(!known && name != "--help",
                       "unknown option '%s' (see --help)", name.c_str());
        bool flag = !known || !it->metavar;
        usage_error_if(flag && eq != std::string::npos,
                       "%s takes no value, got '%s'", name.c_str(), argv[i]);
        if (!known) {
            std::string program = argv[0];
            std::fputs(usage(program.substr(program.rfind('/') + 1)).c_str(),
                       stdout);
            std::exit(0);
        }
        if (flag) {
            it->set(it->name, "");
        } else if (eq != std::string::npos) {
            it->set(it->name, arg.substr(eq + 1));
        } else {
            usage_error_if(i + 1 >= argc, "%s needs an argument", it->name);
            it->set(it->name, argv[++i]);
        }
    }
}

std::string
Cli::usage(const std::string &program) const
{
    auto row = [](std::string left, const std::string &help) {
        left.resize(std::max<size_t>(left.size(), 20), ' ');
        return "  " + left + "  " + help + "\n";
    };
    std::string synopsis = "Usage: " + program + " [options]";
    std::string rows;
    for (const Option &o : options) {
        if (o.name[0] != '-')
            synopsis += std::string(" [") + o.name + "]";
        rows += row(o.metavar ? std::string(o.name) + " " + o.metavar : o.name,
                    o.help);
    }
    return synopsis + "\n\nOptions:\n" + rows +
           row("--help", "print this help and exit");
}

Setter
setFlag(bool &out, bool value)
{
    return [&out, value](const char *, const std::string &) { out = value; };
}

Setter
setString(std::string &out)
{
    return [&out](const char *, const std::string &v) { out = v; };
}

Setter
setReal(double &out, double lo, double hi)
{
    return [&out, lo, hi](const char *name, const std::string &v) {
        out = parseRealFlag(name, v, lo, hi);
    };
}

Setter
setUintList(std::vector<uint64_t> &out, uint64_t maxSpan)
{
    return [&out, maxSpan](const char *name, const std::string &v) {
        out = parseUintListFlag(name, v, maxSpan);
    };
}

uint64_t
parseUintFlag(const char *flag, const std::string &text, uint64_t max)
{
    // from_chars takes no sign and no leading space, so "-1" fails here
    // instead of wrapping to 2^64 - 1 as strtoull would.
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc() && ptr == end && v <= max;
    usage_error_if(!ok && max == UINT64_MAX,
                   "%s expects a non-negative integer, got '%s'", flag,
                   text.c_str());
    usage_error_if(!ok,
                   "%s expects an integer in 0..%" PRIu64 ", got '%s'",
                   flag, max, text.c_str());
    return v;
}

double
parseRealFlag(const char *flag, const std::string &text, double lo,
              double hi)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc() && ptr == end && std::isfinite(v) &&
              v >= lo && v <= hi;
    usage_error_if(!ok && hi == HUGE_VAL,
                   "%s expects a number >= %g, got '%s'", flag, lo,
                   text.c_str());
    usage_error_if(!ok, "%s expects a number in [%g, %g], got '%s'", flag,
                   lo, hi, text.c_str());
    return v;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::vector<uint64_t>
parseUintListFlag(const char *flag, const std::string &text,
                  uint64_t maxSpan)
{
    std::vector<uint64_t> out;
    for (const auto &tok : splitList(text)) {
        size_t dots = tok.find("..");
        if (dots == std::string::npos) {
            out.push_back(parseUintFlag(flag, tok));
            continue;
        }
        uint64_t lo = parseUintFlag(flag, tok.substr(0, dots));
        uint64_t hi = parseUintFlag(flag, tok.substr(dots + 2));
        usage_error_if(hi < lo || hi - lo > maxSpan, "%s: bad range '%s'",
                       flag, tok.c_str());
        for (uint64_t d = 0; d <= hi - lo; ++d) // no wrap at 2^64 - 1
            out.push_back(lo + d);
    }
    usage_error_if(out.empty(), "%s: empty list '%s'", flag, text.c_str());
    return out;
}

unsigned
parseJobsFlag(const char *text)
{
    std::optional<unsigned> n = JobPool::parseWorkers(text);
    usage_error_if(!n,
                   "--jobs expects a non-negative worker count, got '%s'",
                   text);
    return *n;
}

void
checkName(const char *flag, const std::string &name,
          const std::vector<std::string> &known)
{
    if (std::find(known.begin(), known.end(), name) != known.end())
        return;
    std::string choices;
    for (const auto &k : known)
        choices += (choices.empty() ? "" : ", ") + k;
    usage_error("%s: unknown name '%s' (one of: %s)", flag, name.c_str(),
                choices.c_str());
}

Option
jobsOption(unsigned &jobs)
{
    return {"--jobs", "N",
            "worker threads (default: DLP_JOBS, else 1; 0 = one per "
            "hardware thread)",
            [&jobs](auto, auto &v) { jobs = parseJobsFlag(v.c_str()); }};
}

std::vector<Option>
gridOptions(SweepOptions &opts)
{
    return {
        jobsOption(opts.jobs),
        {"--audit", nullptr, "check conservation laws (also: DLP_AUDIT=1)",
         [](auto, auto &) { verify::setAuditEnabled(true); }},
        {"--check", nullptr, "statically check each plan (also: DLP_CHECK=1)",
         [](auto, auto &) { check::setCheckEnabled(true); }},
        {"--store", "DIR", "persistent result store (also: DLP_STORE=DIR)",
         setString(opts.storeDir)},
        {"--trace-out", "FILE", "write a timeline (also: DLP_TIMELINE=FILE)",
         [](auto, auto &v) {
             obs::setOutputPath(v);
             obs::setRecording(true);
         }},
        {"--timeseries", "N",
         "sample every stat each N ticks (also: DLP_TIMESERIES=N)",
         [](auto name, auto &v) {
             obs::setTimeseriesInterval(parseUintFlag(name, v));
         }},
    };
}

namespace {

/** A list of names checked against known(); "all" is every known name. */
Option
namesOption(const char *name, std::string help, std::vector<std::string> &out,
            const std::vector<std::string> &(*known)())
{
    Setter set = [&out, known](auto flag, auto &v) {
        if (v == "all") {
            out = known();
            return;
        }
        std::vector<std::string> names = splitList(v);
        usage_error_if(names.empty(), "%s: empty list '%s'", flag, v.c_str());
        for (const auto &n : names)
            checkName(flag, n, known());
        out = std::move(names);
    };
    return {name, "a,b,...", std::move(help), std::move(set)};
}

} // namespace

Option
kernelsOption(std::vector<std::string> &out, const char *dflt)
{
    return namesOption("--kernels",
                       std::string("kernels, or \"all\" for the whole "
                                   "catalog (default: ") +
                           dflt + ")",
                       out, kernels::kernelNames);
}

Option
configsOption(std::vector<std::string> &out, const char *dflt)
{
    return namesOption("--configs",
                       std::string("configs, or \"all\" for every Table 5 "
                                   "config (default: ") +
                           dflt + ")",
                       out, arch::allConfigNames);
}

} // namespace dlp::driver
