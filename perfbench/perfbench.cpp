/**
 * @file
 * The repository benchmark. It runs one named workload through
 * the simulator's public entry points in a closed loop (one thread, one
 * operation after another), times every operation with its own clock,
 * checks every output, and prints the metrics as the last line of
 * stdout, one JSON object. perfbench/README.md describes the workloads
 * and metrics; perfbench/run.py builds this program and runs it.
 *
 *   perfbench --workload grid|serve --seed N --seconds S
 *             --trace 0|1 --digests DIR [--trace-out FILE]
 *   perfbench --record grid|serve [--from A --to B]
 *
 * An untraced run makes a fixed number of passes over the workload's
 * operations, set by --seconds and the workload's nominal pass time, so
 * two builds of different speed measure the same passes. With --trace 1
 * the run instead records spans around its calls into each layer (and
 * calls some layers separately on the same inputs, so their time is
 * visible from outside) and reports per-layer metrics. --record prints
 * the digest table the checks compare against.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/multicore.hh"
#include "arch/processor.hh"
#include "check/verify.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cost/cost.hh"
#include "driver/service.hh"
#include "driver/sweep.hh"
#include "epoch/epoch.hh"
#include "kernels/catalog.hh"
#include "kernels/interp.hh"
#include "kernels/workload.hh"
#include "sched/linearize.hh"
#include "sched/simd_lowering.hh"
#include "store/codec.hh"
#include "traffic/generator.hh"
#include "verify/audit.hh"

using namespace dlp;

namespace {

using Clock = std::chrono::steady_clock;

/// Serve seeds repeat with this period, so every seed has digests.
constexpr uint64_t serveSeedPeriod = 100;

/// Dataset seed of the paper grid (analysis::runGrid's default).
constexpr uint64_t gridDataSeed = 1234;

/** What sets how much one run of a workload measures. */
struct WorkloadSpec
{
    const char *name;
    /// Nominal seconds of one untraced pass; --seconds over this, at
    /// least two, is the pass count.
    double passSeconds;
    /// Set-ups timed in fresh child processes, besides the parent's own.
    int forkedSetups;
};

const WorkloadSpec workloadSpecs[] = {
    {"grid", 9.0, 4},
    {"serve", 4.0, 29},
};

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const auto &s : workloadSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** Exact work counters, summed over operations. */
using Counters = std::map<std::string, uint64_t>;

/**
 * Spans the benchmark records around its own calls into the simulator:
 * name, start, end (seconds since the tracer was made), parent span and
 * operation index. Kept in memory and written out once at the end.
 * A disabled tracer still keeps time; it only records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on(on), origin(Clock::now()) {}

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin).count();
    }

    /** Record a finished span; returns its id, or -1 when disabled. */
    int
    add(const std::string &name, double start, double end, int parent,
        int64_t op)
    {
        if (!on)
            return -1;
        spans.push_back({name, start, end, parent, op});
        return int(spans.size()) - 1;
    }

    int open(const std::string &name, int parent, int64_t op)
    {
        return add(name, now(), now(), parent, op);
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[size_t(id)].end = now();
    }

    size_t size() const { return spans.size(); }

    /** Summed duration of the spans called `name` in [from, to). */
    double
    total(const std::string &name, size_t from, size_t to) const
    {
        double sum = 0.0;
        for (size_t i = from; i < to && i < spans.size(); ++i)
            if (spans[i].name == name)
                sum += spans[i].end - spans[i].start;
        return sum;
    }

    void
    write(const std::string &path) const
    {
        json::Value list = json::Value::array();
        for (const auto &s : spans) {
            json::Value v = json::Value::object();
            v.set("name", s.name);
            v.set("start", s.start);
            v.set("end", s.end);
            v.set("parent", int64_t(s.parent));
            v.set("op", s.op);
            list.push(std::move(v));
        }
        json::Value doc = json::Value::object();
        doc.set("spans", std::move(list));
        std::ofstream out(path);
        out << json::write(doc, 0) << "\n";
        if (!out)
            throw std::runtime_error("cannot write trace " + path);
    }

  private:
    struct Record
    {
        std::string name;
        double start;
        double end;
        int parent;
        int64_t op;
    };

    bool on;
    Clock::time_point origin;
    std::vector<Record> spans;
};

/** A span over one C++ scope. */
class Span
{
  public:
    Span(Tracer &t, const char *name, int parent, int64_t op)
        : tracer(t), spanId(t.open(name, parent, op))
    {
    }
    ~Span() { tracer.close(spanId); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** The span's id, a parent for spans inside it. */
    int id() const { return spanId; }

  private:
    Tracer &tracer;
    int spanId;
};

/** One operation of a pass and what its checks found. */
struct OpResult
{
    std::string key;        ///< digest-table key of the operation
    double seconds = 0.0;   ///< wall time, benchmark clock
    uint64_t digest = 0;    ///< simulated outputs, host fields stripped
    uint64_t sims = 0;      ///< simulations run, or requests served
    uint64_t insts = 0;     ///< simulated instructions those stand for
    Counters counters;
    std::string failure;    ///< first failed check; empty when all pass
};

uint64_t
fnv(const std::string &s)
{
    Fnv1a64 h;
    h.add(s.data(), s.size());
    return h.digest();
}

/** A result's simulated state: its full JSON minus host measurements. */
std::string
simulatedJson(arch::ExperimentResult res)
{
    res.hostSeconds = 0.0;
    res.hostEvents = 0;
    res.ffEpochs = 0;
    res.ffIterations = 0;
    res.ffEventsSaved = 0;
    res.eventActivations = 0;
    return json::write(store::resultToJson(res), 0);
}

uint64_t
groupScalar(const std::vector<GroupSnapshot> &groups, const char *group,
            const char *name)
{
    for (const auto &g : groups) {
        if (g.name != group)
            continue;
        auto it = g.scalars.find(name);
        return it == g.scalars.end() ? 0 : uint64_t(std::llround(it->second));
    }
    return 0;
}

void
addResultCounters(Counters &c, const arch::ExperimentResult &r)
{
    c["sim.events"] += r.hostEvents;
    c["epoch.ff_iterations"] += r.ffIterations;
    c["epoch.ff_events_saved"] += r.ffEventsSaved;
    c["core.activations"] += r.activations;
    c["core.mappings"] += r.mappings;
    c["core.insts_executed"] += r.instsExecuted;
    const auto &g = r.statGroups;
    c["noc.operands_routed"] += groupScalar(g, "noc.mesh", "operandsRouted");
    c["noc.total_hops"] += groupScalar(g, "noc.mesh", "totalHops");
    c["noc.contention_ticks"] += groupScalar(g, "noc.mesh", "contentionTicks");
    c["mem.smc_reads"] += groupScalar(g, "mem.smc", "reads");
    c["mem.smc_writes"] += groupScalar(g, "mem.smc", "writes");
    c["mem.l1_misses"] += groupScalar(g, "mem.sys", "l1Misses");
}

/**
 * Call separately the layers TripsProcessor::run composes -- stream
 * layout and lowering, the cost model, the static checker -- on one
 * workload instance, so each one's time shows in its own span, then
 * audit the run's result. Returns the audit's finding count.
 */
size_t
probeLayers(Tracer &t, int parent, int64_t op, const kernels::Workload &wl,
            const std::string &config, const arch::ExperimentResult &res)
{
    core::MachineParams m = arch::configByName(config);
    const bool mimd = m.mech.localPC;
    const kernels::Kernel &k = wl.kernel();
    sched::SimdPlan simdPlan;
    sched::MimdPlan mimdPlan;
    {
        Span s(t, "sched.lower", parent, op);
        uint64_t chunkRecords = 0;
        sched::StreamLayout layout =
            arch::makeStreamLayout(k, m, chunkRecords);
        if (mimd)
            mimdPlan = sched::lowerMimd(k, m, layout);
        else
            simdPlan = sched::lowerSimd(k, m, layout);
    }
    {
        Span s(t, "cost.analyze", parent, op);
        if (mimd)
            (void)cost::analyzeMimd(mimdPlan, m, wl.totalRecords(),
                                    wl.numBatches());
        else
            (void)cost::analyzeSimd(simdPlan, m, wl.totalRecords(),
                                    wl.numBatches());
    }
    {
        Span s(t, "check.verify", parent, op);
        check::MappedProgram prog;
        prog.kernel = &k;
        if (mimd)
            prog.mimd = &mimdPlan;
        else
            prog.simd = &simdPlan;
        (void)check::verify(prog, m);
    }
    Span s(t, "verify.audit", parent, op);
    return verify::auditResult(res).size();
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The once-per-process work before the measured phase. */
    virtual void setup(Tracer &t) = 0;

    /**
     * One pass over the workload's operations, in order. `traced` adds
     * the per-layer calls and cross-checks; they run after the
     * operations, outside their timing.
     */
    virtual std::vector<OpResult> pass(Tracer &t, bool traced) = 0;
};

/**
 * grid: the Figure-5/Table-4 grid, 13 perf kernels x 6 configurations at
 * default scale and the paper's dataset seed, serial. One operation is
 * one cell: what driver::runSweep does for a cell once its fixture
 * exists -- instantiate the fixture, TripsProcessor::run, check
 * `verified` -- on the fixtures set-up built, so building them counts
 * once, in set-up. The workload seed only sets the order of the cells.
 * A traced pass also runs the whole plan through runSweep, which must
 * give the same results.
 */
class GridWorkload : public Workload
{
  public:
    explicit GridWorkload(uint64_t seed)
    {
        for (const auto &k : analysis::perfKernels())
            for (const auto &c : arch::allConfigNames())
                cells.push_back({k, c, 1, gridDataSeed, 0});
        Rng rng(seed);
        for (size_t i = cells.size(); i > 1; --i)
            std::swap(cells[i - 1], cells[rng.below(i)]);
    }

    void
    setup(Tracer &t) override
    {
        // The kernel catalog and the golden-model fixtures; the first
        // Blowfish construction computes its pi table.
        for (const auto &k : analysis::perfKernels()) {
            Span s(t, "ref.fixture", -1, -1);
            (void)kernels::kernelByName(k);
            fixtures[k] = kernels::makeFixture(k, driver::scaleFor(k, 1),
                                               gridDataSeed);
        }
    }

    std::vector<OpResult>
    pass(Tracer &t, bool traced) override
    {
        std::vector<OpResult> ops(cells.size());
        std::vector<arch::ExperimentResult> results(cells.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            const driver::SweepTask &cell = cells[i];
            OpResult &op = ops[i];
            op.key = cell.kernel + "/" + cell.config;
            int span = t.open("cell", -1, int64_t(i));
            double t0 = t.now();
            try {
                auto wl = fixtures.at(cell.kernel)->instantiate();
                arch::TripsProcessor cpu(arch::configByName(cell.config));
                Span s(t, "arch.run", span, int64_t(i));
                results[i] = cpu.run(*wl);
            } catch (const std::exception &e) {
                op.failure = std::string("run threw: ") + e.what();
            }
            op.seconds = t.now() - t0;
            t.close(span);
            if (!op.failure.empty())
                continue;
            const arch::ExperimentResult &res = results[i];
            op.digest = fnv(simulatedJson(res));
            op.sims = 1;
            op.insts = res.instsExecuted;
            addResultCounters(op.counters, res);
            if (!res.verified)
                op.failure = "not verified: " + res.error;
        }
        if (traced)
            crossCheck(t, ops, results);
        return ops;
    }

  private:
    /** The traced pass's layer probes and its runSweep comparison. */
    void
    crossCheck(Tracer &t, std::vector<OpResult> &ops,
               const std::vector<arch::ExperimentResult> &results)
    {
        for (size_t i = 0; i < cells.size(); ++i) {
            if (!ops[i].failure.empty())
                continue;
            Span check(t, "bench.check", -1, int64_t(i));
            const kernels::WorkloadFixture &fixture =
                *fixtures.at(cells[i].kernel);
            auto wl = fixture.instantiate();
            {
                // The interpreter oracle on the cell's first batch.
                auto first = fixture.instantiate();
                std::vector<Word> input, output;
                uint64_t records = 0;
                first->nextBatch(input, records);
                Span s(t, "kernels.interp", check.id(), int64_t(i));
                kernels::interpretBatch(first->kernel(), input, output,
                                        records, first->irregularMemory());
            }
            if (probeLayers(t, check.id(), int64_t(i), *wl, cells[i].config,
                            results[i]))
                ops[i].failure = "audit violations";
        }

        driver::SweepPlan plan;
        plan.tasks = cells;
        driver::SweepOptions opts;
        opts.jobs = 1;
        opts.useCache = false;
        std::vector<arch::ExperimentResult> swept;
        {
            Span s(t, "driver.run_sweep", -1, -1);
            try {
                swept = driver::runSweep(plan, opts);
            } catch (const std::exception &e) {
                for (auto &op : ops)
                    op.failure = std::string("runSweep threw: ") + e.what();
                return;
            }
        }
        for (size_t i = 0; i < ops.size(); ++i)
            if (ops[i].failure.empty() &&
                fnv(simulatedJson(swept.at(i))) != ops[i].digest)
                ops[i].failure = "runSweep's result differs from the "
                                 "direct run's";
    }

    std::vector<driver::SweepTask> cells;
    std::map<std::string, std::shared_ptr<const kernels::WorkloadFixture>>
        fixtures;
};

/** One run of the serve capacity sweep. */
struct ServePoint
{
    unsigned cores;
    double load;       ///< offered load over the saturation estimate
    double bandwidth;  ///< shared words/tick; 0 = the default pool

    std::string
    name() const
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "c%u-x%.2f-%s", cores, load,
                      bandwidth > 0.0 ? "thin" : "default");
        return buf;
    }
};

/**
 * serve: a capacity sweep of driver::runService runs, S-O-D cores
 * behind the shared SMC, each exported to an in-memory JSON string.
 * The request-class profiles (six single-core simulations) are set-up;
 * each operation composes what runService does after profiling --
 * traffic::generate, MultiCoreSystem::serve, the service audit -- and
 * then the export, analysis::toJson and json::write. A traced pass
 * checks every composition against runService itself.
 */
class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(uint64_t trafficSeed)
    {
        traffic.rps = 0.0;
        traffic.requests = 50000;
        traffic.batch = 256;
        traffic.seed = trafficSeed;
        traffic.seedPool = 2;
        traffic.arrival = traffic::Arrival::Poisson;
        traffic.mix = traffic::parseMix("convert:2,md5,fft");
        for (double bandwidth : {0.0, 2.0})
            for (unsigned cores : {1u, 2u, 4u, 8u})
                for (double load : {0.6, 0.9, 1.0, 1.1, 1.4})
                    points.push_back({cores, load, bandwidth});
    }

    void
    setup(Tracer &t) override
    {
        {
            Span s(t, "ref.fixture", -1, -1);
            for (const auto &e : traffic.mix)
                (void)kernels::kernelByName(e.kernel);
        }
        // The profile runs exactly as driver::runService plans them.
        Span s(t, "driver.profile_sweep", -1, -1);
        driver::SweepPlan plan;
        for (const auto &e : traffic.mix)
            for (uint64_t slot = 0; slot < traffic.seedPool; ++slot)
                plan.tasks.push_back(
                    {e.kernel, config, 1,
                     driver::slotSeed(traffic, uint32_t(slot)),
                     traffic.batch});
        driver::SweepOptions opts;
        opts.jobs = 1;
        opts.useCache = false;
        std::vector<arch::ExperimentResult> profiled =
            driver::runSweep(plan, opts);
        profiles.clear();
        classInsts.clear();
        for (size_t i = 0; i < profiled.size(); ++i) {
            profiles.push_back(driver::profileFromResult(
                profiled[i], config, traffic.batch, plan.tasks[i].seed));
            classInsts.push_back(profiled[i].instsExecuted);
        }
    }

    std::vector<OpResult>
    pass(Tracer &t, bool traced) override
    {
        std::vector<OpResult> ops(points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            OpResult &op = ops[i];
            const ServePoint &pt = points[i];
            op.key = std::to_string(traffic.seed) + "/" + pt.name();
            const traffic::TrafficParams tp = trafficAt(pt);

            std::string text;
            arch::ServiceResult res;
            int span = t.open("driver.service", -1, int64_t(i));
            double t0 = t.now();
            try {
                std::vector<traffic::Request> schedule;
                {
                    Span s(t, "traffic.generate", span, int64_t(i));
                    schedule = traffic::generate(tp);
                }
                {
                    Span s(t, "arch.serve", span, int64_t(i));
                    arch::SystemParams sp;
                    sp.cores = pt.cores;
                    sp.bandwidthWordsPerTick = pt.bandwidth;
                    sp.ticksPerSec = tp.ticksPerSec;
                    arch::MultiCoreSystem system(sp, profiles, tp.seedPool);
                    res = system.serve(schedule);
                }
                res.config = config;
                res.offeredRps = tp.rps;
                res.arrival = traffic::arrivalName(tp.arrival);
                res.batch = tp.batch;
                res.seed = tp.seed;
                {
                    Span s(t, "verify.audit", span, int64_t(i));
                    verify::auditAndRecordService(res);
                }
                json::Value doc;
                {
                    Span s(t, "analysis.to_json", span, int64_t(i));
                    doc = analysis::toJson(res);
                }
                {
                    Span s(t, "common.json_write", span, int64_t(i));
                    text = json::write(doc);
                }
            } catch (const std::exception &e) {
                op.failure = std::string("service threw: ") + e.what();
            }
            op.seconds = t.now() - t0;
            t.close(span);
            if (!op.failure.empty())
                continue;

            op.digest = fnv(text);
            op.sims = res.completed;
            for (const auto &r : res.requests)
                op.insts += classInsts.at(r.mixIndex * tp.seedPool +
                                          r.seedSlot);
            op.counters["mc.requests_completed"] +=
                groupScalar(res.statGroups, "sys.mc", "completed");
            op.counters["mem.shared_stall_ticks"] +=
                groupScalar(res.statGroups, "mem.shared", "stallTicks");
            op.counters["analysis.export_bytes"] += text.size();
            if (!res.audited || !res.auditViolations.empty())
                op.failure = "service conservation laws violated";
            else if (res.completed != tp.requests ||
                     res.injected != tp.requests)
                op.failure = "not every request was served";
        }

        // The composition must export exactly what runService exports.
        for (size_t i = 0; traced && i < points.size(); ++i) {
            Span s(t, "bench.check", -1, int64_t(i));
            driver::ServiceOptions so;
            so.config = config;
            so.cores = points[i].cores;
            so.bandwidthWordsPerTick = points[i].bandwidth;
            so.traffic = trafficAt(points[i]);
            so.jobs = 1;
            so.useCache = false;
            std::string text =
                json::write(analysis::toJson(driver::runService(so)));
            if (fnv(text) != ops[i].digest && ops[i].failure.empty())
                ops[i].failure = "composition differs from runService";
        }
        return ops;
    }

  private:
    traffic::TrafficParams
    trafficAt(const ServePoint &pt) const
    {
        traffic::TrafficParams tp = traffic;
        tp.rps = saturationRpsPerCore * pt.cores * pt.load;
        return tp;
    }

    /// Measured single-core saturation of this mix on S-O-D.
    static constexpr double saturationRpsPerCore = 13400.0;
    const std::string config = "S-O-D";
    traffic::TrafficParams traffic;
    std::vector<ServePoint> points;
    std::vector<arch::RequestProfile> profiles;
    std::vector<uint64_t> classInsts;  ///< per profile, mix-major
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "grid")
        return std::make_unique<GridWorkload>(seed);
    return std::make_unique<ServeWorkload>(seed % serveSeedPeriod);
}

/** The simulator switches every workload runs with. */
void
fixSwitches(const std::string &workload)
{
    epoch::setFastForwardEnabled(true);
    check::setCheckEnabled(false);
    // Serve audits each run (its seven conservation laws are part of
    // its output check); grid runs at the sweep default, unaudited.
    verify::setAuditEnabled(workload == "serve");
}

/**
 * Time the workload's set-up in a fresh child process, so per-process
 * caches (the pi table, function-local statics) start cold as they do
 * in a new process.
 */
double
forkedSetupSeconds(const std::string &workload, uint64_t seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        double seconds = -1.0;
        try {
            auto w = makeWorkload(workload, seed);
            Tracer t(false);
            double t0 = t.now();
            w->setup(t);
            seconds = t.now() - t0;
        } catch (...) {
        }
        ssize_t n = write(fds[1], &seconds, sizeof seconds);
        _exit(n == ssize_t(sizeof seconds) && seconds >= 0.0 ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1.0;
    ssize_t n = read(fds[0], &seconds, sizeof seconds);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (n != ssize_t(sizeof seconds) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up failed in a child process");
    return seconds;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/**
 * The highest whole percentile that still has at least ten of one
 * pass's samples beyond it: p87 of 78 cells, p75 of 40 service runs.
 * Fixed per workload, whatever the pass count.
 */
unsigned
tailPercentile(size_t opsPerPass)
{
    return unsigned(std::floor(100.0 * (1.0 - 10.0 / double(opsPerPass))));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

using DigestTable = std::unordered_map<std::string, uint64_t>;

DigestTable
loadDigests(const std::string &dir, const std::string &workload)
{
    std::string path = dir + "/" + workload + ".txt";
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digest table " + path);
    DigestTable table;
    std::string key, hex;
    while (in >> key >> hex)
        table[key] = std::stoull(hex, nullptr, 16);
    return table;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

struct Pass
{
    std::vector<OpResult> ops;
    size_t spanBegin = 0;
    size_t spanEnd = 0;

    double
    opSeconds() const
    {
        double s = 0.0;
        for (const auto &op : ops)
            s += op.seconds;
        return s;
    }

    Counters
    counters() const
    {
        Counters c;
        for (const auto &op : ops)
            for (const auto &[k, v] : op.counters)
                c[k] += v;
        return c;
    }
};

Pass
runPass(Workload &w, Tracer &t, bool traced)
{
    Pass p;
    p.spanBegin = t.size();
    uint64_t hitsBefore = driver::resultCacheHits();
    p.ops = w.pass(t, traced);
    uint64_t hits = driver::resultCacheHits() - hitsBefore;
    if (!p.ops.empty())
        p.ops.front().counters["driver.cache_hits"] += hits;
    if (hits)
        for (auto &op : p.ops)
            op.failure = "the sweep used the result cache";
    p.spanEnd = t.size();
    return p;
}

void
checkDigests(Pass &p, const DigestTable &table)
{
    for (auto &op : p.ops) {
        if (!op.failure.empty())
            continue;
        auto it = table.find(op.key);
        if (it == table.end())
            op.failure = "no recorded digest for " + op.key;
        else if (it->second != op.digest)
            op.failure = "digest " + hex64(op.digest) + " differs from "
                         "the recorded " + hex64(it->second);
    }
}

/** Fail the ops of `b` whose outputs or counters differ from `a`'s. */
void
checkSame(const Pass &a, Pass &b, bool counters, const char *what)
{
    for (size_t i = 0; i < b.ops.size(); ++i) {
        OpResult &op = b.ops[i];
        if (!op.failure.empty())
            continue;
        if (i >= a.ops.size() || a.ops[i].key != op.key ||
            a.ops[i].digest != op.digest ||
            (counters && a.ops[i].counters != op.counters))
            op.failure = std::string("differs between ") + what;
    }
}

struct Args
{
    std::string workload;
    std::string record;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string digests;
    std::string traceOut;
    uint64_t from = 0;
    uint64_t to = 0;
    bool haveSeed = false;
    bool haveRange = false;
};

const char usage[] =
    "usage: perfbench --workload grid|serve --seed N --seconds S "
    "--trace 0|1 --digests DIR [--trace-out FILE]\n"
    "       perfbench --record grid|serve [--from A --to B]\n";

bool
parseU64(const char *s, uint64_t &out)
{
    const char *end = s + std::strlen(s);
    auto [p, ec] = std::from_chars(s, end, out);
    return *s && ec == std::errc() && p == end;
}

/** Parse argv; returns an error message, empty on success. */
std::string
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return flag + " needs a value";
        const char *v = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload" || flag == "--record") {
            if (!findSpec(v))
                return std::string("unknown workload '") + v + "'";
            (flag == "--workload" ? a.workload : a.record) = v;
        } else if (flag == "--seed") {
            if (!parseU64(v, a.seed))
                return std::string("malformed seed '") + v + "'";
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseU64(v, n) || n < 1 || n > 3600)
                return std::string("--seconds must be 1..3600, not '") + v +
                       "'";
            a.seconds = double(n);
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return std::string("--trace must be 0 or 1, not '") + v + "'";
            a.trace = v[0] - '0';
        } else if (flag == "--digests") {
            a.digests = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else if (flag == "--from" || flag == "--to") {
            if (!parseU64(v, flag == "--from" ? a.from : a.to))
                return "malformed " + flag + " '" + v + "'";
            a.haveRange = true;
        } else {
            return "unknown flag '" + flag + "'";
        }
    }
    if (!a.record.empty())
        return a.workload.empty() ? "" : "--record and --workload conflict";
    if (a.workload.empty() || !a.haveSeed || a.seconds <= 0.0 ||
        a.trace < 0 || a.digests.empty())
        return "--workload, --seed, --seconds, --trace and --digests are "
               "all required";
    return "";
}

/** Print the digest table of a workload over a seed range. */
int
record(const Args &a)
{
    fixSwitches(a.record);
    std::vector<OpResult> ops;
    Tracer t(false);
    if (a.record == "grid") {
        GridWorkload w(0);
        w.setup(t);
        ops = w.pass(t, false);
    } else {
        uint64_t from = a.haveRange ? a.from : 0;
        uint64_t to = a.haveRange ? a.to : serveSeedPeriod - 1;
        for (uint64_t s = from; s <= to; ++s) {
            ServeWorkload w(s);
            w.setup(t);
            for (auto &op : w.pass(t, false))
                ops.push_back(std::move(op));
        }
    }
    int failed = 0;
    for (const auto &op : ops) {
        if (!op.failure.empty()) {
            std::fprintf(stderr, "%s: %s\n", op.key.c_str(),
                         op.failure.c_str());
            ++failed;
        }
        std::printf("%s %s\n", op.key.c_str(), hex64(op.digest).c_str());
    }
    return failed ? 1 : 0;
}

void
setMetric(json::Value &metrics, const std::string &name, json::Value value,
          const char *unit)
{
    json::Value m = json::Value::object();
    m.set("value", std::move(value));
    m.set("unit", unit);
    metrics.set(name, std::move(m));
}

int
measure(const Args &a)
{
    fixSwitches(a.workload);
    DigestTable table = loadDigests(a.digests, a.workload);
    const WorkloadSpec &spec = *findSpec(a.workload);
    const bool traced = a.trace == 1;

    std::vector<double> setups;
    for (int i = 0; !traced && i < spec.forkedSetups; ++i)
        setups.push_back(forkedSetupSeconds(a.workload, a.seed));
    auto w = makeWorkload(a.workload, a.seed);
    Tracer t(traced);
    double t0 = t.now();
    w->setup(t);
    setups.push_back(t.now() - t0);
    const size_t setupSpans = t.size();

    // Untraced: a pass count fixed by --seconds alone, so a faster build
    // gets no more repeats than a slower one. Traced: one round of a
    // plain pass, on grid a pass with fast-forward off, then a traced
    // pass. The plain pass gives the tracing overhead and the counters
    // the traced pass must match; the two fast-forward-on passes
    // bracket the off pass in time.
    const long rounds =
        traced ? 1 : std::max(2L, std::lround(a.seconds / spec.passSeconds));
    std::vector<Pass> plain, withSpans, ffOff;
    Tracer quiet(false);
    for (long round = 0; round < rounds; ++round) {
        plain.push_back(runPass(*w, quiet, false));
        checkDigests(plain.back(), table);
        if (!traced)
            continue;
        if (a.workload == "grid") {
            epoch::setFastForwardEnabled(false);
            ffOff.push_back(runPass(*w, quiet, false));
            epoch::setFastForwardEnabled(true);
            checkSame(plain.back(), ffOff.back(), false,
                      "fast-forward on and off");
        }
        withSpans.push_back(runPass(*w, t, true));
        checkSame(plain.back(), withSpans.back(), true,
                  "the traced and untraced passes");
    }

    uint64_t attempted = 0, failed = 0;
    for (const auto *passes : {&plain, &withSpans, &ffOff})
        for (const auto &p : *passes)
            for (const auto &op : p.ops) {
                ++attempted;
                if (op.failure.empty())
                    continue;
                if (++failed <= 5)
                    std::printf("FAILED %s: %s\n", op.key.c_str(),
                                op.failure.c_str());
            }
    // The host's cores are shared, and other tenants slow it down in
    // phases of seconds to a minute, by up to 2x. Each operation's time
    // is therefore the fastest of its repeats, which run whole passes
    // apart; run_s is one pass at those times, and rates are one pass's
    // work over it.
    const size_t opsPerPass = plain.front().ops.size();
    std::vector<double> opTimes(opsPerPass, HUGE_VAL), passTimes;
    for (const auto &p : plain) {
        passTimes.push_back(p.opSeconds());
        for (size_t i = 0; i < opsPerPass; ++i)
            opTimes[i] = std::min(opTimes[i], p.ops[i].seconds);
    }
    double runS = 0.0;
    for (double s : opTimes)
        runS += s;
    uint64_t sims = 0, insts = 0;
    for (const auto &op : plain.front().ops) {
        sims += op.sims;
        insts += op.insts;
    }
    const unsigned tailPct = tailPercentile(opsPerPass);

    std::printf("perfbench: workload %s, seed %llu, %zu pass(es) of %zu "
                "operations, %zu samples (fastest repeats), tail = p%u, "
                "%llu failed of %llu\n",
                a.workload.c_str(), (unsigned long long)a.seed, plain.size(),
                opsPerPass, opTimes.size(), tailPct,
                (unsigned long long)failed, (unsigned long long)attempted);
    std::printf("set-up seconds:");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\npass seconds:");
    for (double s : passTimes)
        std::printf(" %.3f", s);
    std::printf("\n");
    Counters counters = plain.front().counters();
    std::printf("counters:");
    for (const auto &[k, v] : counters)
        std::printf(" %s=%llu", k.c_str(), (unsigned long long)v);
    std::printf("\n");

    json::Value metrics = json::Value::object();
    if (!traced) {
        setMetric(metrics, "setup_s", median(setups), "s");
        setMetric(metrics, "run_s", runS, "s");
        setMetric(metrics, "op_p50_ms", 1e3 * percentile(opTimes, 50), "ms");
        setMetric(metrics, "op_tail_ms", 1e3 * percentile(opTimes, tailPct),
                  "ms");
        setMetric(metrics, "sim_insts_per_s", double(insts) / runS, "1/s");
        setMetric(metrics, "requests_per_s", double(sims) / runS, "1/s");
        setMetric(metrics, "peak_rss_mb", peakRssMb(), "MB");
    } else {
        // Per-layer figures are per pass, averaged over the traced passes.
        auto layer = [&](const std::string &name) {
            double sum = 0.0;
            for (const auto &p : withSpans)
                sum += t.total(name, p.spanBegin, p.spanEnd);
            return sum / double(withSpans.size());
        };
        auto totalOp = [](const std::vector<Pass> &passes) {
            double s = 0.0;
            for (const auto &p : passes)
                s += p.opSeconds();
            return s;
        };
        double lower = layer("sched.lower"), costS = layer("cost.analyze");
        double run = layer("arch.run"), sweep = layer("driver.run_sweep");
        setMetric(metrics, "ref.fixture_s",
                  t.total("ref.fixture", 0, setupSpans), "s");
        setMetric(metrics, "sched.lower_s", lower, "s");
        setMetric(metrics, "cost.analyze_s", costS, "s");
        setMetric(metrics, "check.verify_s", layer("check.verify"), "s");
        setMetric(metrics, "kernels.interp_s", layer("kernels.interp"), "s");
        setMetric(metrics, "verify.audit_s", layer("verify.audit"), "s");
        setMetric(metrics, "arch.run_s", run, "s");
        setMetric(metrics, "core.engine_self_s",
                  run > 0.0 ? run - lower - costS : 0.0, "s");
        setMetric(metrics, "driver.sweep_overhead_s",
                  sweep > 0.0 ? sweep - run : 0.0, "s");
        setMetric(metrics, "epoch.gain_frac",
                  ffOff.empty() ? 0.0
                                : 1.0 - 0.5 * (totalOp(plain) +
                                               totalOp(withSpans)) /
                                            totalOp(ffOff),
                  "frac");
        setMetric(metrics, "traffic.generate_s", layer("traffic.generate"),
                  "s");
        setMetric(metrics, "arch.serve_s", layer("arch.serve"), "s");
        setMetric(metrics, "analysis.to_json_s", layer("analysis.to_json"),
                  "s");
        setMetric(metrics, "common.json_write_s",
                  layer("common.json_write"), "s");
        Counters c = withSpans.front().counters();
        for (const char *name :
             {"sim.events", "epoch.ff_iterations", "epoch.ff_events_saved",
              "core.activations", "core.mappings", "core.insts_executed",
              "noc.operands_routed", "noc.total_hops",
              "noc.contention_ticks", "mem.smc_reads", "mem.smc_writes",
              "mem.l1_misses", "mem.shared_stall_ticks",
              "mc.requests_completed", "driver.cache_hits"})
            setMetric(metrics, name, c[name], "count");
        setMetric(metrics, "analysis.export_bytes", c["analysis.export_bytes"],
                  "bytes");
        setMetric(metrics, "sim.events_per_s",
                  run > 0.0 ? double(c["sim.events"]) / run : 0.0, "1/s");
        setMetric(metrics, "epoch.ff_coverage",
                  c["core.activations"]
                      ? double(c["epoch.ff_iterations"]) /
                            double(c["core.activations"])
                      : 0.0,
                  "frac");
        setMetric(metrics, "trace.overhead_frac",
                  totalOp(withSpans) / totalOp(plain) - 1.0, "frac");
        if (!a.traceOut.empty())
            t.write(a.traceOut);
    }

    json::Value out = json::Value::object();
    out.set("correct", failed == 0);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", json::write(out, 0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Keep freed memory in the process. By default glibc maps serve's
    // multi-megabyte JSON strings and trims the heap after each export,
    // so every operation page-faults its memory back in: about 1.5
    // million faults per run, a fifth of its time, in the kernel. In a
    // VM that cost moves with the host's load far more than user time
    // does, and it would set the benchmark's noise.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_TOP_PAD, 64 << 20);
    setQuietLogging(true);
    Args a;
    std::string err = parseArgs(argc, argv, a);
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n%s", err.c_str(), usage);
        return 2;
    }
    try {
        return a.record.empty() ? measure(a) : record(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
