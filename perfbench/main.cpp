/**
 * @file
 * The repository benchmark (see README.md):
 *
 *   perfbench --workload <train_vgg13|train_mobilenet_v2|serve_transformer>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--threads <n>]
 *
 * Prints progress and the run's provenance, then, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones;
 * with --trace 1 the per-layer ones, and a Chrome trace-event span
 * file is written under .bench_build/traces/. Exits 1 when an output
 * check fails, 2 on bad usage or a build/environment it refuses to
 * measure.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/kernels/kernels.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {
namespace {

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (!(opt.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return false;
            opt.trace = v == "1";
        } else if (flag == "--threads") {
            opt.threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (opt.threads < 1)
                return false;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return have_workload &&
           (opt.workload == "train_vgg13" ||
            opt.workload == "train_mobilenet_v2" ||
            opt.workload == "serve_transformer");
}

/**
 * Refuse builds and environments that would measure a different
 * program: an assert-enabled build, or any MERCURY_* override (kernel
 * table, sim backend, smoke sizes, ...).
 */
bool
refuseToMeasure()
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure an assert-enabled "
                         "build (NDEBUG is not defined)\n");
    return true;
#endif
    for (char **e = environ; e && *e; ++e)
        if (std::strncmp(*e, "MERCURY_", 8) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to measure with override "
                         "%s set\n",
                         *e);
            return true;
        }
    return false;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <train_vgg13|"
                     "train_mobilenet_v2|serve_transformer> --seed <n> "
                     "--seconds <s> --trace <0|1> [--threads <n>]\n");
        return 2;
    }
    if (refuseToMeasure())
        return 2;

    Provenance prov;
    prov.nproc = hostThreads();
    prov.kernels = mercury::kernels::ops().name;
    prov.buildType = PERFBENCH_BUILD_TYPE;
    prov.seed = opt.seed;
    prov.simBackend = "analytic";

    Run run;
    if (opt.workload == "serve_transformer")
        runServing(opt, run, prov);
    else
        runTraining(opt, run, prov);

    std::printf("provenance: workload=%s seed=%llu nproc=%d threads=%d "
                "sessions=%d overlap=%s kernels=%s sim=%s build=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(prov.seed), prov.nproc,
                prov.threads, prov.sessions, prov.overlap.c_str(),
                prov.kernels.c_str(), prov.simBackend.c_str(),
                prov.buildType.c_str());
    std::printf("fail_frac: %.6f (%lld failed of %lld attempted)\n",
                run.fails.frac(), static_cast<long long>(run.fails.failed),
                static_cast<long long>(run.fails.attempted));
    const Metrics &shown = opt.trace ? run.perLayer : run.endToEnd;
    const std::string bad = shown.firstNonFinite();
    if (!bad.empty())
        run.checkFailed("metric " + bad + " is not finite");
    std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
    shown.print(stdout);
    std::printf("%s\n", shown.resultJson(run.correct, run.fails).c_str());
    std::fflush(stdout);
    return run.correct ? 0 : 1;
}
