/**
 * @file
 * Benchmark driver entry point.
 *
 *   e2e_driver prepare --workload W --data DIR
 *       write the workload's graph files (deterministic; skipped when
 *       present)
 *   e2e_driver run --workload W --seed N --seconds S --trace 0|1
 *                  --data DIR --trace-dir DIR
 *       one measured run; the last stdout line is the result JSON
 *
 * bench/e2e/run.py builds the driver and calls both.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.h"
#include "driver.h"

namespace
{

/// Taken during static initialization, as close to the process start
/// as the program can observe: setup_s counts from here.
const uint64_t kProcessStartNs = e2e::nowNs();

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_driver prepare --workload W --data DIR\n"
                 "       e2e_driver run --workload W --seed N --seconds S "
                 "--trace 0|1 --data DIR --trace-dir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    e2e::Options o;
    o.process_start_ns = kProcessStartNs;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = value == "1";
        else if (key == "--data")
            o.data_dir = value;
        else if (key == "--trace-dir")
            o.trace_dir = value;
        else
            return usage();
    }
    if (o.workload.empty() || o.data_dir.empty() || !(o.seconds > 0))
        return usage();
    mixgemm::setLogLevel(mixgemm::LogLevel::Warn);
    try {
        if (mode == "prepare") {
            e2e::prepareWorkload(o.workload, o.data_dir);
            return 0;
        }
        if (mode != "run" || o.trace_dir.empty())
            return usage();
        e2e::RunResult result;
        if (o.workload == "resnet18-layers")
            result = e2e::runResnetLayers(o);
        else if (o.workload == "mobilenet-v1")
            result = e2e::runMobilenet(o);
        else if (o.workload == "serve-small-cnn")
            result = e2e::runServe(o);
        else
            return usage();
        e2e::printResult(result, o.trace);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_driver: %s\n", e.what());
        return 1;
    }
}
