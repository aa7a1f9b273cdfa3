/**
 * @file
 * Entry points of the benchmark workloads and the provenance every
 * result records.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>

#include "common.hpp"

namespace perfbench {

/** What a result was measured on and with. */
struct Provenance
{
    int nproc = 0;
    int threads = 0;     ///< detection-pipeline threads
    int sessions = 0;    ///< served sessions (0 for training)
    std::string overlap; ///< resolved overlap of the bound plan
    std::string kernels;
    std::string simBackend;
    std::string buildType;
    uint64_t seed = 0;
};

/** train_vgg13 / train_mobilenet_v2 (train.cpp). */
void runTraining(const Options &opt, Run &run, Provenance &prov);

/** serve_transformer (serve.cpp). */
void runServing(const Options &opt, Run &run, Provenance &prov);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
