/**
 * @file
 * Memory-discipline gate for the offline characterization grid.
 *
 * lcTailTrainingTable runs its cells on the thread pool over one
 * simulator per pool slot, built and sized by the caller before the
 * region. A simulator per cell would allocate its event buffers
 * inside the workers, and glibc keeps those freed blocks in the
 * workers' malloc arenas: resident memory that setup never gives
 * back. This binary links the counting allocator probe, so the gate
 * can pin the design down: the table's heap-allocation count does
 * not depend on how many cells it runs.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_probe.hh"
#include "common/logging.hh"
#include "sim/ground_truth.hh"
#include "sim_fixture.hh"

namespace cuttlesys {
namespace {

TEST(TrainingAlloc, TableAllocationsDoNotScaleWithGrid)
{
    setInformEnabled(false);
    const SystemParams params;
    const std::vector<AppProfile> apps = {calibratedTailbench()[4]};
    LcCurveOptions opts;
    opts.warmupSec = 0.05;
    opts.measureSec = 0.1;
    const std::vector<double> one = {0.8};
    const std::vector<double> four = {0.2, 0.4, 0.6, 0.8};

    // Warm-up: the pool starts its workers.
    lcTailTrainingTable(apps, one, params, opts);

    auto allocsFor = [&](const std::vector<double> &fractions) {
        const std::uint64_t before = AllocProbe::newCount();
        const Matrix table =
            lcTailTrainingTable(apps, fractions, params, opts);
        const std::uint64_t allocs = AllocProbe::newCount() - before;
        EXPECT_EQ(table.rows(), fractions.size());
        return allocs;
    };
    const std::uint64_t small = allocsFor(one);
    const std::uint64_t large = allocsFor(four);
    EXPECT_EQ(small, large)
        << "a 4x larger grid made " << large << " allocations against "
        << small << ": the cells are allocating, not reusing their "
        << "slot's simulator";
}

} // namespace
} // namespace cuttlesys
