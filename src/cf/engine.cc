#include "cf/engine.hh"

#include <algorithm>
#include <utility>

#include "common/arena.hh"
#include "common/kernels.hh"
#include "common/logging.hh"

namespace cuttlesys {

CfEngine::CfEngine(const Matrix &training_rows, std::size_t num_jobs,
                   std::size_t cols, SgdOptions options)
    : trainingRows_(training_rows.rows()), numJobs_(num_jobs),
      ratings_(training_rows.rows() + num_jobs, cols),
      options_(options)
{
    CS_ASSERT(num_jobs > 0, "engine needs at least one live job");
    CS_ASSERT(training_rows.rows() == 0 ||
              training_rows.cols() == cols,
              "training table width ", training_rows.cols(),
              " != ", cols);
    for (std::size_t r = 0; r < trainingRows_; ++r) {
        for (std::size_t c = 0; c < cols; ++c)
            ratings_.set(r, c, training_rows(r, c));
    }
}

void
CfEngine::observe(std::size_t job, std::size_t config, double value)
{
    CS_ASSERT(job < numJobs_, "live job ", job, " out of range");
    ratings_.set(trainingRows_ + job, config, value);
}

void
CfEngine::clearJob(std::size_t job)
{
    CS_ASSERT(job < numJobs_, "live job ", job, " out of range");
    ratings_.clearRow(trainingRows_ + job);
    // Job churn resets only the departed job's latent row. P and the
    // other rows are fitted almost entirely to the dense training
    // rows, which did not change, so the next reconstruction
    // warm-starts from them instead of re-running the SVD
    // initialization. The zeroed row marks the reset: the next
    // reconstruction fold-in solves it against the warm P before its
    // first epoch, so SGD does not spend tens of epochs pulling it up
    // from zero.
    if (!factors_.empty())
        kernels::fill(factors_.qRow(trainingRows_ + job), 0.0,
                      factors_.stride);
}

std::size_t
CfEngine::observationsForJob(std::size_t job) const
{
    CS_ASSERT(job < numJobs_, "live job ", job, " out of range");
    return ratings_.observedInRow(trainingRows_ + job);
}

void
CfEngine::setTrainingContext(const std::vector<double> &context)
{
    CS_ASSERT(context.size() == trainingRows_,
              "training context length ", context.size(), " != ",
              trainingRows_);
    rowContext_.assign(trainingRows_ + numJobs_, -1.0);
    std::copy(context.begin(), context.end(), rowContext_.begin());
}

void
CfEngine::setJobContext(std::size_t job, double context)
{
    CS_ASSERT(job < numJobs_, "live job ", job, " out of range");
    if (rowContext_.empty())
        rowContext_.assign(trainingRows_ + numJobs_, -1.0);
    rowContext_[trainingRows_ + job] = context;
}

Matrix
CfEngine::predict() const
{
    Matrix jobs;
    ScratchArena arena;
    predictInto(jobs, arena);
    return jobs;
}

void
CfEngine::predictInto(Matrix &out, ScratchArena &arena) const
{
    lastRun_ = reconstructInto(
        ratings_, options_,
        rowContext_.empty() ? nullptr : &rowContext_,
        factors_, out, trainingRows_, arena);

    // Measured cells override their predictions (Section IV-B).
    for (std::size_t j = 0; j < numJobs_; ++j) {
        const std::size_t row = trainingRows_ + j;
        const char *mask = ratings_.maskRow(row);
        const double *vals = ratings_.valuesRow(row);
        double *dst = out.rowPtr(j);
        for (std::size_t c = 0; c < cols(); ++c) {
            if (mask[c])
                dst[c] = vals[c];
        }
    }
}

} // namespace cuttlesys
