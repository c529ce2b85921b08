#include "cf/sgd.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/arena.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {

namespace {

/** One observed training sample in normalized space. */
struct Sample
{
    std::uint32_t row;
    std::uint32_t col;
    double target;
};

/**
 * Reference scale of the log transform. Tail latencies live in the
 * 1e-4..1 s range, so the transform must bend well below 1.0 or it
 * degenerates to the identity; 0.1 ms is safely below any tail we
 * care to distinguish.
 */
constexpr double kLogScale = 1e-4;

/** Forward transform of a raw rating into learning space. */
double
transformValue(double v, bool log_transform)
{
    return log_transform ? std::log1p(std::max(v, 0.0) / kLogScale)
                         : v;
}

/** Inverse transform back into physical units (non-negative). */
double
untransformValue(double y, bool log_transform)
{
    if (log_transform)
        return std::expm1(std::max(y, 0.0)) * kLogScale;
    return std::max(y, 0.0);
}

/** Arena-backed training set of one reconstruction. */
struct TrainingSet
{
    Sample *samples = nullptr;   //!< row-major over observed cells
    std::size_t count = 0;
    std::size_t *rowOffsets = nullptr;  //!< rows + 1 prefix offsets
    double *scales = nullptr;    //!< per-row normalization scale
};

/**
 * Per-row scales of the transformed values and the normalized
 * training samples, in one mask-row scan per row (no observed-cell
 * list is materialized). Samples come out row-major, so the fold-in
 * step can slice them by row through rowOffsets.
 */
TrainingSet
gatherSamples(const RatingMatrix &ratings, bool log_transform,
              ScratchArena &arena)
{
    const std::size_t rows = ratings.rows();
    const std::size_t cols = ratings.cols();

    TrainingSet set;
    set.count = ratings.observedCount();
    set.samples = arena.alloc<Sample>(set.count);
    set.rowOffsets = arena.alloc<std::size_t>(rows + 1);
    set.scales = arena.alloc<double>(rows);

    std::size_t i = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        set.rowOffsets[r] = i;
        const char *mask = ratings.maskRow(r);
        const double *vals = ratings.valuesRow(r);
        const std::size_t row_begin = i;
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (!mask[c])
                continue;
            const double t = transformValue(vals[c], log_transform);
            set.samples[i].row = static_cast<std::uint32_t>(r);
            set.samples[i].col = static_cast<std::uint32_t>(c);
            set.samples[i].target = t;
            sum += std::abs(t);
            ++i;
        }
        const std::size_t n = i - row_begin;
        double scale = 1.0;
        if (n > 0) {
            const double mean = sum / static_cast<double>(n);
            if (mean > 1e-12)
                scale = mean;
        }
        set.scales[r] = scale;
        for (std::size_t j = row_begin; j < i; ++j)
            set.samples[j].target /= scale;
    }
    set.rowOffsets[rows] = i;
    CS_ASSERT(i == set.count, "observed count drifted from mask");
    return set;
}

/**
 * Fixed convergence-check subsample: an even stride through the
 * row-major sample list covers every row proportionally. A copy, so
 * the in-place epoch shuffles cannot disturb it.
 */
const Sample *
convergenceSubset(const Sample *samples, std::size_t count,
                  std::size_t cap, ScratchArena &arena,
                  std::size_t &subset_count)
{
    if (cap == 0 || count <= cap) {
        Sample *subset = arena.alloc<Sample>(count);
        std::copy(samples, samples + count, subset);
        subset_count = count;
        return subset;
    }
    Sample *subset = arena.alloc<Sample>(cap);
    const double stride = static_cast<double>(count) /
                          static_cast<double>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
        subset[i] = samples[static_cast<std::size_t>(
            static_cast<double>(i) * stride)];
    }
    subset_count = cap;
    return subset;
}

double
rmse(const Sample *samples, std::size_t count, const double *q,
     const double *p, std::size_t stride)
{
    if (count == 0)
        return 0.0;
    double ss = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const Sample &s = samples[i];
        const double pred = kernels::dot(q + s.row * stride,
                                         p + s.col * stride, stride);
        const double err = s.target - pred;
        ss += err * err;
    }
    return std::sqrt(ss / static_cast<double>(count));
}

/**
 * Apply one SGD update for a sample. The parallel variant schedules
 * updates so that concurrent workers never share a factor row (see
 * the stratified epochs below), so this touches the sample's q and p
 * rows exclusively in every execution mode. Runs over the full
 * lane-padded stride; the padding stays zero.
 */
inline void
sgdUpdate(const Sample &s, double *q, double *p, std::size_t stride,
          double eta, double lambda)
{
    double *qr = q + s.row * stride;
    double *pc = p + s.col * stride;
    const double err = s.target - kernels::dot(qr, pc, stride);
    kernels::sgdRankStep(qr, pc, stride, eta, lambda, err);
}

/**
 * Closed-form ridge fold-in of single rows against a fixed P:
 * (P_o^T P_o + lambda I) q = P_o^T y over the row's observed columns.
 * The samples are row-major, so rowOffsets slices them per row without
 * a pointer table. Every fully observed row has the same normal matrix
 * (the same P rows in the same order), so the first one's
 * factorization serves them all and each builds only its P_o^T y —
 * which ties a solver to one P: a change of P needs a new solver.
 */
class RowFoldIn
{
  public:
    RowFoldIn(const TrainingSet &set, const double *p,
              std::size_t stride, std::size_t rank, std::size_t cols,
              double regularization, ScratchArena &arena)
        : set_(set), p_(p), stride_(stride), rank_(rank), cols_(cols),
          ridge_(std::max(regularization, 1e-6)),
          a_(arena.alloc<double>(rank * rank)),
          b_(arena.alloc<double>(rank)),
          pivots_(arena.alloc<std::size_t>(rank)),
          denseLu_(arena.alloc<double>(rank * rank)),
          densePivots_(arena.alloc<std::size_t>(rank))
    {}

    /** Re-solve row @p r's first rank factors into @p q_row. */
    void
    solve(std::size_t r, double *q_row)
    {
        const std::size_t begin = set_.rowOffsets[r];
        const std::size_t end = set_.rowOffsets[r + 1];
        kernels::fill(b_, 0.0, rank_);
        for (std::size_t o = begin; o < end; ++o) {
            const Sample &s = set_.samples[o];
            const double *pc = p_ + s.col * stride_;
            for (std::size_t i = 0; i < rank_; ++i)
                b_[i] += pc[i] * s.target;
        }
        if (end - begin < cols_) {
            buildNormal(begin, end, a_);
            solveLinearSystemInPlace(a_, pivots_, b_, rank_);
        } else {
            if (!denseFactored_) {
                buildNormal(begin, end, denseLu_);
                luFactorInPlace(denseLu_, densePivots_, rank_);
                denseFactored_ = true;
            }
            luReplayInPlace(denseLu_, densePivots_, b_, rank_);
        }
        kernels::copy(q_row, b_, rank_);
        ++solves_;
    }

    std::size_t solves() const { return solves_; }

  private:
    void
    buildNormal(std::size_t begin, std::size_t end, double *normal) const
    {
        kernels::fill(normal, 0.0, rank_ * rank_);
        for (std::size_t o = begin; o < end; ++o) {
            const double *pc = p_ + set_.samples[o].col * stride_;
            for (std::size_t i = 0; i < rank_; ++i) {
                for (std::size_t j = 0; j < rank_; ++j)
                    normal[i * rank_ + j] += pc[i] * pc[j];
            }
        }
        for (std::size_t i = 0; i < rank_; ++i)
            normal[i * rank_ + i] += ridge_;
    }

    const TrainingSet &set_;
    const double *p_;
    std::size_t stride_;
    std::size_t rank_;
    std::size_t cols_;
    double ridge_;
    double *a_;
    double *b_;
    std::size_t *pivots_;
    double *denseLu_;
    std::size_t *densePivots_;
    bool denseFactored_ = false;
    std::size_t solves_ = 0;
};

/**
 * SVD warm start: factor the mean-filled normalized matrix into the
 * factors' q and p, in the factors' own SVD workspace.
 * jacobiSvdInPlace wants m >= n and its input column-contiguous, so a
 * wide matrix is factored as its transpose, whose columns are the
 * filled rows in place; a tall one is filled column by column.
 */
void
svdWarmStart(const RatingMatrix &ratings, const double *scales,
             bool log_transform, SgdFactors &factors)
{
    const std::size_t rows = ratings.rows();
    const std::size_t cols = ratings.cols();
    const bool wide = rows < cols;
    const std::size_t m = wide ? cols : rows;
    const std::size_t n = wide ? rows : cols;

    factors.svdWork.resize(m * n + n * n + n);
    factors.svdOrder.resize(n);
    double *filled = factors.svdWork.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const char *mask = ratings.maskRow(r);
        const double *vals = ratings.valuesRow(r);
        double row_mean = 0.0;
        std::size_t count = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (mask[c]) {
                row_mean +=
                    transformValue(vals[c], log_transform) / scales[r];
                ++count;
            }
        }
        row_mean = count ? row_mean / static_cast<double>(count) : 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            filled[wide ? r * cols + c : c * rows + r] = mask[c]
                ? transformValue(vals[c], log_transform) / scales[r]
                : row_mean;
        }
    }

    double *vt = filled + m * n;
    double *sigma = vt + n * n;
    std::size_t *order = factors.svdOrder.data();
    jacobiSvdInPlace(filled, m, n, vt, sigma, order);

    // filled = U S V^T (tall) or filled = V S U^T (wide): U's side
    // gets the working column normalized by 1/s, V's side the V^T row,
    // both then scaled by sqrt(s).
    const std::size_t stride = factors.stride;
    double *u_side = wide ? factors.p.data() : factors.q.data();
    double *v_side = wide ? factors.q.data() : factors.p.data();
    for (std::size_t k = 0; k < factors.rank; ++k) {
        const std::size_t src = order[k];
        const double inv = sigma[src] > 1e-300 ? 1.0 / sigma[src] : 0.0;
        const double root = std::sqrt(sigma[src]);
        const double *u_col = filled + src * m;
        const double *v_col = vt + src * n;
        for (std::size_t i = 0; i < m; ++i)
            u_side[i * stride + k] = u_col[i] * inv * root;
        for (std::size_t i = 0; i < n; ++i)
            v_side[i * stride + k] = v_col[i] * root;
    }
}

/**
 * Neighborhood prediction for very sparse rows: align every dense row
 * to the sparse row's observations with a level offset (in transform
 * space), weight rows by how well their shape matches after
 * alignment, and predict the weighted average of the aligned rows.
 * Rows below @p first_row (training rows are dense anyway) are out of
 * @p out's range and skipped.
 */
void
blendSparseRows(const RatingMatrix &ratings, const SgdOptions &options,
                const std::vector<double> *row_context, Matrix &out,
                std::size_t first_row, ScratchArena &arena)
{
    const std::size_t rows = ratings.rows();
    const std::size_t cols = ratings.cols();

    // Neighbor rows must be fully observed (training rows are; live
    // rows never come close), so their raw values rows are read
    // without a mask check.
    std::size_t *dense = arena.alloc<std::size_t>(rows);
    std::size_t n_dense = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        if (ratings.observedInRow(r) == cols)
            dense[n_dense++] = r;
    }
    if (n_dense == 0)
        return;

    std::size_t *obs_cols = arena.alloc<std::size_t>(cols);
    double *obs_vals = arena.alloc<double>(cols);
    double *offsets = arena.alloc<double>(n_dense);
    double *distances = arena.alloc<double>(n_dense);
    double *weights = arena.alloc<double>(n_dense);
    double *blend = arena.alloc<double>(cols);

    for (std::size_t r = first_row; r < rows; ++r) {
        const std::size_t n_obs = ratings.observedInRow(r);
        if (n_obs == 0 || n_obs >= options.rowBlendThreshold ||
            n_obs == cols)
            continue;

        // The sparse row's observations in transform space.
        const char *mask = ratings.maskRow(r);
        const double *vals = ratings.valuesRow(r);
        std::size_t obs_n = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (mask[c]) {
                obs_cols[obs_n] = c;
                obs_vals[obs_n] =
                    transformValue(vals[c], options.logTransform);
                ++obs_n;
            }
        }

        // Per dense row: level offset + post-alignment shape error.
        for (std::size_t t = 0; t < n_dense; ++t) {
            const std::size_t dr = dense[t];
            const double *dense_vals = ratings.valuesRow(dr);
            double offset = 0.0;
            for (std::size_t o = 0; o < obs_n; ++o) {
                offset += obs_vals[o] -
                    transformValue(dense_vals[obs_cols[o]],
                                   options.logTransform);
            }
            offset /= static_cast<double>(obs_n);
            double err = 0.0;
            for (std::size_t o = 0; o < obs_n; ++o) {
                const double aligned =
                    transformValue(dense_vals[obs_cols[o]],
                                   options.logTransform) + offset;
                err += (obs_vals[o] - aligned) *
                       (obs_vals[o] - aligned);
            }
            offsets[t] = offset;
            // Distance mixes post-alignment shape error with the
            // level shift itself: a row needing a large shift is a
            // worse neighbor (in log space the level encodes load),
            // which matters most when one observation leaves every
            // row with zero shape error.
            distances[t] =
                std::sqrt(err / static_cast<double>(obs_n)) +
                0.5 * std::abs(offset);
            // Context gap (e.g. utilization): the decisive signal
            // when the observed cells alone cannot identify the row.
            if (row_context && (*row_context)[r] >= 0.0 &&
                (*row_context)[dr] >= 0.0) {
                distances[t] += kContextDistanceWeight *
                    std::abs((*row_context)[r] - (*row_context)[dr]);
            }
        }

        // Gaussian kernel over shape distance; the bandwidth is a
        // quarter of the mean spread so the prediction concentrates
        // on the handful of nearest rows (kNN-like) instead of
        // averaging the whole table — log-space averaging across
        // dissimilar rows systematically underestimates the saturated
        // configurations.
        double min_d = distances[0];
        for (std::size_t t = 0; t < n_dense; ++t)
            min_d = std::min(min_d, distances[t]);
        double bandwidth = 0.0;
        for (std::size_t t = 0; t < n_dense; ++t)
            bandwidth += distances[t] - min_d;
        bandwidth = std::max(0.25 * bandwidth /
                             static_cast<double>(n_dense),
                             1e-3);

        double weight_sum = 0.0;
        for (std::size_t t = 0; t < n_dense; ++t) {
            const double z = (distances[t] - min_d) / bandwidth;
            weights[t] = std::exp(-0.5 * z * z);
            weight_sum += weights[t];
        }

        // Each dense row streams through once, and every column still
        // sums its terms in dense-row order: the order the blend's
        // bits (and the frozen replay references) depend on.
        kernels::fill(blend, 0.0, cols);
        for (std::size_t t = 0; t < n_dense; ++t) {
            const double *dense_vals = ratings.valuesRow(dense[t]);
            for (std::size_t c = 0; c < cols; ++c) {
                blend[c] += weights[t] *
                    (transformValue(dense_vals[c],
                                    options.logTransform) +
                     offsets[t]);
            }
        }
        double *dst = out.rowPtr(r - first_row);
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c] = untransformValue(blend[c] / weight_sum,
                                      options.logTransform);
        }
    }
}

} // namespace

SgdRunStats
reconstructInto(const RatingMatrix &ratings, const SgdOptions &options,
                const std::vector<double> *row_context,
                SgdFactors &factors, Matrix &out,
                std::size_t first_row, ScratchArena &arena)
{
    CS_ASSERT(!row_context || row_context->size() == ratings.rows(),
              "row context length mismatch");
    CS_ASSERT(options.rank > 0, "rank must be positive");
    CS_ASSERT(options.threads >= 1, "need at least one thread");
    CS_ASSERT(first_row <= ratings.rows(),
              "first_row ", first_row, " out of ", ratings.rows());

    const std::size_t rows = ratings.rows();
    const std::size_t cols = ratings.cols();
    const std::size_t rank =
        std::min(options.rank, std::min(rows, cols));

    const TrainingSet set =
        gatherSamples(ratings, options.logTransform, arena);
    Sample *samples = set.samples;
    const std::size_t total = set.count;

    Rng rng(options.seed);
    const bool warm = !factors.empty() && factors.rows == rows &&
                      factors.cols == cols && factors.rank == rank;
    SgdRunStats stats;
    stats.coldStart = !warm;
    if (!warm) {
        // Cold start (or shape change): zero-fill — which establishes
        // the lane padding's invariant — then draw the random factor
        // entries in the same q-before-p order as always.
        factors.reshape(rows, cols, rank);
        const double init =
            1.0 / std::sqrt(static_cast<double>(rank));
        for (std::size_t r = 0; r < rows; ++r) {
            double *qr = factors.qRow(r);
            for (std::size_t k = 0; k < rank; ++k)
                qr[k] = rng.uniform(0.0, init);
        }
        for (std::size_t c = 0; c < cols; ++c) {
            double *pc = factors.pRow(c);
            for (std::size_t k = 0; k < rank; ++k)
                pc[k] = rng.uniform(0.0, init);
        }
        if (options.svdWarmStart && total > 0) {
            svdWarmStart(ratings, set.scales, options.logTransform,
                         factors);
        }
    }
    const std::size_t stride = factors.stride;
    double *q = factors.q.data();
    double *p = factors.p.data();

    if (total > 0) {
        if (warm && options.foldInRows) {
            // A row whose q is zero across the full stride was reset
            // by job churn (CfEngine::clearJob()); starting SGD there
            // would spend tens of epochs pulling one row up from zero.
            // Its closed-form fold-in against the warm P is the point
            // those epochs approach, so solve it first.
            RowFoldIn fold_in(set, p, stride, rank, cols,
                              options.regularization, arena);
            for (std::size_t r = 0; r < rows; ++r) {
                double *qr = q + r * stride;
                if (set.rowOffsets[r] != set.rowOffsets[r + 1] &&
                    std::all_of(qr, qr + stride,
                                [](double v) { return v == 0.0; }))
                    fold_in.solve(r, qr);
            }
            stats.foldInSolves += fold_in.solves();
        }
        std::size_t conv_n = 0;
        const Sample *conv = convergenceSubset(
            samples, total, options.convergenceSamples, arena, conv_n);
        double prev_rmse = rmse(conv, conv_n, q, p, stride);
        if (options.threads == 1) {
            // Epochs permute an index array, not the samples: the
            // sample list itself must stay row-major for the fold-in
            // step's rowOffsets slicing.
            std::size_t *order = arena.alloc<std::size_t>(total);
            for (std::size_t i = 0; i < total; ++i)
                order[i] = i;
            for (std::size_t iter = 0; iter < options.maxIterations;
                 ++iter) {
                std::shuffle(order, order + total, rng);
                for (std::size_t i = 0; i < total; ++i) {
                    sgdUpdate(samples[order[i]], q, p, stride,
                              options.learningRate,
                              options.regularization);
                }
                ++stats.iterations;
                const double cur = rmse(conv, conv_n, q, p, stride);
                if (prev_rmse - cur <
                    options.convergenceTol * std::max(prev_rmse, 1e-12))
                    break;
                prev_rmse = cur;
            }
        } else {
            // Stratified block-parallel SGD (the DSGD schedule of
            // Gemulla et al.): rows and columns are partitioned into
            // T contiguous blocks each, and every epoch runs T
            // fork-join sub-epochs in which worker t processes the
            // stratum (row block t, col block (t + sub) mod T). The
            // T strata of a sub-epoch are pairwise disjoint in both
            // rows and columns, so no two concurrent updates ever
            // touch the same factor row: the variant is race-free
            // and, unlike lock-free Hogwild, bitwise deterministic
            // for a fixed seed — the property the replay checker
            // (examples/replay_check) pins for the decision loop.
            //
            // The strata live as one flat index array partitioned by
            // a counting sort, which preserves the ascending sample
            // order within each stratum.
            const std::size_t nthreads =
                std::min(options.threads, total);
            auto rowBlock = [&](std::uint32_t r) {
                return static_cast<std::size_t>(r) * nthreads / rows;
            };
            auto colBlock = [&](std::uint32_t c) {
                return static_cast<std::size_t>(c) * nthreads / cols;
            };
            const std::size_t n_strata = nthreads * nthreads;
            std::size_t *counts =
                arena.allocZeroed<std::size_t>(n_strata);
            for (std::size_t i = 0; i < total; ++i) {
                ++counts[rowBlock(samples[i].row) * nthreads +
                         colBlock(samples[i].col)];
            }
            std::size_t *offsets =
                arena.alloc<std::size_t>(n_strata + 1);
            offsets[0] = 0;
            for (std::size_t b = 0; b < n_strata; ++b)
                offsets[b + 1] = offsets[b] + counts[b];
            std::size_t *order = arena.alloc<std::size_t>(total);
            std::size_t *cursor = arena.alloc<std::size_t>(n_strata);
            std::copy(offsets, offsets + n_strata, cursor);
            for (std::size_t i = 0; i < total; ++i) {
                const std::size_t b =
                    rowBlock(samples[i].row) * nthreads +
                    colBlock(samples[i].col);
                order[cursor[b]++] = i;
            }
            Rng *stratum_rngs = arena.alloc<Rng>(n_strata);
            for (std::size_t b = 0; b < n_strata; ++b) {
                std::construct_at(&stratum_rngs[b],
                                  options.seed + 7919 * (b + 1));
            }

            ThreadPool &pool = ThreadPool::global();
            for (std::size_t iter = 0; iter < options.maxIterations;
                 ++iter) {
                for (std::size_t sub = 0; sub < nthreads; ++sub) {
                    pool.parallelFor(nthreads, [&](std::size_t tid) {
                        const std::size_t cb = (tid + sub) % nthreads;
                        const std::size_t b = tid * nthreads + cb;
                        std::shuffle(order + offsets[b],
                                     order + offsets[b + 1],
                                     stratum_rngs[b]);
                        for (std::size_t o = offsets[b];
                             o < offsets[b + 1]; ++o) {
                            sgdUpdate(samples[order[o]], q, p, stride,
                                      options.learningRate,
                                      options.regularization);
                        }
                    });
                }
                ++stats.iterations;
                const double cur = rmse(conv, conv_n, q, p, stride);
                if (prev_rmse - cur <
                    options.convergenceTol * std::max(prev_rmse, 1e-12))
                    break;
                prev_rmse = cur;
            }
        }
        if (options.foldInRows) {
            // Closed-form ridge refit of each row's factors against
            // the learned P.
            RowFoldIn fold_in(set, p, stride, rank, cols,
                              options.regularization, arena);
            for (std::size_t r = 0; r < rows; ++r) {
                if (set.rowOffsets[r] != set.rowOffsets[r + 1])
                    fold_in.solve(r, q + r * stride);
            }
            stats.foldInSolves += fold_in.solves();
        }
    }

    out.resize(rows - first_row, cols);
    for (std::size_t r = first_row; r < rows; ++r) {
        const double *qr = q + r * stride;
        double *dst = out.rowPtr(r - first_row);
        for (std::size_t c = 0; c < cols; ++c) {
            const double pred =
                kernels::dot(qr, p + c * stride, stride);
            dst[c] = untransformValue(pred * set.scales[r],
                                      options.logTransform);
        }
    }
    if (options.rowBlendThreshold > 0) {
        blendSparseRows(ratings, options, row_context, out, first_row,
                        arena);
    }
    return stats;
}

SgdResult
reconstruct(const RatingMatrix &ratings, const SgdOptions &options,
            const std::vector<double> *row_context,
            const SgdFactors *warm_start)
{
    ScratchArena arena;
    SgdResult result;
    if (warm_start)
        result.factors = *warm_start;
    const SgdRunStats stats =
        reconstructInto(ratings, options, row_context, result.factors,
                        result.reconstructed, 0, arena);
    result.iterations = stats.iterations;
    // The full-sample RMSE is a report, not an input to any decision:
    // computed here, off the per-quantum path.
    const TrainingSet set =
        gatherSamples(ratings, options.logTransform, arena);
    result.trainRmse = rmse(set.samples, set.count,
                            result.factors.q.data(),
                            result.factors.p.data(),
                            result.factors.stride);
    return result;
}

} // namespace cuttlesys
