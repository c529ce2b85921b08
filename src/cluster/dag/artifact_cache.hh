/**
 * @file
 * Per-node content-addressed artifact cache.
 *
 * Every fleet node keeps a bounded record of which workflow artifacts
 * are resident on it: a task's output is inserted when the task
 * completes on the node, and a placed consumer's missing inputs are
 * inserted when their modeled transfer lands. Keys are the content
 * hashes of dag/workflow.hh, so two identical computations share one
 * entry, and the placement scorer's locality term only has to ask
 * find() per (input, node) pair.
 *
 * Determinism contract (the scan/commit discipline, DESIGN.md §12):
 * find() is read-only and safe from the controller's parallel scans;
 * insert()/touch() run only in single-threaded merge phases in
 * node-index order. Eviction is LRU by *quantum* under the strict
 * total order (lastTouch asc, id asc) — never by wall clock, never by
 * insertion order — so the evicted set replays bitwise at any
 * CS_POOL_THREADS. Storage is a fixed-capacity flat array sized at
 * construction; nothing here allocates, reads a clock, or draws
 * randomness after that (cslint's fastpath-purity rule gates this
 * file).
 */

#ifndef CUTTLESYS_CLUSTER_DAG_ARTIFACT_CACHE_HH
#define CUTTLESYS_CLUSTER_DAG_ARTIFACT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/dag/workflow.hh"

namespace cuttlesys {
namespace cluster {
namespace dag {

/** One resident artifact. */
struct ArtifactEntry
{
    ArtifactId id = 0;
    double bytes = 0.0;
    std::uint64_t lastTouch = 0; //!< quantum of the last use
};

/** Bounded per-node artifact store (see file header). */
class ArtifactCache
{
  public:
    /** Empty; reset() must run before use. */
    ArtifactCache() = default;

    ArtifactCache(double capacity_bytes, std::size_t max_entries);

    /** (Re)size and clear; the entry array is allocated here, never
     *  in find()/insert()/touch(). */
    void reset(double capacity_bytes, std::size_t max_entries);

    double capacityBytes() const { return capacityBytes_; }
    std::size_t maxEntries() const { return entries_.capacity(); }
    std::size_t size() const { return entries_.size(); }
    double residentBytes() const { return residentBytes_; }

    /** The resident entry named @p id, or nullptr. Read-only: safe
     *  from parallel scans under the phase discipline. */
    const ArtifactEntry *find(ArtifactId id) const;

    /**
     * Make @p id resident with @p bytes, stamping @p quantum as its
     * last touch, evicting least-recently-touched entries (lastTouch
     * asc, id asc) until it fits. Re-inserting a resident id just
     * touches it. Returns false — caching nothing, evicting nothing —
     * when @p bytes alone exceeds the capacity. Serial-merge only.
     */
    bool insert(ArtifactId id, double bytes, std::uint64_t quantum);

    /** Refresh @p id's last-touch quantum (no-op when absent).
     *  Serial-merge only. */
    void touch(ArtifactId id, std::uint64_t quantum);

    /** Lifetime eviction count. */
    std::uint64_t evictions() const { return evictions_; }
    /** Lifetime insertions of a non-resident id. */
    std::uint64_t insertions() const { return insertions_; }

  private:
    /** Index of @p id in entries_, or entries_.size(). */
    std::size_t indexOf(ArtifactId id) const;

    /** Evict the strict (lastTouch asc, id asc) minimum. */
    void evictOne();

    double capacityBytes_ = 0.0;
    double residentBytes_ = 0.0;
    std::vector<ArtifactEntry> entries_;
    std::uint64_t evictions_ = 0;
    std::uint64_t insertions_ = 0;
};

} // namespace dag
} // namespace cluster
} // namespace cuttlesys

#endif // CUTTLESYS_CLUSTER_DAG_ARTIFACT_CACHE_HH
