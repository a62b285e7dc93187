/**
 * @file
 * SweepRunner: a small thread pool fanning an embarrassingly parallel
 * (platform x defense x noise x seed) work-list over shared-nothing
 * simulation instances.
 *
 * Every cell of a sweep grid is an independent full simulation (its
 * own Rng, Hierarchy, programs), so the only coordination the runner
 * provides is work distribution and completion. Determinism is the
 * design constraint: results are delivered *by index*, never by
 * completion order, so a caller that assembles output in index (or
 * sorted-cell-key) order produces byte-identical artifacts at any
 * thread count — asserted by tests/test_sweep_runner.cc and the
 * `-j`-flagged sweep examples.
 *
 * Worker functions must be shared-nothing: capture configuration by
 * value and touch no shared mutable state. The first exception thrown
 * by any worker is captured and rethrown on the calling thread after
 * the pool drains; no job starts once it has been captured.
 */

#ifndef WB_SIM_SWEEP_RUNNER_HH
#define WB_SIM_SWEEP_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace wb::sim
{

class SweepRunner
{
  public:
    /**
     * @param threads worker count; 0 picks the hardware concurrency
     *        (minimum 1). 1 runs every job inline on the caller.
     */
    explicit SweepRunner(unsigned threads = 0);

    /** Worker count this runner fans over. */
    unsigned threads() const { return threads_; }

    /**
     * Run fn(0..n-1), distributing indices over the pool. Returns
     * when all jobs finished. Serial (no threads spawned) when the
     * pool has one worker or there is at most one job. If any job
     * throws, the first captured exception is rethrown here after all
     * workers stop picking up new work. One run() at a time per
     * runner.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * True once a job of the current (or last) threaded run() has
     * thrown: from then on no further job starts. Long-running jobs
     * may poll it to give up early.
     */
    bool stopping() const { return stop_.load(); }

    /**
     * run() collecting each job's return value; results come back
     * indexed by job, independent of completion order. R must be
     * default-constructible and movable.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<R> results(n);
        run(n, [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

  private:
    unsigned threads_;
    std::atomic<bool> stop_{false};
};

} // namespace wb::sim

#endif // WB_SIM_SWEEP_RUNNER_HH
