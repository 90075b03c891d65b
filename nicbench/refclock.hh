/**
 * @file
 * Reference clock: a fixed CPU kernel that nicbench times between its
 * repeats, so that host time can be expressed in reference seconds.
 *
 * On a shared host the simulator's speed drifts with other tenants'
 * load for minutes at a time.  The kernel slows down with it because it
 * does the same kind of work: a binary-heap event loop (pop the
 * earliest timestamp, push a later one) whose every event updates a
 * random word of a 4 MiB state table, as the simulator's events update
 * its components' state.  A reference second is the host time the
 * kernel takes for refOpsPerRefSecond operations, measured next to the
 * window it converts.
 *
 * The kernel is its own target with its own flags and includes nothing
 * from the simulator, so no change to the simulator or to its build
 * moves the reference.
 */

#ifndef NICBENCH_REFCLOCK_HH
#define NICBENCH_REFCLOCK_HH

namespace nicbench {

/// Operations in one timed burst of the kernel (~30 ms).
constexpr unsigned refOpsPerBurst = 250000;

/// Operations that define one reference second (~1 s on the 4-vCPU
/// Intel Xeon VM this benchmark was set up on).
constexpr double refOpsPerRefSecond = 7.5e6;

/**
 * Run one burst of refOpsPerBurst kernel operations on each of
 * @p threads threads at once, as many as the workload's event loop
 * uses; host seconds until the last one finishes.
 */
double refBurstSeconds(unsigned threads);

} // namespace nicbench

#endif // NICBENCH_REFCLOCK_HH
