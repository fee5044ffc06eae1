//! Per-thread CPU-time measurement for the worker pool.
//!
//! Wall-clock time cannot show parallel speedup on a CPU-starved host (a
//! 1-core CI container runs 8 workers exactly as fast as 1), so the
//! scaling test and perfbench also measure each worker's *thread CPU
//! time* — the scheduler-independent cost of the work the worker actually
//! executed.
//! The campaign's critical path is the maximum over workers, which is the
//! wall time the campaign would take on a machine with enough cores: it
//! punishes serialization, load imbalance, and spin contention, the
//! failure modes a scan scheduler can actually regress on.
//!
//! On Linux this reads `CLOCK_THREAD_CPUTIME_ID` directly (the workspace
//! vendors no libc crate, so the one syscall wrapper is declared by
//! hand); elsewhere it degrades to a process-wide monotonic clock, which
//! keeps the measurements running but conflates CPU time with wall time.

#[cfg(target_os = "linux")]
mod imp {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`: CPU time consumed by
    /// the calling thread only.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, exclusively borrowed Timespec whose
        // layout matches the kernel's struct timespec on 64-bit Linux;
        // clock_gettime writes it and touches nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        u64::try_from(ts.sec)
            .unwrap_or(0)
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::try_from(ts.nsec).unwrap_or(0))
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    pub fn thread_cpu_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Nanoseconds of CPU time consumed by the calling thread so far.
///
/// Monotonic within a thread; values from different threads are
/// independent clocks and only their *deltas* are comparable.
pub fn thread_cpu_ns() -> u64 {
    imp::thread_cpu_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_is_monotonic_and_advances_under_load() {
        let start = thread_cpu_ns();
        // Burn a visible amount of CPU; volatile-free spin that the
        // optimizer cannot delete because the sum is asserted on.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        assert_ne!(acc, 1); // keep the loop observable
        let end = thread_cpu_ns();
        assert!(end >= start, "thread CPU clock went backwards");
        assert!(end > start, "2M multiply-adds consumed no measurable CPU");
    }

    #[test]
    fn other_threads_do_not_charge_this_thread() {
        #[cfg(target_os = "linux")]
        {
            let before = thread_cpu_ns();
            std::thread::spawn(|| {
                let mut acc = 1u64;
                for i in 0..4_000_000u64 {
                    acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                }
                assert_ne!(acc, 1);
            })
            .join()
            .expect("spinner thread");
            let after = thread_cpu_ns();
            // The spinner burned ~milliseconds; our own clock should have
            // advanced far less (just the join bookkeeping).
            assert!(
                after.saturating_sub(before) < 50_000_000,
                "thread clock charged for another thread's work: {} ns",
                after - before
            );
        }
    }
}
