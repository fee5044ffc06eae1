//! Allocation budget for site generation.
//!
//! Bodies are most of what `Population::site` allocates: tens to hundreds
//! of KiB per site against a few KiB of profile, headers and paths. A fill
//! that grows a body `Vec` without its final capacity, or stages a body
//! through a second buffer, allocates each body's bytes more than once.
//! This test pins the bytes one call allocates to the bodies it returns
//! plus a fixed allowance for everything else.
//!
//! It is its own test binary because the counting allocator is
//! process-global and tests within one binary run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use webpop::{ExperimentSpec, Population};

/// Counts the bytes of every allocation and reallocation made through
/// the global allocator. A reallocation counts its whole new size, since
/// growing a buffer may copy it.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Everything one site allocates besides its bodies.
const ALLOWANCE: u64 = 64 * 1024;

#[test]
fn site_generation_allocates_each_body_once() {
    for spec in [ExperimentSpec::first(), ExperimentSpec::second()] {
        let population = Population::new(spec, 0.01);
        for i in 0..16 {
            // A fresh thread per site, so the per-thread shared large body
            // is built inside the measured call, like on a new scan worker.
            let population = population.clone();
            let (spent, bodies) = std::thread::spawn(move || {
                let before = BYTES.load(Ordering::Relaxed);
                let sample = population.site(i);
                let spent = BYTES.load(Ordering::Relaxed) - before;
                // Bodies shared between resources were allocated once.
                let distinct: BTreeSet<(usize, usize)> = sample
                    .site
                    .resources
                    .values()
                    .map(|r| (r.body.as_ptr() as usize, r.body.len()))
                    .collect();
                let bodies: u64 = distinct.iter().map(|&(_, len)| len as u64).sum();
                (spent, bodies)
            })
            .join()
            .expect("site generation panicked");
            assert!(
                spent <= bodies + ALLOWANCE,
                "site {i} allocated {spent} bytes for {bodies} bytes of bodies \
                 (allowance {ALLOWANCE}); a body was allocated more than once"
            );
        }
    }
}
