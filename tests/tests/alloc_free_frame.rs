//! Proves the steady-state fast path is allocation-free.
//!
//! This test binary installs a counting `#[global_allocator]` (every
//! other test binary is unaffected) and asserts that once a
//! non-reconfiguring, journal-off system has warmed up, advancing a
//! frame performs **zero** heap allocations — the property the fleet
//! runtime's throughput depends on. The flight-recorder ring rides the
//! same contract: its storage is preallocated at build time and a
//! steady frame only coalesces the in-place `fast-frames` run, so the
//! guarantee is proven both with the ring off and with it on. The
//! counter is per thread, so the test harness's other threads cannot
//! leak allocations into a measured window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::obs::RingCode;
use arfs_core::system::System;

/// Wraps the system allocator, counting every allocation and
/// reallocation (deallocations are free to remain — the property under
/// test is "no new heap traffic per frame").
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, so heap
    /// traffic on the test harness's other threads (parallel tests,
    /// output capture) never lands in a measured window. `const`
    /// initialisation and a `Drop`-free `Cell` keep the counter itself
    /// allocation-free, which a global allocator requires.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only during thread teardown, after the
    // measured windows have closed.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocation count so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract carries over; the
// counter beside it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_allocates_nothing() {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let mut system = System::builder_arc(spec)
        .observability(false)
        .build()
        .expect("system builds");
    system.set_trace_recording(false);

    // Warm up: let any initial reconfiguration settle and let the fast
    // path build its cached per-app plan.
    for _ in 0..16 {
        system.advance_frame();
    }
    assert!(
        system.advance_frame(),
        "warmed-up quiet system must be on the fast path"
    );

    let before = allocs();
    for _ in 0..100 {
        assert!(system.advance_frame(), "steady frames must stay fast");
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state frames must not touch the heap ({} allocations in 100 frames)",
        after - before
    );
}

/// With the `failpoints` feature off (the default for this binary),
/// the assurance instrumentation must be literally free: the registry
/// is compiled out, the whole API surface is inert stubs, and driving
/// it in a tight loop performs zero heap allocations. Combined with
/// the two steady-frame tests above — whose measured paths contain
/// planted `fp!` sites — this is the compile-out proof for the default
/// build.
#[cfg(not(feature = "failpoints"))]
#[test]
fn disabled_failpoints_are_zero_cost() {
    use arfs_assure::{FailpointPlan, FpAction};

    const _: () = assert!(
        !arfs_assure::failpoints_enabled(),
        "this binary must build without the failpoints feature"
    );

    // Built outside the measured window: plans may allocate, the inert
    // registry API may not.
    let mut plan = FailpointPlan::new();
    plan.push("system.stable.commit", 1, FpAction::Err);

    let before = allocs();
    for _ in 0..1_000 {
        let _campaign = arfs_assure::install(&plan);
        assert!(arfs_assure::hit("system.stable.commit").is_none());
        assert!(arfs_assure::hit_counts().is_empty());
        arfs_assure::reset_hits();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "inert failpoint API must not touch the heap ({} allocations in 1000 iterations)",
        after - before
    );
}

#[test]
fn steady_state_frame_allocates_nothing_with_the_flight_ring_on() {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let mut system = System::builder_arc(spec)
        .observability(false)
        .flight_recorder(256)
        .build()
        .expect("system builds");
    system.set_trace_recording(false);

    for _ in 0..16 {
        system.advance_frame();
    }
    assert!(
        system.advance_frame(),
        "warmed-up quiet system must be on the fast path"
    );

    let ring_len_before = system.flight_ring().expect("ring enabled").len();
    let before = allocs();
    for _ in 0..100 {
        assert!(system.advance_frame(), "steady frames must stay fast");
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "flight recording must not touch the heap ({} allocations in 100 frames)",
        after - before
    );

    // The 100 quiet frames coalesced into the existing `fast-frames`
    // run instead of consuming 100 ring slots.
    let ring = system.flight_ring().expect("ring enabled");
    assert_eq!(
        ring.len(),
        ring_len_before,
        "steady frames must coalesce into one ring event"
    );
    let newest = ring.iter().last().expect("ring is nonempty");
    assert_eq!(newest.code, RingCode::FastFrames);
}
