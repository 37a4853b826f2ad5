//! Proves a fleet-style system's live heap does not grow with the
//! horizon.
//!
//! This test binary installs a counting `#[global_allocator]` that
//! tracks the current thread's net live bytes (allocated minus freed),
//! and runs an avionics system the way a fleet cell does:
//! observability and trace recording off, frames advanced through
//! `System::advance_frame`, and an `electrical` change every 100 frames
//! so the run keeps reconfiguring, signalling over the bus and taking
//! full frames. The live heap at frame 24,000 may exceed the live heap
//! at frame 3,000 by at most 4 KiB: every log the run appends to must
//! either be bounded or be released once nothing can read it. A log
//! kept per frame or per change (say, 16 B per frame) would add
//! hundreds of KiB over the 21,000 frames between the two samples.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::system::System;

/// Wraps the system allocator, tracking the net bytes the current
/// thread holds.
struct LiveBytes;

thread_local! {
    /// Bytes allocated minus bytes freed by the current thread.
    /// Per-thread, so the test harness's other threads never land in
    /// the measurement. `const` initialisation and a `Drop`-free `Cell`
    /// keep the counter itself allocation-free, which a global
    /// allocator requires.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with` fails only during thread teardown, after the
    // measurement has been taken.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// This thread's net live heap bytes so far.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract carries over; the
// counter beside it never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Frame at which the baseline is taken.
const EARLY: u64 = 3_000;
/// Frame at which growth is measured.
const LATE: u64 = 24_000;
/// Allowed growth between the two samples.
const SLACK_BYTES: i64 = 4 * 1024;

#[test]
fn live_heap_does_not_grow_with_the_horizon() {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let mut system = System::builder_arc(spec)
        .observability(false)
        .build()
        .expect("system builds");
    system.set_trace_recording(false);

    let values = ["one", "battery", "both"];
    let mut early = None;
    let mut changes = 0;
    for frame in 0..LATE {
        if frame == EARLY {
            early = Some(live_bytes());
        }
        if frame % 100 == 50 {
            let value = values[(frame / 100) as usize % values.len()];
            system.set_env("electrical", value).expect("declared value");
            changes += 1;
        }
        system.advance_frame();
    }
    let growth = live_bytes() - early.expect("baseline taken");

    assert_eq!(changes, LATE / 100);
    assert!(
        growth <= SLACK_BYTES,
        "live heap grew by {growth} B between frames {EARLY} and {LATE} \
         ({} changes in between); at most {SLACK_BYTES} B is allowed",
        (LATE - EARLY) / 100
    );
}
