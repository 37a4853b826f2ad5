//! Proves the steady-state fast path and the quiet full frame are
//! allocation-free.
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
//!
//! The fleet's streaming verifier rides the same contract on a
//! reconfiguring system: observing a frame allocates nothing, the
//! frame that closes a reconfiguration included, since its latency
//! lands in a fixed-size log₂ histogram.
//!
//! The full frame (`System::run_frame`) is pinned too: once warm, a
//! quiet full frame with observability and trace recording off
//! allocates nothing, for the avionics and the extended UAV specs, and
//! so does the model checker's state fingerprint, steady or busy.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::fleet::StreamVerifier;
use arfs_core::obs::RingCode;
use arfs_core::properties;
use arfs_core::scenario::Scenario;
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

#[test]
fn stream_verifier_allocates_nothing_per_frame() {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let stimuli = [(10, "one"), (40, "battery"), (70, "both"), (100, "one")];

    // Record a reconfiguring run the way the fleet drives it: full
    // frames while an interval is open, the fast path otherwise. `None`
    // marks a fast frame.
    let mut system = System::builder_arc(Arc::clone(&spec))
        .observability(false)
        .build()
        .expect("system builds");
    system.set_trace_recording(false);
    let mut driver = StreamVerifier::new(Arc::clone(&spec));
    let mut frames = Vec::new();
    for frame in 0..130 {
        if let Some((_, value)) = stimuli.iter().find(|(f, _)| *f == frame) {
            system.set_env("electrical", value).expect("declared value");
        }
        let state = if driver.needs_full_state() {
            system.run_frame();
            system.last_state().cloned()
        } else if system.advance_frame() {
            None
        } else {
            system.last_state().cloned()
        };
        match &state {
            Some(state) => driver.observe_full(state),
            None => driver.observe_fast(),
        }
        frames.push(state);
    }

    // The same run with its trace recorded is violation-free.
    let case = stimuli
        .iter()
        .fold(Scenario::new("stimuli", 130), |case, (frame, value)| {
            case.set_env(*frame, "electrical", *value)
        });
    let recorded = case.run_on_spec(&spec).expect("declared values");
    let batch = properties::check_extended(recorded.trace(), recorded.spec());
    assert!(batch.is_ok(), "{batch}");
    assert_eq!(batch.reconfigs_checked, stimuli.len());

    let mut verifier = StreamVerifier::new(Arc::clone(&spec));
    let mut closing_frames = 0;
    for (frame, state) in frames.iter().enumerate() {
        let open_before = verifier.needs_full_state();
        let before = allocs();
        match state {
            Some(state) => verifier.observe_full(state),
            None => verifier.observe_fast(),
        }
        let allocations = allocs() - before;
        if open_before && !verifier.needs_full_state() {
            closing_frames += 1;
        }
        assert_eq!(allocations, 0, "frame {frame} touched the heap");
    }
    assert_eq!(closing_frames, stimuli.len());
    assert!(
        frames.iter().any(Option::is_none),
        "steady stretches run fast"
    );
}

#[test]
fn metrics_registry_allocates_a_name_only_once() {
    let mut metrics = arfs_core::obs::MetricsRegistry::new();
    metrics.add("bus.deliveries", 1);
    metrics.incr("frames");
    metrics.set_gauge("frames.restricted_ratio", 0.0);
    metrics.observe("reconfig.latency_cycles", 4);

    let before = allocs();
    for i in 0..100u32 {
        metrics.add("bus.deliveries", 3);
        metrics.incr("frames");
        metrics.set_gauge("frames.restricted_ratio", f64::from(i) / 100.0);
        metrics.observe("reconfig.latency_cycles", u64::from(i));
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "updating existing metrics must not touch the heap ({} allocations)",
        after - before
    );
    assert_eq!(metrics.counter("bus.deliveries"), 301);
    assert_eq!(metrics.counter("frames"), 101);
    assert_eq!(
        metrics.snapshot().histograms["reconfig.latency_cycles"].count,
        101
    );
}

/// A journal-off, trace-off system of auto-filled applications, warmed
/// up past its initial frames.
fn quiet_system(spec: arfs_core::spec::ReconfigSpec) -> System {
    let mut system = System::builder_arc(Arc::new(spec))
        .observability(false)
        .build()
        .expect("system builds");
    system.set_trace_recording(false);
    for _ in 0..16 {
        system.run_frame();
    }
    assert!(
        !system.scram().is_reconfiguring(),
        "warmed-up system is steady"
    );
    system
}

/// Allocations made by 100 quiet full frames (`run_frame`, never the
/// fast path) of `spec`.
fn quiet_full_frame_allocs(spec: arfs_core::spec::ReconfigSpec) -> u64 {
    let mut system = quiet_system(spec);
    let before = allocs();
    for _ in 0..100 {
        system.run_frame();
    }
    let after = allocs();
    assert!(system.last_state().is_some(), "full frames record state");
    after - before
}

#[test]
fn quiet_full_frame_allocates_nothing() {
    // Shared-name ids, slot-indexed frame state, a blackboard of
    // in-place snapshots and reused SCRAM, bus and state records leave
    // nothing to allocate in a frame where nothing changes.
    assert_eq!(quiet_full_frame_allocs(avionics_spec().unwrap()), 0);
    let extended = arfs_avionics::extended::extended_uav_spec().unwrap();
    assert_eq!(quiet_full_frame_allocs(extended), 0);
}

#[test]
fn state_fingerprint_allocates_nothing() {
    let mut system = quiet_system(arfs_avionics::extended::extended_uav_spec().unwrap());
    let before = allocs();
    let steady = system.state_fingerprint();
    assert_eq!(allocs() - before, 0, "steady fingerprint touched the heap");
    assert!(steady.is_some(), "a quiet system fingerprints");

    // Mid-reconfiguration, the fingerprint also hashes the protocol
    // phase (through its `Debug` form) and the staged protocol values.
    system.set_env("electrical", "one").expect("declared value");
    system.run_frame();
    system.run_frame();
    assert!(system.scram().is_reconfiguring());
    let before = allocs();
    let busy = system.state_fingerprint();
    assert_eq!(allocs() - before, 0, "busy fingerprint touched the heap");
    assert!(busy.is_some() && busy != steady);
}
