//! Determinism and fork-safety properties of the chaos engine: a seeded
//! fault campaign must be exactly reproducible (same `FaultPlan` + same
//! schedule ⇒ byte-identical journal), and [`System::fork`] must carry
//! pending chaos state — an in-progress bus-silence window, the silent
//! streaks it has accumulated — into the child so prefix-sharing replay
//! over chaotic traces is sound.

use arfs_avionics::{quarantine_spec, three_level_spec};
use arfs_core::chaos::{ChaosProfile, FaultKind, FaultPlan};
use arfs_core::lint::Assembly;
use arfs_core::model::ModelChecker;
use arfs_core::scenario::Scenario;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;
use arfs_failstop::ProcessorId;

/// Runs one chaotic scenario to the horizon: degrade at frame 1,
/// recover at frame 6, under whatever faults the plan injects.
fn run_campaign(spec: &ReconfigSpec, plan: &FaultPlan) -> System {
    Scenario::new("campaign", 12)
        .set_env(1, "power", "degraded")
        .set_env(6, "power", "good")
        .with_faults(plan.clone())
        .run_with(System::builder(spec.clone()).observability(true))
        .expect("valid values")
}

#[test]
fn same_seed_and_schedule_yield_byte_identical_journals() {
    let spec = three_level_spec(1);
    let profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 300,
        clock_jitter_permille: 200,
        ..ChaosProfile::for_spec(&spec, 8)
    };
    // FaultPlan::random is pure in its seed.
    let plan = FaultPlan::random(42, &profile);
    assert_eq!(plan, FaultPlan::random(42, &profile));
    assert!(
        !plan.is_empty(),
        "seed 42 must actually inject faults for this test to mean anything"
    );

    let a = run_campaign(&spec, &plan);
    let b = run_campaign(&spec, &plan);
    assert_eq!(
        a.journal().to_json_lines(),
        b.journal().to_json_lines(),
        "identical (plan, schedule) must replay to a byte-identical journal"
    );
    assert!(
        a.journal().of_kind("torn-write").count() > 0,
        "the campaign exercised the fault path"
    );

    // A different seed is a different campaign: at least one of the
    // nearby seeds must draw a different plan (all-equal would mean the
    // seed is ignored).
    assert!(
        (1..=10).any(|seed| FaultPlan::random(seed, &profile) != plan),
        "fault plans must depend on the seed"
    );
}

#[test]
fn campaign_reports_are_deterministic_per_seed() {
    let spec = three_level_spec(1);
    let profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 300,
        ..ChaosProfile::for_spec(&spec, 8)
    };
    let plan = FaultPlan::random(7, &profile);
    let mc = ModelChecker::new(spec.clone(), 12, 1).with_fault_plan(plan.clone());
    let first = mc.run();
    let second = ModelChecker::new(spec, 12, 1).with_fault_plan(plan).run();
    assert_eq!(
        first, second,
        "the same seeded campaign must produce the same report object"
    );
}

#[test]
fn fork_preserves_pending_chaos_state() {
    // A bus-silence window opens at frame 2 and runs four frames; the
    // quarantine defense (window 3) will convict at frame 4. Fork at
    // the end of frame 3 — mid-silence, two silent bus rounds, one frame short of
    // conviction — and both timelines must independently complete the
    // quarantine on the very next frame.
    let spec = quarantine_spec();
    let mut plan = FaultPlan::new();
    plan.push(
        2,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 4,
        },
    );
    let mut parent = System::builder(spec)
        .fault_plan(plan)
        .observability(true)
        .build()
        .expect("builds");
    for _ in 0..4 {
        parent.run_frame();
    }
    // The silence window is open and the silent-round count is below
    // the conviction threshold.
    assert!(parent.chaos().is_silenced(ProcessorId::new(1), 4));
    let silenced = Assembly::proc_node(ProcessorId::new(1));
    assert_eq!(parent.bus().silent_rounds(silenced), Some(2));
    assert_eq!(parent.journal().of_kind("quarantined").count(), 0);

    let mut child = parent.fork();
    assert_eq!(
        parent.chaos().silenced_until,
        child.chaos().silenced_until,
        "fork must carry the open silence window"
    );
    assert_eq!(
        parent.bus().silent_rounds(silenced),
        child.bus().silent_rounds(silenced),
        "fork must carry the accumulated silent-round count"
    );

    // Run the child first and to completion; the parent afterwards. If
    // fork shared (rather than snapshotted) chaos state, the child's
    // consumption of the window would corrupt the parent's replay.
    for _ in 0..8 {
        child.run_frame();
    }
    for _ in 0..8 {
        parent.run_frame();
    }
    for system in [&parent, &child] {
        assert_eq!(system.journal().of_kind("quarantined").count(), 1);
        assert_eq!(system.current_config().to_string(), "solo");
    }
    assert_eq!(
        parent.journal().to_json_lines(),
        child.journal().to_json_lines(),
        "identical continuations from the fork point must replay identically"
    );
}

#[test]
fn fork_divergence_does_not_leak_chaos_effects() {
    // Like `forked_systems_diverge_independently`, but the divergence
    // is a chaos outcome: the child lives through the quarantine while
    // the parent is frozen at the fork point; the parent's membership
    // must be untouched when it resumes.
    let spec = quarantine_spec();
    let mut plan = FaultPlan::new();
    plan.push(
        2,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 4,
        },
    );
    let mut parent = System::builder(spec)
        .fault_plan(plan)
        .observability(true)
        .build()
        .expect("builds");
    for _ in 0..3 {
        parent.run_frame();
    }
    let mut child = parent.fork();
    for _ in 0..9 {
        child.run_frame();
    }
    assert_eq!(child.journal().of_kind("quarantined").count(), 1);
    // The child's quarantine did not reach back into the parent.
    assert_eq!(parent.journal().of_kind("quarantined").count(), 0);
    assert!(parent.pool().is_alive(ProcessorId::new(1)));
    // And the parent still completes its own conviction on resume.
    for _ in 0..9 {
        parent.run_frame();
    }
    assert_eq!(parent.journal().of_kind("quarantined").count(), 1);
    assert_eq!(parent.current_config().to_string(), "solo");
}

/// A bus silence shorter than the quarantine window ends without a
/// quarantine, and the cell must then take the steady-state fast path
/// again: its expired silence window no longer affects any frame. The
/// fast drive ([`System::advance_frame`]) must end in the same state as
/// the full one ([`System::run_frame`]).
#[test]
fn fast_path_resumes_after_a_short_bus_silence() {
    let spec = arfs_avionics::avionics_spec().unwrap();
    let build = || {
        let mut plan = FaultPlan::new();
        plan.push(
            5,
            FaultKind::BusSilence {
                processor: ProcessorId::new(0),
                frames: 2,
            },
        );
        let mut system = System::builder(spec.clone())
            .observability(false)
            .fault_plan(plan)
            .build()
            .unwrap();
        system.set_trace_recording(false);
        system
    };
    let (mut fast, mut full) = (build(), build());
    assert!(
        2 < full.scram().protocol().defense.quarantine_window_frames,
        "the silence must end before a quarantine"
    );
    let mut fast_after_silence = 0;
    for frame in 0..40 {
        if fast.advance_frame() && frame >= 10 {
            fast_after_silence += 1;
        }
        full.run_frame();
    }
    assert_eq!(fast.defense_events(), 0, "no quarantine");
    assert_eq!(
        fast_after_silence, 30,
        "every steady frame after the silence takes the fast path"
    );

    assert!(full.state_fingerprint().is_some());
    assert_eq!(fast.state_fingerprint(), full.state_fingerprint());
    assert_eq!(fast.current_config(), full.current_config());
    for app in spec.apps() {
        let committed = |system: &System| {
            let snapshot = system.app_stable(app.id()).expect("declared app");
            snapshot
                .iter()
                .map(|(key, value)| (key.to_owned(), value.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(committed(&fast), committed(&full), "app {}", app.id());
    }
}
