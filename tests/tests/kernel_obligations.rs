//! Kernel obligations of the SCRAM's decision core, each a bounded
//! proof by enumeration.
//!
//! The core is three side-effect-free functions: the choice rule
//! [`ReconfigSpec::wanted_change`] (with the retarget filter
//! [`InFlight::retarget`]), the phase transition [`InFlight::step`] and
//! the Table 1 row [`table1_row`]. Every test below checks one
//! obligation on *every* input of a bounded domain:
//!
//! - stage bounds 1..=4 for each of halt, prepare and initialize;
//! - 1..=3 dependency waves;
//! - both [`SyncPolicy`]s and both [`StagePolicy`]s (compressed only
//!   where the kernel accepts it: one-frame prepare and initialize under
//!   simultaneous sync);
//! - retry budgets 0..=3 and retry backoff 0..=`MAX_RETRY_BACKOFF_FRAMES`
//!   + 1 (one past the clamp);
//! - every (configuration, environment) pair of the avionics and
//!   extended-UAV specifications.
//!
//! Within those bounds a passing test is a proof, not a sample. Nothing
//! is claimed outside them: these are bounded proofs by enumeration, not
//! verification.

use std::collections::HashMap;

use arfs_core::app::ConfigStatus;
use arfs_core::chaos::{ChaosDefense, MAX_RETRY_BACKOFF_FRAMES};
use arfs_core::scram::{
    table1_row, AppRole, FrameKind, InFlight, Phase, Protocol, ScramEvent, Stage, StagePolicy,
    Step, SyncPolicy,
};
use arfs_core::spec::{ReconfigSpec, StageBounds};
use arfs_core::trace::ReconfSt;
use arfs_core::ConfigId;

const PHASES: [Phase; 4] = [Phase::Halt, Phase::Prepare, Phase::Stall, Phase::Init];

fn source() -> ConfigId {
    ConfigId::new("source")
}

fn target() -> ConfigId {
    ConfigId::new("target")
}

fn safe() -> ConfigId {
    ConfigId::new("safe")
}

/// Every stage-bounds triple with each stage in 1..=4.
fn all_bounds() -> Vec<StageBounds> {
    let mut out = Vec::new();
    for halt_frames in 1..=4 {
        for prepare_frames in 1..=4 {
            for init_frames in 1..=4 {
                out.push(StageBounds {
                    halt_frames,
                    prepare_frames,
                    init_frames,
                });
            }
        }
    }
    out
}

/// Every retry defense: budgets 0..=3, backoff 0..=clamp + 1.
fn defenses() -> Vec<ChaosDefense> {
    let mut out = Vec::new();
    for retry_budget_frames in 0..=3 {
        for retry_backoff_frames in 0..=MAX_RETRY_BACKOFF_FRAMES + 1 {
            out.push(ChaosDefense {
                retry_budget_frames,
                retry_backoff_frames,
                ..ChaosDefense::default()
            });
        }
    }
    out
}

/// Every protocol shape the kernel accepts, under the default defense:
/// all phase bounds, wave counts and sync/stage policy pairs.
/// Simultaneous sync ignores the wave count (every init window opens
/// together), so it is enumerated with one wave only.
fn shapes() -> Vec<Protocol> {
    let mut out = Vec::new();
    for phase_frames in all_bounds() {
        for wave_count in 1..=3 {
            for sync in [SyncPolicy::Simultaneous, SyncPolicy::PhaseChecked] {
                if sync == SyncPolicy::Simultaneous && wave_count > 1 {
                    continue;
                }
                for stage in [StagePolicy::Signalled, StagePolicy::CompressedPrepareInit] {
                    let compressible = sync == SyncPolicy::Simultaneous
                        && phase_frames.prepare_frames == 1
                        && phase_frames.init_frames == 1;
                    if stage == StagePolicy::CompressedPrepareInit && !compressible {
                        continue;
                    }
                    out.push(Protocol {
                        phase_frames,
                        wave_count,
                        sync,
                        stage,
                        defense: ChaosDefense::default(),
                        safe: safe(),
                        skip_init: false,
                    });
                }
            }
        }
    }
    out
}

/// Every shape under every defense.
fn protocols() -> Vec<Protocol> {
    let mut out = Vec::new();
    for shape in shapes() {
        for defense in defenses() {
            out.push(Protocol {
                defense,
                ..shape.clone()
            });
        }
    }
    out
}

/// Frames `phase` lasts under `protocol` (a stall frame is one frame).
fn phase_len(protocol: &Protocol, phase: Phase) -> u64 {
    match phase {
        Phase::Halt => protocol.phase_frames.halt_frames,
        Phase::Prepare => protocol.phase_frames.prepare_frames,
        Phase::Init => protocol.init_len(),
        Phase::Stall => 1,
    }
}

/// Every in-flight record of `protocol`'s bounded domain: each phase
/// position, stall 0..=1 (at least 1 in the stall phase), retries up to
/// the budget, both announcement flags, heading for the chosen target
/// or the safe configuration; with `backoff`, every pending backoff up
/// to the clamped window, else none (a live frame).
fn records(protocol: &Protocol, backoff: bool) -> Vec<InFlight> {
    let backoff = if backoff {
        protocol.defense.bounded_backoff_frames()
    } else {
        0
    };
    let mut out = Vec::new();
    for to in [target(), safe()] {
        for phase in PHASES {
            for phase_progress in 0..phase_len(protocol, phase) {
                for stall_left in u64::from(phase == Phase::Stall)..=1 {
                    for retries_used in 0..=protocol.defense.retry_budget_frames {
                        for backoff_left in 0..=backoff {
                            for announced in [false, true] {
                                out.push(InFlight {
                                    source: source(),
                                    target: to.clone(),
                                    phase,
                                    phase_progress,
                                    stall_left,
                                    retries_used,
                                    backoff_left,
                                    announced,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every application role consistent with `protocol`: its own bounds
/// within the phase bounds, every dependency depth below the wave
/// count, exempt or not.
fn roles(protocol: &Protocol) -> Vec<AppRole> {
    let mut out = Vec::new();
    for bounds in all_bounds() {
        let within = bounds.halt_frames <= protocol.phase_frames.halt_frames
            && bounds.prepare_frames <= protocol.phase_frames.prepare_frames
            && bounds.init_frames <= protocol.phase_frames.init_frames;
        if !within {
            continue;
        }
        for depth in 0..protocol.wave_count {
            for exempt in [false, true] {
                out.push(AppRole {
                    bounds,
                    init_start: protocol.init_start(depth),
                    exempt,
                });
            }
        }
    }
    out
}

/// Every frame kind over phase positions 0..=12 (the longest initialize
/// phase: 4 frames × 3 waves), both compressed flags and both
/// completion flags.
fn all_kinds() -> Vec<FrameKind> {
    let mut out = vec![
        FrameKind::Steady,
        FrameKind::Trigger { interrupted: false },
        FrameKind::Trigger { interrupted: true },
    ];
    for phase in PHASES {
        out.push(FrameKind::Backoff(phase));
        for progress in 0..=12 {
            for compressed in [false, true] {
                let stage = Stage {
                    phase,
                    progress,
                    compressed,
                };
                out.push(FrameKind::Voided(stage));
                for completes in [false, true] {
                    out.push(FrameKind::Live { stage, completes });
                }
            }
        }
    }
    out
}

/// Every role over bounds 1..=4, init windows opening at 0..=8 (depth
/// 0..=2 times init bounds 1..=4), exempt or not.
fn all_roles() -> Vec<AppRole> {
    let mut out = Vec::new();
    for bounds in all_bounds() {
        for init_start in 0..=8 {
            for exempt in [false, true] {
                out.push(AppRole {
                    bounds,
                    init_start,
                    exempt,
                });
            }
        }
    }
    out
}

/// One step of `record`, returning the step and its events.
fn step(
    record: &InFlight,
    protocol: &Protocol,
    faulted: bool,
    events: &mut Vec<ScramEvent>,
) -> Step {
    events.clear();
    record.step(protocol, 0, None, faulted, events)
}

/// The fault-free run from trigger acceptance: each step's kind and
/// events, up to and including the completion step.
fn fault_free_run(protocol: &Protocol) -> Vec<(FrameKind, Vec<ScramEvent>)> {
    let mut record = InFlight::accepted(source(), target(), 0);
    let mut run = Vec::new();
    loop {
        let mut events = Vec::new();
        let Step { kind, next, .. } = step(&record, protocol, false, &mut events);
        run.push((kind, events));
        match next {
            Some(next) => record = next,
            None => return run,
        }
        assert!(run.len() < 64, "fault-free run did not complete");
    }
}

fn specs() -> [ReconfigSpec; 2] {
    [
        arfs_avionics::avionics_spec().unwrap(),
        arfs_avionics::extended::extended_uav_spec().unwrap(),
    ]
}

/// Bounded proof by enumeration: `wanted_change` is never the identity,
/// and it is the choice exactly when the choice differs from the current
/// configuration — over every (configuration, environment) pair of both
/// specifications.
#[test]
fn wanted_change_is_never_the_identity() {
    let mut pairs = 0;
    for spec in specs() {
        spec.env_model().for_each_state(|env| {
            for config in spec.configs() {
                let current = config.id();
                let wanted = spec.wanted_change(current, env);
                assert_ne!(wanted, Some(current), "{current} under {env:?}");
                match spec.choose(current, env) {
                    Some(chosen) if chosen != current => assert_eq!(wanted, Some(chosen)),
                    _ => assert_eq!(wanted, None),
                }
                pairs += 1;
            }
        });
    }
    assert!(pairs > 0);
}

/// Bounded proof by enumeration: a retarget never picks the source or
/// the current target, and it happens exactly when the choice from the
/// source is a third configuration — over every (source, target,
/// environment) of both specifications.
#[test]
fn retarget_never_picks_the_source_or_the_current_target() {
    for spec in specs() {
        spec.env_model().for_each_state(|env| {
            for from in spec.configs() {
                for to in spec.configs().iter().filter(|c| c.id() != from.id()) {
                    let record = InFlight::accepted(from.id().clone(), to.id().clone(), 0);
                    let retarget = record.retarget(&spec, env);
                    assert_ne!(retarget, Some(from.id()));
                    assert_ne!(retarget, Some(to.id()));
                    let third = spec
                        .choose(from.id(), env)
                        .filter(|&c| c != from.id() && c != to.id());
                    assert_eq!(retarget, third);
                }
            }
        });
    }
}

/// Bounded proof by enumeration: an exempted application always gets
/// `(Normal, no target, Normal)`, whatever the frame.
#[test]
fn exempted_application_always_runs_normally() {
    for kind in all_kinds() {
        for role in all_roles().into_iter().filter(|r| r.exempt) {
            assert_eq!(
                table1_row(kind, &role),
                (ConfigStatus::Normal, false, ReconfSt::Normal),
                "{kind:?} {role:?}"
            );
        }
    }
}

/// Bounded proof by enumeration: a command carries a target
/// specification exactly in the prepare and initialize phases (for
/// every non-exempt application), never on steady, trigger, backoff,
/// halt or stall frames.
#[test]
fn target_spec_is_carried_only_in_prepare_or_init() {
    for kind in all_kinds() {
        let stage_phase = match kind {
            FrameKind::Live { stage, .. } | FrameKind::Voided(stage) => Some(stage.phase),
            _ => None,
        };
        let expected = matches!(stage_phase, Some(Phase::Prepare | Phase::Init));
        for role in all_roles().into_iter().filter(|r| !r.exempt) {
            let (_, carries_target, _) = table1_row(kind, &role);
            assert_eq!(carries_target, expected, "{kind:?} {role:?}");
        }
    }
}

/// Bounded proof by enumeration: on every frame of a reconfiguration
/// after the trigger that does not complete it — live, voided, backoff
/// or stall — no non-exempt application is `Normal` (SP1's window), and
/// on a completing frame every application is. Over every shape, every
/// record of its domain and both fault outcomes, for every consistent
/// role.
#[test]
fn no_application_is_normal_strictly_inside_the_window() {
    let mut events = Vec::new();
    for shape in shapes() {
        let protocol = Protocol {
            defense: ChaosDefense {
                retry_budget_frames: 3,
                retry_backoff_frames: MAX_RETRY_BACKOFF_FRAMES,
                ..ChaosDefense::default()
            },
            ..shape
        };
        // The kinds do not depend on the defense beyond which counters
        // occur, and this defense's record domain holds every smaller
        // one's.
        let mut kinds: Vec<(FrameKind, bool)> = Vec::new();
        for record in records(&protocol, true) {
            for faulted in [false, true] {
                let s = step(&record, &protocol, faulted, &mut events);
                let entry = (s.kind, s.next.is_none());
                if !kinds.contains(&entry) {
                    kinds.push(entry);
                }
            }
        }
        for role in roles(&protocol).into_iter().filter(|r| !r.exempt) {
            for &(kind, completes) in &kinds {
                let (_, _, st) = table1_row(kind, &role);
                assert_eq!(st.is_normal(), completes, "{kind:?} {role:?}");
            }
        }
    }
}

/// Bounded proof by enumeration: a fault-free reconfiguration takes
/// exactly `protocol_frames()` frames from trigger to completion
/// inclusive, announces halt, prepare and initialize (halt and prepare
/// when compressed) once each in that order, and completes once, on its
/// last frame.
#[test]
fn fault_free_run_takes_protocol_frames() {
    for protocol in shapes() {
        let run = fault_free_run(&protocol);
        assert_eq!(
            1 + run.len() as u64,
            protocol.protocol_frames(),
            "{protocol:?}"
        );
        let announced: Vec<Phase> = run
            .iter()
            .flat_map(|(_, events)| events)
            .filter_map(|e| match e {
                ScramEvent::PhaseEntered { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        let expected: &[Phase] = match protocol.stage {
            StagePolicy::Signalled => &[Phase::Halt, Phase::Prepare, Phase::Init],
            StagePolicy::CompressedPrepareInit => &[Phase::Halt, Phase::Prepare],
        };
        assert_eq!(announced, expected, "{protocol:?}");
        for (at, (_, events)) in run.iter().enumerate() {
            let completes = events
                .iter()
                .any(|e| matches!(e, ScramEvent::Completed { .. }));
            assert_eq!(completes, at + 1 == run.len(), "{protocol:?}");
        }
    }
}

/// Bounded proof by enumeration: in a fault-free reconfiguration every
/// non-exempt application is commanded to halt, prepare and initialize
/// for exactly its own stage bounds (one combined frame when
/// compressed), and no other stage command is issued.
#[test]
fn each_application_gets_exactly_its_stage_windows() {
    for protocol in shapes() {
        let run = fault_free_run(&protocol);
        for role in roles(&protocol).into_iter().filter(|r| !r.exempt) {
            let count = |status: ConfigStatus| {
                run.iter()
                    .filter(|(kind, _)| table1_row(*kind, &role).0 == status)
                    .count() as u64
            };
            assert_eq!(count(ConfigStatus::Halt), role.bounds.halt_frames);
            match protocol.stage {
                StagePolicy::Signalled => {
                    assert_eq!(count(ConfigStatus::Prepare), role.bounds.prepare_frames);
                    assert_eq!(count(ConfigStatus::Initialize), role.bounds.init_frames);
                    assert_eq!(count(ConfigStatus::PrepareInitialize), 0);
                }
                StagePolicy::CompressedPrepareInit => {
                    assert_eq!(count(ConfigStatus::PrepareInitialize), 1);
                    assert_eq!(count(ConfigStatus::Prepare), 0);
                    assert_eq!(count(ConfigStatus::Initialize), 0);
                }
            }
            assert_eq!(count(ConfigStatus::Normal), 0, "{protocol:?} {role:?}");
        }
    }
}

/// Bounded proof by enumeration: under `PhaseChecked`, no application
/// initializes before every application at a smaller dependency depth
/// has finished its initialize window — for every pair of depths below
/// the wave count and every pair of bounds within the phase bounds.
#[test]
fn phase_checked_inits_after_every_dependency() {
    for protocol in shapes()
        .into_iter()
        .filter(|p| p.sync == SyncPolicy::PhaseChecked)
    {
        let init_frames = |role: &AppRole| -> Vec<u64> {
            (0..protocol.init_len())
                .filter(|&progress| {
                    let stage = Stage {
                        phase: Phase::Init,
                        progress,
                        compressed: false,
                    };
                    let kind = FrameKind::Live {
                        stage,
                        completes: false,
                    };
                    table1_row(kind, role).0 == ConfigStatus::Initialize
                })
                .collect()
        };
        let roles: Vec<AppRole> = roles(&protocol).into_iter().filter(|r| !r.exempt).collect();
        for dependency in &roles {
            let done = init_frames(dependency)
                .last()
                .copied()
                .expect("every application initializes");
            for dependent in roles
                .iter()
                .filter(|r| r.init_start > dependency.init_start)
            {
                let first = init_frames(dependent)[0];
                assert!(first > done, "{protocol:?} {dependency:?} {dependent:?}");
            }
        }
    }
}

/// Bounded proof by enumeration: a voided frame never advances the
/// phase or its progress. Within the budget it holds its position and
/// target; past it the record restarts halt or prepare for the safe
/// configuration. Over every protocol, every live record (no backoff
/// pending, not stalling) of its domain.
#[test]
fn voided_frame_never_advances_phase_or_progress() {
    let rank = |phase: Phase| PHASES.iter().position(|&p| p == phase).unwrap();
    let mut events = Vec::new();
    for protocol in protocols() {
        for record in records(&protocol, false)
            .into_iter()
            .filter(|r| r.phase != Phase::Stall)
        {
            let s = step(&record, &protocol, true, &mut events);
            assert!(matches!(s.kind, FrameKind::Voided(_)), "{record:?}");
            let next = s.next.expect("a voided frame never completes");
            let fell_back = events
                .iter()
                .any(|e| matches!(e, ScramEvent::SafeFallback { .. }));
            if fell_back {
                assert_eq!(next.target, protocol.safe);
                assert_eq!(next.phase_progress, 0);
                assert!(rank(next.phase) <= rank(record.phase));
                assert!(matches!(next.phase, Phase::Halt | Phase::Prepare));
            } else {
                assert_eq!(
                    (next.phase, next.phase_progress, &next.target),
                    (record.phase, record.phase_progress, &record.target),
                    "{protocol:?} {record:?}"
                );
            }
            assert!(!events
                .iter()
                .any(|e| matches!(e, ScramEvent::Completed { .. })));
        }
    }
}

/// Bounded proof by enumeration: the backoff a retry applies never
/// exceeds `MAX_RETRY_BACKOFF_FRAMES`, however the knob is set (up to
/// one past the clamp): it is the clamped knob after every commit retry
/// and zero after any other live frame. Over every protocol, every live
/// record of its domain (backoff is only applied there; a pending
/// backoff only counts down) and both fault outcomes.
#[test]
fn applied_backoff_never_exceeds_the_ceiling() {
    let mut events = Vec::new();
    for protocol in protocols() {
        let clamped = protocol
            .defense
            .retry_backoff_frames
            .min(MAX_RETRY_BACKOFF_FRAMES);
        assert!(clamped <= MAX_RETRY_BACKOFF_FRAMES);
        for record in records(&protocol, false) {
            for faulted in [false, true] {
                let s = step(&record, &protocol, faulted, &mut events);
                let Some(next) = s.next else { continue };
                let retried = events
                    .iter()
                    .any(|e| matches!(e, ScramEvent::CommitRetry { .. }));
                let applied = if retried { clamped } else { 0 };
                assert_eq!(next.backoff_left, applied, "{protocol:?} {record:?}");
            }
        }
    }
}

/// Bounded proof by enumeration: whatever frames faults strike, the
/// retry machinery adds at most `worst_case_stall_frames()` frames to
/// an attempt before it completes or falls back. Computed as the
/// longest path from acceptance through the phase transition's graph
/// with an adversarial fault on every frame choice, over every protocol.
#[test]
fn retries_add_at_most_worst_case_stall_frames() {
    type Key = (u32, u64, u64, u64, u64, bool);
    fn key(r: &InFlight) -> Key {
        (
            r.phase.index(),
            r.phase_progress,
            r.stall_left,
            r.retries_used,
            r.backoff_left,
            r.announced,
        )
    }
    /// Frames from `record` to the end of the attempt (completion or
    /// safe fallback, inclusive) on the longest fault pattern.
    fn longest(
        record: &InFlight,
        protocol: &Protocol,
        memo: &mut HashMap<Key, u64>,
        events: &mut Vec<ScramEvent>,
    ) -> u64 {
        if let Some(&frames) = memo.get(&key(record)) {
            return frames;
        }
        let mut frames = 0;
        for faulted in [false, true] {
            let s = step(record, protocol, faulted, events);
            let fell_back = events
                .iter()
                .any(|e| matches!(e, ScramEvent::SafeFallback { .. }));
            let rest = match s.next {
                Some(next) if !fell_back => longest(&next, protocol, memo, events),
                _ => 0,
            };
            frames = frames.max(1 + rest);
        }
        memo.insert(key(record), frames);
        frames
    }

    let mut events = Vec::new();
    for protocol in protocols() {
        let mut memo = HashMap::new();
        let accepted = InFlight::accepted(source(), target(), 0);
        let frames = longest(&accepted, &protocol, &mut memo, &mut events);
        let fault_free = protocol.protocol_frames() - 1;
        assert!(
            frames <= fault_free + protocol.defense.worst_case_stall_frames(),
            "{protocol:?}: {frames} frames"
        );
    }
}

/// Bounded proof by enumeration: a frame announces at most one phase.
/// In particular a retarget that falls back to prepare announces it
/// once. Over every protocol, every record of its domain (backoff
/// pending or not), retargeted or not, and both fault outcomes.
#[test]
fn a_frame_announces_at_most_one_phase() {
    let elsewhere = ConfigId::new("elsewhere");
    let mut events = Vec::new();
    for protocol in protocols() {
        for record in records(&protocol, true) {
            for retarget in [None, Some(&elsewhere)] {
                for faulted in [false, true] {
                    events.clear();
                    record.step(&protocol, 0, retarget, faulted, &mut events);
                    let announced = events
                        .iter()
                        .filter(|e| matches!(e, ScramEvent::PhaseEntered { .. }))
                        .count();
                    assert!(
                        announced <= 1,
                        "{protocol:?} {record:?} retarget={retarget:?} faulted={faulted}: {events:?}"
                    );
                }
            }
        }
    }
}

/// Bounded proof by enumeration: a voided initialize frame keeps every
/// non-exempt application `Initializing`, including those whose wave's
/// init window has not opened yet, whatever the phase position. Over
/// every frame kind and every role.
#[test]
fn voided_initialize_frames_report_initializing() {
    for kind in all_kinds() {
        let FrameKind::Voided(stage) = kind else {
            continue;
        };
        if stage.phase != Phase::Init {
            continue;
        }
        for role in all_roles().into_iter().filter(|r| !r.exempt) {
            let (_, _, st) = table1_row(kind, &role);
            assert_eq!(st, ReconfSt::Initializing, "{kind:?} {role:?}");
        }
    }
}
