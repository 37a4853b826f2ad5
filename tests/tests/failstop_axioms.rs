//! The two fail-stop axioms, checked on the path `System` runs.
//!
//! An application is *lost* in a frame when the frame's configuration
//! places it on a processor that has failed. For every lost application:
//!
//! 1. It stages and commits nothing of its own from the failure on. No
//!    stage of it runs; no `status-signal`, `stage-error` or
//!    `deadline-miss` event names it; its own keys do not change; and its
//!    region takes exactly one commit per frame, the SCRAM's signal pass.
//!    That pass writes the two SCRAM-owned keys, `configuration_status`
//!    and `target_spec`, into every region, lost ones included (§6.2).
//! 2. Its committed stable state is kept unchanged while it is lost, and
//!    the first stage it runs once a configuration places it on a live
//!    host sees exactly that state.
//!
//! The sweep is bounded and deterministic. It covers both shipped
//! specifications, and crosses every platform processor failing at each
//! of [`FAIL_FRAMES`] with no environment change or with one change of
//! one factor at each of [`ENV_FRAMES`]. Lostness is recomputed here from
//! the spec's placements, not read back from the system alone.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use arfs_avionics::avionics_spec;
use arfs_avionics::extended::extended_uav_spec;
use arfs_core::app::{CONFIG_STATUS_KEY, TARGET_SPEC_KEY};
use arfs_core::lint::Assembly;
use arfs_core::prelude::*;
use arfs_failstop::StableSnapshot;

const HORIZON: u64 = 40;
/// Frames at which the processor fails.
const FAIL_FRAMES: [u64; 3] = [2, 9, 16];
/// Frames at which the single environment change (if any) lands: before,
/// at, and after the failure frames, so failures hit steady systems and
/// reconfigurations in flight, and reconfigurations move lost
/// applications onto live hosts.
const ENV_FRAMES: [u64; 3] = [5, 9, 18];

/// An application's own keys: its region without the two SCRAM-owned
/// signal keys.
type OwnState = BTreeMap<String, String>;

fn own_state(snapshot: &StableSnapshot) -> OwnState {
    snapshot
        .iter()
        .filter(|(key, _)| *key != CONFIG_STATUS_KEY && *key != TARGET_SPEC_KEY)
        .map(|(key, value)| (key.to_owned(), format!("{value:?}")))
        .collect()
}

/// One stage an application ran, and the own state its stable storage
/// showed on entry.
#[derive(Debug, Clone)]
struct StageCall {
    app: AppId,
    stage: &'static str,
    entry: OwnState,
}

type StageLog = Arc<Mutex<Vec<StageCall>>>;

/// A [`NullApp`] that logs every stage it runs.
#[derive(Clone)]
struct Probe {
    inner: NullApp,
    log: StageLog,
}

impl Probe {
    fn record(&self, ctx: &AppContext<'_>, stage: &'static str) {
        self.log.lock().expect("stage log").push(StageCall {
            app: self.inner.id().clone(),
            stage,
            entry: own_state(&ctx.stable.snapshot()),
        });
    }
}

impl ReconfigurableApp for Probe {
    fn id(&self) -> &AppId {
        self.inner.id()
    }
    fn current_spec(&self) -> SpecId {
        self.inner.current_spec()
    }
    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.record(ctx, "normal");
        self.inner.run_normal(ctx)
    }
    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.record(ctx, "halt");
        self.inner.halt(ctx)
    }
    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.record(ctx, "prepare");
        self.inner.prepare(ctx, target)
    }
    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.record(ctx, "initialize");
        self.inner.initialize(ctx, target)
    }
    fn postcondition_established(&self) -> bool {
        self.inner.postcondition_established()
    }
    fn precondition_established(&self, spec: &SpecId) -> bool {
        self.inner.precondition_established(spec)
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

/// What one case exercised, for the sweep's non-vacuity checks.
#[derive(Debug, Default)]
struct Coverage {
    lost_frames: u64,
    resumed: u64,
}

/// Runs one case and checks both axioms on every frame of it.
fn check_case(
    spec: &ReconfigSpec,
    failed: ProcessorId,
    fail_frame: u64,
    change: Option<(&str, &str, u64)>,
    coverage: &mut Coverage,
) {
    let case = format!("{failed} fails at {fail_frame}, change {change:?}");
    let log = StageLog::default();
    let initial = spec.config(spec.initial_config()).expect("initial config");
    let mut builder = System::builder(spec.clone()).observability(true);
    for decl in spec.apps() {
        let start = initial.spec_for(decl.id()).expect("assigned").clone();
        builder = builder.app(Box::new(Probe {
            inner: NullApp::new(decl.id().clone(), start),
            log: Arc::clone(&log),
        }));
    }
    let mut system = builder.build().expect("shipped spec builds");
    let apps: Vec<AppId> = spec.apps().iter().map(|d| d.id().clone()).collect();

    // Per application: the own state committed when its current lost
    // run began, and whether its next stage is a resumption.
    let mut held: BTreeMap<AppId, OwnState> = BTreeMap::new();
    let mut resuming: BTreeMap<AppId, OwnState> = BTreeMap::new();
    for frame in 0..HORIZON {
        if frame == fail_frame {
            system.fail_processor(failed);
        }
        if let Some((factor, value, _)) = change.filter(|c| c.2 == frame) {
            system
                .set_env(factor, value)
                .expect("declared factor and value");
        }
        let before: BTreeMap<AppId, StableSnapshot> = apps
            .iter()
            .map(|a| (a.clone(), system.app_stable(a).expect("region")))
            .collect();
        let journal_start = system.journal().len();
        let log_start = log.lock().expect("stage log").len();
        system.run_frame();

        let record = system.trace().state(frame).expect("recorded frame");
        let config = spec.config(&record.svclvl).expect("declared config");
        let calls: Vec<StageCall> = log.lock().expect("stage log")[log_start..].to_vec();
        let events = &system.journal().events()[journal_start..];
        for app in &apps {
            let lost = frame >= fail_frame && config.placement_for(app) == Some(failed);
            assert_eq!(
                record.apps[app].lost, lost,
                "{case}: frame {frame}: {app}'s lost flag"
            );
            let before = &before[app];
            let after = system.app_stable(app).expect("region");
            let call = calls.iter().find(|c| &c.app == app);
            if lost {
                coverage.lost_frames += 1;
                // Axiom 1: no stage, no stage report, no write of its own.
                assert!(call.is_none(), "{case}: lost {app} ran {call:?}");
                let reported = events.iter().any(|e| {
                    matches!(
                        e.kind.as_str(),
                        "status-signal" | "stage-error" | "deadline-miss"
                    ) && [e.payload.get("app"), e.payload.get("from")]
                        .into_iter()
                        .flatten()
                        .any(|v| v.as_str() == Some(app.as_str()))
                });
                assert!(
                    !reported,
                    "{case}: frame {frame}: lost {app} reported a stage"
                );
                assert_eq!(
                    after.version().raw(),
                    before.version().raw() + 1,
                    "{case}: frame {frame}: lost {app}'s region took a commit \
                     besides the SCRAM's signal commit"
                );
                // Axiom 2: the state committed at the loss is kept.
                let kept = held.entry(app.clone()).or_insert_with(|| own_state(before));
                assert_eq!(
                    &own_state(&after),
                    kept,
                    "{case}: frame {frame}: lost {app}'s committed state changed"
                );
            } else if let Some(kept) = held.remove(app) {
                resuming.insert(app.clone(), kept);
            }
            if let (Some(call), Some(kept)) = (call, resuming.get(app)) {
                // Axiom 2: the first stage on a live host resumes from the
                // state committed at the loss.
                assert_eq!(
                    &call.entry, kept,
                    "{case}: frame {frame}: {app} resumed ({}) from a state \
                     other than the one committed at its loss",
                    call.stage
                );
                resuming.remove(app);
                coverage.resumed += 1;
            }
        }
    }
}

/// Every single environment change: each factor to each value other
/// than its initial one.
fn single_changes(spec: &ReconfigSpec) -> Vec<(String, String)> {
    let mut changes = Vec::new();
    for factor in spec.env_model().factors() {
        for value in factor.domain() {
            if spec.initial_env().get(factor.name()) != Some(value.as_str()) {
                changes.push((factor.name().to_owned(), value.clone()));
            }
        }
    }
    changes
}

fn sweep(spec: &ReconfigSpec) -> Coverage {
    let platform = Assembly::derive(spec).expect("assembly").platform;
    let changes = single_changes(spec);
    let mut coverage = Coverage::default();
    for &failed in &platform {
        for fail_frame in FAIL_FRAMES {
            check_case(spec, failed, fail_frame, None, &mut coverage);
            for (factor, value) in &changes {
                for env_frame in ENV_FRAMES {
                    let change = Some((factor.as_str(), value.as_str(), env_frame));
                    check_case(spec, failed, fail_frame, change, &mut coverage);
                }
            }
        }
    }
    coverage
}

#[test]
fn avionics_lost_apps_stage_nothing_and_resume_from_committed_state() {
    let coverage = sweep(&avionics_spec().expect("valid spec"));
    assert!(coverage.lost_frames > 0, "{coverage:?}");
    assert!(coverage.resumed > 0, "{coverage:?}");
}

#[test]
fn extended_lost_apps_stage_nothing_and_resume_from_committed_state() {
    let coverage = sweep(&extended_uav_spec().expect("valid spec"));
    assert!(coverage.lost_frames > 0, "{coverage:?}");
    assert!(coverage.resumed > 0, "{coverage:?}");
}
