//! One event per occurrence: the vocabulary a running system records.
//!
//! [`System`](crate::system::System) describes every auditable
//! occurrence of a frame — a fault signal, a SCRAM phase entry, a torn
//! commit, a lost application — exactly once, as an [`Event`]. Names
//! are borrowed, so describing an event costs nothing until an encoding
//! needs text. The three record shapes are encodings of that one value,
//! each a single `match`:
//!
//! - [`Event::journal`]: the `(subsystem, kind, payload)` of a
//!   [`JournalEvent`](super::JournalEvent);
//! - [`Event::ring`]: the compact `(code, a, b)` of a
//!   [`RingEvent`], names replaced by specification indices;
//! - [`Event::counter`]: the metrics counter the event bumps.
//!
//! A [`Recorder`] owns the journal, the metrics registry and the flight
//! ring, and its [`emit`](Recorder::emit) is the only writer of all
//! three.

use std::sync::Arc;

use arfs_failstop::{PoolEvent, ProcessorId};
use arfs_rtos::{HealthEvent, HealthKind, Ticks};
use arfs_ttbus::MembershipChange;
use serde_json::{json, Value};

use super::journal::{Journal, Subsystem};
use super::metrics::MetricsRegistry;
use super::ring::{FlightRing, RingCode, RingEvent};
use crate::app::ConfigStatus;
use crate::scram::ScramEvent;
use crate::spec::ReconfigSpec;
use crate::{AppId, ConfigId, SpecId};

/// The kind names of the journal and the flight ring: one vocabulary
/// for both (see `DESIGN.md`, § Observability). The processor pool's
/// audit kinds (`processor-failed`, ...) come from
/// [`PoolEvent::kind`].
pub(crate) mod kind {
    /// A run of allocation-free steady-state fast frames (ring only).
    pub(crate) const FAST_FRAMES: &str = "fast-frames";
    /// A run of full frames (ring only; the journal's `frame-start`).
    pub(crate) const FULL_FRAMES: &str = "full-frames";
    /// A full frame begins.
    pub(crate) const FRAME_START: &str = "frame-start";
    /// A full frame ends.
    pub(crate) const FRAME_END: &str = "frame-end";
    /// An environment factor changed value.
    pub(crate) const ENV_CHANGED: &str = "env-changed";
    /// The environment change signalled to the SCRAM.
    pub(crate) const FAULT_SIGNAL: &str = "fault-signal";
    /// A processor fail-stopped by injection.
    pub(crate) const FAULT_INJECTED: &str = "fault-injected";
    /// The SCRAM accepted a reconfiguration trigger.
    pub(crate) const TRIGGER_ACCEPTED: &str = "trigger-accepted";
    /// The SCRAM entered a protocol phase.
    pub(crate) const PHASE_ENTERED: &str = "phase-entered";
    /// A mid-reconfiguration retarget (§5.3).
    pub(crate) const RETARGETED: &str = "retargeted";
    /// A reconfiguration completed.
    pub(crate) const COMPLETED: &str = "completed";
    /// A trigger was suppressed by the dwell guard.
    pub(crate) const DWELL_SUPPRESSED: &str = "dwell-suppressed";
    /// A voided commit retried within the budget.
    pub(crate) const COMMIT_RETRY: &str = "commit-retry";
    /// The retry budget ran out: retarget to the safe configuration.
    pub(crate) const SAFE_FALLBACK: &str = "safe-fallback";
    /// A `configuration_status` commit to stable storage.
    pub(crate) const STABLE_COMMIT: &str = "stable-commit";
    /// A SCRAM command to an application.
    pub(crate) const RECONFIG_SIGNAL: &str = "reconfig-signal";
    /// An application's stage report to the SCRAM.
    pub(crate) const STATUS_SIGNAL: &str = "status-signal";
    /// An application lost with its failed host.
    pub(crate) const APP_LOST: &str = "app-lost";
    /// An application stage returned an error.
    pub(crate) const STAGE_ERROR: &str = "stage-error";
    /// An application overran its compute budget.
    pub(crate) const DEADLINE_MISS: &str = "deadline-miss";
    /// A bus node joined or dropped from the membership vector.
    pub(crate) const MEMBERSHIP_CHANGED: &str = "membership-changed";
    /// A chaos fault: a stable-storage commit tore.
    pub(crate) const TORN_WRITE: &str = "torn-write";
    /// A chaos fault: a processor went bus-silent.
    pub(crate) const BUS_SILENCED: &str = "bus-silenced";
    /// A chaos fault: injected clock jitter.
    pub(crate) const CLOCK_JITTER: &str = "clock-jitter";
    /// A chaos defense: a silent processor was quarantined.
    pub(crate) const QUARANTINED: &str = "quarantined";
}

/// The kinds that take part in a causal chain, journal and ring alike:
/// the trigger sources, the SCRAM's protocol steps, and the chaos
/// faults and defenses around them.
pub(crate) const CAUSAL_KINDS: [&str; 14] = [
    kind::ENV_CHANGED,
    kind::FAULT_SIGNAL,
    kind::FAULT_INJECTED,
    kind::TRIGGER_ACCEPTED,
    kind::RETARGETED,
    kind::DWELL_SUPPRESSED,
    kind::PHASE_ENTERED,
    kind::COMPLETED,
    kind::TORN_WRITE,
    kind::BUS_SILENCED,
    kind::CLOCK_JITTER,
    kind::COMMIT_RETRY,
    kind::QUARANTINED,
    kind::SAFE_FALLBACK,
];

/// One occurrence in a running system. See the [module
/// documentation](self).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<'a> {
    /// A steady-state frame took the allocation-free fast path.
    FastFrame,
    /// A full frame begins under `config`.
    FrameStart {
        /// The configuration at the frame's start.
        config: &'a ConfigId,
    },
    /// A full frame ends.
    FrameEnd {
        /// The configuration at the frame's end.
        config: &'a ConfigId,
        /// Whether any application ran under a restricted command.
        restricted: bool,
    },
    /// A scheduled processor failure took effect.
    FaultInjected {
        /// The failed processor.
        processor: ProcessorId,
    },
    /// An application's frame commit tore.
    TornWrite {
        /// The application.
        app: &'a AppId,
        /// `true` for a fault-plan tear; `false` for a failpoint tear,
        /// which only the ring records.
        scheduled: bool,
    },
    /// A processor's bus slots went silent.
    BusSilenced {
        /// The silent processor.
        processor: ProcessorId,
        /// Length of the silence window.
        frames: u64,
    },
    /// Injected clock jitter inflated an application's consumed ticks.
    ClockJitter {
        /// The jittered application.
        app: &'a AppId,
        /// Extra ticks consumed.
        ticks: u64,
    },
    /// A persistently silent processor was failed by force.
    Quarantined {
        /// The quarantined processor.
        processor: ProcessorId,
        /// Consecutive silent frames observed.
        silent_frames: u64,
    },
    /// An environment factor changed value.
    EnvChanged {
        /// The factor.
        factor: &'a str,
        /// Its new value.
        value: &'a str,
    },
    /// The environment monitor signalled a change to the SCRAM
    /// (Figure 1's fault edge).
    FaultSignal {
        /// The factor.
        factor: &'a str,
        /// Its new value.
        value: &'a str,
    },
    /// A SCRAM kernel event.
    Scram {
        /// The kernel's event.
        event: &'a ScramEvent,
        /// For a completion: the reconfiguration's latency in cycles,
        /// trigger frame to completion frame inclusive.
        cycles: Option<u64>,
    },
    /// The SCRAM committed an application's `configuration_status`.
    StableCommit {
        /// The application.
        app: &'a AppId,
        /// The committed status.
        status: ConfigStatus,
        /// The target specification, for stages that carry one.
        target: Option<&'a SpecId>,
    },
    /// The SCRAM commanded an application (Figure 1's reconfiguration
    /// edge).
    ReconfigSignal {
        /// The application.
        app: &'a AppId,
        /// The commanded status.
        status: ConfigStatus,
    },
    /// An application reported its stage done (Figure 1's status
    /// edge).
    StatusSignal {
        /// The application.
        app: &'a AppId,
        /// The completed status.
        status: ConfigStatus,
    },
    /// An application could not run: its host processor has failed.
    AppLost {
        /// The application.
        app: &'a AppId,
        /// The failed host.
        processor: ProcessorId,
    },
    /// An application's stage returned an error.
    StageError {
        /// The application.
        app: &'a AppId,
        /// The stage (`"normal"`, `"halt"`, ...).
        stage: &'a str,
        /// The reported error.
        error: &'a str,
    },
    /// An application overran its budget — a software timing failure.
    DeadlineMiss {
        /// The application.
        app: &'a AppId,
        /// Ticks consumed.
        consumed: Ticks,
        /// The budget.
        budget: Ticks,
    },
    /// The bus membership service observed a node join or drop.
    MembershipChanged(&'a MembershipChange),
    /// An entry of the processor pool's audit log.
    PoolAudit(&'a PoolEvent),
}

/// Clamps a count into a ring argument.
fn arg(n: u64) -> u32 {
    n.min(u64::from(u32::MAX)) as u32
}

/// Index of a configuration in declaration order; `u32::MAX` when
/// unknown.
fn config_index(spec: &ReconfigSpec, id: &ConfigId) -> u32 {
    spec.configs()
        .iter()
        .position(|c| c.id() == id)
        .map_or(u32::MAX, |i| i as u32)
}

/// Index of an application in declaration order; `u32::MAX` when
/// unknown.
fn app_index(spec: &ReconfigSpec, id: &AppId) -> u32 {
    spec.apps()
        .iter()
        .position(|a| a.id() == id)
        .map_or(u32::MAX, |i| i as u32)
}

/// Indices of an environment factor and one of its domain values.
fn env_index(spec: &ReconfigSpec, factor: &str, value: &str) -> (u32, u32) {
    let factors = spec.env_model().factors();
    match factors.iter().position(|f| f.name() == factor) {
        Some(fi) => {
            let vi = factors[fi]
                .domain()
                .iter()
                .position(|v| v == value)
                .map_or(u32::MAX, |i| i as u32);
            (fi as u32, vi)
        }
        None => (u32::MAX, u32::MAX),
    }
}

impl Event<'_> {
    /// The journal encoding of the event as it occurred in `frame`, or
    /// `None` for ring-only events.
    pub(crate) fn journal(&self, frame: u64) -> Option<(Subsystem, &'static str, Value)> {
        use Subsystem as S;
        Some(match *self {
            Event::FastFrame
            | Event::TornWrite {
                scheduled: false, ..
            } => return None,
            Event::FrameStart { config } => (
                S::System,
                kind::FRAME_START,
                json!({"config": config.to_string()}),
            ),
            Event::FrameEnd { config, restricted } => (
                S::System,
                kind::FRAME_END,
                json!({"config": config.to_string(), "restricted": restricted}),
            ),
            Event::FaultInjected { processor } => (
                S::Failstop,
                kind::FAULT_INJECTED,
                json!({"processor": u64::from(processor.raw())}),
            ),
            Event::TornWrite { app, .. } => (
                S::Failstop,
                kind::TORN_WRITE,
                json!({"app": app.to_string()}),
            ),
            Event::BusSilenced { processor, frames } => (
                S::Bus,
                kind::BUS_SILENCED,
                json!({"processor": u64::from(processor.raw()), "frames": frames}),
            ),
            Event::ClockJitter { app, ticks } => (
                S::Rtos,
                kind::CLOCK_JITTER,
                json!({"app": app.to_string(), "ticks": ticks}),
            ),
            Event::Quarantined {
                processor,
                silent_frames,
            } => (
                S::Failstop,
                kind::QUARANTINED,
                json!({"processor": u64::from(processor.raw()), "silent_frames": silent_frames}),
            ),
            Event::EnvChanged { factor, value } => (
                S::Env,
                kind::ENV_CHANGED,
                json!({"factor": factor, "value": value}),
            ),
            Event::FaultSignal { factor, value } => (
                S::Env,
                kind::FAULT_SIGNAL,
                json!({
                    "from": "environment", "to": "scram", "detail": format!("{factor}={value}")
                }),
            ),
            Event::Scram { event, cycles } => scram_journal(event, cycles),
            Event::StableCommit {
                app,
                status,
                target,
            } => (
                S::System,
                kind::STABLE_COMMIT,
                json!({
                    "app": app.to_string(),
                    "status": status.as_str(),
                    "target": target.map_or(Value::Null, |t| Value::Str(t.to_string())),
                }),
            ),
            Event::ReconfigSignal { app, status } => (
                S::System,
                kind::RECONFIG_SIGNAL,
                json!({
                    "from": "scram", "to": app.to_string(), "detail": format!("{app}:{status}")
                }),
            ),
            Event::StatusSignal { app, status } => (
                S::App,
                kind::STATUS_SIGNAL,
                json!({
                    "from": app.to_string(), "to": "scram", "detail": format!("{app}:{status}:done")
                }),
            ),
            Event::AppLost { app, processor } => (
                S::App,
                kind::APP_LOST,
                json!({"app": app.to_string(), "processor": u64::from(processor.raw())}),
            ),
            Event::StageError { app, stage, error } => (
                S::App,
                kind::STAGE_ERROR,
                json!({"app": app.to_string(), "stage": stage, "error": error}),
            ),
            Event::DeadlineMiss {
                app,
                consumed,
                budget,
            } => {
                // The executive's health-monitor view of the overrun
                // (the paper's "timing monitor" trigger source).
                let health = HealthEvent {
                    frame,
                    partition: app.to_string(),
                    kind: HealthKind::DeadlineMiss { consumed, budget },
                };
                (
                    S::Rtos,
                    kind::DEADLINE_MISS,
                    json!({
                        "app": app.to_string(),
                        "consumed": consumed.raw(),
                        "budget": budget.raw(),
                        "detail": health.to_string(),
                    }),
                )
            }
            Event::MembershipChanged(change) => (
                S::Bus,
                kind::MEMBERSHIP_CHANGED,
                json!({
                    "round": change.round,
                    "node": change.node.to_string(),
                    "present": change.present,
                }),
            ),
            Event::PoolAudit(event) => {
                (S::Failstop, event.kind(), Value::Str(format!("{event:?}")))
            }
        })
    }

    /// The flight-ring encoding, or `None` for journal-only events.
    /// Names become indices in `spec`'s declaration order; the frame
    /// runs carry no arguments (the ring counts them).
    #[inline]
    pub(crate) fn ring(&self, spec: &ReconfigSpec) -> Option<(RingCode, u32, u32)> {
        use RingCode as R;
        Some(match *self {
            Event::FastFrame => (R::FastFrames, 0, 0),
            Event::FrameStart { .. } => (R::FullFrames, 0, 0),
            Event::FaultInjected { processor } => (R::ProcessorFailed, processor.raw(), 0),
            Event::TornWrite { app, .. } => (R::TornWrite, app_index(spec, app), 0),
            Event::BusSilenced { processor, frames } => {
                (R::BusSilenced, processor.raw(), arg(frames))
            }
            Event::ClockJitter { app, ticks } => (R::ClockJitter, app_index(spec, app), arg(ticks)),
            Event::Quarantined {
                processor,
                silent_frames,
            } => (R::Quarantined, processor.raw(), arg(silent_frames)),
            Event::EnvChanged { factor, value } => {
                let (f, v) = env_index(spec, factor, value);
                (R::EnvChanged, f, v)
            }
            Event::Scram { event, cycles } => match event {
                ScramEvent::TriggerAccepted { from, target, .. } => (
                    R::TriggerAccepted,
                    config_index(spec, from),
                    config_index(spec, target),
                ),
                ScramEvent::PhaseEntered { phase, target, .. } => {
                    (R::PhaseEntered, phase.index(), config_index(spec, target))
                }
                ScramEvent::Retargeted {
                    old_target,
                    new_target,
                    ..
                } => (
                    R::Retargeted,
                    config_index(spec, old_target),
                    config_index(spec, new_target),
                ),
                ScramEvent::Completed { config, .. } => (
                    R::Completed,
                    config_index(spec, config),
                    arg(cycles.unwrap_or(0)),
                ),
                ScramEvent::DwellSuppressed { until, .. } => (R::DwellSuppressed, arg(*until), 0),
                ScramEvent::CommitRetry { used, budget, .. } => {
                    (R::CommitRetry, arg(*used), arg(*budget))
                }
                ScramEvent::SafeFallback {
                    abandoned, safe, ..
                } => (
                    R::SafeFallback,
                    config_index(spec, abandoned),
                    config_index(spec, safe),
                ),
            },
            Event::AppLost { app, processor } => {
                (R::AppLost, app_index(spec, app), processor.raw())
            }
            Event::StageError { app, .. } => (R::StageError, app_index(spec, app), 0),
            Event::DeadlineMiss { app, consumed, .. } => {
                (R::DeadlineMiss, app_index(spec, app), arg(consumed.raw()))
            }
            Event::FrameEnd { .. }
            | Event::FaultSignal { .. }
            | Event::StableCommit { .. }
            | Event::ReconfigSignal { .. }
            | Event::StatusSignal { .. }
            | Event::MembershipChanged(_)
            | Event::PoolAudit(_) => return None,
        })
    }

    /// The metrics counter the event bumps, if any.
    pub(crate) fn counter(&self) -> Option<&'static str> {
        Some(match *self {
            Event::FrameStart { .. } => "frames",
            Event::FaultInjected { .. } => "failstop.fault_injections",
            Event::TornWrite {
                scheduled: true, ..
            }
            | Event::BusSilenced { .. }
            | Event::ClockJitter { .. } => "chaos.faults_injected",
            Event::Quarantined { .. } => "chaos.quarantines",
            Event::FaultSignal { .. } => "signals.fault",
            Event::StableCommit { .. } => "stable.commits",
            Event::ReconfigSignal { .. } => "signals.reconfig",
            Event::StatusSignal { .. } => "signals.status",
            Event::StageError { .. } => "app.stage_errors",
            Event::DeadlineMiss { .. } => "rtos.deadline_misses",
            Event::MembershipChanged(_) => "bus.membership_changes",
            Event::Scram { event, .. } => match event {
                ScramEvent::TriggerAccepted { .. } => "scram.triggers",
                ScramEvent::Retargeted { .. } => "scram.retargets",
                ScramEvent::Completed { .. } => "scram.completions",
                ScramEvent::DwellSuppressed { .. } => "scram.dwell_suppressed",
                ScramEvent::CommitRetry { .. } => "chaos.commit_retries",
                ScramEvent::SafeFallback { .. } => "chaos.safe_fallbacks",
                ScramEvent::PhaseEntered { .. } => return None,
            },
            _ => return None,
        })
    }

    /// Whether the event is a chaos-defense activation (a commit retry,
    /// a safe fallback or a quarantine).
    fn is_defense(&self) -> bool {
        matches!(
            self,
            Event::Quarantined { .. }
                | Event::Scram {
                    event: ScramEvent::CommitRetry { .. } | ScramEvent::SafeFallback { .. },
                    ..
                }
        )
    }
}

/// The journal encoding of a SCRAM kernel event.
fn scram_journal(event: &ScramEvent, cycles: Option<u64>) -> (Subsystem, &'static str, Value) {
    let (kind, payload) = match event {
        ScramEvent::TriggerAccepted {
            env,
            from,
            target,
            interrupted,
            ..
        } => (
            kind::TRIGGER_ACCEPTED,
            json!({
                "env": env.to_string(),
                "from": from.to_string(),
                "target": target.to_string(),
                "interrupted": interrupted
                    .iter()
                    .map(|a| Value::Str(a.to_string()))
                    .collect::<Vec<_>>(),
            }),
        ),
        ScramEvent::PhaseEntered { phase, target, .. } => (
            kind::PHASE_ENTERED,
            json!({"phase": phase.to_string(), "target": target.to_string()}),
        ),
        ScramEvent::Retargeted {
            old_target,
            new_target,
            ..
        } => (
            kind::RETARGETED,
            json!({"old_target": old_target.to_string(), "new_target": new_target.to_string()}),
        ),
        ScramEvent::Completed { config, .. } => (
            kind::COMPLETED,
            json!({"config": config.to_string(), "cycles": cycles.map_or(Value::Null, Value::U64)}),
        ),
        ScramEvent::DwellSuppressed { until, .. } => {
            (kind::DWELL_SUPPRESSED, json!({"until": *until}))
        }
        ScramEvent::CommitRetry {
            target,
            used,
            budget,
            ..
        } => (
            kind::COMMIT_RETRY,
            json!({"target": target.to_string(), "used": *used, "budget": *budget}),
        ),
        ScramEvent::SafeFallback {
            abandoned, safe, ..
        } => (
            kind::SAFE_FALLBACK,
            json!({"abandoned": abandoned.to_string(), "safe": safe.to_string()}),
        ),
    };
    (Subsystem::Scram, kind, payload)
}

/// The sinks a system records into: the journal and metrics (while
/// observability is on), the flight ring (when one was allocated), and
/// the always-on count of chaos-defense activations.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    spec: Arc<ReconfigSpec>,
    /// Whether the journal and metrics are recording.
    pub(crate) enabled: bool,
    pub(crate) journal: Journal,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) ring: Option<FlightRing>,
    pub(crate) defense_events: u64,
}

impl Recorder {
    /// A recorder for systems running `spec`, journaling when `enabled`
    /// and keeping a ring of `ring_capacity` events (0: no ring).
    pub(crate) fn new(spec: Arc<ReconfigSpec>, enabled: bool, ring_capacity: usize) -> Self {
        Recorder {
            spec,
            enabled,
            journal: Journal::new(),
            metrics: MetricsRegistry::new(),
            ring: (ring_capacity > 0).then(|| FlightRing::new(ring_capacity)),
            defense_events: 0,
        }
    }

    /// Records one event in every encoding that applies. Allocation-free
    /// with observability off.
    #[inline]
    pub(crate) fn emit(&mut self, frame: u64, event: &Event<'_>) {
        if let Some(ring) = &mut self.ring {
            match event.ring(&self.spec) {
                Some((code @ (RingCode::FastFrames | RingCode::FullFrames), _, _)) => {
                    ring.bump_run(frame, code);
                }
                Some((code, a, b)) => ring.push(RingEvent { frame, code, a, b }),
                None => {}
            }
        }
        if event.is_defense() {
            self.defense_events += 1;
        }
        if self.enabled {
            self.record(frame, event);
        }
    }

    /// The journal and metrics half of [`emit`](Recorder::emit).
    fn record(&mut self, frame: u64, event: &Event<'_>) {
        if let Some((subsystem, kind, payload)) = event.journal(frame) {
            self.journal.record(frame, subsystem, kind, payload);
        }
        if let Some(name) = event.counter() {
            self.metrics.incr(name);
        }
        if let Event::Scram {
            event: ScramEvent::Completed { .. },
            cycles: Some(cycles),
        } = event
        {
            self.metrics.observe("reconfig.latency_cycles", *cycles);
        }
    }
}
