//! Assured reconfiguration of fail-stop systems.
//!
//! This crate is the primary contribution of the ARFS workspace: a Rust
//! implementation of the architecture and verification framework of
//! *Strunk, Knight & Aiello, "Assured Reconfiguration of Fail-Stop
//! Systems" (DSN 2005)*.
//!
//! # The idea
//!
//! Schlichting & Schneider's fault-tolerant actions mask the effects of
//! fail-stop processor failures by restarting interrupted actions on
//! spare processors. Masking every anticipated failure requires carrying
//! spare hardware for the worst case. The DSN 2005 paper observes that a
//! system which can *reconfigure* — move every application to a
//! (possibly degraded) functional specification chosen from a statically
//! verified reconfiguration specification — can tolerate the same faults
//! with far less hardware, and that the reconfiguration machinery itself
//! can be assured by proof.
//!
//! # What is here
//!
//! - [`spec`] — the reconfiguration specification: applications and their
//!   functional specifications, configurations (the function
//!   `f : Apps → S`), the transition table with its `T(cᵢ, cⱼ)` time
//!   bounds, and the configuration-choice function.
//! - [`environment`] — the finite environment model. A component failure
//!   "is simply a change in the environment" (§6.3); triggers of every
//!   kind are environment transitions.
//! - [`app`] — the reconfigurable-application abstraction: normal cyclic
//!   operation plus the `halt` / `prepare` / `initialize` reconfiguration
//!   interface with per-stage bounds (§5.3, §6.2).
//! - [`chaos`] — deterministic, seedable substrate fault injection
//!   (torn stable-storage writes, bus silence, clock jitter) plus the
//!   defense knobs (retry budgets, quarantine windows) that make the
//!   injected faults survivable.
//! - [`scram`] — the System Control Reconfiguration Analysis and
//!   Management kernel: accepts failure signals, chooses targets from the
//!   static table, and drives the three-frame SFTA protocol of Table 1.
//! - [`trace`] — the `sys_trace` model: per-frame system states and
//!   reconfiguration extraction (`get_reconfigs`).
//! - [`properties`] — executable checkers for the four formal properties
//!   **SP1–SP4** of Table 2 and the extension checks, each written once
//!   as an online monitor, with precise violation diagnostics.
//! - [`assure`] — the unified [`InvariantOracle`](assure::InvariantOracle)
//!   the trace verification paths (model checker, batch verify, chaos
//!   soak, DST campaigns) call for their verdict, plus the failpoint
//!   campaign menu for deterministic-simulation testing.
//! - [`analysis`] — the static obligations the PVS type system generated
//!   in the paper: transition coverage (`covering_txns`, Figure 2), safe-
//!   configuration reachability, transition-graph cycle detection, the
//!   §5.3 restriction-time bounds, and the §5.1 masking-vs-reconfiguration
//!   hardware model.
//! - [`lint`] — the ARFS-LINT pass framework: the paper obligations and
//!   further cross-layer checks as pluggable passes over a specification
//!   or a full assembly, emitting stable-coded diagnostics
//!   (`ARFS-E0xx` errors, `ARFS-W1xx` warnings) with rustc-style
//!   rendering, parallel execution, and content-hash caching.
//! - [`system`] — the executable system: applications on fail-stop
//!   processors, a time-triggered bus, a frame-synchronous executive, the
//!   SCRAM, and a trace recorder, wired together.
//! - [`model`] — exhaustive bounded exploration of trigger schedules over
//!   a specification, checking SP1–SP4 on every run (the executable
//!   analogue of the paper's mechanically checked proofs).
//! - [`obs`] — frame-scoped observability: the structured event journal
//!   (JSON Lines) and the metrics registry every run reports through.
//! - [`fleet`] — fleet-scale simulation: 10⁵+ independent systems on a
//!   work-stealing pool that runs each shard to completion, with
//!   allocation-free steady-state frames, streaming SP1–SP4
//!   verification, and sampled JSON-Lines journaling.
//! - [`sfta`] — system fault-tolerant actions: the synchrony-window view
//!   of application FTAs (§5.2).
//!
//! # Quick start
//!
//! ```
//! use arfs_core::prelude::*;
//!
//! // A two-configuration system: "full" degrades to "safe" when power drops.
//! let spec = ReconfigSpec::builder()
//!     .frame_len(Ticks::new(100))
//!     .env_factor("power", ["good", "bad"])
//!     .app(AppDecl::new("worker").spec(FunctionalSpec::new("full")).spec(FunctionalSpec::new("degraded")))
//!     .config(
//!         Configuration::new("full-service")
//!             .assign("worker", "full")
//!             .place("worker", ProcessorId::new(0)),
//!     )
//!     .config(
//!         Configuration::new("safe-service")
//!             .assign("worker", "degraded")
//!             .place("worker", ProcessorId::new(0))
//!             .safe(),
//!     )
//!     .transition("full-service", "safe-service", Ticks::new(600))
//!     .transition("safe-service", "full-service", Ticks::new(600))
//!     .choose_when("power", "bad", "safe-service")
//!     .choose_when("power", "good", "full-service")
//!     .initial_config("full-service")
//!     .initial_env([("power", "good")])
//!     .min_dwell_frames(2) // cycle guard: full <-> safe is a loop
//!     .build()?;
//!
//! // Static assurance: discharge the spec's proof obligations.
//! let report = arfs_core::analysis::check_obligations(&spec);
//! assert!(report.all_passed(), "{report}");
//!
//! // Dynamic assurance: simulate a power failure and check SP1-SP4.
//! let mut system = System::builder(spec.clone()).build()?;
//! system.run_frames(3);
//! system.set_env("power", "bad")?;
//! system.run_frames(8);
//! let trace = system.trace();
//! let verdict = arfs_core::properties::check_all(trace, &spec);
//! assert!(verdict.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod app;
pub mod assure;
pub mod chaos;
pub mod environment;
mod error;
pub mod fleet;
mod ids;
pub mod lint;
pub mod model;
pub mod obs;
pub mod properties;
pub mod scenario;
pub mod scram;
pub mod sfta;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod system;
pub mod trace;
pub mod verify;
pub mod workload;

pub use error::{SpecError, SystemError};
pub use ids::{AppId, ConfigId, SpecId};

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::app::{AppContext, ConfigStatus, NullApp, ReconfigurableApp};
    pub use crate::environment::{EnvModel, EnvState, FnMonitor};
    pub use crate::obs::{Journal, JournalEvent, MetricsRegistry, Subsystem};
    pub use crate::scenario::Scenario;
    pub use crate::scram::{KernelConfig, MidReconfigPolicy, Scram, StagePolicy, SyncPolicy};
    pub use crate::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
    pub use crate::system::System;
    pub use crate::trace::SysTrace;
    pub use crate::{AppId, ConfigId, SpecError, SpecId, SystemError};
    pub use arfs_failstop::ProcessorId;
    pub use arfs_rtos::Ticks;
}
