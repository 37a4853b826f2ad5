//! **ARFS** — Assured Reconfiguration of Fail-Stop Systems.
//!
//! Facade crate for the ARFS workspace, a Rust reproduction of *Strunk,
//! Knight & Aiello, "Assured Reconfiguration of Fail-Stop Systems"
//! (DSN 2005)*. It re-exports every workspace crate under one roof:
//!
//! - [`core`] ([`arfs_core`]) — the paper's contribution: the SCRAM
//!   kernel, reconfiguration specifications, the SP1–SP4 property
//!   checkers, static obligation analysis, and the bounded model checker;
//! - [`failstop`] ([`arfs_failstop`]) — simulated fail-stop processors
//!   with volatile and stable storage;
//! - [`ttbus`] ([`arfs_ttbus`]) — the time-triggered data bus;
//! - [`rtos`] ([`arfs_rtos`]) — virtual time: ticks and the frame clock;
//! - [`avionics`] ([`arfs_avionics`]) — the §7 example instantiation.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `EXPERIMENTS.md` for the harness regenerating every table and figure
//! of the paper.
//!
//! # Quick start
//!
//! ```
//! use arfs::avionics::AvionicsSystem;
//! use arfs::core::properties;
//!
//! let mut av = AvionicsSystem::new()?;
//! av.engage_autopilot();
//! av.run_frames(10);
//! av.fail_alternator(1);
//! av.run_frames(10);
//! assert_eq!(av.system().current_config().as_str(), "reduced-service");
//! let report = properties::check_all(av.system().trace(), av.system().spec());
//! assert!(report.is_ok());
//! # Ok::<(), arfs::core::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arfs_avionics as avionics;
pub use arfs_core as core;
pub use arfs_failstop as failstop;
pub use arfs_rtos as rtos;
pub use arfs_ttbus as ttbus;
