//! Virtual time for frame-synchronous systems.
//!
//! The formal model of *Strunk, Knight & Aiello (DSN 2005)* assumes (§6.1):
//!
//! - each application operates with synchronous, cyclic processing and a
//!   fixed real-time frame length;
//! - all applications share the same frame length, and frames are
//!   synchronized to start together;
//! - each application completes one unit of work per frame and commits
//!   results to stable storage at the end of each frame.
//!
//! This crate provides the time base those assumptions need: durations
//! in [`Ticks`] and one [`VirtualClock`] that counts fixed-length frames
//! every application observes together. The frame-synchronous executive
//! itself — window order, per-application budgets, deadline-miss health
//! events and the frame-end commit — is `arfs_core::system::System`.
//!
//! # Example
//!
//! ```
//! use arfs_rtos::{Ticks, VirtualClock};
//!
//! let mut clock = VirtualClock::new(Ticks::new(100));
//! assert_eq!(clock.advance_frame(), 1);
//! assert_eq!(clock.now(), Ticks::new(100));
//! // A 250-tick bound needs three whole frames.
//! assert_eq!(clock.ticks_to_frames(Ticks::new(250)), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;

pub use clock::{Ticks, VirtualClock};
