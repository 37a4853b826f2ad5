//! Virtual time: ticks, frames, and the system clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A duration (or instant within a frame) in virtual time units.
///
/// One tick is an abstract quantum; a deployment would calibrate it (for
/// example 1 tick = 100 µs). All timing bounds in the reconfiguration
/// specification — the T(ci, cj) transition bounds of the paper — are
/// expressed in ticks.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Ticks(u64);

impl Ticks {
    /// Zero duration.
    pub const ZERO: Ticks = Ticks(0);

    /// Creates a duration of `raw` ticks.
    pub const fn new(raw: u64) -> Self {
        Ticks(raw)
    }

    /// Raw tick count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Ticks) -> Option<Ticks> {
        self.0.checked_add(other.0).map(Ticks)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, Add::add)
    }
}

/// The synchronized system clock: a frame counter over a fixed frame
/// length.
///
/// The paper's example "models real-time operation using a virtual clock";
/// ours does the same. All partitions observe the same frame index —
/// frames "are synchronized to start together" by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualClock {
    frame_len: Ticks,
    frame: u64,
}

impl VirtualClock {
    /// Creates a clock at frame 0 with the given frame length.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` is zero; a zero-length frame cannot schedule
    /// any work.
    pub fn new(frame_len: Ticks) -> Self {
        assert!(frame_len > Ticks::ZERO, "frame length must be positive");
        VirtualClock {
            frame_len,
            frame: 0,
        }
    }

    /// The fixed real-time frame length.
    pub fn frame_len(&self) -> Ticks {
        self.frame_len
    }

    /// The current frame index (0-based).
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Virtual time elapsed since frame 0 began.
    pub fn now(&self) -> Ticks {
        self.frame_len * self.frame
    }

    /// Advances to the next frame, returning its index.
    pub fn advance_frame(&mut self) -> u64 {
        // Failpoint: the frame boundary is the executive's one decision
        // point. Campaigns count it (frame totals cross-check hit
        // counts); destructive jitter is injected at the system layer
        // where the deadline monitor defends it.
        arfs_assure::fp!("rtos.clock.advance");
        self.frame += 1;
        self.frame
    }

    /// Converts a frame count into ticks.
    pub fn frames_to_ticks(&self, frames: u64) -> Ticks {
        self.frame_len * frames
    }

    /// Converts a tick duration into the number of whole frames needed to
    /// cover it (rounding up).
    pub fn ticks_to_frames(&self, ticks: Ticks) -> u64 {
        ticks.raw().div_ceil(self.frame_len.raw())
    }

    /// Forks the executive's clock at the current frame — the fork and
    /// the original tick on independently. An alias for `clone()`,
    /// named to document the snapshot guarantee prefix-sharing
    /// exploration relies on.
    pub fn fork(&self) -> VirtualClock {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_arithmetic() {
        let a = Ticks::new(30);
        let b = Ticks::new(12);
        assert_eq!(a + b, Ticks::new(42));
        assert_eq!(a - b, Ticks::new(18));
        assert_eq!(a * 2, Ticks::new(60));
        assert_eq!(b.saturating_sub(a), Ticks::ZERO);
        assert_eq!(a.checked_add(b), Some(Ticks::new(42)));
        assert_eq!(Ticks::new(u64::MAX).checked_add(Ticks::new(1)), None);
        let sum: Ticks = [a, b, Ticks::new(8)].into_iter().sum();
        assert_eq!(sum, Ticks::new(50));
        assert_eq!(a.to_string(), "30t");
    }

    #[test]
    fn clock_advances_by_whole_frames() {
        let mut c = VirtualClock::new(Ticks::new(100));
        assert_eq!(c.frame(), 0);
        assert_eq!(c.now(), Ticks::ZERO);
        assert_eq!(c.advance_frame(), 1);
        assert_eq!(c.advance_frame(), 2);
        assert_eq!(c.now(), Ticks::new(200));
        assert_eq!(c.frame_len(), Ticks::new(100));
    }

    #[test]
    fn frame_tick_conversions_round_up() {
        let c = VirtualClock::new(Ticks::new(100));
        assert_eq!(c.frames_to_ticks(3), Ticks::new(300));
        assert_eq!(c.ticks_to_frames(Ticks::ZERO), 0);
        assert_eq!(c.ticks_to_frames(Ticks::new(1)), 1);
        assert_eq!(c.ticks_to_frames(Ticks::new(100)), 1);
        assert_eq!(c.ticks_to_frames(Ticks::new(101)), 2);
    }

    /// `ticks_to_frames` is the ceiling inverse of `frames_to_ticks`,
    /// swept over a grid of frame lengths and frame counts.
    #[test]
    fn clock_conversions_are_consistent() {
        for frame_len in [1, 2, 3, 7, 64, 100, 499] {
            let clock = VirtualClock::new(Ticks::new(frame_len));
            for frames in (0..40).chain([500, 999]) {
                let ticks = clock.frames_to_ticks(frames);
                assert_eq!(clock.ticks_to_frames(ticks), frames);
                if frames > 0 {
                    // One tick more needs one more frame.
                    assert_eq!(clock.ticks_to_frames(ticks + Ticks::new(1)), frames + 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "frame length must be positive")]
    fn zero_frame_length_panics() {
        let _ = VirtualClock::new(Ticks::ZERO);
    }
}
