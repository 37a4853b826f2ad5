//! Explicit fork-snapshot protocol for dynamic (boxed) system state.
//!
//! [`System::fork`](crate::system::System::fork) duplicates every
//! mutable substrate. The copy-on-write logs and stable-storage
//! regions have structural forks that share history behind `Arc`s, but
//! the *dynamic* state — boxed applications and environment monitors —
//! can only be duplicated through their own `clone_box` hooks. This
//! trait names that operation and pins down its contract, so a fork
//! site reads `self.apps.fork_snapshot()` rather than an
//! innocent-looking `clone()` whose correctness burden is invisible.
//!
//! # Contract
//!
//! `fork_snapshot` must return a replica that, fed identical future
//! inputs, produces behavior identical to the original's — including
//! state digests, so that two forks that evolve identically keep equal
//! fingerprints. Implementations backed by an external simulated plant
//! may share that plant between snapshots, but then the sharing is the
//! implementor's stated choice, and systems hosting such apps are not
//! eligible for fingerprint dedup (their `state_digest` should return
//! `None`).

use crate::app::ReconfigurableApp;
use crate::environment::EnvMonitor;

/// FNV-1a, the hash behind application state digests, system state
/// fingerprints and the lint cache. It also hashes everything written
/// to it through [`std::fmt::Write`], so `Debug` output hashes without
/// first being formatted into a `String`.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Captures an independent behavioral snapshot for a system fork. See
/// the [module documentation](self) for the contract.
pub trait ForkSnapshot {
    /// Returns a replica that behaves identically under identical
    /// future inputs.
    fn fork_snapshot(&self) -> Self;
}

impl ForkSnapshot for Box<dyn ReconfigurableApp> {
    fn fork_snapshot(&self) -> Self {
        self.clone_box()
    }
}

impl ForkSnapshot for Box<dyn EnvMonitor> {
    fn fork_snapshot(&self) -> Self {
        self.clone_box()
    }
}

impl<T: ForkSnapshot> ForkSnapshot for Vec<T> {
    fn fork_snapshot(&self) -> Self {
        self.iter().map(ForkSnapshot::fork_snapshot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;

    #[test]
    fn snapshot_preserves_digest() {
        let apps: Vec<Box<dyn ReconfigurableApp>> = vec![
            Box::new(NullApp::new("a", "s")),
            Box::new(NullApp::new("b", "s")),
        ];
        let snap = apps.fork_snapshot();
        for (original, replica) in apps.iter().zip(&snap) {
            assert_eq!(original.id(), replica.id());
            assert_eq!(original.state_digest(), replica.state_digest());
        }
    }
}
