//! Copy-on-write fork isolation: a fork taken at any point — including
//! mid-reconfiguration, when the SCRAM's in-flight record, partial
//! trace, and half-filled bus and SCRAM logs are all live — must behave exactly
//! like a system rebuilt from scratch and driven down the same
//! schedule. If any mutable state leaked through the `Arc`-shared COW
//! layer (a sealed segment mutated in place, a stable-storage region
//! shared without copy-on-write, a cursor miscounted at the seal
//! boundary), the parent's and child's divergent futures would
//! contaminate each other and these byte-level comparisons would fail.

use arfs_core::system::System;
use arfs_core::trace::SysTrace;
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["both", "one", "battery"];

/// One environment stimulus: (frame, domain index).
type Stimulus = (u64, usize);

/// Runs a fresh avionics system (observability on) through `schedule`
/// up to `horizon`, returning its journal as JSON lines, its trace,
/// and its bus membership log's debug rendering — three independent byte-level
/// views of the behavior.
fn replay_from_scratch(schedule: &[Stimulus], horizon: u64) -> (String, SysTrace, String) {
    let spec = arfs_avionics::avionics_spec().unwrap();
    let mut system = System::builder(spec).build().unwrap();
    drive(&mut system, schedule, horizon);
    fingerprints(&system)
}

/// Applies the due stimuli and advances `system` to `horizon`.
fn drive(system: &mut System, schedule: &[Stimulus], horizon: u64) {
    while system.frame() < horizon {
        let frame = system.frame();
        for (f, v) in schedule {
            if *f == frame {
                system.set_env("electrical", DOMAIN[*v]).unwrap();
            }
        }
        system.run_frame();
    }
}

fn fingerprints(system: &System) -> (String, SysTrace, String) {
    (
        system.journal().to_json_lines(),
        system.trace().clone(),
        format!("{:?}", system.bus().membership_changes()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fork mid-run (often mid-reconfiguration), diverge parent and
    /// child, and compare each against a deep replay of its own full
    /// schedule.
    #[test]
    fn forked_system_matches_replay_from_scratch(
        prefix in proptest::collection::vec((1u64..10, 0usize..3), 0..3),
        parent_suffix in proptest::collection::vec((10u64..25, 0usize..3), 0..3),
        child_suffix in proptest::collection::vec((10u64..25, 0usize..3), 0..3),
        fork_at in 4u64..12,
    ) {
        let horizon = 40;
        let spec = arfs_avionics::avionics_spec().unwrap();
        let mut parent = System::builder(spec).build().unwrap();

        let mut prefix = prefix.clone();
        prefix.sort();
        drive(&mut parent, &prefix, fork_at);
        let mut child = parent.fork();

        // Diverge: disjoint suffixes on each side, then run both to the
        // horizon. Interleave the frames so a leak in either direction
        // has every chance to show up.
        let mut parent_schedule = prefix.clone();
        parent_schedule.extend(parent_suffix.iter().copied());
        parent_schedule.sort();
        let mut child_schedule = prefix;
        child_schedule.extend(child_suffix.iter().copied());
        child_schedule.sort();
        while parent.frame() < horizon || child.frame() < horizon {
            if parent.frame() < horizon {
                let next = parent.frame() + 1;
                drive(&mut parent, &parent_schedule, next);
            }
            if child.frame() < horizon {
                let next = child.frame() + 1;
                drive(&mut child, &child_schedule, next);
            }
        }

        // Each side must be byte-identical to a system that never
        // forked at all: same journal JSON, same trace, same bus membership log.
        let (pj, pt, pe) = fingerprints(&parent);
        let (oj, ot, oe) = replay_from_scratch(&parent_schedule, horizon);
        prop_assert_eq!(pj, oj, "parent journal diverged from deep replay");
        prop_assert_eq!(pt, ot, "parent trace diverged from deep replay");
        prop_assert_eq!(pe, oe, "parent bus membership log diverged from deep replay");

        let (cj, ct, ce) = fingerprints(&child);
        let (oj, ot, oe) = replay_from_scratch(&child_schedule, horizon);
        prop_assert_eq!(cj, oj, "child journal diverged from deep replay");
        prop_assert_eq!(ct, ot, "child trace diverged from deep replay");
        prop_assert_eq!(ce, oe, "child bus membership log diverged from deep replay");
    }

    /// Stacked forks: fork the fork, diverge all three, and check the
    /// *shared-prefix* invariant — the sealed history every generation
    /// shares must stay literally identical while tails diverge.
    #[test]
    fn stacked_forks_share_history_and_diverge(
        fork1_at in 3u64..8,
        fork2_at in 8u64..14,
        values in proptest::collection::vec(0usize..3, 3..4),
    ) {
        let spec = arfs_avionics::avionics_spec().unwrap();
        let mut gen0 = System::builder(spec).build().unwrap();
        drive(&mut gen0, &[], fork1_at);
        let mut gen1 = gen0.fork();
        drive(&mut gen1, &[(fork1_at, values[1])], fork2_at);
        let mut gen2 = gen1.fork();

        drive(&mut gen0, &[(fork1_at + 1, values[0])], 30);
        drive(&mut gen1, &[], 30);
        drive(&mut gen2, &[(fork2_at, values[2])], 30);

        // The prefix recorded before each fork point is common to every
        // descendant, whatever happened afterwards.
        let p0: Vec<_> = gen0.trace().states().take(fork1_at as usize).cloned().collect();
        let p1: Vec<_> = gen1.trace().states().take(fork1_at as usize).cloned().collect();
        let p2: Vec<_> = gen2.trace().states().take(fork1_at as usize).cloned().collect();
        prop_assert_eq!(&p0, &p1);
        prop_assert_eq!(&p0, &p2);
        let q1: Vec<_> = gen1.trace().states().take(fork2_at as usize).cloned().collect();
        let q2: Vec<_> = gen2.trace().states().take(fork2_at as usize).cloned().collect();
        prop_assert_eq!(q1, q2);

        // And each lineage still agrees with its own deep replay.
        let (j0, t0, e0) = fingerprints(&gen0);
        let (oj, ot, oe) = replay_from_scratch(&[(fork1_at + 1, values[0])], 30);
        prop_assert_eq!(j0, oj);
        prop_assert_eq!(t0, ot);
        prop_assert_eq!(e0, oe);
        let (j2, t2, e2) = fingerprints(&gen2);
        let (oj, ot, oe) =
            replay_from_scratch(&[(fork1_at, values[1]), (fork2_at, values[2])], 30);
        prop_assert_eq!(j2, oj);
        prop_assert_eq!(t2, ot);
        prop_assert_eq!(e2, oe);
    }
}
