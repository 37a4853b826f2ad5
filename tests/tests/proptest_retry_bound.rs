//! Property: a torn-write storm can never stall a reconfiguration past
//! its timing bound.
//!
//! The SCRAM's commit-retry defense absorbs torn stable-storage writes
//! by holding the phase position, and (optionally) backing off between
//! attempts. Both knobs are bounded — the retry budget explicitly, the
//! backoff by the [`MAX_RETRY_BACKOFF_FRAMES`] clamp — so the total
//! stall any storm can inflict is
//! [`ChaosDefense::worst_case_stall_frames`] on top of the storm's own
//! duration and the fault-free protocol time (the paper's Table 1
//! phase sum). This suite drives randomly sized storms against
//! randomly tuned defenses, including absurd backoff settings, and
//! checks the end-to-end bound on the real trace.

use arfs_core::chaos::{ChaosDefense, FaultKind, FaultPlan, MAX_RETRY_BACKOFF_FRAMES};
use arfs_core::scram::KernelConfig;
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::System;
use arfs_core::AppId;
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;
use proptest::prelude::*;

/// One app, two service levels, 6-frame transitions — small enough to
/// replay hundreds of storms, long enough that a storm can strike any
/// protocol phase.
fn two_level_spec() -> ReconfigSpec {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["good", "bad"])
        .app(
            AppDecl::new("a")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("minimal")),
        )
        .config(
            Configuration::new("full")
                .assign("a", "full")
                .place("a", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("safe")
                .assign("a", "minimal")
                .place("a", ProcessorId::new(0))
                .safe(),
        )
        .transition("full", "safe", Ticks::new(600))
        .transition("safe", "full", Ticks::new(600))
        .choose_when("power", "good", "full")
        .choose_when("power", "bad", "safe")
        .initial_config("full")
        .initial_env([("power", "good")])
        .build()
        .expect("two-level spec is structurally valid")
}

/// Runs one reconfiguration (env flip at frame 1) under a commit-fault
/// storm covering frames `[storm_start, storm_start + storm_len)` and
/// returns the last restricted frame of the trace (`None` if the
/// protocol never left normal operation).
fn last_restricted_frame(
    defense: ChaosDefense,
    storm_start: u64,
    storm_len: u64,
    horizon: u64,
) -> Option<u64> {
    let mut plan = FaultPlan::new();
    for f in storm_start..storm_start + storm_len {
        plan.push(
            f,
            FaultKind::CommitFault {
                app: AppId::new("a"),
            },
        );
    }
    let mut system = System::builder(two_level_spec())
        .fault_plan(plan)
        .kernel(KernelConfig {
            defense,
            ..KernelConfig::default()
        })
        .build()
        .expect("validated spec builds");
    for frame in 0..horizon {
        if frame == 1 {
            system.set_env("power", "bad").expect("declared value");
        }
        system.run_frame();
    }
    system
        .trace()
        .states()
        .filter(|s| s.any_reconfiguring())
        .map(|s| s.frame)
        .last()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the storm is sized and the defense is tuned — including
    /// a backoff knob far past the clamp — the reconfiguration ends
    /// (completion or safe fallback) within the published bound:
    /// storm end + fault-free protocol time + worst-case retry stall.
    #[test]
    fn storms_never_stall_reconfiguration_past_the_bound(
        budget in 0u64..5,
        backoff in prop_oneof![0u64..4, Just(1u64 << 40), Just(u64::MAX)],
        storm_start in 1u64..10,
        storm_len in 1u64..12,
    ) {
        let defense = ChaosDefense {
            retry_budget_frames: budget,
            retry_backoff_frames: backoff,
            quarantine_window_frames: 3,
        };
        // Fault-free twin: the Table 1 phase-sum baseline, measured.
        let clean_end = last_restricted_frame(defense, 0, 0, 40)
            .expect("the env flip forces a reconfiguration");

        let storm_end = storm_start + storm_len;
        let bound = clean_end.max(storm_end) + defense.worst_case_stall_frames();
        // Horizon comfortably past the bound, so a stall is visible.
        let horizon = bound + 16;
        let stormy_end = last_restricted_frame(defense, storm_start, storm_len, horizon)
            .expect("the env flip forces a reconfiguration");
        prop_assert!(
            stormy_end <= bound,
            "restricted until frame {stormy_end}, bound {bound} \
             (clean end {clean_end}, storm [{storm_start}, {storm_end}), \
             budget {budget}, backoff {backoff})"
        );
    }

    /// The applied backoff is the clamped value: with a one-retry
    /// budget, the protocol resumes after exactly
    /// `MAX_RETRY_BACKOFF_FRAMES` hold frames even when the knob says
    /// forever.
    #[test]
    fn clamped_backoff_is_invariant_past_the_ceiling(
        backoff in prop_oneof![Just(MAX_RETRY_BACKOFF_FRAMES), Just(1u64 << 40), Just(u64::MAX)],
    ) {
        let defense = ChaosDefense {
            retry_budget_frames: 2,
            retry_backoff_frames: backoff,
            quarantine_window_frames: 3,
        };
        let at_ceiling = last_restricted_frame(
            ChaosDefense { retry_backoff_frames: MAX_RETRY_BACKOFF_FRAMES, ..defense },
            3,
            1,
            64,
        );
        let past_ceiling = last_restricted_frame(defense, 3, 1, 64);
        prop_assert_eq!(
            at_ceiling,
            past_ceiling,
            "backoff {} must behave exactly like the {}-frame ceiling",
            backoff,
            MAX_RETRY_BACKOFF_FRAMES
        );
    }
}
