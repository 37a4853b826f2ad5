//! Failpoints for the ARFS workspace: deterministic fault injection at
//! named substrate decision points.
//!
//! A *failpoint* is a named hook compiled into a decision point of the
//! substrate — a stable-storage commit, a bus delivery, a clock
//! advance, a SCRAM phase transition. A deterministic-simulation
//! campaign *arms* a seeded [`FailpointPlan`] naming which sites fire,
//! on which evaluation, with which [`FpAction`]; the run then replays
//! bit-identically for the same plan, which is what makes a shrunk
//! `(schedule, fault-plan, failpoint-plan)` triple a durable incident
//! artifact rather than a flaky repro.
//!
//! # Zero cost when disabled
//!
//! Everything here is gated on the `failpoints` cargo feature — and the
//! [`fp!`] macro checks the feature *of the crate it expands in*, so
//! every consuming crate declares its own `failpoints` feature
//! forwarding to `arfs-assure/failpoints`. With the feature off the
//! macro expands to an empty block: no branch, no registry symbol, no
//! allocation on the steady frame path (the workspace proves this with
//! a counting allocator in `tests/tests/alloc_free_frame.rs`). The
//! registry functions still exist as inert stubs so harness code
//! compiles in both configurations.
//!
//! # Usage
//!
//! ```
//! use arfs_assure::{fp, FailpointPlan, FpAction};
//!
//! fn commit(data: &mut Vec<u32>, value: u32) -> Result<(), &'static str> {
//!     // Statement form: counts the hit; a `Panic` action panics here.
//!     fp!("demo.commit.enter");
//!     // Handler form: the body runs inline at the site when the point
//!     // fires, so `return` / `continue` / local mutation all work.
//!     fp!("demo.commit.apply", action => match action {
//!         FpAction::Err => return Err("injected commit failure"),
//!         FpAction::Skip => return Ok(()), // lost write
//!         _ => {}
//!     });
//!     data.push(value);
//!     Ok(())
//! }
//!
//! # #[cfg(feature = "failpoints")] {
//! let mut plan = FailpointPlan::new();
//! plan.push("demo.commit.apply", 2, FpAction::Err);
//! let _campaign = arfs_assure::install(&plan);
//! let mut data = Vec::new();
//! assert_eq!(commit(&mut data, 1), Ok(()));
//! assert_eq!(commit(&mut data, 2), Err("injected commit failure"));
//! assert_eq!(data, [1]);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// What a fired failpoint does at its site.
///
/// The *site* owns the semantics: an `Err` at a stable-storage commit
/// surfaces as a torn write, at a pool allocation as exhaustion; a
/// `Delay` at the clock is jitter ticks, at the SCRAM a held frame. The
/// coverage map in `DESIGN.md` records the meaning per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FpAction {
    /// The operation reports failure through its normal error path.
    Err,
    /// The operation is silently skipped (a lost write, a dropped
    /// delivery).
    Skip,
    /// The operation is delayed by the given site-specific amount
    /// (ticks, frames, or rounds).
    Delay(u64),
    /// The thread panics at the site — the fail-stop half of the model,
    /// used to model a fleet worker dying mid-shard at `fleet.shard`.
    Panic,
}

impl fmt::Display for FpAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpAction::Err => f.write_str("err"),
            FpAction::Skip => f.write_str("skip"),
            FpAction::Delay(n) => write!(f, "delay({n})"),
            FpAction::Panic => f.write_str("panic"),
        }
    }
}

/// One armed point of a [`FailpointPlan`]: site, ordinal, action.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FpEntry {
    /// The site name, e.g. `"failstop.stable.commit"`.
    pub site: String,
    /// Which evaluation of the site fires, 1-based: `hit: 3` arms the
    /// third time the run reaches the site.
    pub hit: u64,
    /// The action taken when the point fires.
    pub action: FpAction,
}

impl fmt::Display for FpEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.site, self.hit, self.action)
    }
}

/// A seeded campaign's set of armed failpoints.
///
/// Plans are data, not global state: they serialize into `BENCH_dst.json`
/// and incident artifacts, shrink entry-by-entry, and replay exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FailpointPlan(pub Vec<FpEntry>);

impl FailpointPlan {
    /// An empty plan (no site ever fires).
    pub fn new() -> FailpointPlan {
        FailpointPlan::default()
    }

    /// Arms `site` to fire its `hit`-th evaluation with `action`.
    pub fn push(&mut self, site: impl Into<String>, hit: u64, action: FpAction) {
        self.0.push(FpEntry {
            site: site.into(),
            hit: hit.max(1),
            action,
        });
    }

    /// Number of armed points.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no point is armed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes the entry at `index`, returning the shrunk plan — the
    /// shrinker's primitive move.
    pub fn without(&self, index: usize) -> FailpointPlan {
        let mut next = self.clone();
        next.0.remove(index);
        next
    }

    /// Draws a deterministic plan from a seed over a site *menu*: each
    /// `(site, allowed actions)` row lists what that decision point can
    /// survive. Up to `max_points` points are armed, each on a hit
    /// ordinal in `1..=hit_window`.
    pub fn random(
        seed: u64,
        menu: &[(&str, &[FpAction])],
        max_points: usize,
        hit_window: u64,
    ) -> FailpointPlan {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut plan = FailpointPlan::new();
        if menu.is_empty() || max_points == 0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let points = rng.gen_range(1..=max_points);
        for _ in 0..points {
            let (site, actions) = menu[rng.gen_range(0..menu.len())];
            if actions.is_empty() {
                continue;
            }
            let action = actions[rng.gen_range(0..actions.len())];
            let hit = rng.gen_range(1..=hit_window.max(1));
            plan.push(site, hit, action);
        }
        plan
    }
}

impl fmt::Display for FailpointPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("(no failpoints)");
        }
        for (i, entry) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{entry}")?;
        }
        Ok(())
    }
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{FailpointPlan, FpAction};
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    #[derive(Default)]
    struct State {
        /// site -> evaluations seen so far this campaign.
        hits: BTreeMap<String, u64>,
        /// site -> [(ordinal, action)] still armed.
        armed: BTreeMap<String, Vec<(u64, FpAction)>>,
    }

    static STATE: Mutex<Option<State>> = Mutex::new(None);
    /// Serializes whole campaigns: tests and harnesses sharing the one
    /// process-global registry take turns instead of interleaving.
    ///
    /// Both locks are taken through `PoisonError::into_inner`. A `Panic`
    /// action unwinds through a live [`CampaignGuard`] by design, which
    /// poisons `CAMPAIGN`; the guard's drop still resets `STATE`, so the
    /// registry stays consistent and the next campaign may proceed.
    static CAMPAIGN: Mutex<()> = Mutex::new(());

    /// Exclusive hold on the registry for one campaign; dropping it
    /// disarms every site and clears the hit counters.
    pub struct CampaignGuard {
        _campaign: MutexGuard<'static, ()>,
    }

    impl Drop for CampaignGuard {
        fn drop(&mut self) {
            *STATE.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Arms `plan` and returns the guard scoping the campaign.
    pub fn install(plan: &FailpointPlan) -> CampaignGuard {
        let campaign = CAMPAIGN.lock().unwrap_or_else(PoisonError::into_inner);
        let mut armed: BTreeMap<String, Vec<(u64, FpAction)>> = BTreeMap::new();
        for entry in &plan.0 {
            armed
                .entry(entry.site.clone())
                .or_default()
                .push((entry.hit, entry.action));
        }
        *STATE.lock().unwrap_or_else(PoisonError::into_inner) = Some(State {
            hits: BTreeMap::new(),
            armed,
        });
        CampaignGuard {
            _campaign: campaign,
        }
    }

    /// Resets hit counters (not the armed plan): call between replays
    /// of one campaign so hit ordinals stay run-relative.
    pub fn reset_hits() {
        if let Some(state) = STATE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            state.hits.clear();
        }
    }

    /// Records one evaluation of `site` and returns the action if an
    /// armed point fires on this ordinal. `Panic` actions panic here —
    /// sites never have to handle them.
    pub fn hit(site: &str) -> Option<FpAction> {
        let action = {
            let mut guard = STATE.lock().unwrap_or_else(PoisonError::into_inner);
            let state = guard.as_mut()?;
            let count = state.hits.entry(site.to_owned()).or_insert(0);
            *count += 1;
            let ordinal = *count;
            let armed = state.armed.get(site)?;
            armed
                .iter()
                .find(|(hit, _)| *hit == ordinal)
                .map(|(_, action)| *action)
        };
        if let Some(FpAction::Panic) = action {
            panic!("failpoint `{site}` fired: panic");
        }
        action
    }

    /// Per-site evaluation counts observed so far this campaign —
    /// the coverage evidence DST reports aggregate.
    pub fn hit_counts() -> Vec<(String, u64)> {
        STATE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|s| s.hits.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{hit, hit_counts, install, reset_hits, CampaignGuard};

/// Inert stand-ins so harnesses compile identically without the
/// feature: no registry exists, nothing ever fires.
#[cfg(not(feature = "failpoints"))]
mod stubs {
    use super::{FailpointPlan, FpAction};

    /// Stub guard: nothing to disarm.
    pub struct CampaignGuard;

    /// Stub install: returns an inert guard.
    pub fn install(_plan: &FailpointPlan) -> CampaignGuard {
        CampaignGuard
    }

    /// Stub reset: no counters exist.
    pub fn reset_hits() {}

    /// Stub hit: never fires. Real sites never call this — the [`fp!`](crate::fp!)
    /// macro compiles to nothing without the consumer's feature — but
    /// generic harness code may.
    pub fn hit(_site: &str) -> Option<FpAction> {
        None
    }

    /// Stub counts: always empty.
    pub fn hit_counts() -> Vec<(String, u64)> {
        Vec::new()
    }
}

#[cfg(not(feature = "failpoints"))]
pub use stubs::{hit, hit_counts, install, reset_hits, CampaignGuard};

/// Returns `true` when the registry is compiled in (the `failpoints`
/// feature of *this* crate — consuming crates must also enable their
/// own forwarding feature for their sites to arm).
pub const fn failpoints_enabled() -> bool {
    cfg!(feature = "failpoints")
}

/// Plants a failpoint at a substrate decision point.
///
/// Two forms:
///
/// - `fp!("site")` — counts the evaluation; a [`FpAction::Panic`] armed
///   here panics, every other action is a no-op.
/// - `fp!("site", action => body)` — when the point fires with a
///   non-panic action, `body` runs *inline at the site* with `action`
///   bound, so `return`, `break`, `continue`, and local mutation all
///   behave as if hand-written there.
///
/// The macro checks the `failpoints` feature of the crate it expands
/// in; with the feature off it expands to an empty block.
#[macro_export]
macro_rules! fp {
    ($site:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            let _ = $crate::hit($site);
        }
    }};
    ($site:expr, $action:ident => $body:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            if let Some($action) = $crate::hit($site) {
                $body
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_random_is_deterministic_and_bounded() {
        let menu: &[(&str, &[FpAction])] = &[
            ("a.x", &[FpAction::Err, FpAction::Skip]),
            ("b.y", &[FpAction::Delay(2)]),
        ];
        let p1 = FailpointPlan::random(7, menu, 3, 10);
        let p2 = FailpointPlan::random(7, menu, 3, 10);
        assert_eq!(p1, p2);
        assert!(!p1.is_empty() && p1.len() <= 3);
        for entry in &p1.0 {
            assert!((1..=10).contains(&entry.hit));
        }
        assert_ne!(p1, FailpointPlan::random(8, menu, 3, 10));
        assert!(FailpointPlan::random(7, &[], 3, 10).is_empty());
    }

    #[test]
    fn plan_display_and_shrink_move() {
        let mut plan = FailpointPlan::new();
        plan.push("a.x", 2, FpAction::Err);
        plan.push("b.y", 1, FpAction::Delay(3));
        assert_eq!(plan.to_string(), "a.x@2:err; b.y@1:delay(3)");
        let shrunk = plan.without(0);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk.0[0].site, "b.y");
        assert_eq!(FailpointPlan::new().to_string(), "(no failpoints)");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let mut plan = FailpointPlan::new();
        plan.push("a.x", 1, FpAction::Panic);
        plan.push("b.y", 4, FpAction::Skip);
        let text = serde_json::to_string_infallible(&plan);
        let back: FailpointPlan = serde_json::from_str(&text).expect("round trip");
        assert_eq!(back, plan);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_sites_fire_on_their_ordinal_and_disarm_on_drop() {
        let mut plan = FailpointPlan::new();
        plan.push("t.site", 2, FpAction::Err);
        {
            let _campaign = install(&plan);
            assert_eq!(hit("t.site"), None);
            assert_eq!(hit("t.site"), Some(FpAction::Err));
            assert_eq!(hit("t.site"), None);
            assert_eq!(hit("t.other"), None);
            let counts = hit_counts();
            assert_eq!(
                counts,
                vec![("t.other".to_owned(), 1), ("t.site".to_owned(), 3)]
            );
            reset_hits();
            assert_eq!(hit("t.site"), None);
            assert_eq!(hit("t.site"), Some(FpAction::Err));
        }
        // Campaign dropped: nothing fires.
        assert_eq!(hit("t.site"), None);
        assert!(hit_counts().is_empty());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn macro_handler_form_fires_inline() {
        fn guarded(limit: u64) -> Result<u64, String> {
            fp!("t.macro.enter");
            fp!("t.macro.gate", action => match action {
                FpAction::Err => return Err("injected".to_owned()),
                FpAction::Delay(n) => return Ok(limit + n),
                _ => {}
            });
            Ok(limit)
        }
        let mut plan = FailpointPlan::new();
        plan.push("t.macro.gate", 1, FpAction::Err);
        plan.push("t.macro.gate", 2, FpAction::Delay(5));
        let _campaign = install(&plan);
        assert_eq!(guarded(10), Err("injected".to_owned()));
        assert_eq!(guarded(10), Ok(15));
        assert_eq!(guarded(10), Ok(10));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    #[should_panic(expected = "failpoint `t.panic` fired: panic")]
    fn panic_action_panics_at_the_site() {
        let mut plan = FailpointPlan::new();
        plan.push("t.panic", 1, FpAction::Panic);
        let _campaign = install(&plan);
        fp!("t.panic");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_panicking_campaign_leaves_the_registry_usable() {
        let mut plan = FailpointPlan::new();
        plan.push("t.poison", 1, FpAction::Panic);
        let unwound = std::panic::catch_unwind(|| {
            let _campaign = install(&plan);
            fp!("t.poison");
        });
        assert!(unwound.is_err(), "the armed `Panic` site must panic");

        let mut plan = FailpointPlan::new();
        plan.push("t.after", 2, FpAction::Err);
        {
            let _campaign = install(&plan);
            assert_eq!(hit("t.after"), None);
            assert_eq!(hit("t.after"), Some(FpAction::Err));
        }
        assert!(hit_counts().is_empty());
    }
}
