//! Reachability abstract interpretation over the configuration /
//! environment transition structure.
//!
//! The `choose-image` pass (`ARFS-W101`/`W102`) reasons about the
//! *naive* edge relation — "the choice function selects `to` from
//! `from` under some environment" — ignoring whether the transition is
//! actually declared. This pass refines it: an edge exists only when
//! the transition is both **declared** in the transition table and
//! **taken** by the choice function for some environment state,
//!
//! ```text
//! E = { (c, c') | c ≠ c', T(c, c') declared, ∃ e: choose(c, e) = c' }
//! ```
//!
//! and `R*` is the set of configurations reachable from the initial
//! configuration over `E`. Three diagnostics fall out:
//!
//! - [`codes::E010`]: a configuration the choice function selects
//!   (`W101` silent) that nevertheless lies outside `R*` — dead once
//!   the undeclared transitions (`E002` errors) are discounted;
//! - [`codes::E011`]: a configuration in `R*` with a declared path to
//!   safety (`E003` silent) but no safe configuration reachable over
//!   `E` — the escape route exists on paper and is never chosen;
//! - [`codes::W108`]: a declared transition the choice function takes
//!   (`W102` silent) whose source is outside `R*` — the edge can never
//!   fire at runtime.
//!
//! [`WaveTimingPass`] (`ARFS-W110`) adds the timing-infeasibility
//! refinement of `ARFS-E004`: a transition bound may admit one *bare*
//! protocol run yet be too tight for the staged run the declared
//! dependency structure forces, where the initialize phase repeats once
//! per dependency wave.

use std::collections::{BTreeSet, VecDeque};

use super::{codes, Diagnostic, LintPass, LintTarget, Span};
use crate::scram::{KernelConfig, Protocol, SyncPolicy};
use crate::spec::ReconfigSpec;
use crate::ConfigId;

/// The computed reachability structure (also rendered by `arfs-lint
/// reach`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReachAnalysis {
    /// Edges of the naive relation: chosen under some environment,
    /// declared or not.
    pub naive_edges: BTreeSet<(ConfigId, ConfigId)>,
    /// Edges of the refined relation: chosen *and* declared.
    pub refined_edges: BTreeSet<(ConfigId, ConfigId)>,
    /// Configurations reachable from the initial one over the naive
    /// relation.
    pub naive_reachable: BTreeSet<ConfigId>,
    /// Configurations reachable from the initial one over the refined
    /// relation (`R*`).
    pub refined_reachable: BTreeSet<ConfigId>,
}

impl ReachAnalysis {
    /// Runs the abstract interpretation.
    pub fn compute(spec: &ReconfigSpec) -> Self {
        let mut naive_edges: BTreeSet<(ConfigId, ConfigId)> = BTreeSet::new();
        spec.env_model().for_each_state(|env| {
            for config in spec.configs() {
                if let Some(target) = spec.wanted_change(config.id(), env) {
                    naive_edges.insert((config.id().clone(), target.clone()));
                }
            }
        });
        let refined_edges: BTreeSet<(ConfigId, ConfigId)> = naive_edges
            .iter()
            .filter(|(from, to)| spec.transitions().bound(from, to).is_some())
            .cloned()
            .collect();
        ReachAnalysis {
            naive_reachable: closure(spec.initial_config(), &naive_edges),
            refined_reachable: closure(spec.initial_config(), &refined_edges),
            naive_edges,
            refined_edges,
        }
    }

    /// Configurations from which a safe configuration is reachable over
    /// the refined relation (including safe configurations themselves).
    pub fn safe_reaching(&self, spec: &ReconfigSpec) -> BTreeSet<ConfigId> {
        let mut out = BTreeSet::new();
        for config in spec.configs() {
            let fwd = closure(config.id(), &self.refined_edges);
            if fwd
                .iter()
                .any(|c| spec.config(c).is_some_and(|cfg| cfg.is_safe()))
            {
                out.insert(config.id().clone());
            }
        }
        out
    }

    /// Renders the analysis human-readably (the `arfs-lint reach`
    /// output).
    pub fn render(&self, spec: &ReconfigSpec) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reachability from `{}` ({} configuration(s))",
            spec.initial_config(),
            spec.configs().len()
        );
        for config in spec.configs() {
            let id = config.id();
            let naive = self.naive_reachable.contains(id);
            let refined = self.refined_reachable.contains(id);
            let _ = writeln!(
                out,
                "  `{id}`: naive {}  refined {}{}",
                if naive { "yes" } else { "NO " },
                if refined { "yes" } else { "NO " },
                if config.is_safe() { "  [safe]" } else { "" }
            );
        }
        let _ = write!(
            out,
            "  refined edges: {}",
            if self.refined_edges.is_empty() {
                "(none)".to_owned()
            } else {
                self.refined_edges
                    .iter()
                    .map(|(f, t)| format!("{f} -> {t}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        );
        out
    }
}

fn closure(from: &ConfigId, edges: &BTreeSet<(ConfigId, ConfigId)>) -> BTreeSet<ConfigId> {
    let mut reached: BTreeSet<ConfigId> = BTreeSet::new();
    let mut queue: VecDeque<ConfigId> = VecDeque::new();
    reached.insert(from.clone());
    queue.push_back(from.clone());
    while let Some(at) = queue.pop_front() {
        for (f, t) in edges {
            if *f == at && !reached.contains(t) {
                reached.insert(t.clone());
                queue.push_back(t.clone());
            }
        }
    }
    reached
}

/// Whether a safe configuration is reachable from `from` over declared
/// transitions alone (the `ARFS-E003` relation).
fn declared_safe_reachable(spec: &ReconfigSpec, from: &ConfigId) -> bool {
    let mut seen: BTreeSet<ConfigId> = BTreeSet::new();
    let mut stack = vec![from.clone()];
    while let Some(at) = stack.pop() {
        if spec.config(&at).is_some_and(|c| c.is_safe()) {
            return true;
        }
        if seen.insert(at.clone()) {
            for next in spec.transitions().successors(&at) {
                if !seen.contains(next) {
                    stack.push(next.clone());
                }
            }
        }
    }
    false
}

/// `ARFS-E010` / `ARFS-E011` / `ARFS-W108`: the refined reachability
/// abstract interpretation.
pub struct ReachPass;

impl LintPass for ReachPass {
    fn name(&self) -> &'static str {
        "reach"
    }

    fn description(&self) -> &'static str {
        "configurations and transitions reachable once undeclared transitions are discounted"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let analysis = ReachAnalysis::compute(spec);
        let safe_reaching = analysis.safe_reaching(spec);
        let mut out = Vec::new();

        // E010: selected and naive-reachable, but dead under the
        // refined relation.
        for config in spec.configs() {
            let id = config.id();
            if analysis.naive_reachable.contains(id) && !analysis.refined_reachable.contains(id) {
                out.push(
                    Diagnostic::error(
                        codes::E010,
                        self.name(),
                        Span::Config(id.clone()),
                        format!(
                            "configuration `{id}` is selected by the choice function but \
                             unreachable once undeclared transitions are discounted"
                        ),
                    )
                    .note(
                        "every choice edge into it lacks a declared transition (see the \
                         ARFS-E002 errors on those pairs)",
                    ),
                );
            }
        }

        // E011: reachable, declared escape path to safety exists, but
        // the choice function never takes one.
        for config in spec.configs() {
            let id = config.id();
            if analysis.refined_reachable.contains(id)
                && declared_safe_reachable(spec, id)
                && !safe_reaching.contains(id)
            {
                out.push(
                    Diagnostic::error(
                        codes::E011,
                        self.name(),
                        Span::Config(id.clone()),
                        format!(
                            "configuration `{id}` is reachable but no safe configuration is \
                             reachable from it through transitions the choice function takes"
                        ),
                    )
                    .note(
                        "a declared path to safety exists (ARFS-E003 is silent) but the choice \
                         function never chooses any transition along it",
                    ),
                );
            }
        }

        // W108: a live declared transition with a dead source.
        for (from, to, _) in spec.transitions().iter() {
            if from != to
                && analysis.naive_edges.contains(&(from.clone(), to.clone()))
                && !analysis.refined_reachable.contains(from)
            {
                out.push(
                    Diagnostic::warning(
                        codes::W108,
                        self.name(),
                        Span::Transition {
                            from: from.clone(),
                            to: to.clone(),
                        },
                        format!(
                            "transition `{from} -> {to}` is declared and taken by the choice \
                             function, but `{from}` is unreachable under the refined relation"
                        ),
                    )
                    .note("the edge is verified surface that can never fire at runtime"),
                );
            }
        }

        out
    }
}

/// `ARFS-W110`: transition bounds too tight for staged initialization.
pub struct WaveTimingPass;

impl LintPass for WaveTimingPass {
    fn name(&self) -> &'static str {
        "wave-timing"
    }

    fn description(&self) -> &'static str {
        "transition bounds admit the staged protocol run the dependency waves force"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let staged = Protocol::new(
            spec,
            &KernelConfig {
                sync: SyncPolicy::PhaseChecked,
                ..KernelConfig::default()
            },
        );
        if staged.wave_count <= 1 {
            return Vec::new();
        }
        let bare_frames = Protocol::new(spec, &KernelConfig::default()).protocol_frames();
        let staged_frames = staged.protocol_frames();
        let bare_needed = spec.frame_len() * bare_frames;
        let staged_needed = spec.frame_len() * staged_frames;
        let mut out = Vec::new();
        for (from, to, bound) in spec.transitions().iter() {
            if from == to {
                continue;
            }
            if bound >= bare_needed && bound < staged_needed {
                out.push(
                    Diagnostic::warning(
                        codes::W110,
                        self.name(),
                        Span::Transition {
                            from: from.clone(),
                            to: to.clone(),
                        },
                        format!(
                            "T({from}, {to}) = {bound} admits one bare {bare_frames}-frame \
                             protocol run but not the staged {staged_frames}-frame run forced \
                             by {} initialization wave(s)",
                            staged.wave_count
                        ),
                    )
                    .note(format!(
                        "staged minimum: (1 trigger + {} halt + {} prepare + {} init x {} \
                         wave(s)) frames x {} = {staged_needed}",
                        staged.phase_frames.halt_frames,
                        staged.phase_frames.prepare_frames,
                        staged.phase_frames.init_frames,
                        staged.wave_count,
                        spec.frame_len(),
                    )),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::LintTarget;
    use crate::spec::{AppDecl, ChooseRule, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    /// `aux` is chosen from everywhere under `crit` but no transition
    /// into it is declared: naive-reachable, refined-dead.
    fn dead_config_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low", "crit"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("hi"))
                    .spec(FunctionalSpec::new("lo")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "hi")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("aux")
                    .assign("a", "hi")
                    .place("a", ProcessorId::new(1)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "lo")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .transition("aux", "full", Ticks::new(800))
            .transition("aux", "safe", Ticks::new(800))
            .choose_when("power", "crit", "aux")
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap()
    }

    #[test]
    fn undeclared_choice_edges_leave_a_config_refined_dead() {
        let spec = dead_config_spec();
        let analysis = ReachAnalysis::compute(&spec);
        assert!(analysis.naive_reachable.contains(&ConfigId::new("aux")));
        assert!(!analysis.refined_reachable.contains(&ConfigId::new("aux")));

        let diags = ReachPass.run(&LintTarget::spec_only(&spec));
        let e010: Vec<_> = diags.iter().filter(|d| d.code == codes::E010).collect();
        assert_eq!(e010.len(), 1);
        assert!(matches!(&e010[0].span, Span::Config(c) if c.as_str() == "aux"));
        // The declared-but-dead edges out of `aux` fire W108.
        assert_eq!(
            diags.iter().filter(|d| d.code == codes::W108).count(),
            2,
            "{diags:?}"
        );
        assert!(!diags.iter().any(|d| d.code == codes::E011));
    }

    /// `trap` is reachable and has a declared path to safety, but its
    /// choice rules pin it in place forever.
    fn trap_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low", "crit"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("hi"))
                    .spec(FunctionalSpec::new("lo")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "hi")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("trap")
                    .assign("a", "hi")
                    .place("a", ProcessorId::new(1)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "lo")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "trap", Ticks::new(800))
            .transition("full", "safe", Ticks::new(800))
            .transition("trap", "safe", Ticks::new(800))
            .transition("safe", "trap", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_rule(ChooseRule::any_from("trap").from_config("trap"))
            .choose_when("power", "crit", "safe")
            .choose_when("power", "low", "trap")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap()
    }

    #[test]
    fn unchosen_escape_path_fires_e011_on_the_trap_only() {
        let spec = trap_spec();
        let diags = ReachPass.run(&LintTarget::spec_only(&spec));
        let e011: Vec<_> = diags.iter().filter(|d| d.code == codes::E011).collect();
        assert_eq!(e011.len(), 1, "{diags:?}");
        assert!(matches!(&e011[0].span, Span::Config(c) if c.as_str() == "trap"));
        assert!(!diags.iter().any(|d| d.code == codes::E010));
    }

    #[test]
    fn wave_timing_flags_bounds_between_bare_and_staged_minimum() {
        // Two dependency waves: bare run = 4 frames (400 ticks), staged
        // run = 5 frames (500 ticks). A 450-tick bound passes E004's
        // check but not the staged one.
        let spec = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("a-hi"))
                    .spec(FunctionalSpec::new("a-lo")),
            )
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("b-hi"))
                    .depends_on("a"),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", ProcessorId::new(0))
                    .place("b", ProcessorId::new(1)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "a-lo")
                    .assign("b", "off")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(450))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap();
        let diags = WaveTimingPass.run(&LintTarget::spec_only(&spec));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::W110);
        assert!(matches!(
            &diags[0].span,
            Span::Transition { from, to } if from.as_str() == "full" && to.as_str() == "safe"
        ));
        // The lint's figures are the kernel's: the bare run is the
        // default kernel's protocol, the staged run the phase-checked
        // one's, in the message and in the note.
        let frames = |sync| {
            Protocol::new(
                &spec,
                &KernelConfig {
                    sync,
                    ..KernelConfig::default()
                },
            )
            .protocol_frames()
        };
        let (bare, staged) = (
            frames(SyncPolicy::Simultaneous),
            frames(SyncPolicy::PhaseChecked),
        );
        assert_eq!((bare, staged), (4, 5));
        let (message, note) = (&diags[0].message, &diags[0].notes[0]);
        assert!(message.contains(&format!("bare {bare}-frame")), "{message}");
        assert!(
            message.contains(&format!("staged {staged}-frame")),
            "{message}"
        );
        assert!(
            note.ends_with(&format!("= {}", spec.frame_len() * staged)),
            "{note}"
        );
    }
}
