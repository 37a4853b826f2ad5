//! The built-in lint passes: the four ported paper obligations plus the
//! cross-layer checks.
//!
//! | Pass | Codes | Level |
//! |------|-------|-------|
//! | `coverage` | `ARFS-E001`, `ARFS-E002` | spec |
//! | `safe-reachability` | `ARFS-E003` | spec |
//! | `transition-bounds` | `ARFS-E004` | spec |
//! | `cycle-guard` | `ARFS-E005` | spec |
//! | `schedulability` | `ARFS-E006` | spec |
//! | `partition-budget` | `ARFS-E007` | assembly |
//! | `bus-sufficiency` | `ARFS-E008` | assembly |
//! | `placement` | `ARFS-E009` | spec + assembly |
//! | `choose-image` | `ARFS-W101`, `ARFS-W102`, `ARFS-W106` | spec |
//! | `write-interference` | `ARFS-W103` | spec |
//! | `thrash-dwell` | `ARFS-W104` | spec |
//! | `unused-spec` | `ARFS-W105` | spec |
//! | `resource-savings` | `ARFS-W107` | spec |
//! | `reach` | `ARFS-E010`, `ARFS-E011`, `ARFS-W108` | spec |
//! | `independence` | `ARFS-W109` | spec |
//! | `wave-timing` | `ARFS-W110` | spec |
//!
//! Assembly-level passes emit nothing on a spec-only target.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

use super::assembly::{Assembly, ENV_NODE, SCRAM_NODE};
use super::{codes, Diagnostic, LintPass, LintTarget, Span};
use crate::analysis::coverage::{self, GapReason};
use crate::analysis::{resources, schedulability, timing};
use crate::ConfigId;

/// The full built-in pass catalog, in report order.
pub fn all_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(CoveragePass),
        Box::new(SafeReachabilityPass),
        Box::new(TransitionBoundPass),
        Box::new(CycleGuardPass),
        Box::new(SchedulabilityPass),
        Box::new(PartitionBudgetPass),
        Box::new(BusSufficiencyPass),
        Box::new(PlacementPass),
        Box::new(ChooseImagePass),
        Box::new(WriteInterferencePass),
        Box::new(ThrashDwellPass),
        Box::new(UnusedSpecPass),
        Box::new(ResourcePass),
        Box::new(super::reach::ReachPass),
        Box::new(super::independence::IndependencePass),
        Box::new(super::reach::WaveTimingPass),
    ]
}

/// `ARFS-E001` / `ARFS-E002`: the Figure 2 `covering_txns` TCC.
pub struct CoveragePass;

impl LintPass for CoveragePass {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn description(&self) -> &'static str {
        "every (configuration, environment) pair selects a target with a declared transition (Fig. 2)"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        coverage::covering_txns(target.spec)
            .into_iter()
            .map(|gap| {
                let code = match gap.reason {
                    GapReason::NoChoice => codes::E001,
                    GapReason::NoTransition { .. } => codes::E002,
                };
                Diagnostic::error(
                    code,
                    self.name(),
                    Span::Pair {
                        config: gap.config,
                        env: gap.env,
                    },
                    gap.reason.to_string(),
                )
                .note(
                    "covering_txns requires a valid transition for every possible \
                     failure-environment pair (Fig. 2)",
                )
            })
            .collect()
    }
}

/// `ARFS-E003`: a safe configuration must be reachable from everywhere.
pub struct SafeReachabilityPass;

impl LintPass for SafeReachabilityPass {
    fn name(&self) -> &'static str {
        "safe-reachability"
    }

    fn description(&self) -> &'static str {
        "a safe configuration is reachable from every configuration (§4)"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let safe: Vec<&str> = target
            .spec
            .safe_configs()
            .into_iter()
            .map(|c| c.as_str())
            .collect();
        timing::unreachable_from(target.spec)
            .into_iter()
            .map(|config| {
                Diagnostic::error(
                    codes::E003,
                    self.name(),
                    Span::Config(config.clone()),
                    format!("no safe configuration is reachable from `{config}`"),
                )
                .note(format!("safe configuration(s): {}", safe.join(", ")))
            })
            .collect()
    }
}

/// `ARFS-E004`: every `T(ci, cj)` admits one full protocol run.
pub struct TransitionBoundPass;

impl LintPass for TransitionBoundPass {
    fn name(&self) -> &'static str {
        "transition-bounds"
    }

    fn description(&self) -> &'static str {
        "every declared T(ci, cj) admits at least one halt/prepare/initialize protocol run (§5.3)"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let frames = spec.reconfig_frames();
        let needed = spec.frame_len() * frames;
        spec.transitions()
            .iter()
            .filter(|(_, _, bound)| *bound < needed)
            .map(|(from, to, bound)| {
                Diagnostic::error(
                    codes::E004,
                    self.name(),
                    Span::Transition {
                        from: from.clone(),
                        to: to.clone(),
                    },
                    format!("T({from}, {to}) = {bound} < {needed}"),
                )
                .note(format!(
                    "one reconfiguration takes {frames} frames of {} each",
                    spec.frame_len()
                ))
            })
            .collect()
    }
}

/// `ARFS-E005`: cyclic reconfiguration must be dwell-guarded.
pub struct CycleGuardPass;

impl LintPass for CycleGuardPass {
    fn name(&self) -> &'static str {
        "cycle-guard"
    }

    fn description(&self) -> &'static str {
        "cyclic reconfiguration is guarded by a minimum dwell (§5.3)"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        if spec.min_dwell_frames() > 0 {
            return Vec::new();
        }
        let cycles = timing::transition_cycles(spec);
        if cycles.is_empty() {
            return Vec::new();
        }
        vec![Diagnostic::error(
            codes::E005,
            self.name(),
            Span::Spec,
            format!(
                "transition graph has {} cycle(s) (e.g. {}) but min_dwell_frames = 0",
                cycles.len(),
                cycles[0]
                    .iter()
                    .map(|c| c.as_str())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        )
        .note(
            "under repeated failure and repair the time to reconfigure could be infinite; \
             a minimum dwell bounds it (§5.3)",
        )]
    }
}

/// `ARFS-E006`: single-rate per-processor schedulability.
pub struct SchedulabilityPass;

impl LintPass for SchedulabilityPass {
    fn name(&self) -> &'static str {
        "schedulability"
    }

    fn description(&self) -> &'static str {
        "in every configuration, each processor fits its applications' compute within the frame"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        schedulability::check_schedulability(target.spec)
            .into_iter()
            .map(|o| {
                let message = o.to_string();
                Diagnostic::error(
                    codes::E006,
                    self.name(),
                    Span::Partition {
                        config: o.config,
                        processor: o.processor,
                    },
                    message,
                )
            })
            .collect()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        1
    } else {
        a / gcd(a, b) * b
    }
}

/// Bound on the enumerated hyperperiod. Demand peaks at minor frame 0
/// (where every rate divisor aligns), so truncating the enumeration
/// never misses an overload — it only affects which frame is reported.
const MAX_HYPERPERIOD: u64 = 4096;

/// `ARFS-E007`: multi-rate partition budgets plus executive overhead
/// must fit every minor frame of the hyperperiod.
pub struct PartitionBudgetPass;

impl LintPass for PartitionBudgetPass {
    fn name(&self) -> &'static str {
        "partition-budget"
    }

    fn description(&self) -> &'static str {
        "per-configuration multi-rate partition budgets plus executive overhead fit the frame"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let Some(assembly) = target.assembly else {
            return Vec::new();
        };
        let spec = target.spec;
        let frame = spec.frame_len();
        let mut out = Vec::new();

        for config in spec.configs() {
            // Per-processor (compute, rate) loads of the non-off
            // applications, in a deterministic order.
            let mut loads: BTreeMap<ProcessorId, Vec<(Ticks, u64)>> = BTreeMap::new();
            let mut hyper = 1u64;
            for (app, assigned) in config.assignments() {
                if assigned.is_off() {
                    continue;
                }
                let Some(processor) = config.placement_for(app) else {
                    continue;
                };
                let Some(fspec) = spec.app(app).and_then(|a| a.find_spec(assigned)) else {
                    continue;
                };
                let rate = fspec.rate();
                hyper = lcm(hyper, rate).min(MAX_HYPERPERIOD);
                loads
                    .entry(processor)
                    .or_default()
                    .push((fspec.compute_ticks(), rate));
            }

            for (processor, apps) in loads {
                // An application with rate divisor r releases in frames
                // f with f % r == 0, so frame 0 carries the peak.
                for f in 0..hyper {
                    let mut demand = Ticks::ZERO;
                    for &(compute, rate) in &apps {
                        if f % rate == 0 {
                            demand += compute;
                        }
                    }
                    let total = demand + assembly.scram_overhead;
                    if total > frame {
                        out.push(
                            Diagnostic::error(
                                codes::E007,
                                self.name(),
                                Span::Partition {
                                    config: config.id().clone(),
                                    processor,
                                },
                                format!(
                                    "partition demand {demand} + executive overhead {} = {total} \
                                     exceeds the {frame} frame at minor frame {f} of \
                                     hyperperiod {hyper}",
                                    assembly.scram_overhead
                                ),
                            )
                            .note(
                                "the major schedule must fit every minor frame, including the \
                                 frame where all rate divisors align",
                            ),
                        );
                        break; // one diagnostic per (configuration, processor)
                    }
                }
            }
        }
        out
    }
}

/// Longest reconfiguration stage name appearing in protocol payloads.
const WORST_STAGE: &str = "prepare-initialize";

/// `ARFS-E008`: every TDMA slot must carry its node's worst-case
/// protocol traffic (the Table 1 signal flows).
pub struct BusSufficiencyPass;

impl BusSufficiencyPass {
    fn check_slot(
        &self,
        assembly: &Assembly,
        node: arfs_ttbus::NodeId,
        need: usize,
        what: &str,
        out: &mut Vec<Diagnostic>,
    ) {
        match assembly.bus.max_capacity(node) {
            None => out.push(
                Diagnostic::error(
                    codes::E008,
                    self.name(),
                    Span::BusSlot { node: node.raw() },
                    format!("node N{} has no TDMA slot but must send {what}", node.raw()),
                )
                .note(format!("worst-case traffic: {need} B per bus round")),
            ),
            Some(cap) if need > cap => out.push(
                Diagnostic::error(
                    codes::E008,
                    self.name(),
                    Span::BusSlot { node: node.raw() },
                    format!(
                        "node N{} needs {need} B per round for worst-case {what} but its TDMA \
                         slot carries {cap} B",
                        node.raw()
                    ),
                )
                .note("size the slot for the frame where every hosted application signals at once"),
            ),
            Some(_) => {}
        }
    }
}

impl LintPass for BusSufficiencyPass {
    fn name(&self) -> &'static str {
        "bus-sufficiency"
    }

    fn description(&self) -> &'static str {
        "every TDMA bus slot carries its node's worst-case protocol signal traffic"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let Some(assembly) = target.assembly else {
            return Vec::new();
        };
        let spec = target.spec;
        let mut out = Vec::new();

        // Status signals: each application on a processor may report
        // "{app}:{stage}:done" in the same frame.
        for &p in &assembly.platform {
            let need = spec
                .configs()
                .iter()
                .map(|config| {
                    config
                        .assignments()
                        .filter(|(app, assigned)| {
                            !assigned.is_off() && config.placement_for(app) == Some(p)
                        })
                        .map(|(app, _)| app.as_str().len() + 1 + WORST_STAGE.len() + ":done".len())
                        .sum::<usize>()
                })
                .max()
                .unwrap_or(0);
            self.check_slot(
                assembly,
                Assembly::proc_node(p),
                need,
                "status signals",
                &mut out,
            );
        }

        // Reconfiguration signals: the SCRAM commands every application
        // with "{app}:{stage}" in the trigger frame.
        let scram_need = spec
            .apps()
            .iter()
            .map(|a| a.id().as_str().len() + 1 + WORST_STAGE.len())
            .sum::<usize>();
        self.check_slot(
            assembly,
            SCRAM_NODE,
            scram_need,
            "reconfiguration signals",
            &mut out,
        );

        // Fault signals: every factor may change in one frame, each
        // reported as "{factor}={value}".
        let env_need = spec
            .env_model()
            .factors()
            .iter()
            .map(|f| f.name().len() + 1 + f.domain().iter().map(String::len).max().unwrap_or(0))
            .sum::<usize>();
        self.check_slot(assembly, ENV_NODE, env_need, "fault signals", &mut out);
        out
    }
}

/// `ARFS-E009`: processor-mapping validity — configurations chosen on a
/// processor failure must not use that processor, and placements must
/// exist in the assembled platform.
pub struct PlacementPass;

impl LintPass for PlacementPass {
    fn name(&self) -> &'static str {
        "placement"
    }

    fn description(&self) -> &'static str {
        "configurations chosen on processor failure avoid the failed processor; placements exist"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let mut out = Vec::new();

        // The status of a component is modeled as an element of the
        // environment (§6.3): a rule firing on `processor-N = down` must
        // not select a configuration that still uses processor N.
        for (index, rule) in spec.choose_table().rules().iter().enumerate() {
            for (factor, value) in &rule.when {
                let Some(n) = factor
                    .strip_prefix("processor-")
                    .and_then(|s| s.parse::<u32>().ok())
                else {
                    continue;
                };
                if value != "down" {
                    continue;
                }
                let failed = ProcessorId::new(n);
                let uses_failed = spec
                    .config(&rule.target)
                    .is_some_and(|c| c.processors().contains(&failed));
                if uses_failed {
                    out.push(
                        Diagnostic::error(
                            codes::E009,
                            self.name(),
                            Span::ChooseRule {
                                index,
                                target: rule.target.clone(),
                            },
                            format!(
                                "rule fires on `{factor} = down` but target `{}` still places \
                                 applications on {failed}",
                                rule.target
                            ),
                        )
                        .note(
                            "a configuration selected on a processor failure must run without it",
                        ),
                    );
                }
            }
        }

        // With an assembly, every placement must name a processor the
        // platform actually provides.
        if let Some(assembly) = target.assembly {
            for config in spec.configs() {
                for (app, assigned) in config.assignments() {
                    if assigned.is_off() {
                        continue;
                    }
                    let Some(p) = config.placement_for(app) else {
                        continue;
                    };
                    if !assembly.has_processor(p) {
                        out.push(Diagnostic::error(
                            codes::E009,
                            self.name(),
                            Span::Partition {
                                config: config.id().clone(),
                                processor: p,
                            },
                            format!(
                                "configuration `{}` places `{app}` on {p}, which is not in the \
                                 assembled platform",
                                config.id()
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `ARFS-W101` / `ARFS-W102` / `ARFS-W106`: dead configurations,
/// never-taken transitions, and never-firing choice rules, all computed
/// from one enumeration of the choice function's image.
pub struct ChooseImagePass;

impl LintPass for ChooseImagePass {
    fn name(&self) -> &'static str {
        "choose-image"
    }

    fn description(&self) -> &'static str {
        "every configuration, transition, and choice rule is actually exercised by the choice function"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let rules = spec.choose_table().rules();
        let mut edges: BTreeSet<(ConfigId, ConfigId)> = BTreeSet::new();
        let mut used_rules: BTreeSet<usize> = BTreeSet::new();

        spec.env_model().for_each_state(|env| {
            for config in spec.configs() {
                for (i, rule) in rules.iter().enumerate() {
                    if rule.matches(config.id(), env) {
                        used_rules.insert(i);
                        edges.insert((config.id().clone(), rule.target.clone()));
                        break;
                    }
                }
            }
        });

        let mut out = Vec::new();

        // W101: BFS over the choice image from the initial configuration.
        let mut reached: BTreeSet<&ConfigId> = BTreeSet::new();
        let mut queue: VecDeque<&ConfigId> = VecDeque::new();
        reached.insert(spec.initial_config());
        queue.push_back(spec.initial_config());
        while let Some(at) = queue.pop_front() {
            for (from, to) in &edges {
                if from == at && !reached.contains(to) {
                    reached.insert(to);
                    queue.push_back(to);
                }
            }
        }
        for config in spec.configs() {
            if !reached.contains(config.id()) {
                out.push(
                    Diagnostic::warning(
                        codes::W101,
                        self.name(),
                        Span::Config(config.id().clone()),
                        format!(
                            "configuration `{}` is unreachable from `{}` under the choice function",
                            config.id(),
                            spec.initial_config()
                        ),
                    )
                    .note("dead configurations suggest missing choice rules or stale design"),
                );
            }
        }

        // W102: declared transitions the choice function never takes.
        for (from, to, _) in spec.transitions().iter() {
            if from != to && !edges.contains(&(from.clone(), to.clone())) {
                out.push(
                    Diagnostic::warning(
                        codes::W102,
                        self.name(),
                        Span::Transition {
                            from: from.clone(),
                            to: to.clone(),
                        },
                        format!(
                            "transition `{from} -> {to}` is declared but never taken for any \
                             (configuration, environment) pair"
                        ),
                    )
                    .note("unused transitions widen the verified surface for no benefit"),
                );
            }
        }

        // W106: choice rules that never fire.
        for (index, rule) in rules.iter().enumerate() {
            if !used_rules.contains(&index) {
                out.push(
                    Diagnostic::warning(
                        codes::W106,
                        self.name(),
                        Span::ChooseRule {
                            index,
                            target: rule.target.clone(),
                        },
                        format!(
                            "choose rule #{index} never fires for any (configuration, \
                             environment) pair"
                        ),
                    )
                    .note(
                        "it may be shadowed by an earlier rule or its guard may be unsatisfiable",
                    ),
                );
            }
        }
        out
    }
}

/// `ARFS-W103`: stable-storage write interference within a frame.
pub struct WriteInterferencePass;

impl LintPass for WriteInterferencePass {
    fn name(&self) -> &'static str {
        "write-interference"
    }

    fn description(&self) -> &'static str {
        "no two applications active in the same configuration write the same stable-storage key"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let mut out = Vec::new();
        for config in spec.configs() {
            let mut writers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (app, assigned) in config.assignments() {
                if assigned.is_off() {
                    continue;
                }
                let Some(fspec) = spec.app(app).and_then(|a| a.find_spec(assigned)) else {
                    continue;
                };
                for key in fspec.write_set() {
                    writers.entry(key.as_str()).or_default().push(app.as_str());
                }
            }
            for (key, apps) in writers {
                if apps.len() > 1 {
                    out.push(
                        Diagnostic::warning(
                            codes::W103,
                            self.name(),
                            Span::Config(config.id().clone()),
                            format!(
                                "stable-storage key `{key}` is written by multiple applications: {}",
                                apps.join(", ")
                            ),
                        )
                        .note(
                            "frame-end commits make the last writer win silently; partition the \
                             keys or make the sharing explicit",
                        ),
                    );
                }
            }
        }
        out
    }
}

/// `ARFS-W104`: the dwell guard is present but shorter than one
/// reconfiguration.
pub struct ThrashDwellPass;

impl LintPass for ThrashDwellPass {
    fn name(&self) -> &'static str {
        "thrash-dwell"
    }

    fn description(&self) -> &'static str {
        "the minimum dwell outlasts one reconfiguration, so environment oscillation cannot thrash"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let dwell = spec.min_dwell_frames();
        let frames = spec.reconfig_frames();
        if dwell == 0 || dwell >= frames {
            // dwell == 0 with cycles is ARFS-E005's error.
            return Vec::new();
        }
        if timing::transition_cycles(spec).is_empty() {
            return Vec::new();
        }
        vec![Diagnostic::warning(
            codes::W104,
            self.name(),
            Span::Spec,
            format!(
                "min_dwell_frames = {dwell} is shorter than one reconfiguration \
                 ({frames} frames)"
            ),
        )
        .note(
            "the environment model admits an oscillation that flips a factor every frame; a \
             dwell shorter than the protocol lets each swing trigger a fresh reconfiguration \
             (§5.3)",
        )]
    }
}

/// `ARFS-W105`: functional specifications no configuration assigns.
pub struct UnusedSpecPass;

impl LintPass for UnusedSpecPass {
    fn name(&self) -> &'static str {
        "unused-spec"
    }

    fn description(&self) -> &'static str {
        "every declared functional specification is assigned by some configuration"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        let mut out = Vec::new();
        for app in spec.apps() {
            for fspec in app.specs() {
                let used = spec
                    .configs()
                    .iter()
                    .any(|c| c.spec_for(app.id()) == Some(fspec.id()));
                if !used {
                    out.push(
                        Diagnostic::warning(
                            codes::W105,
                            self.name(),
                            Span::FuncSpec {
                                app: app.id().clone(),
                                spec: fspec.id().clone(),
                            },
                            format!(
                                "functional specification `{}` of `{}` is never assigned by any \
                                 configuration",
                                fspec.id(),
                                app.id()
                            ),
                        )
                        .note("dead specifications still carry verification obligations"),
                    );
                }
            }
        }
        out
    }
}

/// `ARFS-W107`: reconfiguration should save hardware over masking.
pub struct ResourcePass;

impl LintPass for ResourcePass {
    fn name(&self) -> &'static str {
        "resource-savings"
    }

    fn description(&self) -> &'static str {
        "the reconfiguration design needs fewer components than a masking design (§5.1)"
    }

    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic> {
        let spec = target.spec;
        if spec.configs().len() <= 1 {
            return Vec::new();
        }
        let model = resources::model_from_spec(spec);
        if model.savings() > 0 {
            return Vec::new();
        }
        vec![Diagnostic::warning(
            codes::W107,
            self.name(),
            Span::Spec,
            format!(
                "reconfiguration saves no hardware over masking (full service uses {} \
                 processor(s), the smallest safe configuration uses {})",
                model.full_service_units, model.safe_service_units
            ),
        )
        .note(
            "the §5.1 argument for reconfiguration is carrying only enough components for safe \
             service; equal footprints mean masking would serve as well",
        )]
    }
}
