//! ARFS-LINT: a pluggable static-diagnostic engine for reconfiguration
//! specifications and assembled systems.
//!
//! The paper's assurance argument is *static*: PVS "automatically
//! generate\[s\] all of the proof obligations required to verify that a
//! system instance is compliant with the desired properties" (§6.4). This
//! module is the executable analogue, generalized from the original flat
//! obligation list into a pass framework:
//!
//! - a [`LintPass`] inspects a [`LintTarget`] — a [`ReconfigSpec`] alone,
//!   or a spec together with its [`Assembly`] (platform, TDMA bus
//!   schedule, executive overhead) — and emits [`Diagnostic`]s;
//! - every diagnostic carries a **stable code** (`ARFS-E0xx` errors are
//!   paper obligations, `ARFS-W1xx` warnings are specification smells), a
//!   [`Severity`], a structured [`Span`] naming the offending element, a
//!   human message, and notes; the whole report serializes to JSON;
//! - rendering mimics rustc: `error[ARFS-E001]: ...` with `-->` spans and
//!   `note:` counterexamples;
//! - [`LintEngine::run`] runs the passes in order on the caller's
//!   thread. A whole suite takes well under a millisecond, so it has no
//!   thread fan-out and no report cache; callers that ask repeatedly
//!   (the [`InvariantOracle`](crate::assure::InvariantOracle)) keep
//!   their own copy of the report.
//!
//! The legacy [`Obligation`]/[`ObligationReport`] types live here now
//! (re-exported from [`crate::analysis`] for compatibility) and are
//! derived *from* the diagnostic stream, so `check_obligations` and the
//! lint CLI can never disagree.

pub mod assembly;
pub mod independence;
mod obligations;
mod passes;
pub mod reach;

pub use assembly::Assembly;
pub use independence::{IndependenceCertificate, IndependencePass};
pub use obligations::{obligations_from, Obligation, ObligationReport, ObligationResult};
pub use passes::all_passes;
pub use reach::{ReachAnalysis, ReachPass, WaveTimingPass};

use std::fmt;

use crate::environment::EnvState;
use crate::snapshot::Fnv;
use crate::spec::ReconfigSpec;
use crate::{AppId, ConfigId, SpecId};
use arfs_failstop::ProcessorId;

/// The stable diagnostic codes, one constant per catalog entry.
///
/// Codes are append-only: a released code never changes meaning, and new
/// checks take new codes. `E` codes are errors (violations of paper
/// obligations — the spec or assembly is unsound); `W` codes are warnings
/// (legal but suspicious constructions).
pub mod codes {
    /// Choice function selects no target for some (configuration,
    /// environment) pair (Fig. 2 `covering_txns`).
    pub const E001: &str = "ARFS-E001";
    /// Chosen target has no declared transition from the source
    /// configuration (Fig. 2 `covering_txns`).
    pub const E002: &str = "ARFS-E002";
    /// No safe configuration is reachable from some configuration (§4).
    pub const E003: &str = "ARFS-E003";
    /// A declared transition bound is too tight for one protocol run
    /// (§5.3).
    pub const E004: &str = "ARFS-E004";
    /// The transition graph is cyclic with no minimum-dwell guard (§5.3).
    pub const E005: &str = "ARFS-E005";
    /// A processor's per-frame compute demand exceeds the frame (§7).
    pub const E006: &str = "ARFS-E006";
    /// Multi-rate partition budgets plus executive overhead overflow a
    /// minor frame of the hyperperiod.
    pub const E007: &str = "ARFS-E007";
    /// A TDMA bus slot is too small for the worst-case protocol signal
    /// traffic its node must carry (Table 1).
    pub const E008: &str = "ARFS-E008";
    /// A configuration chosen on `processor-N = down` still places an
    /// application on processor N (§6.3), or a placement names a
    /// processor outside the assembled platform.
    pub const E009: &str = "ARFS-E009";
    /// A configuration is unreachable from the initial configuration
    /// through the choice function's image.
    pub const W101: &str = "ARFS-W101";
    /// A declared transition is never taken by the choice function.
    pub const W102: &str = "ARFS-W102";
    /// Two applications write the same stable-storage key in the same
    /// frame of some configuration.
    pub const W103: &str = "ARFS-W103";
    /// The minimum dwell is shorter than one reconfiguration, so the
    /// fastest environment oscillation can thrash the system (§5.3).
    pub const W104: &str = "ARFS-W104";
    /// An application declares a functional specification no
    /// configuration assigns.
    pub const W105: &str = "ARFS-W105";
    /// A choice rule never fires (shadowed by earlier rules or
    /// unsatisfiable).
    pub const W106: &str = "ARFS-W106";
    /// Reconfiguration saves no hardware over masking (§5.1).
    pub const W107: &str = "ARFS-W107";
    /// A configuration is selected by the choice function but
    /// unreachable once undeclared transitions are discounted
    /// (`ARFS-E002` errors on those pairs): the refined reachability
    /// abstract interpretation proves the system can never actually
    /// enter it.
    pub const E010: &str = "ARFS-E010";
    /// A reachable configuration cannot reach any safe configuration
    /// through transitions the choice function both declares and takes:
    /// the declared escape path (`ARFS-E003` is silent) is never chosen.
    pub const E011: &str = "ARFS-E011";
    /// A declared transition is taken by the choice function, but its
    /// source configuration is unreachable under the refined transition
    /// relation — the edge can never fire at runtime.
    pub const W108: &str = "ARFS-W108";
    /// An environment factor is inert: every pair of its values is
    /// choice-equivalent, so no value change can ever alter the chosen
    /// configuration.
    pub const W109: &str = "ARFS-W109";
    /// A transition bound admits one bare protocol run (`ARFS-E004` is
    /// silent) but not a staged run across the spec's initialization
    /// waves — timing-infeasible for the dependency structure declared.
    pub const W110: &str = "ARFS-W110";

    /// The retired pre-registry warning code: early artifacts tagged
    /// every specification smell `ARFS-W1`. It redirects to the first
    /// stable warning code of the registry scheme (see DESIGN.md,
    /// "Legacy `ARFS-W1` redirect").
    pub const LEGACY_W1: &str = "ARFS-W1";

    /// Canonicalizes a diagnostic code: stable codes map to themselves,
    /// the retired [`LEGACY_W1`] maps into the `ARFS-W1xx` scheme, so
    /// old JSON artifacts remain interpretable.
    pub fn canonical(code: &str) -> &str {
        if code == LEGACY_W1 {
            W101
        } else {
            code
        }
    }

    /// Every code in the catalog, in report order.
    pub const ALL: &[&str] = &[
        E001, E002, E003, E004, E005, E006, E007, E008, E009, E010, E011, W101, W102, W103, W104,
        W105, W106, W107, W108, W109, W110,
    ];
}

/// Diagnostic severity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Severity {
    /// A violated obligation: the specification or assembly is unsound.
    Error,
    /// A legal but suspicious construction.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// The specification or assembly element a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Span {
    /// The specification as a whole.
    Spec,
    /// One configuration.
    Config(ConfigId),
    /// One declared transition.
    Transition {
        /// Source configuration.
        from: ConfigId,
        /// Target configuration.
        to: ConfigId,
    },
    /// One application.
    App(AppId),
    /// One functional specification of an application.
    FuncSpec {
        /// The declaring application.
        app: AppId,
        /// The functional specification.
        spec: SpecId,
    },
    /// One rule of the choice function, by evaluation index.
    ChooseRule {
        /// Zero-based index in evaluation order.
        index: usize,
        /// The rule's target configuration.
        target: ConfigId,
    },
    /// One (configuration, environment) pair of the coverage
    /// quantification domain.
    Pair {
        /// The configuration.
        config: ConfigId,
        /// The environment state.
        env: EnvState,
    },
    /// One environment factor.
    Factor(String),
    /// One TDMA bus slot, by owning node.
    BusSlot {
        /// Raw id of the owning node.
        node: u32,
    },
    /// One processor's partition within a configuration.
    Partition {
        /// The configuration.
        config: ConfigId,
        /// The processor hosting the partition.
        processor: ProcessorId,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Spec => write!(f, "specification"),
            Span::Config(c) => write!(f, "configuration `{c}`"),
            Span::Transition { from, to } => write!(f, "transition `{from} -> {to}`"),
            Span::App(a) => write!(f, "application `{a}`"),
            Span::FuncSpec { app, spec } => write!(f, "functional spec `{app}/{spec}`"),
            Span::ChooseRule { index, target } => {
                write!(f, "choose rule #{index} (-> `{target}`)")
            }
            Span::Pair { config, env } => write!(f, "configuration `{config}` under {env}"),
            Span::Factor(name) => write!(f, "environment factor `{name}`"),
            Span::BusSlot { node } => write!(f, "bus slot of node N{node}"),
            Span::Partition { config, processor } => {
                write!(f, "configuration `{config}` on {processor}")
            }
        }
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Diagnostic {
    /// Stable catalog code (`ARFS-E0xx` / `ARFS-W1xx`).
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Name of the emitting pass.
    pub pass: String,
    /// The offending element.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Supplementary notes (counterexamples, quantified context).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &str, pass: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_owned(),
            severity: Severity::Error,
            pass: pass.to_owned(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &str, pass: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_owned(),
            severity: Severity::Warning,
            pass: pass.to_owned(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Appends a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        let _ = write!(out, "\n  --> {}", self.span);
        for note in &self.notes {
            let _ = write!(out, "\n  note: {note}");
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// What a pass inspects: a specification, optionally with its assembly.
///
/// Spec-only passes run on either form; assembly-level passes emit
/// nothing when no assembly is present.
#[derive(Debug, Clone, Copy)]
pub struct LintTarget<'a> {
    /// The reconfiguration specification.
    pub spec: &'a ReconfigSpec,
    /// The assembled platform, if linting a full system.
    pub assembly: Option<&'a Assembly>,
}

impl<'a> LintTarget<'a> {
    /// Targets a specification alone.
    pub fn spec_only(spec: &'a ReconfigSpec) -> Self {
        LintTarget {
            spec,
            assembly: None,
        }
    }

    /// Targets a specification with its assembly.
    pub fn assembled(spec: &'a ReconfigSpec, assembly: &'a Assembly) -> Self {
        LintTarget {
            spec,
            assembly: Some(assembly),
        }
    }
}

/// One pluggable static-analysis pass.
///
/// Passes must be deterministic pure functions of the target, so a
/// report is a function of the target and the pass list alone.
pub trait LintPass: Send + Sync {
    /// Short machine-friendly pass name (e.g. `coverage`).
    fn name(&self) -> &'static str;
    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;
    /// Runs the pass and returns its findings.
    fn run(&self, target: &LintTarget<'_>) -> Vec<Diagnostic>;
}

/// The findings of an engine run.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct LintReport {
    /// All diagnostics, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the passes that ran, in order.
    pub passes: Vec<String>,
}

impl LintReport {
    /// The error diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Returns `true` if any error was reported.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Returns `true` if nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics carrying the given code. Retired codes are matched
    /// through [`codes::canonical`], so reports deserialized from old
    /// artifacts (which used the ad-hoc `ARFS-W1` tag) are still found
    /// under their stable registry code.
    pub fn of_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| codes::canonical(&d.code) == codes::canonical(code))
            .collect()
    }

    /// The distinct codes present, in first-appearance order.
    pub fn codes(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if !seen.contains(&d.code.as_str()) {
                seen.push(d.code.as_str());
            }
        }
        seen
    }

    /// Renders the whole report rustc-style, ending with a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let _ = write!(
            out,
            "lint: {} pass(es), {errors} error(s), {warnings} warning(s)",
            self.passes.len()
        );
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// The pass runner: owns an ordered pass list and executes it in order.
pub struct LintEngine {
    passes: Vec<Box<dyn LintPass>>,
}

impl Default for LintEngine {
    fn default() -> Self {
        LintEngine::new()
    }
}

impl LintEngine {
    /// An engine with the full built-in pass catalog.
    pub fn new() -> Self {
        LintEngine {
            passes: passes::all_passes(),
        }
    }

    /// An engine with a custom pass list (mainly for tests and tooling).
    pub fn with_passes(passes: Vec<Box<dyn LintPass>>) -> Self {
        LintEngine { passes }
    }

    /// The pass list, in execution order.
    pub fn passes(&self) -> &[Box<dyn LintPass>] {
        &self.passes
    }

    /// Runs every pass serially, in order.
    pub fn run(&self, target: &LintTarget<'_>) -> LintReport {
        let mut report = LintReport::default();
        for pass in &self.passes {
            report.passes.push(pass.name().to_owned());
            report.diagnostics.extend(pass.run(target));
        }
        report
    }
}

/// FNV-1a over a byte slice — the content hash behind the
/// [`independence::IndependenceCertificate`] spec hash.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_rtos::Ticks;

    fn clean_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .app(AppDecl::new("b").spec(FunctionalSpec::new("full")))
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .assign("b", "full")
                    .place("a", ProcessorId::new(0))
                    .place("b", ProcessorId::new(1)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .assign("b", "off")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(5)
            .build()
            .unwrap()
    }

    #[test]
    fn report_roundtrips_through_json() {
        let spec = clean_spec();
        let report = LintEngine::new().run(&LintTarget::spec_only(&spec));
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn legacy_w1_artifacts_resolve_to_the_registry_scheme() {
        // Pre-registry JSON artifacts carry the ad-hoc `ARFS-W1` tag;
        // they must still be interpretable through the stable-code API.
        let json = r#"{
            "diagnostics": [{
                "code": "ARFS-W1",
                "severity": "Warning",
                "pass": "choose-image",
                "span": "Spec",
                "message": "legacy specification smell",
                "notes": []
            }],
            "passes": ["choose-image"]
        }"#;
        let report: LintReport = serde_json::from_str(json).unwrap();
        assert_eq!(codes::canonical("ARFS-W1"), codes::W101);
        assert_eq!(report.of_code(codes::W101).len(), 1);
        assert_eq!(report.of_code(codes::LEGACY_W1).len(), 1);
        // Stable codes are untouched by canonicalization.
        assert_eq!(codes::canonical(codes::E010), codes::E010);
    }

    #[test]
    fn rendering_is_rustc_style() {
        let d = Diagnostic::error(
            codes::E001,
            "coverage",
            Span::Config(ConfigId::new("full")),
            "the choice function selects no target",
        )
        .note("quantified over 4 pairs");
        let text = d.render();
        assert!(text.starts_with("error[ARFS-E001]: the choice function"));
        assert!(text.contains("--> configuration `full`"));
        assert!(text.contains("note: quantified over 4 pairs"));
    }
}
