//! Executable checkers for the formal reconfiguration properties of
//! Table 2.
//!
//! The paper defines "correct reconfiguration" as four properties over
//! system traces, proven in PVS over the abstract model:
//!
//! - **SP1** — a reconfiguration `R` begins at the same time any
//!   application in the system is no longer operating under `Cᵢ` and ends
//!   when all applications are operating under `Cⱼ`: at `start_c` some
//!   application is `interrupted` while all were `normal` the cycle
//!   before; at `end_c` all are `normal`; strictly between, no
//!   application is `normal`.
//! - **SP2** — `Cⱼ` is the proper choice for the target system
//!   specification at some point during `R`: there is a cycle `c` in
//!   `[start_c, end_c]` with
//!   `svclvl(end_c) = choose(svclvl(start_c), env(c))`.
//! - **SP3** — `R` takes at most `T(Cᵢ, Cⱼ)` time units:
//!   `(end_c − start_c + 1) · cycle_time ≤ T(svclvl(start_c), svclvl(end_c))`.
//! - **SP4** — the precondition for `Cⱼ` is true at the time `R` ends.
//!
//! Where the paper discharges these once and for all by mechanized proof,
//! this module *evaluates* them on every recorded trace (and
//! [`crate::model`] evaluates them on exhaustively enumerated traces).
//! The checkers are deliberately paranoid: each violation pinpoints the
//! reconfiguration, frame, and application involved.
//!
//! Each property, and each extension check, is implemented once, as an
//! online monitor over a trace's states (`Monitors`): the batch checks
//! fold the monitors over a recorded trace, and a
//! [`StreamVerifier`](crate::fleet::StreamVerifier) feeds them live to
//! each fleet cell and each model-checker walk node.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::app::ConfigStatus;
use crate::spec::ReconfigSpec;
use crate::trace::{
    AppFrameRecord, Cut, IntervalCut, ReconfSt, Reconfiguration, SysState, SysTrace,
};
use crate::ConfigId;

/// Which property a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PropertyId {
    /// Table 2, SP1: reconfiguration boundaries.
    Sp1,
    /// Table 2, SP2: correct target choice.
    Sp2,
    /// Table 2, SP3: bounded transition time.
    Sp3,
    /// Table 2, SP4: target precondition at completion.
    Sp4,
    /// Extension beyond Table 2: a reconfiguration still open at the end
    /// of the trace has already exceeded every declared bound.
    OpenReconfiguration,
    /// Extension beyond Table 2 (from the §5.3 liveness discussion): a
    /// persistent mismatch between the chosen and current configuration
    /// must start a reconfiguration once the dwell guard allows it.
    Responsiveness,
    /// Extension beyond Table 2: the Table 1 stages actually ran — every
    /// application halted with its postcondition established and was
    /// prepared before initializing.
    ProtocolConformance,
    /// A static TCC proof obligation over the specification failed
    /// (surfaced through the unified [`crate::assure::InvariantOracle`];
    /// see [`crate::analysis::check_obligations`]).
    TccObligation,
    /// Chaos-defense invariant: the defended system spent more than the
    /// livelock bound's share of its frames in restricted mode — the
    /// retry/quarantine defenses are thrashing instead of converging.
    DefenseLivelock,
}

impl fmt::Display for PropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PropertyId::Sp1 => "SP1",
            PropertyId::Sp2 => "SP2",
            PropertyId::Sp3 => "SP3",
            PropertyId::Sp4 => "SP4",
            PropertyId::OpenReconfiguration => "OPEN-RECONFIG",
            PropertyId::Responsiveness => "RESPONSIVENESS",
            PropertyId::ProtocolConformance => "PROTOCOL-CONFORMANCE",
            PropertyId::TccObligation => "TCC-OBLIGATION",
            PropertyId::DefenseLivelock => "DEFENSE-LIVELOCK",
        };
        f.write_str(s)
    }
}

/// One property violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct PropertyViolation {
    /// The violated property.
    pub property: PropertyId,
    /// The reconfiguration interval involved, if applicable.
    pub reconfig: Option<Reconfiguration>,
    /// The specific frame involved, if applicable.
    pub frame: Option<u64>,
    /// Human-readable description of the defect.
    pub detail: String,
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.property)?;
        if let Some(r) = self.reconfig {
            write!(f, " [R {}..{}]", r.start_c, r.end_c)?;
        }
        if let Some(frame) = self.frame {
            write!(f, " @frame {frame}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The result of checking a trace against the properties.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PropertyReport {
    /// All violations found, in property order.
    pub violations: Vec<PropertyViolation>,
    /// Number of completed reconfigurations examined.
    pub reconfigs_checked: usize,
}

impl PropertyReport {
    /// Returns `true` if no property was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one specific property.
    pub fn of(&self, property: PropertyId) -> Vec<&PropertyViolation> {
        self.violations
            .iter()
            .filter(|v| v.property == property)
            .collect()
    }
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(
                f,
                "all properties hold over {} reconfiguration(s)",
                self.reconfigs_checked
            )
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Table 2's four properties plus the three extension checks, in report
/// order.
pub(crate) const EXTENDED: &[PropertyId] = &[
    PropertyId::Sp1,
    PropertyId::Sp2,
    PropertyId::Sp3,
    PropertyId::Sp4,
    PropertyId::OpenReconfiguration,
    PropertyId::Responsiveness,
    PropertyId::ProtocolConformance,
];

/// The chaos-defense livelock bound: a defended system may spend at most
/// this fraction of its (sufficiently long) run in restricted mode.
/// Above it, the retry/backoff/quarantine defenses are thrashing —
/// formally live, practically unavailable.
const RESTRICTED_RATIO_LIVELOCK_BOUND: f64 = 0.6;

/// Minimum trace length (frames) before the livelock ratio is judged.
/// Shorter traces are dominated by a single reconfiguration window and
/// the ratio is meaningless.
const LIVELOCK_MIN_FRAMES: usize = 20;

/// Checks all four Table 2 properties.
pub fn check_all(trace: &SysTrace, spec: &ReconfigSpec) -> PropertyReport {
    check_trace(trace, spec, &EXTENDED[..4])
}

/// Checks everything: the four Table 2 properties plus the three
/// extension checks.
pub fn check_extended(trace: &SysTrace, spec: &ReconfigSpec) -> PropertyReport {
    check_trace(trace, spec, EXTENDED)
}

/// Checks `checks` over a whole trace: a fold of their [`Monitors`] over
/// its states, reported property-major in the order of `checks`.
pub(crate) fn check_trace(
    trace: &SysTrace,
    spec: &ReconfigSpec,
    checks: &[PropertyId],
) -> PropertyReport {
    let mut monitors = Monitors::new(spec, checks);
    let mut violations = Vec::new();
    let reconfigs_checked = trace
        .states()
        .filter(|state| monitors.observe(spec, state, &mut violations).is_some())
        .count();
    monitors.finish(spec, &mut violations);
    violations.sort_by_key(|v| checks.iter().position(|&c| c == v.property));
    PropertyReport {
        violations,
        reconfigs_checked,
    }
}

/// A check list as online monitors over one trace, fed one state at a
/// time: the single implementation of every trace property, behind the
/// batch checks and the stream verifier the fleet and the model
/// checker's walk share.
///
/// A monitor reports a violation once its verdict is final: SP1–SP4 and
/// protocol conformance when an interval closes, responsiveness at its
/// frame, open-reconfiguration and the livelock bound at
/// [`finish`](Self::finish). Monitor state is fixed in size and
/// allocated up front, so a violation-free frame allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Monitors {
    cut: IntervalCut,
    /// The configuration the open interval started from.
    origin: Origin,
    last_frame: u64,
    frames: u64,
    restricted: u64,
    monitors: Vec<Monitor>,
}

impl Monitors {
    /// Monitors for `checks` under `spec`. [`PropertyId::TccObligation`]
    /// is a property of the spec, not of a trace, and has none.
    pub fn new(spec: &ReconfigSpec, checks: &[PropertyId]) -> Self {
        let monitor = |check| {
            Some(match check {
                PropertyId::Sp1 => Monitor::Sp1(Vec::new()),
                PropertyId::Sp2 => Monitor::Sp2(vec![false; spec.configs().len()]),
                PropertyId::Sp3 => Monitor::Sp3,
                PropertyId::Sp4 => Monitor::Sp4,
                PropertyId::OpenReconfiguration => Monitor::OpenReconfiguration,
                PropertyId::Responsiveness => Monitor::Responsiveness(0),
                PropertyId::ProtocolConformance => {
                    Monitor::ProtocolConformance(Vec::with_capacity(spec.apps().len()))
                }
                PropertyId::DefenseLivelock => Monitor::DefenseLivelock,
                PropertyId::TccObligation => return None,
            })
        };
        Monitors {
            cut: IntervalCut::default(),
            origin: Origin::Declared(0),
            last_frame: 0,
            frames: 0,
            restricted: 0,
            monitors: checks.iter().filter_map(|&check| monitor(check)).collect(),
        }
    }

    /// Observes the next state of the trace, appending the violations it
    /// settles to `out`. Returns the reconfiguration it completes, if any.
    pub fn observe(
        &mut self,
        spec: &ReconfigSpec,
        state: &SysState,
        out: &mut Vec<PropertyViolation>,
    ) -> Option<Reconfiguration> {
        let cut = self.cut.step(state);
        self.frames += 1;
        self.last_frame = state.frame;
        if cut == Cut::Start {
            self.origin = Origin::of(spec, &state.svclvl);
        }
        if matches!(cut, Cut::Start | Cut::Inside) {
            self.restricted += 1;
        }
        let from = self.origin.id(spec);
        for monitor in &mut self.monitors {
            monitor.observe(spec, cut, from, state, out);
        }
        match cut {
            Cut::End(r) => Some(r),
            _ => None,
        }
    }

    /// Observes a steady frame whose state was not recorded: every
    /// application normal and the choice function endorsing the current
    /// configuration (the fleet's fast-path eligibility). It ends any
    /// responsiveness run and changes nothing else a monitor looks at.
    pub fn observe_steady(&mut self) {
        debug_assert!(self.open().is_none(), "steady frame in an open interval");
        self.frames += 1;
        for monitor in &mut self.monitors {
            if let Monitor::Responsiveness(run) = monitor {
                *run = 0;
            }
        }
    }

    /// Ends the trace, appending the verdicts that need its end to `out`.
    pub fn finish(&mut self, spec: &ReconfigSpec, out: &mut Vec<PropertyViolation>) {
        let open = self.cut.open();
        for monitor in &mut self.monitors {
            match monitor {
                // An interval still open has completed nothing.
                Monitor::Sp1(pending) => pending.clear(),
                // A reconfiguration still open at the end of the trace must
                // not already have exceeded the largest declared bound.
                Monitor::OpenReconfiguration => {
                    let Some(start) = open else { continue };
                    let elapsed = spec.frame_len() * (self.last_frame - start + 1);
                    let bounds = spec.transitions().iter().map(|(_, _, b)| b);
                    let max_bound = bounds.max().unwrap_or(arfs_rtos::Ticks::ZERO);
                    if elapsed > max_bound {
                        let detail = format!(
                            "reconfiguration open since frame {start} has run {elapsed}, exceeding every declared bound (max {max_bound})"
                        );
                        flag(
                            out,
                            PropertyId::OpenReconfiguration,
                            None,
                            Some(start),
                            detail,
                        );
                    }
                }
                // Over a sufficiently long trace, the share of restricted
                // frames must stay at or below the livelock bound.
                Monitor::DefenseLivelock => {
                    let (restricted, total) = (self.restricted, self.frames);
                    let ratio = restricted as f64 / total as f64;
                    if total >= LIVELOCK_MIN_FRAMES as u64
                        && ratio > RESTRICTED_RATIO_LIVELOCK_BOUND
                    {
                        let detail = format!(
                            "{restricted}/{total} frames restricted (ratio {ratio:.3} > bound {RESTRICTED_RATIO_LIVELOCK_BOUND})"
                        );
                        flag(out, PropertyId::DefenseLivelock, None, None, detail);
                    }
                }
                _ => {}
            }
        }
    }

    /// The start cycle of the interval still open, if any.
    pub fn open(&self) -> Option<u64> {
        self.cut.open()
    }

    /// Feeds `h` the state the open interval's verdicts still depend
    /// on: its start, its origin and every monitor's per-interval state
    /// (SP1's pending violations, SP2's chosen set, the conformance
    /// stages). Feeds nothing while no interval is open: then SP1–SP4
    /// and the open-reconfiguration rule hold no state a later verdict
    /// reads.
    pub fn hash_open_state(&self, h: &mut impl Hasher) {
        let Some(start) = self.cut.open() else {
            return;
        };
        start.hash(h);
        self.origin.hash(h);
        self.monitors.hash(h);
    }

    /// Frames observed with some application not normal.
    pub fn restricted_frames(&self) -> u64 {
        self.restricted
    }
}

/// The configuration an interval starts from: its index in the spec's
/// declaration order, or — only in a forged trace — the name of one the
/// spec does not declare.
#[derive(Debug, Clone, Hash)]
enum Origin {
    Declared(usize),
    Undeclared(ConfigId),
}

impl Origin {
    fn of(spec: &ReconfigSpec, id: &ConfigId) -> Self {
        config_index(spec, id).map_or_else(|| Origin::Undeclared(id.clone()), Origin::Declared)
    }

    fn id<'a>(&'a self, spec: &'a ReconfigSpec) -> &'a ConfigId {
        match self {
            Origin::Declared(i) => spec.configs()[*i].id(),
            Origin::Undeclared(id) => id,
        }
    }
}

fn config_index(spec: &ReconfigSpec, id: &ConfigId) -> Option<usize> {
    spec.configs().iter().position(|c| c.id() == id)
}

/// Appends one violation to `out`.
fn flag(
    out: &mut Vec<PropertyViolation>,
    property: PropertyId,
    reconfig: Option<Reconfiguration>,
    frame: Option<u64>,
    detail: String,
) {
    out.push(PropertyViolation {
        property,
        reconfig,
        frame,
        detail,
    });
}

/// The Table 1 stages one application went through in an interval.
#[derive(Debug, Clone, Copy, Default, Hash)]
struct Stages {
    halted: bool,
    prepared: bool,
    lost: bool,
}

/// One property's monitor and its state.
#[derive(Debug, Clone, Hash)]
enum Monitor {
    /// SP1 violations of the open interval, reported if it completes.
    Sp1(Vec<PropertyViolation>),
    /// The configurations `choose(start, env(c))` has named so far in
    /// the open interval, by declaration index.
    Sp2(Vec<bool>),
    Sp3,
    Sp4,
    OpenReconfiguration,
    /// The current run of steady frames in which the choice function
    /// selects another configuration.
    Responsiveness(u64),
    /// Per application, in record order (every state of a trace records
    /// the same applications), the stages seen in the open interval.
    ProtocolConformance(Vec<Stages>),
    DefenseLivelock,
}

impl Monitor {
    fn observe(
        &mut self,
        spec: &ReconfigSpec,
        cut: Cut,
        from: &ConfigId,
        state: &SysState,
        out: &mut Vec<PropertyViolation>,
    ) {
        let to = &state.svclvl;
        match (self, cut) {
            // SP1's other conjuncts — every application normal the cycle
            // before start_c and at end_c — hold by construction of the
            // interval cut.
            (Monitor::Sp1(pending), Cut::Start) => {
                let interrupted = |a: &AppFrameRecord| a.reconf_st == ReconfSt::Interrupted;
                if !state.apps.values().any(interrupted) {
                    let detail = "no application is `interrupted` at start_c".to_owned();
                    flag(pending, PropertyId::Sp1, None, Some(state.frame), detail);
                }
            }
            (Monitor::Sp1(pending), Cut::Inside) => {
                for (app, _) in state.apps.iter().filter(|(_, a)| a.reconf_st.is_normal()) {
                    let detail = format!(
                        "application `{app}` is `normal` strictly inside the reconfiguration"
                    );
                    flag(pending, PropertyId::Sp1, None, Some(state.frame), detail);
                }
            }
            (Monitor::Sp1(pending), Cut::End(r)) => {
                out.extend(pending.drain(..).map(|v| PropertyViolation {
                    reconfig: Some(r),
                    ..v
                }));
            }
            (Monitor::Sp2(chosen), cut) if cut != Cut::Steady => {
                if cut == Cut::Start {
                    chosen.fill(false);
                }
                if let Some(i) = spec
                    .choose(from, &state.env)
                    .and_then(|t| config_index(spec, t))
                {
                    chosen[i] = true;
                }
                let Cut::End(r) = cut else { return };
                if !config_index(spec, to).is_some_and(|i| chosen[i]) {
                    let detail = format!(
                        "`{to}` is not choose(`{from}`, env(c)) for any cycle c in the reconfiguration"
                    );
                    flag(out, PropertyId::Sp2, Some(r), None, detail);
                }
            }
            (Monitor::Sp3, Cut::End(r)) => {
                let elapsed = spec.frame_len() * r.cycles();
                let detail = match spec.transitions().bound(from, to) {
                    None => {
                        format!(
                            "transition `{from}` -> `{to}` is not in the static transition table"
                        )
                    }
                    Some(bound) if elapsed > bound => {
                        format!("reconfiguration took {elapsed} but T(`{from}`, `{to}`) = {bound}")
                    }
                    Some(_) => return,
                };
                flag(out, PropertyId::Sp3, Some(r), None, detail);
            }
            (Monitor::Sp4, Cut::End(r)) => {
                for (app, rec) in &state.apps {
                    let detail = match rec.pre_ok {
                        Some(true) => continue,
                        Some(false) => format!(
                            "application `{app}`'s precondition for `{}` does not hold at end_c",
                            rec.spec
                        ),
                        None => format!(
                            "no precondition evidence recorded for application `{app}` at end_c"
                        ),
                    };
                    flag(out, PropertyId::Sp4, Some(r), Some(r.end_c), detail);
                }
            }
            // From the §5.3 liveness discussion: whenever the choice
            // function selects a different configuration in steady state,
            // a reconfiguration must begin within the dwell guard plus one
            // frame. Reported once per continuous run.
            (Monitor::Responsiveness(run), cut) => {
                let steady = matches!(cut, Cut::Steady | Cut::End(_));
                let wanted = steady.then(|| spec.wanted_change(to, &state.env));
                let Some(target) = wanted.flatten() else {
                    *run = 0;
                    return;
                };
                *run += 1;
                if *run == spec.min_dwell_frames() + 2 {
                    let detail = format!(
                        "choice function has selected `{target}` over `{to}` for {run} frames with no reconfiguration started"
                    );
                    flag(
                        out,
                        PropertyId::Responsiveness,
                        None,
                        Some(state.frame),
                        detail,
                    );
                }
            }
            // SP1–SP4 constrain the *observable* shape of a
            // reconfiguration, not that the Table 1 stages ran. Within
            // every completed reconfiguration each application must
            // receive a halt command and establish its postcondition, and
            // receive a prepare (or combined prepare-initialize) command.
            // A kernel that skips the halt phase
            // (`ScramMutation::SkipHaltPhase`) passes SP1–SP4 but fails
            // here.
            (Monitor::ProtocolConformance(apps), cut) if cut != Cut::Steady => {
                if cut == Cut::Start {
                    apps.clear();
                    apps.resize(state.apps.len(), Stages::default());
                }
                for (stages, rec) in apps.iter_mut().zip(state.apps.values()) {
                    stages.lost |= rec.lost;
                    match rec.commanded {
                        ConfigStatus::Halt => stages.halted |= rec.post_ok == Some(true),
                        ConfigStatus::Prepare | ConfigStatus::PrepareInitialize => {
                            stages.prepared = true;
                        }
                        _ => {}
                    }
                }
                let Cut::End(r) = cut else { return };
                // An application lost to a processor failure halts by
                // fail-stop semantics: it cannot answer stage signals, and
                // its clean halt is exactly what the substrate guarantees
                // (§5.1). Conformance is not required of it.
                for (stages, app) in apps.iter().zip(state.apps.keys()).filter(|(s, _)| !s.lost) {
                    let halt = "has no halt stage with an established postcondition";
                    let missing = [
                        (stages.halted, halt),
                        (stages.prepared, "never received a prepare command"),
                    ];
                    for (_, what) in missing.into_iter().filter(|(seen, _)| !seen) {
                        let detail = format!("application `{app}` {what}");
                        flag(out, PropertyId::ProtocolConformance, Some(r), None, detail);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ConfigStatus;
    use crate::environment::EnvState;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
    use crate::trace::{AppFrameRecord, ReconfSt, SysState};
    use crate::{AppId, ConfigId, SpecId};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;
    use std::collections::BTreeMap;

    fn spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .unwrap()
    }

    struct TB {
        trace: SysTrace,
        frame: u64,
    }

    impl TB {
        fn new() -> Self {
            TB {
                trace: SysTrace::new(),
                frame: 0,
            }
        }

        fn push(
            &mut self,
            svclvl: &str,
            power: &str,
            st: ReconfSt,
            spec_id: &str,
            pre_ok: Option<bool>,
        ) -> &mut Self {
            let mut apps = BTreeMap::new();
            apps.insert(
                AppId::new("a"),
                AppFrameRecord {
                    reconf_st: st,
                    spec: SpecId::new(spec_id),
                    commanded: ConfigStatus::Normal,
                    post_ok: None,
                    pre_ok,
                    lost: false,
                },
            );
            self.trace.push(SysState {
                frame: self.frame,
                svclvl: ConfigId::new(svclvl),
                env: EnvState::new([("power", power)]),
                apps,
            });
            self.frame += 1;
            self
        }
    }

    /// A canonical correct reconfiguration trace: trigger at frame 1,
    /// completes at frame 4, with realistic commands and predicate
    /// evidence (so the protocol-conformance extension holds too).
    fn good_trace() -> SysTrace {
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("full", "bad", ReconfSt::Prepared, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(true))
            .push("safe", "bad", ReconfSt::Normal, "deg", None);
        // Annotate the protocol stages the way the system records them.
        let mut states: Vec<_> = tb.trace.states_vec();
        let app = AppId::new("a");
        states[2].apps.get_mut(&app).unwrap().commanded = ConfigStatus::Halt;
        states[2].apps.get_mut(&app).unwrap().post_ok = Some(true);
        states[3].apps.get_mut(&app).unwrap().commanded = ConfigStatus::Prepare;
        states[4].apps.get_mut(&app).unwrap().commanded = ConfigStatus::Initialize;
        let mut trace = SysTrace::new();
        for s in states {
            trace.push(s);
        }
        trace
    }

    #[test]
    fn good_trace_satisfies_everything() {
        let s = spec();
        let t = good_trace();
        let report = check_extended(&t, &s);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.reconfigs_checked, 1);
        assert_eq!(
            report.to_string(),
            "all properties hold over 1 reconfiguration(s)"
        );
    }

    #[test]
    fn sp1_catches_missing_interrupted_marker() {
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None) // no Interrupted
            .push("full", "bad", ReconfSt::Prepared, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(true));
        let report = check_all(&tb.trace, &s);
        let vs = report.of(PropertyId::Sp1);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("interrupted"));
        assert!(vs[0].to_string().contains("SP1"));
    }

    #[test]
    fn sp1_catches_normal_app_inside_window() {
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Normal, "full", None) // normal inside!
            .push("full", "bad", ReconfSt::Prepared, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(true));
        // The normal frame splits the interval into two reconfigurations;
        // the first has no normal-inside problem but its end state is
        // normal, so get_reconfigs sees [1,2] and [3,4]. The second lacks
        // an Interrupted start. Either way SP1 flags the defect.
        let report = check_all(&tb.trace, &s);
        let vs = report.of(PropertyId::Sp1);
        assert!(!vs.is_empty());
    }

    #[test]
    fn sp2_catches_wrong_target() {
        let s = spec();
        // Environment says "bad" throughout, so choose(full, env) = safe;
        // but the system ends up back in... a config that is NOT safe.
        // Build a spec with a third config to land in.
        let s3 = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg"))
                    .spec(FunctionalSpec::new("other")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .config(
                Configuration::new("wrong")
                    .assign("a", "other")
                    .place("a", ProcessorId::new(0)),
            )
            .transition("full", "safe", Ticks::new(500))
            .transition("full", "wrong", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .unwrap();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("full", "bad", ReconfSt::Prepared, "full", None)
            .push("wrong", "bad", ReconfSt::Normal, "other", Some(true));
        let report = check_all(&tb.trace, &s3);
        let vs = report.of(PropertyId::Sp2);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("wrong"));
        let _ = s;
    }

    #[test]
    fn sp2_accepts_target_correct_at_any_point_in_window() {
        // Env flips to bad at the trigger and back to good mid-window;
        // the end config matches the choice made at the trigger frame.
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "good", ReconfSt::Halted, "full", None) // env recovered
            .push("full", "good", ReconfSt::Prepared, "full", None)
            .push("safe", "good", ReconfSt::Normal, "deg", Some(true));
        assert!(check_all(&tb.trace, &s).of(PropertyId::Sp2).is_empty());
    }

    #[test]
    fn sp3_catches_overlong_reconfiguration() {
        let s = spec(); // bound 500 = 5 frames
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None);
        for _ in 0..5 {
            tb.push("full", "bad", ReconfSt::Halted, "full", None);
        }
        tb.push("safe", "bad", ReconfSt::Normal, "deg", Some(true));
        // start=1, end=7 -> 7 cycles * 100 = 700 > 500.
        let report = check_all(&tb.trace, &s);
        let vs = report.of(PropertyId::Sp3);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("700t"));
        assert!(vs[0].detail.contains("500t"));
    }

    #[test]
    fn sp3_catches_undeclared_transition() {
        // End in a config with no declared transition from the start.
        let s3 = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("safe", "full", Ticks::new(500)) // full->safe missing!
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .unwrap();
        let t = good_trace();
        let report = check_all(&t, &s3);
        let vs = report.of(PropertyId::Sp3);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("not in the static transition table"));
    }

    #[test]
    fn sp4_catches_false_and_missing_precondition() {
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(false));
        let report = check_all(&tb.trace, &s);
        let vs = report.of(PropertyId::Sp4);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("does not hold"));

        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", None);
        let report = check_all(&tb.trace, &s);
        let vs = report.of(PropertyId::Sp4);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("no precondition evidence"));
    }

    #[test]
    fn open_reconfiguration_flagged_when_past_every_bound() {
        let s = spec(); // max bound 500 = 5 frames
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None);
        for _ in 0..6 {
            tb.push("full", "bad", ReconfSt::Halted, "full", None);
        }
        // Open since frame 1, now frame 7: 7 cycles = 700 > 500.
        let report = check_extended(&tb.trace, &s);
        let vs = report.of(PropertyId::OpenReconfiguration);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].property, PropertyId::OpenReconfiguration);

        // A briefly open reconfiguration is fine.
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None);
        assert!(check_extended(&tb.trace, &s)
            .of(PropertyId::OpenReconfiguration)
            .is_empty());
    }

    #[test]
    fn responsiveness_catches_ignored_trigger() {
        let s = spec(); // dwell 0 -> allowance 1 frame
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None);
        for _ in 0..4 {
            tb.push("full", "bad", ReconfSt::Normal, "full", None);
        }
        let report = check_extended(&tb.trace, &s);
        let vs = report.of(PropertyId::Responsiveness);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].property, PropertyId::Responsiveness);
        assert!(vs[0].detail.contains("safe"));
    }

    #[test]
    fn responsiveness_tolerates_trigger_followed_by_reconfig() {
        let s = spec();
        let t = good_trace();
        assert!(check_extended(&t, &s)
            .of(PropertyId::Responsiveness)
            .is_empty());
    }

    #[test]
    fn steady_frames_end_a_responsiveness_run() {
        // Dwell 0 allows one mismatched frame; an unrecorded steady frame
        // between two of them starts the run afresh.
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "bad", ReconfSt::Normal, "full", None).push(
            "full",
            "bad",
            ReconfSt::Normal,
            "full",
            None,
        );
        let states = tb.trace.states_vec();
        let mut monitors = Monitors::new(&s, EXTENDED);
        let mut out = Vec::new();
        monitors.observe(&s, &states[0], &mut out);
        monitors.observe_steady();
        monitors.observe(&s, &states[1], &mut out);
        monitors.finish(&s, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Back to back, the same two frames exhaust the allowance.
        assert_eq!(check_extended(&tb.trace, &s).violations.len(), 1);
    }

    #[test]
    fn report_formatting_lists_violations() {
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", None);
        let report = check_all(&tb.trace, &s);
        assert!(!report.is_ok());
        assert!(!report.of(PropertyId::Sp1).is_empty());
        assert!(!report.of(PropertyId::Sp4).is_empty());
        assert!(report.of(PropertyId::Sp2).is_empty());
        let text = report.to_string();
        assert!(text.contains("violation(s)"));
        assert!(text.contains("SP1"));
    }

    #[test]
    fn conformance_requires_halt_evidence_and_prepare_command() {
        let s = spec();
        // A trace whose window shape satisfies SP1-SP4 but where the app
        // never received halt/prepare commands.
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(true));
        let sneaky = tb.trace.clone();
        // SP1-SP4 are satisfied...
        assert!(check_all(&sneaky, &s).is_ok());
        // ...but conformance is not.
        let report = check_extended(&sneaky, &s);
        let vs = report.of(PropertyId::ProtocolConformance);
        assert_eq!(vs.len(), 2);
        assert!(vs[0].detail.contains("halt stage"));
        assert!(vs[1].detail.contains("prepare"));
        assert_eq!(vs[0].property, PropertyId::ProtocolConformance);
        assert!(vs[0].to_string().contains("PROTOCOL-CONFORMANCE"));
        // check_extended folds it in.
        assert!(!check_extended(&sneaky, &s).is_ok());
    }

    #[test]
    fn conformance_exempts_lost_applications() {
        let s = spec();
        let mut tb = TB::new();
        tb.push("full", "good", ReconfSt::Normal, "full", None)
            .push("full", "bad", ReconfSt::Interrupted, "full", None)
            .push("full", "bad", ReconfSt::Halted, "full", None)
            .push("safe", "bad", ReconfSt::Normal, "deg", Some(true));
        let mut states: Vec<_> = tb.trace.states_vec();
        // The app's host processor died during the window.
        states[2].apps.get_mut(&AppId::new("a")).unwrap().lost = true;
        let mut trace = SysTrace::new();
        for st in states {
            trace.push(st);
        }
        assert!(check_extended(&trace, &s)
            .of(PropertyId::ProtocolConformance)
            .is_empty());
    }

    #[test]
    fn trace_with_no_reconfigs_passes_vacuously() {
        let s = spec();
        let mut tb = TB::new();
        for _ in 0..5 {
            tb.push("full", "good", ReconfSt::Normal, "full", None);
        }
        let report = check_extended(&tb.trace, &s);
        assert!(report.is_ok());
        assert_eq!(report.reconfigs_checked, 0);
    }
}
