//! The reconfiguration specification: applications, configurations,
//! transitions, and the configuration-choice function.
//!
//! A system in the paper's model (§4) is a set of applications
//! `Apps = {a₁ … aₘ}`, each with functional specifications
//! `Sᵢ = {sᵢ₁ … sᵢₙ}`. Certain specification combinations — *configurations*
//! `C = {c₁ … cₚ}` — provide acceptable service; a configuration is a
//! function `f : Apps → S`. The reconfiguration specification gathers:
//!
//! - the application declarations, including their (acyclic) functional
//!   dependencies and per-stage reconfiguration time bounds;
//! - the configurations, each mapping every application to a
//!   specification and placing running applications on processors (the
//!   mapping is "statically determined");
//! - the [`TransitionTable`] of valid transitions with their maximum
//!   transition times `T(cᵢ, cⱼ)`;
//! - the [`ChooseTable`]: "a function to choose a new configuration"
//!   mapping current configuration and environment state to a target;
//! - the finite [`crate::environment::EnvModel`] the choice
//!   function quantifies over.
//!
//! [`ReconfigSpec::builder`] validates the structural obligations at
//! build time; the *semantic* obligations (coverage, reachability,
//! timing) are discharged by [`crate::analysis`].

use std::collections::{BTreeMap, BTreeSet};

use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

use crate::environment::{EnvFactor, EnvModel, EnvState};
use crate::{AppId, ConfigId, SpecError, SpecId};

/// A functional specification an application can operate under.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FunctionalSpec {
    id: SpecId,
    description: String,
    compute: Ticks,
    memory_kb: u64,
    /// Stable-storage keys this specification writes each active frame
    /// (declared, not inferred; input to the write-interference lint).
    #[serde(default)]
    writes: Vec<String>,
    /// Rate divisor: the application runs on frames where
    /// `frame % rate_divisor == 0`. `1` (the default) is the paper's
    /// single-rate model; larger values describe multi-rate executives
    /// whose hyperperiod the partition-budget lint analyzes.
    #[serde(default)]
    rate_divisor: u64,
}

impl FunctionalSpec {
    /// Creates a specification with zero resource needs.
    pub fn new(id: impl Into<SpecId>) -> Self {
        FunctionalSpec {
            id: id.into(),
            description: String::new(),
            compute: Ticks::ZERO,
            memory_kb: 0,
            writes: Vec::new(),
            rate_divisor: 1,
        }
    }

    /// Sets the per-frame compute cost (used for schedulability and the
    /// resource analyses).
    #[must_use]
    pub fn compute(mut self, ticks: Ticks) -> Self {
        self.compute = ticks;
        self
    }

    /// Sets the memory requirement in KiB.
    #[must_use]
    pub fn memory_kb(mut self, kb: u64) -> Self {
        self.memory_kb = kb;
        self
    }

    /// Sets a human-readable description.
    #[must_use]
    pub fn describe(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }

    /// Declares a stable-storage key this specification writes every
    /// frame it runs.
    #[must_use]
    pub fn writes(mut self, key: impl Into<String>) -> Self {
        self.writes.push(key.into());
        self
    }

    /// Sets the rate divisor (run every `d`-th frame). Values below 1
    /// are treated as 1.
    #[must_use]
    pub fn rate_divisor(mut self, d: u64) -> Self {
        self.rate_divisor = d;
        self
    }

    /// The specification id.
    pub fn id(&self) -> &SpecId {
        &self.id
    }

    /// The description text.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Per-frame compute cost.
    pub fn compute_ticks(&self) -> Ticks {
        self.compute
    }

    /// Memory requirement in KiB.
    pub fn memory_kib(&self) -> u64 {
        self.memory_kb
    }

    /// The declared stable-storage write set.
    pub fn write_set(&self) -> &[String] {
        &self.writes
    }

    /// The effective rate divisor (always at least 1).
    pub fn rate(&self) -> u64 {
        self.rate_divisor.max(1)
    }
}

/// Per-stage time bounds for an application's reconfiguration interface,
/// in frames (§5.3: each stage completes "in bounded time").
///
/// The paper's formal model fixes each stage at one frame (§6.1); the
/// bounds generalize that while keeping one frame as the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageBounds {
    /// Frames to establish the postcondition and halt.
    pub halt_frames: u64,
    /// Frames to establish the transition condition for the new
    /// specification.
    pub prepare_frames: u64,
    /// Frames to establish the precondition and start operating.
    pub init_frames: u64,
}

impl Default for StageBounds {
    fn default() -> Self {
        StageBounds {
            halt_frames: 1,
            prepare_frames: 1,
            init_frames: 1,
        }
    }
}

/// Declaration of one reconfigurable application.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AppDecl {
    id: AppId,
    specs: Vec<FunctionalSpec>,
    depends_on: Vec<AppId>,
    stage_bounds: StageBounds,
}

impl AppDecl {
    /// Declares an application with no specifications or dependencies.
    pub fn new(id: impl Into<AppId>) -> Self {
        AppDecl {
            id: id.into(),
            specs: Vec::new(),
            depends_on: Vec::new(),
            stage_bounds: StageBounds::default(),
        }
    }

    /// Adds a functional specification the application implements.
    #[must_use]
    pub fn spec(mut self, spec: FunctionalSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Declares a functional dependency on another application (the
    /// dependency graph must be acyclic).
    #[must_use]
    pub fn depends_on(mut self, on: impl Into<AppId>) -> Self {
        self.depends_on.push(on.into());
        self
    }

    /// Overrides the default one-frame-per-stage bounds.
    #[must_use]
    pub fn stage_bounds(mut self, bounds: StageBounds) -> Self {
        self.stage_bounds = bounds;
        self
    }

    /// The application id.
    pub fn id(&self) -> &AppId {
        &self.id
    }

    /// The declared specifications.
    pub fn specs(&self) -> &[FunctionalSpec] {
        &self.specs
    }

    /// Looks up a declared specification (the distinguished
    /// [`SpecId::off`] is implicitly available to every application).
    pub fn find_spec(&self, id: &SpecId) -> Option<&FunctionalSpec> {
        self.specs.iter().find(|s| s.id() == id)
    }

    /// Returns `true` if the application implements the specification
    /// (or it is the implicit `off`).
    pub fn implements(&self, id: &SpecId) -> bool {
        id.is_off() || self.find_spec(id).is_some()
    }

    /// The applications this one depends on.
    pub fn dependencies(&self) -> &[AppId] {
        &self.depends_on
    }

    /// The per-stage reconfiguration bounds.
    pub fn bounds(&self) -> StageBounds {
        self.stage_bounds
    }
}

/// A system configuration: the function `f : Apps → S` plus the static
/// processor placement.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Configuration {
    id: ConfigId,
    description: String,
    assignments: BTreeMap<AppId, SpecId>,
    placement: BTreeMap<AppId, ProcessorId>,
    safe: bool,
}

impl Configuration {
    /// Creates an empty configuration.
    pub fn new(id: impl Into<ConfigId>) -> Self {
        Configuration {
            id: id.into(),
            description: String::new(),
            assignments: BTreeMap::new(),
            placement: BTreeMap::new(),
            safe: false,
        }
    }

    /// Assigns a specification to an application. Use spec `"off"` to
    /// turn an application off in this configuration.
    #[must_use]
    pub fn assign(mut self, app: impl Into<AppId>, spec: impl Into<SpecId>) -> Self {
        self.assignments.insert(app.into(), spec.into());
        self
    }

    /// Places a running application on a processor.
    #[must_use]
    pub fn place(mut self, app: impl Into<AppId>, processor: ProcessorId) -> Self {
        self.placement.insert(app.into(), processor);
        self
    }

    /// Marks this configuration as *safe*: dependable enough that the
    /// system may remain in it indefinitely (§4 requires at least one).
    #[must_use]
    pub fn safe(mut self) -> Self {
        self.safe = true;
        self
    }

    /// Sets a human-readable description.
    #[must_use]
    pub fn describe(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }

    /// The configuration id.
    pub fn id(&self) -> &ConfigId {
        &self.id
    }

    /// The description text.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The specification assigned to an application, if any.
    pub fn spec_for(&self, app: &AppId) -> Option<&SpecId> {
        self.assignments.get(app)
    }

    /// The processor hosting an application, if placed.
    pub fn placement_for(&self, app: &AppId) -> Option<ProcessorId> {
        self.placement.get(app).copied()
    }

    /// All `(application, specification)` assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (&AppId, &SpecId)> {
        self.assignments.iter()
    }

    /// The set of processors used by this configuration.
    pub fn processors(&self) -> BTreeSet<ProcessorId> {
        self.placement.values().copied().collect()
    }

    /// Whether this configuration is safe.
    pub fn is_safe(&self) -> bool {
        self.safe
    }
}

/// The table of valid system transitions and their time bounds
/// `T(cᵢ, cⱼ)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitionTable {
    bounds: BTreeMap<(ConfigId, ConfigId), Ticks>,
}

// JSON objects require string keys, so the table serializes as a
// sequence of `[from, to, bound]` triples rather than a tuple-keyed map.
impl serde::Serialize for TransitionTable {
    fn to_content(&self) -> serde::Content {
        serde::Content::Seq(
            self.bounds
                .iter()
                .map(|((from, to), bound)| (from, to, bound).to_content())
                .collect(),
        )
    }
}

impl serde::Deserialize for TransitionTable {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let entries: Vec<(ConfigId, ConfigId, Ticks)> = serde::Deserialize::from_content(content)?;
        Ok(TransitionTable {
            bounds: entries
                .into_iter()
                .map(|(from, to, bound)| ((from, to), bound))
                .collect(),
        })
    }
}

impl TransitionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TransitionTable::default()
    }

    /// Declares a valid transition with its maximum transition time.
    pub fn insert(&mut self, from: impl Into<ConfigId>, to: impl Into<ConfigId>, bound: Ticks) {
        self.bounds.insert((from.into(), to.into()), bound);
    }

    /// Returns `true` if the transition is in the statically defined set.
    pub fn allowed(&self, from: &ConfigId, to: &ConfigId) -> bool {
        self.bound(from, to).is_some()
    }

    /// The time bound `T(from, to)`, or `None` if the transition is not
    /// declared. `T(c, c)` is zero by definition. Allocation-free: the
    /// stream verifier looks bounds up on its hot path.
    pub fn bound(&self, from: &ConfigId, to: &ConfigId) -> Option<Ticks> {
        if from == to {
            return Some(Ticks::ZERO);
        }
        self.iter()
            .find(|&(f, t, _)| f == from && t == to)
            .map(|(_, _, b)| b)
    }

    /// Configurations directly reachable from `from` (excluding `from`).
    pub fn successors<'a>(&'a self, from: &'a ConfigId) -> impl Iterator<Item = &'a ConfigId> {
        self.bounds
            .keys()
            .filter(move |(f, _)| f == from)
            .map(|(_, t)| t)
    }

    /// All declared transitions as `(from, to, bound)`.
    pub fn iter(&self) -> impl Iterator<Item = (&ConfigId, &ConfigId, Ticks)> {
        self.bounds.iter().map(|((f, t), &b)| (f, t, b))
    }

    /// Number of declared transitions.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Returns `true` if no transition is declared.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }
}

/// One rule of the configuration-choice function.
///
/// Rules are evaluated in order; the first whose source constraint and
/// environment pattern both match determines the target.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChooseRule {
    /// Source configuration this rule applies from (`None` = any).
    pub from: Option<ConfigId>,
    /// Factor/value pairs that must all match the environment state;
    /// factors not mentioned are wildcards.
    pub when: BTreeMap<String, String>,
    /// The target configuration.
    pub target: ConfigId,
}

impl ChooseRule {
    /// Creates a rule that applies from any configuration.
    pub fn any_from(target: impl Into<ConfigId>) -> Self {
        ChooseRule {
            from: None,
            when: BTreeMap::new(),
            target: target.into(),
        }
    }

    /// Restricts the rule to one source configuration.
    #[must_use]
    pub fn from_config(mut self, from: impl Into<ConfigId>) -> Self {
        self.from = Some(from.into());
        self
    }

    /// Adds an environment constraint.
    #[must_use]
    pub fn when(mut self, factor: impl Into<String>, value: impl Into<String>) -> Self {
        self.when.insert(factor.into(), value.into());
        self
    }

    /// Whether the rule fires from `current` under `env`: its source
    /// configuration (if any) is `current` and every constrained factor
    /// holds its value. The one implementation of rule matching, shared
    /// by [`ChooseTable`] and the lint passes.
    pub(crate) fn matches(&self, current: &ConfigId, env: &EnvState) -> bool {
        if let Some(from) = &self.from {
            if from != current {
                return false;
            }
        }
        self.when
            .iter()
            .all(|(factor, value)| env.get(factor) == Some(value.as_str()))
    }
}

/// The configuration-choice function: an ordered rule table mapping
/// `(current configuration, environment state)` to a target
/// configuration.
///
/// "This function implicitly includes information on valid transitions"
/// — the coverage obligation in [`crate::analysis`] checks that every
/// choice is backed by a declared transition.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ChooseTable {
    rules: Vec<ChooseRule>,
}

impl ChooseTable {
    /// Creates an empty table (which chooses nothing — coverage will
    /// fail).
    pub fn new() -> Self {
        ChooseTable::default()
    }

    /// Appends a rule (rules are evaluated in insertion order).
    pub fn push(&mut self, rule: ChooseRule) {
        self.rules.push(rule);
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[ChooseRule] {
        &self.rules
    }

    /// Chooses the target configuration for the current configuration and
    /// environment; `None` if no rule matches.
    pub fn choose(&self, current: &ConfigId, env: &EnvState) -> Option<&ConfigId> {
        self.rules
            .iter()
            .find(|r| r.matches(current, env))
            .map(|r| &r.target)
    }
}

/// A complete, validated reconfiguration specification.
///
/// Construct with [`ReconfigSpec::builder`]. Cloning is cheap enough for
/// test and experiment use; long-lived sharing should wrap it in an
/// `Arc`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ReconfigSpec {
    apps: Vec<AppDecl>,
    configs: Vec<Configuration>,
    transitions: TransitionTable,
    choose: ChooseTable,
    env: EnvModel,
    initial_config: ConfigId,
    initial_env: EnvState,
    frame_len: Ticks,
    min_dwell_frames: u64,
}

impl ReconfigSpec {
    /// Starts building a specification.
    pub fn builder() -> ReconfigSpecBuilder {
        ReconfigSpecBuilder::default()
    }

    /// The declared applications.
    pub fn apps(&self) -> &[AppDecl] {
        &self.apps
    }

    /// Looks up an application declaration.
    pub fn app(&self, id: &AppId) -> Option<&AppDecl> {
        self.apps.iter().find(|a| a.id() == id)
    }

    /// The declared configurations.
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// Looks up a configuration.
    pub fn config(&self, id: &ConfigId) -> Option<&Configuration> {
        self.configs.iter().find(|c| c.id() == id)
    }

    /// The transition table.
    pub fn transitions(&self) -> &TransitionTable {
        &self.transitions
    }

    /// The choice table.
    pub fn choose_table(&self) -> &ChooseTable {
        &self.choose
    }

    /// Chooses the target configuration for the given current
    /// configuration and environment.
    pub fn choose(&self, current: &ConfigId, env: &EnvState) -> Option<&ConfigId> {
        self.choose.choose(current, env)
    }

    /// The configuration the choice function wants to move to from
    /// `current` under `env`: the chosen target when it differs from
    /// `current`, `None` when the choice endorses `current` or no rule
    /// matches. This is the one definition of a pending trigger.
    pub fn wanted_change(&self, current: &ConfigId, env: &EnvState) -> Option<&ConfigId> {
        self.choose(current, env)
            .filter(|&target| target != current)
    }

    /// The environment model.
    pub fn env_model(&self) -> &EnvModel {
        &self.env
    }

    /// The configuration the system starts in.
    pub fn initial_config(&self) -> &ConfigId {
        &self.initial_config
    }

    /// The environment state the system starts in.
    pub fn initial_env(&self) -> &EnvState {
        &self.initial_env
    }

    /// The real-time frame length shared by all applications (§6.1).
    pub fn frame_len(&self) -> Ticks {
        self.frame_len
    }

    /// Minimum frames the system must dwell in a configuration before a
    /// further reconfiguration — the paper's guard against cyclic
    /// reconfiguration (§5.3).
    pub fn min_dwell_frames(&self) -> u64 {
        self.min_dwell_frames
    }

    /// The per-phase protocol lengths in frames: the maximum of the
    /// per-application stage bounds, because the SCRAM signals all
    /// applications together and the phase ends when the slowest
    /// application is done.
    pub fn phase_frames(&self) -> StageBounds {
        StageBounds {
            halt_frames: self
                .apps
                .iter()
                .map(|a| a.bounds().halt_frames)
                .max()
                .unwrap_or(1),
            prepare_frames: self
                .apps
                .iter()
                .map(|a| a.bounds().prepare_frames)
                .max()
                .unwrap_or(1),
            init_frames: self
                .apps
                .iter()
                .map(|a| a.bounds().init_frames)
                .max()
                .unwrap_or(1),
        }
    }

    /// The ids of safe configurations.
    pub fn safe_configs(&self) -> Vec<&ConfigId> {
        self.configs
            .iter()
            .filter(|c| c.is_safe())
            .map(Configuration::id)
            .collect()
    }
}

/// Builder for [`ReconfigSpec`]; see the [crate example](crate) for
/// typical use.
#[derive(Debug, Default)]
pub struct ReconfigSpecBuilder {
    apps: Vec<AppDecl>,
    configs: Vec<Configuration>,
    transitions: TransitionTable,
    choose: ChooseTable,
    env_factors: Vec<EnvFactor>,
    initial_config: Option<ConfigId>,
    initial_env: Option<EnvState>,
    frame_len: Option<Ticks>,
    min_dwell_frames: u64,
}

impl ReconfigSpecBuilder {
    /// Sets the shared real-time frame length.
    #[must_use]
    pub fn frame_len(mut self, len: Ticks) -> Self {
        self.frame_len = Some(len);
        self
    }

    /// Declares an environment factor with a finite domain.
    #[must_use]
    pub fn env_factor(
        mut self,
        name: impl Into<String>,
        domain: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.env_factors.push(EnvFactor::new(name, domain));
        self
    }

    /// Declares an application.
    #[must_use]
    pub fn app(mut self, app: AppDecl) -> Self {
        self.apps.push(app);
        self
    }

    /// Declares a configuration.
    #[must_use]
    pub fn config(mut self, config: Configuration) -> Self {
        self.configs.push(config);
        self
    }

    /// Declares a valid transition with its time bound `T(from, to)`.
    #[must_use]
    pub fn transition(
        mut self,
        from: impl Into<ConfigId>,
        to: impl Into<ConfigId>,
        bound: Ticks,
    ) -> Self {
        self.transitions.insert(from, to, bound);
        self
    }

    /// Adds a choice rule: from any configuration, when `factor = value`,
    /// reconfigure to `target`.
    #[must_use]
    pub fn choose_when(
        mut self,
        factor: impl Into<String>,
        value: impl Into<String>,
        target: impl Into<ConfigId>,
    ) -> Self {
        self.choose
            .push(ChooseRule::any_from(target).when(factor, value));
        self
    }

    /// Adds an arbitrary choice rule (evaluated after previously added
    /// rules).
    #[must_use]
    pub fn choose_rule(mut self, rule: ChooseRule) -> Self {
        self.choose.push(rule);
        self
    }

    /// Sets the initial configuration.
    #[must_use]
    pub fn initial_config(mut self, id: impl Into<ConfigId>) -> Self {
        self.initial_config = Some(id.into());
        self
    }

    /// Sets the initial environment state.
    #[must_use]
    pub fn initial_env(
        mut self,
        pairs: impl IntoIterator<Item = (impl Into<String>, impl Into<String>)>,
    ) -> Self {
        self.initial_env = Some(EnvState::new(pairs));
        self
    }

    /// Sets the minimum dwell (in frames) between reconfigurations.
    #[must_use]
    pub fn min_dwell_frames(mut self, frames: u64) -> Self {
        self.min_dwell_frames = frames;
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found; see [`SpecError`] for
    /// the complete catalogue.
    pub fn build(self) -> Result<ReconfigSpec, SpecError> {
        let frame_len = self.frame_len.ok_or(SpecError::BadFrameLength)?;
        if frame_len == Ticks::ZERO {
            return Err(SpecError::BadFrameLength);
        }
        if self.apps.is_empty() {
            return Err(SpecError::NoApps);
        }
        if self.configs.is_empty() {
            return Err(SpecError::NoConfigs);
        }

        // Unique ids.
        for (i, a) in self.apps.iter().enumerate() {
            if self.apps[..i].iter().any(|p| p.id() == a.id()) {
                return Err(SpecError::DuplicateApp(a.id().clone()));
            }
            for (j, s) in a.specs().iter().enumerate() {
                if a.specs()[..j].iter().any(|p| p.id() == s.id()) {
                    return Err(SpecError::DuplicateSpec {
                        app: a.id().clone(),
                        spec: s.id().clone(),
                    });
                }
            }
        }
        for (i, c) in self.configs.iter().enumerate() {
            if self.configs[..i].iter().any(|p| p.id() == c.id()) {
                return Err(SpecError::DuplicateConfig(c.id().clone()));
            }
        }

        // Dependencies exist and are acyclic.
        let app_ids: BTreeSet<&AppId> = self.apps.iter().map(AppDecl::id).collect();
        for a in &self.apps {
            for dep in a.dependencies() {
                if !app_ids.contains(dep) {
                    return Err(SpecError::UnknownDependency {
                        app: a.id().clone(),
                        on: dep.clone(),
                    });
                }
            }
        }
        if let Some(app) = find_dependency_cycle(&self.apps) {
            return Err(SpecError::CyclicDependency { app });
        }

        // Configurations assign & place every app correctly.
        for c in &self.configs {
            for (app, spec) in c.assignments() {
                let Some(decl) = self.apps.iter().find(|a| a.id() == app) else {
                    return Err(SpecError::UnknownApp(app.clone()));
                };
                if !decl.implements(spec) {
                    return Err(SpecError::UnknownSpec {
                        app: app.clone(),
                        spec: spec.clone(),
                    });
                }
            }
            for a in &self.apps {
                match c.spec_for(a.id()) {
                    None => {
                        return Err(SpecError::MissingAssignment {
                            config: c.id().clone(),
                            app: a.id().clone(),
                        })
                    }
                    Some(spec) if !spec.is_off() && c.placement_for(a.id()).is_none() => {
                        return Err(SpecError::MissingPlacement {
                            config: c.id().clone(),
                            app: a.id().clone(),
                        })
                    }
                    Some(_) => {}
                }
            }
        }

        // At least one safe configuration (§4).
        if !self.configs.iter().any(Configuration::is_safe) {
            return Err(SpecError::NoSafeConfig);
        }

        // Transitions reference known configurations.
        let config_ids: BTreeSet<&ConfigId> = self.configs.iter().map(Configuration::id).collect();
        for (from, to, _) in self.transitions.iter() {
            if !config_ids.contains(from) || !config_ids.contains(to) {
                return Err(SpecError::UnknownTransition {
                    from: from.clone(),
                    to: to.clone(),
                });
            }
        }

        // Environment model and choice rules.
        let env = EnvModel::new(self.env_factors)?;
        for rule in self.choose.rules() {
            if let Some(from) = &rule.from {
                if !config_ids.contains(from) {
                    return Err(SpecError::UnknownConfig(from.clone()));
                }
            }
            if !config_ids.contains(&rule.target) {
                return Err(SpecError::UnknownConfig(rule.target.clone()));
            }
            for (factor, value) in &rule.when {
                let Some(f) = env.factor(factor) else {
                    return Err(SpecError::UnknownEnvFactor(factor.clone()));
                };
                if !f.admits(value) {
                    return Err(SpecError::InvalidEnvValue {
                        factor: factor.clone(),
                        value: value.clone(),
                    });
                }
            }
        }

        // Initial conditions.
        let initial_config = self.initial_config.ok_or(SpecError::NoInitialConfig)?;
        if !config_ids.contains(&initial_config) {
            return Err(SpecError::UnknownConfig(initial_config));
        }
        let initial_env = self.initial_env.ok_or(SpecError::NoInitialEnv)?;
        env.validate(&initial_env)?;

        Ok(ReconfigSpec {
            apps: self.apps,
            configs: self.configs,
            transitions: self.transitions,
            choose: self.choose,
            env,
            initial_config,
            initial_env,
            frame_len,
            min_dwell_frames: self.min_dwell_frames,
        })
    }
}

/// A [`ReconfigSpec`] deserializes through the builder, so a spec read
/// back from JSON carries the same validity guarantee as one constructed
/// in code; structurally invalid documents are rejected with the builder's
/// diagnostic. This is what lets lint fixtures live as data files.
impl serde::Deserialize for ReconfigSpec {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        #[derive(serde::Deserialize)]
        struct Raw {
            apps: Vec<AppDecl>,
            configs: Vec<Configuration>,
            transitions: TransitionTable,
            choose: ChooseTable,
            env: EnvModel,
            initial_config: ConfigId,
            initial_env: EnvState,
            frame_len: Ticks,
            min_dwell_frames: u64,
        }
        let raw = Raw::from_content(content)?;
        let mut b = ReconfigSpec::builder()
            .frame_len(raw.frame_len)
            .min_dwell_frames(raw.min_dwell_frames)
            .initial_config(raw.initial_config);
        for factor in raw.env.factors() {
            b = b.env_factor(factor.name(), factor.domain().iter().cloned());
        }
        for app in raw.apps {
            b = b.app(app);
        }
        for config in raw.configs {
            b = b.config(config);
        }
        for (from, to, bound) in raw.transitions.iter() {
            b = b.transition(from.clone(), to.clone(), bound);
        }
        for rule in raw.choose.rules() {
            b = b.choose_rule(rule.clone());
        }
        b = b.initial_env(raw.initial_env.iter());
        b.build()
            .map_err(|e| serde::DeError::custom(format!("invalid reconfiguration spec: {e}")))
    }
}

/// Returns an application on a dependency cycle, if one exists.
fn find_dependency_cycle(apps: &[AppDecl]) -> Option<AppId> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn visit(app: &AppId, apps: &[AppDecl], marks: &mut BTreeMap<AppId, Mark>) -> Option<AppId> {
        match marks.get(app).copied().unwrap_or(Mark::White) {
            Mark::Grey => return Some(app.clone()),
            Mark::Black => return None,
            Mark::White => {}
        }
        marks.insert(app.clone(), Mark::Grey);
        if let Some(decl) = apps.iter().find(|a| a.id() == app) {
            for dep in decl.dependencies() {
                if let Some(found) = visit(dep, apps, marks) {
                    return Some(found);
                }
            }
        }
        marks.insert(app.clone(), Mark::Black);
        None
    }
    let mut marks = BTreeMap::new();
    for app in apps {
        if let Some(found) = visit(app.id(), apps, &mut marks) {
            return Some(found);
        }
    }
    None
}

/// Topologically sorts applications so every application appears after
/// all of its dependencies; within a level, declaration order is kept.
///
/// # Panics
///
/// Panics if the dependency graph is cyclic; [`ReconfigSpec`] values are
/// validated acyclic at construction, so this only triggers on unvalidated
/// input.
pub fn dependency_order(apps: &[AppDecl]) -> Vec<&AppDecl> {
    let mut placed: BTreeSet<&AppId> = BTreeSet::new();
    let mut out: Vec<&AppDecl> = Vec::with_capacity(apps.len());
    let mut remaining: Vec<&AppDecl> = apps.iter().collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|a| {
            let ready = a.dependencies().iter().all(|d| placed.contains(d));
            if ready {
                out.push(a);
            }
            !ready
        });
        for a in &out[out.len() - (before - remaining.len())..] {
            placed.insert(a.id());
        }
        assert!(
            remaining.len() < before,
            "dependency graph is cyclic; validate the spec first"
        );
    }
    out
}

/// Computes each application's dependency depth: 0 for applications with
/// no dependencies, otherwise 1 + the maximum depth of its dependencies.
///
/// The SCRAM's phase-checked synchronization policy staggers stages by
/// these depths.
///
/// # Panics
///
/// Panics if the dependency graph is cyclic (see [`dependency_order`]).
pub fn dependency_depths(apps: &[AppDecl]) -> BTreeMap<AppId, u64> {
    let order = dependency_order(apps);
    let mut depths: BTreeMap<AppId, u64> = BTreeMap::new();
    for app in order {
        let depth = app
            .dependencies()
            .iter()
            .map(|d| depths.get(d).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        depths.insert(app.id().clone(), depth);
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_builder() -> ReconfigSpecBuilder {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("worker")
                    .spec(
                        FunctionalSpec::new("full")
                            .compute(Ticks::new(40))
                            .memory_kb(256),
                    )
                    .spec(
                        FunctionalSpec::new("degraded")
                            .compute(Ticks::new(10))
                            .memory_kb(64),
                    ),
            )
            .config(
                Configuration::new("full-service")
                    .assign("worker", "full")
                    .place("worker", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe-service")
                    .assign("worker", "degraded")
                    .place("worker", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full-service", "safe-service", Ticks::new(600))
            .transition("safe-service", "full-service", Ticks::new(600))
            .choose_when("power", "bad", "safe-service")
            .choose_when("power", "good", "full-service")
            .initial_config("full-service")
            .initial_env([("power", "good")])
    }

    #[test]
    fn minimal_spec_builds_and_exposes_structure() {
        let spec = minimal_builder().build().unwrap();
        assert_eq!(spec.apps().len(), 1);
        assert_eq!(spec.configs().len(), 2);
        assert_eq!(spec.frame_len(), Ticks::new(100));
        assert_eq!(spec.initial_config(), &ConfigId::new("full-service"));
        assert_eq!(spec.safe_configs(), vec![&ConfigId::new("safe-service")]);
        let app = spec.app(&AppId::new("worker")).unwrap();
        assert!(app.implements(&SpecId::new("full")));
        assert!(app.implements(&SpecId::off()));
        assert!(!app.implements(&SpecId::new("turbo")));
        assert_eq!(
            app.find_spec(&SpecId::new("full")).unwrap().compute_ticks(),
            Ticks::new(40)
        );
        let cfg = spec.config(&ConfigId::new("full-service")).unwrap();
        assert_eq!(
            cfg.spec_for(&AppId::new("worker")),
            Some(&SpecId::new("full"))
        );
        assert_eq!(
            cfg.placement_for(&AppId::new("worker")),
            Some(ProcessorId::new(0))
        );
        assert!(!cfg.is_safe());
        assert_eq!(spec.phase_frames(), StageBounds::default());
    }

    #[test]
    fn choose_follows_rule_order() {
        let spec = minimal_builder().build().unwrap();
        let full = ConfigId::new("full-service");
        let safe = ConfigId::new("safe-service");
        let good = EnvState::new([("power", "good")]);
        let bad = EnvState::new([("power", "bad")]);
        assert_eq!(spec.choose(&full, &bad), Some(&safe));
        assert_eq!(spec.choose(&full, &good), Some(&full));
        assert_eq!(spec.choose(&safe, &good), Some(&full));
        assert_eq!(spec.choose(&safe, &bad), Some(&safe));
    }

    #[test]
    fn choose_rule_from_config_restricts_source() {
        let rule = ChooseRule::any_from("safe-service")
            .from_config("full-service")
            .when("power", "bad");
        let spec = minimal_builder().choose_rule(rule).build().unwrap();
        // The general rules added first still win; check rule API directly.
        let r = &spec.choose_table().rules()[2];
        assert_eq!(r.from, Some(ConfigId::new("full-service")));
        assert!(r.matches(
            &ConfigId::new("full-service"),
            &EnvState::new([("power", "bad")])
        ));
        assert!(!r.matches(
            &ConfigId::new("safe-service"),
            &EnvState::new([("power", "bad")])
        ));
    }

    #[test]
    fn transition_table_bounds_and_self_transitions() {
        let spec = minimal_builder().build().unwrap();
        let full = ConfigId::new("full-service");
        let safe = ConfigId::new("safe-service");
        assert!(spec.transitions().allowed(&full, &safe));
        assert!(spec.transitions().allowed(&full, &full));
        assert_eq!(
            spec.transitions().bound(&full, &safe),
            Some(Ticks::new(600))
        );
        assert_eq!(spec.transitions().bound(&full, &full), Some(Ticks::ZERO));
        assert_eq!(spec.transitions().bound(&safe, &ConfigId::new("x")), None);
        assert_eq!(spec.transitions().len(), 2);
        assert!(!spec.transitions().is_empty());
        let succ: Vec<_> = spec.transitions().successors(&full).collect();
        assert_eq!(succ, vec![&safe]);
    }

    #[test]
    fn missing_frame_len_rejected() {
        let err = ReconfigSpec::builder().build().unwrap_err();
        assert_eq!(err, SpecError::BadFrameLength);
    }

    #[test]
    fn no_apps_and_no_configs_rejected() {
        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NoApps);
        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .app(AppDecl::new("a").spec(FunctionalSpec::new("s")))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NoConfigs);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = minimal_builder()
            .app(AppDecl::new("worker").spec(FunctionalSpec::new("x")))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::DuplicateApp(AppId::new("worker")));

        let err = minimal_builder()
            .config(
                Configuration::new("full-service")
                    .assign("worker", "full")
                    .place("worker", ProcessorId::new(0)),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::DuplicateConfig(ConfigId::new("full-service"))
        );

        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("s"))
                    .spec(FunctionalSpec::new("s")),
            )
            .config(
                Configuration::new("c")
                    .assign("a", "s")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .initial_config("c")
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::DuplicateSpec {
                app: AppId::new("a"),
                spec: SpecId::new("s")
            }
        );
    }

    #[test]
    fn assignment_and_placement_validated() {
        // Unknown spec.
        let err = minimal_builder()
            .config(
                Configuration::new("x")
                    .assign("worker", "turbo")
                    .place("worker", ProcessorId::new(0)),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownSpec {
                app: AppId::new("worker"),
                spec: SpecId::new("turbo")
            }
        );
        // Unknown app in assignment.
        let err = minimal_builder()
            .config(
                Configuration::new("x")
                    .assign("worker", "full")
                    .assign("ghost", "full")
                    .place("worker", ProcessorId::new(0)),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownApp(AppId::new("ghost")));
        // Missing assignment.
        let err = minimal_builder()
            .config(Configuration::new("x"))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingAssignment {
                config: ConfigId::new("x"),
                app: AppId::new("worker")
            }
        );
        // Missing placement for a running app.
        let err = minimal_builder()
            .config(Configuration::new("x").assign("worker", "full"))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingPlacement {
                config: ConfigId::new("x"),
                app: AppId::new("worker")
            }
        );
    }

    #[test]
    fn off_assignment_needs_no_placement() {
        let spec = minimal_builder()
            .config(Configuration::new("dark").assign("worker", "off"))
            .transition("full-service", "dark", Ticks::new(600))
            .build()
            .unwrap();
        let cfg = spec.config(&ConfigId::new("dark")).unwrap();
        assert!(cfg.spec_for(&AppId::new("worker")).unwrap().is_off());
        assert!(cfg.processors().is_empty());
    }

    #[test]
    fn safe_config_required() {
        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .app(AppDecl::new("a").spec(FunctionalSpec::new("s")))
            .config(
                Configuration::new("c")
                    .assign("a", "s")
                    .place("a", ProcessorId::new(0)),
            )
            .initial_config("c")
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NoSafeConfig);
    }

    #[test]
    fn dependency_validation() {
        let err = minimal_builder()
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("s"))
                    .depends_on("ghost"),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownDependency {
                app: AppId::new("b"),
                on: AppId::new("ghost")
            }
        );

        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("s"))
                    .depends_on("b"),
            )
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("s"))
                    .depends_on("a"),
            )
            .config(
                Configuration::new("c")
                    .assign("a", "s")
                    .assign("b", "s")
                    .place("a", ProcessorId::new(0))
                    .place("b", ProcessorId::new(0))
                    .safe(),
            )
            .initial_config("c")
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::CyclicDependency { .. }));
    }

    #[test]
    fn choose_rules_validated() {
        let err = minimal_builder()
            .choose_when("power", "bad", "ghost-config")
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownConfig(ConfigId::new("ghost-config")));
        let err = minimal_builder()
            .choose_when("fuel", "low", "safe-service")
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownEnvFactor("fuel".into()));
        let err = minimal_builder()
            .choose_when("power", "purple", "safe-service")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::InvalidEnvValue {
                factor: "power".into(),
                value: "purple".into()
            }
        );
        let err = minimal_builder()
            .choose_rule(ChooseRule::any_from("safe-service").from_config("ghost"))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownConfig(ConfigId::new("ghost")));
    }

    #[test]
    fn initial_conditions_validated() {
        let err = ReconfigSpec::builder()
            .frame_len(Ticks::new(1))
            .app(AppDecl::new("a").spec(FunctionalSpec::new("s")))
            .config(
                Configuration::new("c")
                    .assign("a", "s")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NoInitialConfig);

        let err = minimal_builder()
            .initial_config("ghost")
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownConfig(ConfigId::new("ghost")));

        let err = minimal_builder()
            .initial_env([("power", "purple")])
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidEnvValue { .. }));
    }

    #[test]
    fn unknown_transition_rejected() {
        let err = minimal_builder()
            .transition("full-service", "ghost", Ticks::new(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::UnknownTransition { .. }));
    }

    #[test]
    fn dependency_order_and_depths() {
        let apps = vec![
            AppDecl::new("autopilot")
                .spec(FunctionalSpec::new("s"))
                .depends_on("fcs"),
            AppDecl::new("fcs").spec(FunctionalSpec::new("s")),
            AppDecl::new("logger")
                .spec(FunctionalSpec::new("s"))
                .depends_on("autopilot")
                .depends_on("fcs"),
        ];
        let order: Vec<_> = dependency_order(&apps)
            .iter()
            .map(|a| a.id().as_str())
            .collect();
        assert_eq!(order, vec!["fcs", "autopilot", "logger"]);
        let depths = dependency_depths(&apps);
        assert_eq!(depths[&AppId::new("fcs")], 0);
        assert_eq!(depths[&AppId::new("autopilot")], 1);
        assert_eq!(depths[&AppId::new("logger")], 2);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn dependency_order_panics_on_cycle() {
        let apps = vec![
            AppDecl::new("a").depends_on("b"),
            AppDecl::new("b").depends_on("a"),
        ];
        let _ = dependency_order(&apps);
    }

    #[test]
    fn stage_bounds_affect_protocol_length() {
        let spec = minimal_builder()
            .app(
                AppDecl::new("slow")
                    .spec(FunctionalSpec::new("s"))
                    .stage_bounds(StageBounds {
                        halt_frames: 2,
                        prepare_frames: 1,
                        init_frames: 3,
                    }),
            )
            .config(
                Configuration::new("full2")
                    .assign("worker", "full")
                    .assign("slow", "s")
                    .place("worker", ProcessorId::new(0))
                    .place("slow", ProcessorId::new(1))
                    .safe(),
            )
            .build();
        // The original configs miss an assignment for "slow" now.
        assert!(matches!(spec, Err(SpecError::MissingAssignment { .. })));
    }

    #[test]
    fn phase_frames_take_slowest_app() {
        let spec = ReconfigSpec::builder()
            .frame_len(Ticks::new(10))
            .app(AppDecl::new("fast").spec(FunctionalSpec::new("s")))
            .app(
                AppDecl::new("slow")
                    .spec(FunctionalSpec::new("s"))
                    .stage_bounds(StageBounds {
                        halt_frames: 2,
                        prepare_frames: 3,
                        init_frames: 1,
                    }),
            )
            .config(
                Configuration::new("c")
                    .assign("fast", "s")
                    .assign("slow", "s")
                    .place("fast", ProcessorId::new(0))
                    .place("slow", ProcessorId::new(1))
                    .safe(),
            )
            .initial_config("c")
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap();
        let p = spec.phase_frames();
        assert_eq!(p.halt_frames, 2);
        assert_eq!(p.prepare_frames, 3);
        assert_eq!(p.init_frames, 1);
    }
}
