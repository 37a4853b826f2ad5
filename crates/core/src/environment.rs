//! The finite environment model.
//!
//! The paper makes "no distinction between failures and other
//! environmental changes: the status of a component is modeled as an
//! element of the environment, and a failure is simply a change in the
//! environment" (§6.3). Accordingly, every reconfiguration trigger — a
//! hardware failure, a software timing failure, or a genuine change in
//! the outside world — is represented here as a transition of an
//! [`EnvState`] over a finite [`EnvModel`].
//!
//! Finiteness matters: the `covering_txns` proof obligation (Figure 2)
//! quantifies over *every possible failure-environment pair*, which is
//! only checkable because the environment has finitely many states
//! ([`EnvModel::all_states`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Content, DeError};

use crate::SpecError;

/// One observable environmental factor with a finite value domain.
///
/// Examples: `electrical ∈ {both-alternators, one-alternator, battery}`;
/// `processor-3 ∈ {up, down}`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EnvFactor {
    name: String,
    domain: Vec<String>,
}

impl EnvFactor {
    /// Creates a factor with the given finite domain.
    pub fn new(
        name: impl Into<String>,
        domain: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        EnvFactor {
            name: name.into(),
            domain: domain.into_iter().map(Into::into).collect(),
        }
    }

    /// The factor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The factor's value domain.
    pub fn domain(&self) -> &[String] {
        &self.domain
    }

    /// Returns `true` if `value` is in the factor's domain.
    pub fn admits(&self, value: &str) -> bool {
        self.domain.iter().any(|v| v == value)
    }
}

/// A finite model of the environment: a fixed set of factors.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct EnvModel {
    factors: Vec<EnvFactor>,
}

impl EnvModel {
    /// Creates a model from factors.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::DuplicateEnvFactor`] for repeated names and
    /// [`SpecError::EmptyEnvDomain`] for factors with no values.
    pub fn new(factors: impl IntoIterator<Item = EnvFactor>) -> Result<Self, SpecError> {
        let factors: Vec<EnvFactor> = factors.into_iter().collect();
        for (i, f) in factors.iter().enumerate() {
            if factors[..i].iter().any(|p| p.name == f.name) {
                return Err(SpecError::DuplicateEnvFactor(f.name.clone()));
            }
            if f.domain.is_empty() {
                return Err(SpecError::EmptyEnvDomain(f.name.clone()));
            }
        }
        Ok(EnvModel { factors })
    }

    /// The factors of the model.
    pub fn factors(&self) -> &[EnvFactor] {
        &self.factors
    }

    /// Looks up a factor by name.
    pub fn factor(&self, name: &str) -> Option<&EnvFactor> {
        self.factors.iter().find(|f| f.name == name)
    }

    /// Number of factors.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Returns `true` if the model has no factors (a constant
    /// environment).
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Number of distinct environment states (product of domain sizes).
    pub fn state_count(&self) -> usize {
        self.factors.iter().map(|f| f.domain.len()).product()
    }

    /// Enumerates every possible environment state.
    ///
    /// This is the quantification domain of the coverage obligation. The
    /// count is the product of the domain sizes, so callers should keep
    /// models small (the paper's example has a single three-valued
    /// factor).
    pub fn all_states(&self) -> Vec<EnvState> {
        let mut states = vec![EnvState::default()];
        for factor in &self.factors {
            let mut next = Vec::with_capacity(states.len() * factor.domain.len());
            for state in &states {
                for value in &factor.domain {
                    next.push(state.with(factor.name.clone(), value.clone()));
                }
            }
            states = next;
        }
        states
    }

    /// Visits every possible environment state, in [`Self::all_states`]
    /// order, without materializing the product.
    ///
    /// One scratch [`EnvState`] is mutated in place between visits (value
    /// strings reuse their buffers), so a caller that never clones the
    /// state — e.g. the coverage obligation on its all-pass path — incurs
    /// no per-state allocation.
    pub fn for_each_state<F: FnMut(&EnvState)>(&self, mut f: F) {
        let mut state = EnvState::default();
        for factor in &self.factors {
            let Some(first) = factor.domain.first() else {
                return; // unconstructible: EnvModel::new rejects empty domains
            };
            state.set(factor.name.clone(), first.clone());
        }
        let mut idx = vec![0usize; self.factors.len()];
        loop {
            f(&state);
            // Odometer advance; the last factor varies fastest, matching
            // the nesting of `all_states`.
            let mut pos = self.factors.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                let factor = &self.factors[pos];
                idx[pos] += 1;
                let wrapped = idx[pos] >= factor.domain.len();
                if wrapped {
                    idx[pos] = 0;
                }
                Arc::make_mut(&mut state.values)
                    .get_mut(&factor.name)
                    .expect("factor seeded above")
                    .clone_from(&factor.domain[idx[pos]]);
                if !wrapped {
                    break;
                }
            }
        }
    }

    /// Validates that a state assigns an in-domain value to every factor.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::IncompleteEnvState`] for a missing factor,
    /// [`SpecError::UnknownEnvFactor`] for an extra one, or
    /// [`SpecError::InvalidEnvValue`] for an out-of-domain value.
    pub fn validate(&self, state: &EnvState) -> Result<(), SpecError> {
        for factor in &self.factors {
            match state.get(&factor.name) {
                None => {
                    return Err(SpecError::IncompleteEnvState {
                        factor: factor.name.clone(),
                    })
                }
                Some(value) if !factor.admits(value) => {
                    return Err(SpecError::InvalidEnvValue {
                        factor: factor.name.clone(),
                        value: value.to_owned(),
                    })
                }
                Some(_) => {}
            }
        }
        for name in state.values.keys() {
            if self.factor(name).is_none() {
                return Err(SpecError::UnknownEnvFactor(name.clone()));
            }
        }
        Ok(())
    }
}

/// A complete assignment of values to environment factors.
///
/// The assignment is shared copy-on-write: cloning a state — once per
/// frame for the kernel, the applications and the trace — is a pointer
/// bump, and only a change to a shared state copies it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct EnvState {
    values: Arc<BTreeMap<String, String>>,
}

impl serde::Serialize for EnvState {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("values".into()),
            self.values.to_content(),
        )])
    }
}

impl serde::Deserialize for EnvState {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let values = content
            .get("values")
            .ok_or_else(|| DeError::custom("missing field `values` in EnvState"))?;
        Ok(EnvState {
            values: Arc::new(BTreeMap::from_content(values)?),
        })
    }
}

impl EnvState {
    /// Creates a state from `(factor, value)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (impl Into<String>, impl Into<String>)>) -> Self {
        EnvState {
            values: Arc::new(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
            ),
        }
    }

    /// The value of a factor, if assigned.
    pub fn get(&self, factor: &str) -> Option<&str> {
        self.values.get(factor).map(String::as_str)
    }

    /// Returns a copy with one factor changed.
    #[must_use]
    pub fn with(&self, factor: impl Into<String>, value: impl Into<String>) -> Self {
        let mut s = self.clone();
        s.set(factor, value);
        s
    }

    /// Sets a factor's value in place.
    pub fn set(&mut self, factor: impl Into<String>, value: impl Into<String>) {
        Arc::make_mut(&mut self.values).insert(factor.into(), value.into());
    }

    /// Iterates over `(factor, value)` pairs in factor order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of assigned factors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no factor is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for EnvState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A virtual monitoring application (§6.3).
///
/// "Any environmental factor whose change could necessitate a
/// reconfiguration can have a virtual application to monitor its status
/// and generate a signal if the value changes." A monitor is sampled once
/// per frame by the [`System`](crate::system::System); each returned
/// `(factor, value)` pair is applied to the environment (and, when it is
/// a change, becomes a fault signal to the SCRAM).
pub trait EnvMonitor: Send {
    /// The monitor's name (diagnostics only).
    fn name(&self) -> &str;

    /// Samples the monitored component, returning factor updates.
    fn sample(&mut self, frame: u64) -> Vec<(String, String)>;

    /// Forks the monitor at its current state, so a forked
    /// [`System`](crate::system::System) keeps sampling independently.
    /// Monitors watching a shared plant model may share it between
    /// forks.
    fn clone_box(&self) -> Box<dyn EnvMonitor>;
}

impl Clone for Box<dyn EnvMonitor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// An [`EnvMonitor`] built from a closure.
///
/// # Example
///
/// ```
/// use arfs_core::environment::{EnvMonitor, FnMonitor};
///
/// let mut m = FnMonitor::new("battery-watch", |frame| {
///     if frame >= 10 {
///         vec![("power".to_string(), "bad".to_string())]
///     } else {
///         Vec::new()
///     }
/// });
/// assert!(m.sample(5).is_empty());
/// assert_eq!(m.sample(10).len(), 1);
/// assert_eq!(m.name(), "battery-watch");
/// ```
pub struct FnMonitor<F> {
    name: String,
    f: F,
}

impl<F> FnMonitor<F>
where
    F: FnMut(u64) -> Vec<(String, String)> + Send,
{
    /// Creates a monitor from a sampling closure.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnMonitor {
            name: name.into(),
            f,
        }
    }
}

impl<F> std::fmt::Debug for FnMonitor<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnMonitor")
            .field("name", &self.name)
            .finish()
    }
}

impl<F> EnvMonitor for FnMonitor<F>
where
    F: FnMut(u64) -> Vec<(String, String)> + Send + Clone + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, frame: u64) -> Vec<(String, String)> {
        (self.f)(frame)
    }

    fn clone_box(&self) -> Box<dyn EnvMonitor> {
        Box::new(FnMonitor {
            name: self.name.clone(),
            f: self.f.clone(),
        })
    }
}

/// The live environment: a model and its current state.
///
/// It keeps no history. The `env : valid_env_trace` component of the PVS
/// `sys_trace` type is the per-frame `env` that every recorded
/// [`SysState`](crate::trace::SysState) carries; property SP2 reads it
/// there.
#[derive(Debug, Clone)]
pub struct Environment {
    model: EnvModel,
    current: EnvState,
}

impl Environment {
    /// Creates an environment in the given initial state.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the initial state is not valid for the
    /// model.
    pub fn new(model: EnvModel, initial: EnvState) -> Result<Self, SpecError> {
        model.validate(&initial)?;
        Ok(Environment {
            model,
            current: initial,
        })
    }

    /// The model this environment evolves over.
    pub fn model(&self) -> &EnvModel {
        &self.model
    }

    /// The current state.
    pub fn current(&self) -> &EnvState {
        &self.current
    }

    /// Applies a change to one factor, returning `true` if the value
    /// actually changed (a redundant sample returns `false` and leaves
    /// the state untouched).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the factor is unknown or the value is
    /// outside its domain.
    pub fn set(&mut self, factor: &str, value: &str) -> Result<bool, SpecError> {
        let f = self
            .model
            .factor(factor)
            .ok_or_else(|| SpecError::UnknownEnvFactor(factor.to_owned()))?;
        if !f.admits(value) {
            return Err(SpecError::InvalidEnvValue {
                factor: factor.to_owned(),
                value: value.to_owned(),
            });
        }
        if self.current.get(factor) != Some(value) {
            self.current.set(factor, value);
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_model() -> EnvModel {
        EnvModel::new([
            EnvFactor::new("electrical", ["both", "one", "battery"]),
            EnvFactor::new("weather", ["clear", "storm"]),
        ])
        .unwrap()
    }

    #[test]
    fn model_enumerates_all_states() {
        let m = power_model();
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.state_count(), 6);
        let states = m.all_states();
        assert_eq!(states.len(), 6);
        assert!(states.iter().all(|s| m.validate(s).is_ok()));
        // All states are distinct.
        for (i, a) in states.iter().enumerate() {
            for b in &states[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn empty_model_has_exactly_one_state() {
        let m = EnvModel::default();
        assert!(m.is_empty());
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.all_states(), vec![EnvState::default()]);
    }

    #[test]
    fn for_each_state_matches_all_states_in_order() {
        for model in [power_model(), EnvModel::default()] {
            let mut visited = Vec::new();
            model.for_each_state(|s| visited.push(s.clone()));
            assert_eq!(visited, model.all_states());
        }
    }

    #[test]
    fn duplicate_and_empty_factors_rejected() {
        assert_eq!(
            EnvModel::new([EnvFactor::new("a", ["x"]), EnvFactor::new("a", ["y"])]).unwrap_err(),
            SpecError::DuplicateEnvFactor("a".into())
        );
        assert_eq!(
            EnvModel::new([EnvFactor::new("b", Vec::<String>::new())]).unwrap_err(),
            SpecError::EmptyEnvDomain("b".into())
        );
    }

    #[test]
    fn validate_catches_all_defects() {
        let m = power_model();
        let good = EnvState::new([("electrical", "both"), ("weather", "clear")]);
        assert!(m.validate(&good).is_ok());
        let incomplete = EnvState::new([("electrical", "both")]);
        assert_eq!(
            m.validate(&incomplete),
            Err(SpecError::IncompleteEnvState {
                factor: "weather".into()
            })
        );
        let bad_value = good.with("electrical", "solar");
        assert_eq!(
            m.validate(&bad_value),
            Err(SpecError::InvalidEnvValue {
                factor: "electrical".into(),
                value: "solar".into()
            })
        );
        let extra = good.with("altitude", "high");
        assert_eq!(
            m.validate(&extra),
            Err(SpecError::UnknownEnvFactor("altitude".into()))
        );
    }

    #[test]
    fn env_state_display_and_accessors() {
        let s = EnvState::new([("electrical", "one"), ("weather", "storm")]);
        assert_eq!(s.to_string(), "{electrical=one, weather=storm}");
        assert_eq!(s.get("electrical"), Some("one"));
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(EnvState::default().is_empty());
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![("electrical", "one"), ("weather", "storm")]);
    }

    #[test]
    fn redundant_set_reports_no_change() {
        let initial = EnvState::new([("electrical", "both"), ("weather", "clear")]);
        let mut env = Environment::new(power_model(), initial.clone()).unwrap();
        assert_eq!(env.set("electrical", "both"), Ok(false));
        assert_eq!(env.current(), &initial);
        assert_eq!(env.set("electrical", "one"), Ok(true));
        assert_eq!(env.current().get("electrical"), Some("one"));
    }

    #[test]
    fn invalid_updates_rejected() {
        let initial = EnvState::new([("electrical", "both"), ("weather", "clear")]);
        let mut env = Environment::new(power_model(), initial).unwrap();
        assert!(matches!(
            env.set("fuel", "low"),
            Err(SpecError::UnknownEnvFactor(_))
        ));
        assert!(matches!(
            env.set("weather", "hail"),
            Err(SpecError::InvalidEnvValue { .. })
        ));
    }

    #[test]
    fn invalid_initial_state_rejected() {
        let bad = EnvState::new([("electrical", "both")]);
        assert!(Environment::new(power_model(), bad).is_err());
    }
}
