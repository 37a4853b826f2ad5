//! Error types for specification construction and system operation.

use std::error::Error;
use std::fmt;

use arfs_failstop::ProcessorId;

use crate::{AppId, ConfigId, SpecId};

/// Errors detected while building or validating a reconfiguration
/// specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The specification declares no applications.
    NoApps,
    /// The specification declares no configurations.
    NoConfigs,
    /// Two applications share an id.
    DuplicateApp(AppId),
    /// Two configurations share an id.
    DuplicateConfig(ConfigId),
    /// An application declares two specifications with the same id.
    DuplicateSpec {
        /// The application.
        app: AppId,
        /// The repeated specification id.
        spec: SpecId,
    },
    /// A configuration references an unknown application.
    UnknownApp(AppId),
    /// A reference to an unknown configuration.
    UnknownConfig(ConfigId),
    /// A configuration assigns an application a specification it does not
    /// implement.
    UnknownSpec {
        /// The application.
        app: AppId,
        /// The unknown specification id.
        spec: SpecId,
    },
    /// A configuration fails to assign a specification to an application.
    MissingAssignment {
        /// The configuration.
        config: ConfigId,
        /// The unassigned application.
        app: AppId,
    },
    /// A configuration fails to place a running application on a
    /// processor.
    MissingPlacement {
        /// The configuration.
        config: ConfigId,
        /// The unplaced application.
        app: AppId,
    },
    /// Application functional dependencies contain a cycle.
    CyclicDependency {
        /// One application on the cycle.
        app: AppId,
    },
    /// An application depends on an undeclared application.
    UnknownDependency {
        /// The depending application.
        app: AppId,
        /// The missing dependency.
        on: AppId,
    },
    /// An environment factor was declared twice.
    DuplicateEnvFactor(String),
    /// An environment factor has an empty domain.
    EmptyEnvDomain(String),
    /// A reference to an unknown environment factor.
    UnknownEnvFactor(String),
    /// A value outside an environment factor's domain.
    InvalidEnvValue {
        /// The factor.
        factor: String,
        /// The offending value.
        value: String,
    },
    /// An environment state does not assign every factor.
    IncompleteEnvState {
        /// The unassigned factor.
        factor: String,
    },
    /// No initial configuration was set.
    NoInitialConfig,
    /// No initial environment state was set.
    NoInitialEnv,
    /// The specification has no safe configuration.
    NoSafeConfig,
    /// A transition was declared between unknown configurations.
    UnknownTransition {
        /// Source configuration.
        from: ConfigId,
        /// Target configuration.
        to: ConfigId,
    },
    /// The frame length was not set or is zero.
    BadFrameLength,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoApps => write!(f, "specification declares no applications"),
            SpecError::NoConfigs => write!(f, "specification declares no configurations"),
            SpecError::DuplicateApp(a) => write!(f, "duplicate application `{a}`"),
            SpecError::DuplicateConfig(c) => write!(f, "duplicate configuration `{c}`"),
            SpecError::DuplicateSpec { app, spec } => {
                write!(f, "application `{app}` declares specification `{spec}` twice")
            }
            SpecError::UnknownApp(a) => write!(f, "unknown application `{a}`"),
            SpecError::UnknownConfig(c) => write!(f, "unknown configuration `{c}`"),
            SpecError::UnknownSpec { app, spec } => {
                write!(f, "application `{app}` does not implement specification `{spec}`")
            }
            SpecError::MissingAssignment { config, app } => write!(
                f,
                "configuration `{config}` assigns no specification to application `{app}`"
            ),
            SpecError::MissingPlacement { config, app } => write!(
                f,
                "configuration `{config}` does not place running application `{app}` on a processor"
            ),
            SpecError::CyclicDependency { app } => write!(
                f,
                "application dependencies contain a cycle through `{app}` (dependencies must be acyclic)"
            ),
            SpecError::UnknownDependency { app, on } => {
                write!(f, "application `{app}` depends on undeclared application `{on}`")
            }
            SpecError::DuplicateEnvFactor(n) => write!(f, "duplicate environment factor `{n}`"),
            SpecError::EmptyEnvDomain(n) => {
                write!(f, "environment factor `{n}` has an empty domain")
            }
            SpecError::UnknownEnvFactor(n) => write!(f, "unknown environment factor `{n}`"),
            SpecError::InvalidEnvValue { factor, value } => {
                write!(f, "value `{value}` is outside the domain of environment factor `{factor}`")
            }
            SpecError::IncompleteEnvState { factor } => {
                write!(f, "environment state assigns no value to factor `{factor}`")
            }
            SpecError::NoInitialConfig => write!(f, "no initial configuration was set"),
            SpecError::NoInitialEnv => write!(f, "no initial environment state was set"),
            SpecError::NoSafeConfig => write!(f, "specification has no safe configuration"),
            SpecError::UnknownTransition { from, to } => {
                write!(f, "transition references unknown configuration (`{from}` -> `{to}`)")
            }
            SpecError::BadFrameLength => write!(f, "frame length must be positive"),
        }
    }
}

impl Error for SpecError {}

/// Errors raised by a running [`System`](crate::system::System).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A registered application is not declared in the specification.
    UndeclaredApp(AppId),
    /// An application declared in the specification was never registered.
    UnregisteredApp(AppId),
    /// An environment update was rejected.
    Env(SpecError),
    /// A processor failure named a processor the platform does not have.
    UnknownProcessor(ProcessorId),
    /// The bus schedule is ill-formed.
    Bus(String),
    /// The kernel configuration cannot run on the specification (see
    /// [`KernelConfig::check`](crate::scram::KernelConfig::check)).
    InvalidKernelConfig(&'static str),
    /// A fleet's workload generates cases over a different horizon
    /// than the fleet runs.
    HorizonMismatch {
        /// The frames the fleet runs every system through.
        fleet: u64,
        /// The horizon of the workload's generated cases.
        workload: u64,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::UndeclaredApp(a) => {
                write!(f, "application `{a}` is not declared in the specification")
            }
            SystemError::UnregisteredApp(a) => {
                write!(f, "application `{a}` was declared but never registered")
            }
            SystemError::Env(e) => write!(f, "environment update rejected: {e}"),
            SystemError::UnknownProcessor(p) => {
                write!(f, "processor {p} is not part of the platform")
            }
            SystemError::Bus(e) => write!(f, "bus error: {e}"),
            SystemError::InvalidKernelConfig(reason) => {
                write!(f, "invalid kernel configuration: {reason}")
            }
            SystemError::HorizonMismatch { fleet, workload } => {
                write!(
                    f,
                    "fleet horizon {fleet} differs from its workload's {workload}"
                )
            }
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Env(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SystemError {
    fn from(e: SpecError) -> Self {
        SystemError::Env(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_error_messages_name_the_offender() {
        let e = SpecError::UnknownSpec {
            app: AppId::new("fcs"),
            spec: SpecId::new("turbo"),
        };
        assert!(e.to_string().contains("fcs"));
        assert!(e.to_string().contains("turbo"));
        assert!(SpecError::NoSafeConfig.to_string().contains("safe"));
        assert!(SpecError::CyclicDependency {
            app: AppId::new("x")
        }
        .to_string()
        .contains("acyclic"));
    }

    #[test]
    fn system_error_wraps_spec_error_as_source() {
        use std::error::Error as _;
        let e = SystemError::from(SpecError::NoInitialEnv);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("environment"));
    }
}
