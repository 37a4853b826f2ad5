//! Error types for the time-triggered bus.

use std::error::Error;
use std::fmt;

/// Errors arising from bus configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// A schedule was built with no slots at all.
    EmptySchedule,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::EmptySchedule => write!(f, "bus schedule has no slots"),
        }
    }
}

impl Error for BusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(BusError::EmptySchedule.to_string().contains("no slots"));
    }
}
