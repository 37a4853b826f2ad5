//! Error types for the fail-stop substrate.

use std::error::Error;
use std::fmt;

use crate::ProcessorId;

/// Errors arising from operations on the fail-stop substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailStopError {
    /// The requested processor does not exist in the pool.
    UnknownProcessor(ProcessorId),
}

impl fmt::Display for FailStopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailStopError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
        }
    }
}

impl Error for FailStopError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FailStopError::UnknownProcessor(ProcessorId::new(2));
        assert_eq!(e.to_string(), "unknown processor P2");
    }
}
