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

/// Errors arising from stable-storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A key was read with a type that does not match the stored bytes.
    TypeMismatch {
        /// The offending key.
        key: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { key } => {
                write!(f, "value for key `{key}` has unexpected representation")
            }
        }
    }
}

impl Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FailStopError::UnknownProcessor(ProcessorId::new(2));
        assert_eq!(e.to_string(), "unknown processor P2");
        let e = StorageError::TypeMismatch { key: "alt".into() };
        assert_eq!(
            e.to_string(),
            "value for key `alt` has unexpected representation"
        );
    }
}
