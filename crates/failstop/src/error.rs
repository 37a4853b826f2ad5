//! Error types for the fail-stop substrate.

use std::error::Error;
use std::fmt;

use crate::ProcessorId;

/// Errors arising from operations on the fail-stop substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailStopError {
    /// The requested processor does not exist in the pool.
    UnknownProcessor(ProcessorId),
    /// A storage operation failed.
    Storage(StorageError),
}

impl fmt::Display for FailStopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailStopError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            FailStopError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl Error for FailStopError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FailStopError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for FailStopError {
    fn from(e: StorageError) -> Self {
        FailStopError::Storage(e)
    }
}

/// Errors arising from stable-storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A key was read with a type that does not match the stored bytes.
    TypeMismatch {
        /// The offending key.
        key: String,
    },
    /// A transaction was committed twice or used after commit.
    TransactionClosed,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { key } => {
                write!(f, "value for key `{key}` has unexpected representation")
            }
            StorageError::TransactionClosed => write!(f, "transaction already committed"),
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
        let e = FailStopError::from(StorageError::TransactionClosed);
        assert!(e.to_string().contains("transaction"));
    }

    #[test]
    fn storage_error_is_source() {
        use std::error::Error as _;
        let e = FailStopError::from(StorageError::TypeMismatch { key: "k".into() });
        assert!(e.source().is_some());
    }
}
