//! Identifier newtypes for applications, specifications, and
//! configurations.
//!
//! Each identifier is a shared name (`Arc<str>`): cloning one — which
//! every frame does for every application's command, record and
//! specification — is a reference-count bump, not a string copy.
//! Equality, ordering, hashing, `Debug` and the serialized form are
//! those of the plain string.

use std::fmt;
use std::sync::Arc;

use serde::{Content, DeError};

macro_rules! string_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates an identifier from a name.
            pub fn new(name: impl Into<String>) -> Self {
                $name(Arc::from(name.into()))
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(name: &str) -> Self {
                $name(Arc::from(name))
            }
        }

        impl From<String> for $name {
            fn from(name: String) -> Self {
                $name::new(name)
            }
        }

        impl serde::Serialize for $name {
            fn to_content(&self) -> Content {
                Content::Str(self.0.to_string())
            }
        }

        impl serde::Deserialize for $name {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                String::from_content(content).map($name::new)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id! {
    /// Identifier of an application (`aᵢ ∈ Apps`).
    AppId
}

string_id! {
    /// Identifier of a functional specification (`sᵢⱼ ∈ Sᵢ`).
    ///
    /// The distinguished specification [`SpecId::off`] denotes an
    /// application that is not running in a configuration (the paper's
    /// Minimal Service configuration turns the autopilot off); it is
    /// available to every application without being declared.
    SpecId
}

string_id! {
    /// Identifier of a system configuration (`cᵢ ∈ C`).
    ConfigId
}

impl SpecId {
    /// The distinguished "not running" specification.
    pub fn off() -> Self {
        SpecId::new("off")
    }

    /// Returns `true` if this is the distinguished "off" specification.
    pub fn is_off(&self) -> bool {
        &*self.0 == "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_compare() {
        let a = AppId::new("fcs");
        assert_eq!(a.as_str(), "fcs");
        assert_eq!(a.to_string(), "fcs");
        assert_eq!(AppId::from("fcs"), a);
        assert_eq!(AppId::from(String::from("fcs")), a);
        assert_eq!(a.as_ref(), "fcs");
        assert!(AppId::new("a") < AppId::new("b"));
    }

    #[test]
    fn off_spec_is_distinguished() {
        assert!(SpecId::off().is_off());
        assert!(!SpecId::new("full").is_off());
        assert_eq!(SpecId::off(), SpecId::new("off"));
    }

    #[test]
    fn serde_is_transparent() {
        let c = ConfigId::new("full-service");
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, "\"full-service\"");
        let back: ConfigId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
