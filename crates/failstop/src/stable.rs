//! Stable storage: the crash-surviving half of a fail-stop processor.
//!
//! Stable storage in the Schlichting & Schneider model has two defining
//! properties, both of which this module enforces:
//!
//! 1. **Atomicity of commits.** Writes performed during an action are
//!    *staged* and become visible all at once when [`StableStorage::commit`]
//!    runs. A fail-stop failure between commits discards every staged
//!    write, so readers never observe a partially-updated state.
//! 2. **Persistence across failures.** Committed state survives the
//!    failure of its processor and can be polled by other processors
//!    through an immutable [`StableSnapshot`].
//!
//! The reconfiguration protocol of the DSN 2005 paper leans on both: every
//! application "commits results to stable storage at the end of each
//! computation cycle", and the SCRAM kernel communicates with applications
//! "through variables in stable storage".

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use arfs_assure::fp;

/// Monotonically increasing commit version of a [`StableStorage`].
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Version(u64);

impl Version {
    /// The version of a freshly created store, before any commit.
    pub const ZERO: Version = Version(0);

    /// Returns the raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    fn bump(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A value held in stable storage, tagged with its representation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum StableValue {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// IEEE-754 double.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

macro_rules! typed_accessors {
    ($get:ident, $stage:ident, $variant:ident, $ty:ty) => {
        /// Reads a committed value of the given type.
        ///
        /// Returns `None` if the key is absent or holds a value of a
        /// different representation.
        pub fn $get(&self, key: &str) -> Option<$ty> {
            match self.committed.get(key) {
                Some(StableValue::$variant(v)) => Some(*v),
                _ => None,
            }
        }

        /// Stages a write of the given type; it becomes visible at the
        /// next [`commit`](StableStorage::commit).
        pub fn $stage(&mut self, key: impl AsRef<str> + Into<String>, value: $ty) {
            self.put_slot(key, StagedSlot::Write(StableValue::$variant(value)));
        }
    };
}

/// The state of one staging slot between commits.
///
/// Slots are *retained* across commits: applying a slot resets it to
/// [`StagedSlot::Clean`] in place instead of removing the map entry, so a
/// key that is re-staged every frame (the steady-state hot path) never
/// re-allocates its `String` key after the first frame.
#[derive(Debug, Clone, PartialEq)]
enum StagedSlot {
    /// No write pending; the slot exists only to keep its key allocated.
    Clean,
    /// A value write pending for the next commit.
    Write(StableValue),
    /// A removal pending for the next commit.
    Remove,
}

/// The stable storage of one fail-stop processor.
///
/// See the [crate documentation](crate) for the semantics. A store is a
/// flat, ordered key-value namespace; higher layers (the RTOS, the SCRAM
/// kernel, applications) impose their own key conventions on top.
///
/// The committed map is shared copy-on-write with the
/// [`StableSnapshot`]s taken of it: a snapshot is a pointer bump, and a
/// commit copies the map only while a snapshot of the old state is
/// still alive.
#[derive(Debug, Clone, Default)]
pub struct StableStorage {
    committed: Arc<BTreeMap<String, StableValue>>,
    staged: BTreeMap<String, StagedSlot>,
    version: Version,
}

impl PartialEq for StableStorage {
    /// Clean (already-applied) staging slots are key-retention bookkeeping,
    /// not state: two stores are equal when their committed contents,
    /// versions, and *pending* staged operations agree.
    fn eq(&self, other: &Self) -> bool {
        self.committed == other.committed
            && self.version == other.version
            && self
                .staged
                .iter()
                .filter(|(_, s)| **s != StagedSlot::Clean)
                .eq(other
                    .staged
                    .iter()
                    .filter(|(_, s)| **s != StagedSlot::Clean))
    }
}

impl StableStorage {
    /// Creates an empty store at [`Version::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the version of the most recent commit.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Returns the committed value for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&StableValue> {
        self.committed.get(key)
    }

    /// Returns `true` if a committed value exists for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.committed.contains_key(key)
    }

    /// Number of committed keys.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Returns `true` if no key has ever been committed (or all were
    /// removed).
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Iterates over committed keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.committed.keys().map(String::as_str)
    }

    /// Writes `slot` into the retained staging slot for `key`, allocating
    /// the key `String` only the first time the key is ever staged.
    fn put_slot(&mut self, key: impl AsRef<str> + Into<String>, slot: StagedSlot) {
        // Failpoint: a `Skip` here is a lost write — the value never
        // reaches the staging buffer, as if the volatile circuitry
        // dropped it before the stable medium saw anything.
        fp!("failstop.stable.stage", action => {
            if matches!(action, arfs_assure::FpAction::Skip) {
                return;
            }
        });
        if let Some(existing) = self.staged.get_mut(key.as_ref()) {
            *existing = slot;
        } else {
            self.staged.insert(key.into(), slot);
        }
    }

    typed_accessors!(get_u64, stage_u64, U64, u64);
    typed_accessors!(get_f64, stage_f64, F64, f64);
    typed_accessors!(get_bool, stage_bool, Bool, bool);

    /// Reads a committed string value.
    ///
    /// Returns `None` if the key is absent or holds a non-string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.committed.get(key) {
            Some(StableValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Stages a string write.
    pub fn stage_str(&mut self, key: impl AsRef<str> + Into<String>, value: impl Into<String>) {
        self.put_slot(key, StagedSlot::Write(StableValue::Str(value.into())));
    }

    /// Stages removal of a key.
    pub fn stage_remove(&mut self, key: impl AsRef<str> + Into<String>) {
        self.put_slot(key, StagedSlot::Remove);
    }

    /// Atomically applies all staged writes and bumps the version.
    ///
    /// Returns the new version. Committing with nothing staged still bumps
    /// the version: the reconfiguration model commits at *every* frame
    /// boundary, and version numbers double as frame-commit evidence.
    ///
    /// Staging slots are reset in place rather than drained, and a write
    /// to a key that already exists in the committed map moves the value
    /// without touching the key — so re-committing the same working set
    /// every frame performs no heap allocation, provided no snapshot of
    /// the previous commit is still held.
    pub fn commit(&mut self) -> Version {
        // Failpoint: an `Err`/`Skip` here is a torn write at the device
        // — every staged write is discarded and the version stays put,
        // exactly what a fail-stop failure between commits leaves.
        fp!("failstop.stable.commit", action => {
            if matches!(
                action,
                arfs_assure::FpAction::Err | arfs_assure::FpAction::Skip
            ) {
                self.discard();
                return self.version;
            }
        });
        for (key, slot) in self.staged.iter_mut() {
            match std::mem::replace(slot, StagedSlot::Clean) {
                StagedSlot::Clean => {}
                StagedSlot::Write(v) => {
                    let committed = Arc::make_mut(&mut self.committed);
                    if let Some(dst) = committed.get_mut(key) {
                        *dst = v;
                    } else {
                        committed.insert(key.clone(), v);
                    }
                }
                StagedSlot::Remove => {
                    if self.committed.contains_key(key) {
                        Arc::make_mut(&mut self.committed).remove(key);
                    }
                }
            }
        }
        self.version = self.version.bump();
        self.version
    }

    /// Discards all staged writes without committing.
    ///
    /// This is what a fail-stop failure does to in-flight writes: they
    /// were buffered in volatile circuitry and never reached the stable
    /// medium.
    pub fn discard(&mut self) {
        for slot in self.staged.values_mut() {
            *slot = StagedSlot::Clean;
        }
    }

    /// Takes an immutable snapshot of the committed state: a pointer
    /// bump, not a copy.
    ///
    /// Snapshots are how surviving processors poll the state of a failed
    /// one.
    pub fn snapshot(&self) -> StableSnapshot {
        StableSnapshot {
            committed: Arc::clone(&self.committed),
            version: self.version,
        }
    }
}

/// An immutable view of committed stable state at a particular version.
#[derive(Debug, Clone, Default)]
pub struct StableSnapshot {
    committed: Arc<BTreeMap<String, StableValue>>,
    version: Version,
}

impl StableSnapshot {
    /// The commit version this snapshot was taken at.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Returns the value for `key` at snapshot time, if any.
    pub fn get(&self, key: &str) -> Option<&StableValue> {
        self.committed.get(key)
    }

    /// Reads a `u64` value at snapshot time.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.committed.get(key) {
            Some(StableValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a string value at snapshot time.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.committed.get(key) {
            Some(StableValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Reads an `f64` value at snapshot time.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.committed.get(key) {
            Some(StableValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a `bool` value at snapshot time.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.committed.get(key) {
            Some(StableValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of keys captured by this snapshot.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Returns `true` if the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Iterates over `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StableValue)> {
        self.committed.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_writes_invisible_until_commit() {
        let mut s = StableStorage::new();
        s.stage_u64("x", 5);
        assert_eq!(s.get_u64("x"), None);
        let v = s.commit();
        assert_eq!(v, Version(1));
        assert_eq!(s.get_u64("x"), Some(5));
    }

    #[test]
    fn commit_is_atomic_over_multiple_keys() {
        let mut s = StableStorage::new();
        s.stage_u64("a", 1);
        s.stage_u64("b", 2);
        s.stage_str("c", "three");
        assert!(s.is_empty());
        s.commit();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_u64("a"), Some(1));
        assert_eq!(s.get_u64("b"), Some(2));
        assert_eq!(s.get_str("c"), Some("three"));
    }

    #[test]
    fn discard_models_failure_between_commits() {
        let mut s = StableStorage::new();
        s.stage_u64("x", 1);
        s.commit();
        s.stage_u64("x", 2);
        s.stage_u64("y", 9);
        s.discard();
        assert_eq!(s.get_u64("x"), Some(1));
        assert_eq!(s.get_u64("y"), None);
        assert_eq!(s.version(), Version(1));
    }

    #[test]
    fn stage_remove_deletes_on_commit() {
        let mut s = StableStorage::new();
        s.stage_u64("x", 1);
        s.commit();
        s.stage_remove("x");
        assert!(s.contains("x"));
        s.commit();
        assert!(!s.contains("x"));
        assert!(s.is_empty());
    }

    #[test]
    fn later_stage_of_same_key_wins() {
        let mut s = StableStorage::new();
        s.stage_u64("x", 1);
        s.stage_u64("x", 2);
        s.commit();
        assert_eq!(s.get_u64("x"), Some(2));
    }

    #[test]
    fn all_typed_accessors_roundtrip() {
        let mut s = StableStorage::new();
        s.stage_u64("u", 42);
        s.stage_f64("f", 1.5);
        s.stage_bool("b", true);
        s.stage_str("s", "hello");
        s.commit();
        assert_eq!(s.get_u64("u"), Some(42));
        assert_eq!(s.get_f64("f"), Some(1.5));
        assert_eq!(s.get_bool("b"), Some(true));
        assert_eq!(s.get_str("s"), Some("hello"));
        // A typed read of another representation is absent.
        assert_eq!(s.get_u64("s"), None);
        let tagged = [
            ("u", StableValue::U64(42)),
            ("f", StableValue::F64(1.5)),
            ("b", StableValue::Bool(true)),
            ("s", StableValue::Str("hello".into())),
        ];
        for (key, value) in &tagged {
            assert_eq!(s.get(key), Some(value));
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut s = StableStorage::new();
        s.stage_u64("x", 1);
        s.commit();
        let snap = s.snapshot();
        s.stage_u64("x", 2);
        s.commit();
        assert_eq!(snap.get_u64("x"), Some(1));
        assert_eq!(snap.version(), Version(1));
        assert_eq!(s.get_u64("x"), Some(2));
        assert_eq!(s.version(), Version(2));
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn empty_commit_still_bumps_version() {
        let mut s = StableStorage::new();
        assert_eq!(s.version(), Version::ZERO);
        s.commit();
        s.commit();
        assert_eq!(s.version().raw(), 2);
    }

    #[test]
    fn version_display() {
        assert_eq!(Version(3).to_string(), "v3");
        assert_eq!(Version::ZERO.to_string(), "v0");
    }
}
