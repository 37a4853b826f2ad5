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
//!    failure of its processor and can be polled by other processors via
//!    [`SharedStableStorage`] or an immutable [`StableSnapshot`].
//!
//! The reconfiguration protocol of the DSN 2005 paper leans on both: every
//! application "commits results to stable storage at the end of each
//! computation cycle", and the SCRAM kernel communicates with applications
//! "through variables in stable storage".

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use arfs_assure::fp;
use parking_lot::RwLock;

use crate::error::StorageError;

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

/// A value held in stable storage.
///
/// Values are tagged so that typed reads can distinguish "absent" from
/// "present with a different representation".
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum StableValue {
    /// Raw bytes; the encoding is owned by the writer.
    Bytes(Vec<u8>),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Signed 64-bit integer.
    I64(i64),
    /// IEEE-754 double.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

impl StableValue {
    /// Short name of the value's representation (`"u64"`, `"str"`, ...),
    /// useful in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            StableValue::Bytes(_) => "bytes",
            StableValue::U64(_) => "u64",
            StableValue::I64(_) => "i64",
            StableValue::F64(_) => "f64",
            StableValue::Bool(_) => "bool",
            StableValue::Str(_) => "str",
        }
    }
}

macro_rules! typed_accessors {
    ($get:ident, $try_get:ident, $stage:ident, $variant:ident, $ty:ty, $as_ref:expr) => {
        /// Reads a committed value of the given type.
        ///
        /// Returns `None` if the key is absent **or** holds a value of a
        /// different representation; use the `try_` variant to
        /// distinguish the two cases.
        pub fn $get(&self, key: &str) -> Option<$ty> {
            match self.committed.get(key) {
                Some(StableValue::$variant(v)) => Some($as_ref(v)),
                _ => None,
            }
        }

        /// Reads a committed value of the given type, reporting a
        /// [`StorageError::TypeMismatch`] if the key holds a value of a
        /// different representation.
        ///
        /// # Errors
        ///
        /// Returns [`StorageError::TypeMismatch`] when the key exists but
        /// was written with another representation.
        pub fn $try_get(&self, key: &str) -> Result<Option<$ty>, StorageError> {
            match self.committed.get(key) {
                None => Ok(None),
                Some(StableValue::$variant(v)) => Ok(Some($as_ref(v))),
                Some(_) => Err(StorageError::TypeMismatch {
                    key: key.to_owned(),
                }),
            }
        }

        /// Stages a write of the given type; it becomes visible at the
        /// next [`commit`](StableStorage::commit).
        pub fn $stage(&mut self, key: impl AsRef<str> + Into<String>, value: $ty) {
            self.put_slot(key, StagedSlot::Write(StableValue::$variant(value.into())));
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

    /// Returns the number of writes staged but not yet committed.
    pub fn staged_len(&self) -> usize {
        self.staged
            .values()
            .filter(|s| **s != StagedSlot::Clean)
            .count()
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

    typed_accessors!(get_u64, try_get_u64, stage_u64, U64, u64, |v: &u64| *v);
    typed_accessors!(get_i64, try_get_i64, stage_i64, I64, i64, |v: &i64| *v);
    typed_accessors!(get_f64, try_get_f64, stage_f64, F64, f64, |v: &f64| *v);
    typed_accessors!(
        get_bool,
        try_get_bool,
        stage_bool,
        Bool,
        bool,
        |v: &bool| *v
    );

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

    /// Reads committed raw bytes.
    ///
    /// Returns `None` if the key is absent or holds a non-bytes value.
    pub fn get_bytes(&self, key: &str) -> Option<&[u8]> {
        match self.committed.get(key) {
            Some(StableValue::Bytes(b)) => Some(b),
            _ => None,
        }
    }

    /// Stages a raw-bytes write.
    pub fn stage_bytes(&mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Vec<u8>>) {
        self.put_slot(key, StagedSlot::Write(StableValue::Bytes(value.into())));
    }

    /// Stages an arbitrary tagged value.
    pub fn stage(&mut self, key: impl AsRef<str> + Into<String>, value: StableValue) {
        self.put_slot(key, StagedSlot::Write(value));
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

    /// Stages every key of a snapshot into this store and commits.
    ///
    /// This is the bulk state transfer a replacement processor performs
    /// when it takes over a failed processor's work: poll the failed
    /// store, import the snapshot, resume from the imported state.
    pub fn import_snapshot(&mut self, snapshot: &StableSnapshot) -> Version {
        for (key, value) in snapshot.iter() {
            self.put_slot(key, StagedSlot::Write(value.clone()));
        }
        self.commit()
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

    /// Reads an `i64` value at snapshot time.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        match self.committed.get(key) {
            Some(StableValue::I64(v)) => Some(*v),
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

/// A handle to stable storage shareable across simulated processors.
///
/// The paper's architecture has other processors *poll the stable storage
/// of a failed processor*, and the SCRAM exchanges reconfiguration
/// variables with applications through stable storage. Both require shared
/// read access, which this cheap-to-clone handle provides.
///
/// The store behind the lock is held in an `Arc`, making
/// [`fork`](SharedStableStorage::fork) a pointer bump: the forked
/// handle shares the data until the first write on either side, which
/// clones it then (`Arc::make_mut`). The bounded model checker forks
/// whole systems at every schedule branch point, so this copy-on-write
/// step is what keeps a fork O(1) regardless of how much state the
/// regions have accumulated.
#[derive(Debug, Clone, Default)]
pub struct SharedStableStorage {
    inner: Arc<RwLock<Arc<StableStorage>>>,
}

impl SharedStableStorage {
    /// Creates a new, empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with shared read access to the store.
    pub fn read<R>(&self, f: impl FnOnce(&StableStorage) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive write access to the store.
    ///
    /// If the store is still shared with a fork, the first write clones
    /// it (copy-on-write); thereafter writes are in place.
    pub fn write<R>(&self, f: impl FnOnce(&mut StableStorage) -> R) -> R {
        f(Arc::make_mut(&mut self.inner.write()))
    }

    /// Takes a consistent snapshot (never sees a half-applied commit).
    pub fn snapshot(&self) -> StableSnapshot {
        self.inner.read().snapshot()
    }

    /// Forks the store into an independent handle.
    ///
    /// `clone()` on a [`SharedStableStorage`] shares the underlying
    /// store (that is its purpose: one region, many readers). A fork,
    /// by contrast, yields a handle whose future writes are invisible
    /// to the original (and vice versa): both sides share the current
    /// committed *and* staged state copy-on-write behind fresh locks,
    /// so prefix-sharing exploration can diverge two system replicas
    /// without write interference — at pointer-bump cost.
    pub fn fork(&self) -> Self {
        SharedStableStorage {
            inner: Arc::new(RwLock::new(Arc::clone(&self.inner.read()))),
        }
    }

    /// Convenience: stages a single value and commits immediately.
    pub fn put(&self, key: impl AsRef<str> + Into<String>, value: StableValue) -> Version {
        let mut guard = self.inner.write();
        let store = Arc::make_mut(&mut guard);
        store.stage(key, value);
        store.commit()
    }

    /// Convenience: reads a committed `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.inner.read().get_u64(key)
    }

    /// Convenience: reads a committed string (cloned out of the lock).
    pub fn get_string(&self, key: &str) -> Option<String> {
        self.inner.read().get_str(key).map(str::to_owned)
    }

    /// Current commit version.
    pub fn version(&self) -> Version {
        self.inner.read().version()
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
        assert_eq!(s.staged_len(), 1);
        let v = s.commit();
        assert_eq!(v, Version(1));
        assert_eq!(s.get_u64("x"), Some(5));
        assert_eq!(s.staged_len(), 0);
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
    fn typed_get_distinguishes_absent_from_mismatch() {
        let mut s = StableStorage::new();
        s.stage_str("name", "fcs");
        s.commit();
        assert_eq!(s.get_u64("name"), None);
        assert_eq!(s.try_get_u64("missing"), Ok(None));
        assert_eq!(
            s.try_get_u64("name"),
            Err(StorageError::TypeMismatch { key: "name".into() })
        );
        assert_eq!(s.try_get_u64("missing").unwrap(), None);
    }

    #[test]
    fn all_typed_accessors_roundtrip() {
        let mut s = StableStorage::new();
        s.stage_u64("u", 42);
        s.stage_i64("i", -42);
        s.stage_f64("f", 1.5);
        s.stage_bool("b", true);
        s.stage_str("s", "hello");
        s.stage_bytes("raw", vec![1, 2, 3]);
        s.commit();
        assert_eq!(s.get_u64("u"), Some(42));
        assert_eq!(s.get_i64("i"), Some(-42));
        assert_eq!(s.get_f64("f"), Some(1.5));
        assert_eq!(s.get_bool("b"), Some(true));
        assert_eq!(s.get_str("s"), Some("hello"));
        assert_eq!(s.get_bytes("raw"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.get("u"), Some(&StableValue::U64(42)));
        assert_eq!(s.get("u").unwrap().kind(), "u64");
        assert_eq!(s.get("s").unwrap().kind(), "str");
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
    fn shared_storage_put_and_poll() {
        let shared = SharedStableStorage::new();
        let peer = shared.clone();
        shared.put("counter", StableValue::U64(7));
        assert_eq!(peer.get_u64("counter"), Some(7));
        let snap = peer.snapshot();
        assert_eq!(snap.get_u64("counter"), Some(7));
        assert_eq!(shared.version(), Version(1));
    }

    #[test]
    fn shared_storage_write_closure_commits_atomically() {
        let shared = SharedStableStorage::new();
        shared.write(|s| {
            s.stage_str("phase", "halt");
            s.stage_u64("frame", 3);
            s.commit()
        });
        assert_eq!(shared.get_string("phase").as_deref(), Some("halt"));
        shared.read(|s| {
            assert_eq!(s.get_u64("frame"), Some(3));
        });
    }

    #[test]
    fn import_snapshot_transfers_committed_state() {
        let mut failed = StableStorage::new();
        failed.stage_u64("altitude", 3000);
        failed.stage_str("mode", "cruise");
        failed.commit();
        failed.stage_u64("altitude", 9999); // never committed: lost in failure
        failed.discard();

        let mut spare = StableStorage::new();
        spare.stage_u64("own", 1);
        spare.commit();
        spare.import_snapshot(&failed.snapshot());
        assert_eq!(spare.get_u64("altitude"), Some(3000));
        assert_eq!(spare.get_str("mode"), Some("cruise"));
        assert_eq!(spare.get_u64("own"), Some(1));
        let keys: Vec<_> = failed
            .snapshot()
            .iter()
            .map(|(k, _)| k.to_owned())
            .collect();
        assert_eq!(keys, vec!["altitude", "mode"]);
    }

    #[test]
    fn forked_storage_is_copy_on_write_isolated() {
        let parent = SharedStableStorage::new();
        parent.put("x", StableValue::U64(1));
        let child = parent.fork();
        // Until either side writes, the committed store is literally
        // shared memory.
        assert!(Arc::ptr_eq(&parent.inner.read(), &child.inner.read()));
        child.put("x", StableValue::U64(2));
        parent.put("y", StableValue::U64(3));
        assert_eq!(parent.get_u64("x"), Some(1));
        assert_eq!(parent.get_u64("y"), Some(3));
        assert_eq!(child.get_u64("x"), Some(2));
        assert_eq!(child.get_u64("y"), None);
        // Staged-but-uncommitted writes fork too.
        let staged = SharedStableStorage::new();
        staged.write(|s| s.stage_u64("pending", 9));
        let fork = staged.fork();
        staged.write(|s| s.discard());
        fork.write(|s| {
            s.commit();
        });
        assert_eq!(fork.get_u64("pending"), Some(9));
        assert_eq!(staged.get_u64("pending"), None);
    }

    #[test]
    fn version_display() {
        assert_eq!(Version(3).to_string(), "v3");
        assert_eq!(Version::ZERO.to_string(), "v0");
    }
}
