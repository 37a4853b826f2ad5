//! Reconfigurable applications: normal cyclic operation plus the
//! halt / prepare / initialize reconfiguration interface.
//!
//! A reconfigurable application (§5.3) has three informal properties:
//!
//! - it responds to an external **halt** signal by establishing a
//!   prescribed postcondition and halting in bounded time;
//! - it responds to an external **reconfiguration** (prepare) signal by
//!   establishing the precondition necessary for the new configuration in
//!   bounded time;
//! - it responds to an external **start** (initialize) signal by starting
//!   operation in its assigned configuration in bounded time.
//!
//! During normal operation the application "reads data values produced by
//! other applications from stable storage at the start of each
//! computational cycle ... and commits its results back to stable storage
//! at the end of each computational cycle" (§6.2); the [`AppContext`]
//! passed to each stage provides exactly that interface. The SCRAM
//! communicates with the application "through variables in stable
//! storage": the [`ConfigStatus`] variable written under
//! [`CONFIG_STATUS_KEY`].

use std::fmt;
use std::str::FromStr;

use arfs_failstop::{StableSnapshot, StableStorage};

use crate::environment::EnvState;
use crate::snapshot::Fnv;
use crate::{AppId, SpecId};

/// The stable-storage key under which the SCRAM writes each application's
/// configuration-status variable (§6.2).
pub const CONFIG_STATUS_KEY: &str = "configuration_status";

/// The stable-storage key under which the SCRAM writes the target
/// specification during a reconfiguration.
pub const TARGET_SPEC_KEY: &str = "target_spec";

/// The per-frame command an application reads from its
/// configuration-status variable.
///
/// During a reconfiguration the SCRAM "sets the configuration_status
/// variable to a sequence of values on three successive real-time frames
/// ... halt, prepare, and initialize" (§6.2). `Hold` is used by the
/// phase-checked synchronization policy for applications waiting for a
/// dependency's stage to finish.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ConfigStatus {
    /// Execute one unit of normal work under the current specification.
    Normal,
    /// Establish the postcondition and cease execution.
    Halt,
    /// Establish the condition to transition to the target specification.
    Prepare,
    /// Establish the precondition and start operating under the target
    /// specification.
    Initialize,
    /// Complete the prepare and initialize stages back to back in one
    /// frame, without an intervening SCRAM signal — the §6.3 relaxation
    /// ("allowing the applications to complete multiple sequential stages
    /// without signals from the SCRAM"), issued only under
    /// [`StagePolicy::CompressedPrepareInit`](crate::scram::StagePolicy::CompressedPrepareInit).
    PrepareInitialize,
    /// Remain halted/prepared, waiting for other applications' stages.
    Hold,
}

impl ConfigStatus {
    /// The canonical string form stored in stable storage.
    pub fn as_str(self) -> &'static str {
        match self {
            ConfigStatus::Normal => "normal",
            ConfigStatus::Halt => "halt",
            ConfigStatus::Prepare => "prepare",
            ConfigStatus::Initialize => "initialize",
            ConfigStatus::PrepareInitialize => "prepare-initialize",
            ConfigStatus::Hold => "hold",
        }
    }
}

impl fmt::Display for ConfigStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing a [`ConfigStatus`] from stable storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigStatusError(String);

impl fmt::Display for ParseConfigStatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown configuration status `{}`", self.0)
    }
}

impl std::error::Error for ParseConfigStatusError {}

impl FromStr for ConfigStatus {
    type Err = ParseConfigStatusError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "normal" => Ok(ConfigStatus::Normal),
            "halt" => Ok(ConfigStatus::Halt),
            "prepare" => Ok(ConfigStatus::Prepare),
            "initialize" => Ok(ConfigStatus::Initialize),
            "prepare-initialize" => Ok(ConfigStatus::PrepareInitialize),
            "hold" => Ok(ConfigStatus::Hold),
            other => Err(ParseConfigStatusError(other.to_owned())),
        }
    }
}

/// Read-only snapshots of every application's stable state, taken at the
/// start of the frame.
///
/// This is the "shared state through the processors' stable storage" the
/// architecture uses for inter-application communication: application
/// `a` reads the values application `b` committed *last* frame, even
/// when `b` runs before `a` in the same frame.
///
/// Snapshots share the committed maps they view, so installing one is a
/// pointer bump; the board keeps them in a reused vector sorted by
/// application id.
#[derive(Debug, Clone, Default)]
pub struct Blackboard {
    snapshots: Vec<(AppId, StableSnapshot)>,
}

impl Blackboard {
    /// Creates an empty blackboard.
    pub fn new() -> Self {
        Blackboard::default()
    }

    /// Installs the frame-start snapshot for an application.
    pub fn insert(&mut self, app: AppId, snapshot: StableSnapshot) {
        match self.snapshots.binary_search_by(|(id, _)| id.cmp(&app)) {
            Ok(at) => self.snapshots[at].1 = snapshot,
            Err(at) => self.snapshots.insert(at, (app, snapshot)),
        }
    }

    /// The frame-start snapshot of an application's stable state.
    pub fn app(&self, id: &AppId) -> Option<&StableSnapshot> {
        self.snapshots
            .binary_search_by(|(app, _)| app.cmp(id))
            .ok()
            .map(|at| &self.snapshots[at].1)
    }

    /// Number of applications on the board.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Returns `true` if no snapshots are installed.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Drops every snapshot, keeping the vector's capacity: a board
    /// emptied before the frame-end commit leaves each committed map
    /// unshared, so the commit updates it in place.
    pub(crate) fn clear(&mut self) {
        self.snapshots.clear();
    }
}

/// The execution context handed to an application for one frame's unit of
/// work (any stage).
#[derive(Debug)]
pub struct AppContext<'a> {
    /// Current frame index.
    pub frame: u64,
    /// The application's own stable storage (staged writes are committed
    /// by the system at the end of the frame).
    pub stable: &'a mut StableStorage,
    /// Frame-start snapshots of every application's stable state.
    pub inputs: &'a Blackboard,
    /// The current environment state.
    pub env: &'a EnvState,
    /// Virtual ticks consumed by this frame's unit of work; the system
    /// compares the total against the specification's declared compute
    /// budget and reports overruns as timing failures (§4 lists "the
    /// failure of software to meet its timing constraints" as a trigger
    /// source).
    pub consumed: arfs_rtos::Ticks,
}

impl AppContext<'_> {
    /// Accumulates virtual compute cost for this frame.
    pub fn consume(&mut self, ticks: arfs_rtos::Ticks) {
        self.consumed += ticks;
    }
}

/// A reconfigurable application.
///
/// Implementations provide their functional behavior in
/// [`run_normal`](ReconfigurableApp::run_normal) and their
/// reconfiguration interface in the three stage methods. Each stage
/// method is called once per frame for as many frames as the
/// application's declared [`StageBounds`](crate::spec::StageBounds)
/// allow; implementations must complete the stage within that bound.
///
/// The two predicate methods expose the verification conditions the
/// paper's proofs rely on (Table 1's "Predicate" column); the system
/// records their values each frame and the SP4 checker consumes them.
pub trait ReconfigurableApp: Send {
    /// The application's identity (must match its
    /// [`AppDecl`](crate::spec::AppDecl)).
    fn id(&self) -> &AppId;

    /// The specification the application currently operates under.
    fn current_spec(&self) -> SpecId;

    /// One unit of normal work under the current specification.
    ///
    /// # Errors
    ///
    /// An `Err` is reported to the executive's health monitor as an
    /// application fault (a reconfiguration trigger source).
    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String>;

    /// Establish the postcondition and cease execution.
    ///
    /// # Errors
    ///
    /// An `Err` is reported to the health monitor.
    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String>;

    /// Establish the condition needed to transition to `target`.
    ///
    /// # Errors
    ///
    /// An `Err` is reported to the health monitor.
    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String>;

    /// Establish the precondition for `target` and start operating under
    /// it; after this returns, [`current_spec`](ReconfigurableApp::current_spec)
    /// must report `target`.
    ///
    /// # Errors
    ///
    /// An `Err` is reported to the health monitor.
    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String>;

    /// Whether the prescribed postcondition currently holds (checked
    /// after halt stages).
    fn postcondition_established(&self) -> bool;

    /// Whether the precondition for operating under `spec` currently
    /// holds (checked after initialize stages).
    fn precondition_established(&self, spec: &SpecId) -> bool;

    /// A digest of the application's full behavioral state, or `None`
    /// if the application cannot summarize itself.
    ///
    /// Two applications with equal digests (and equal ids) must behave
    /// identically under identical future inputs — the model checker's
    /// visited-state deduplication hashes this into its canonical state
    /// fingerprint and **merges** subtrees whose fingerprints collide.
    /// The default `None` disables deduplication for any system hosting
    /// the application, which is always sound.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// Forks the application at its current state.
    ///
    /// The bounded model checker shares simulation prefixes by forking
    /// the whole [`System`](crate::system::System) at schedule branch
    /// points, which requires duplicating the boxed application tree.
    /// The fork must carry the full reconfiguration state (current
    /// specification, halt/prepare progress) so that both replicas
    /// produce identical traces under identical inputs. Implementations
    /// backed by an external simulated plant (a shared world model) may
    /// share that plant between forks — the checker itself only forks
    /// [`NullApp`]-backed systems, which are fully
    /// independent.
    fn clone_box(&self) -> Box<dyn ReconfigurableApp>;
}

impl Clone for Box<dyn ReconfigurableApp> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A trivially correct application used by the bounded model checker and
/// tests: every stage succeeds immediately and every predicate holds.
///
/// `NullApp` isolates the *protocol* (the SCRAM, the trace, the
/// properties) from application functionality, which is exactly the
/// abstraction level of the paper's PVS model.
#[derive(Debug, Clone)]
pub struct NullApp {
    id: AppId,
    spec: SpecId,
    halted: bool,
    prepared_for: Option<SpecId>,
    frames_run: u64,
}

impl NullApp {
    /// Creates a null application starting under the given specification.
    pub fn new(id: impl Into<AppId>, initial_spec: impl Into<SpecId>) -> Self {
        NullApp {
            id: id.into(),
            spec: initial_spec.into(),
            halted: false,
            prepared_for: None,
            frames_run: 0,
        }
    }

    /// Number of normal-work frames executed.
    pub fn frames_run(&self) -> u64 {
        self.frames_run
    }

    /// Whether the application is currently halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }
}

impl ReconfigurableApp for NullApp {
    fn id(&self) -> &AppId {
        &self.id
    }

    fn current_spec(&self) -> SpecId {
        self.spec.clone()
    }

    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.frames_run += 1;
        ctx.stable.stage_u64("frames_run", self.frames_run);
        Ok(())
    }

    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.halted = true;
        ctx.stable.stage_str("state", "halted");
        Ok(())
    }

    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.prepared_for = Some(target.clone());
        ctx.stable.stage_str("state", "prepared");
        Ok(())
    }

    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.spec = target.clone();
        self.halted = false;
        self.prepared_for = None;
        ctx.stable.stage_str("state", "running");
        Ok(())
    }

    fn postcondition_established(&self) -> bool {
        self.halted
    }

    fn precondition_established(&self, spec: &SpecId) -> bool {
        !self.halted && self.spec == *spec
    }

    fn state_digest(&self) -> Option<u64> {
        // FNV-1a over every behavior-relevant field: spec, halt flag,
        // prepare target, and work counter.
        let mut h = Fnv::new();
        h.write(self.spec.as_str().as_bytes());
        h.write(&[u8::from(self.halted)]);
        match &self.prepared_for {
            Some(t) => h.write(t.as_str().as_bytes()),
            None => h.write(&[0xff]),
        }
        h.write(&self.frames_run.to_le_bytes());
        Some(h.finish())
    }

    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_status_roundtrips_through_strings() {
        for status in [
            ConfigStatus::Normal,
            ConfigStatus::Halt,
            ConfigStatus::Prepare,
            ConfigStatus::Initialize,
            ConfigStatus::PrepareInitialize,
            ConfigStatus::Hold,
        ] {
            let s = status.as_str();
            assert_eq!(s.parse::<ConfigStatus>().unwrap(), status);
            assert_eq!(status.to_string(), s);
        }
        let err = "bogus".parse::<ConfigStatus>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn null_app_walks_the_protocol() {
        let mut app = NullApp::new("worker", "full");
        let mut stable = StableStorage::new();
        let board = Blackboard::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 0,
            stable: &mut stable,
            inputs: &board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        ctx.consume(arfs_rtos::Ticks::new(5));
        assert_eq!(ctx.consumed, arfs_rtos::Ticks::new(5));

        assert_eq!(app.current_spec(), SpecId::new("full"));
        app.run_normal(&mut ctx).unwrap();
        assert_eq!(app.frames_run(), 1);
        assert!(!app.postcondition_established());
        assert!(app.precondition_established(&SpecId::new("full")));

        app.halt(&mut ctx).unwrap();
        assert!(app.is_halted());
        assert!(app.postcondition_established());
        assert!(!app.precondition_established(&SpecId::new("full")));

        app.prepare(&mut ctx, &SpecId::new("degraded")).unwrap();
        assert!(app.postcondition_established());

        app.initialize(&mut ctx, &SpecId::new("degraded")).unwrap();
        assert_eq!(app.current_spec(), SpecId::new("degraded"));
        assert!(app.precondition_established(&SpecId::new("degraded")));
        assert!(!app.precondition_established(&SpecId::new("full")));

        ctx.stable.commit();
        assert_eq!(stable.get_str("state"), Some("running"));
        assert_eq!(stable.get_u64("frames_run"), Some(1));
    }

    #[test]
    fn blackboard_stores_snapshots() {
        let mut board = Blackboard::new();
        assert!(board.is_empty());
        let mut s = StableStorage::new();
        s.stage_u64("alt", 3000);
        s.commit();
        board.insert(AppId::new("fcs"), s.snapshot());
        assert_eq!(board.len(), 1);
        assert_eq!(
            board.app(&AppId::new("fcs")).unwrap().get_u64("alt"),
            Some(3000)
        );
        assert!(board.app(&AppId::new("ghost")).is_none());
    }
}
