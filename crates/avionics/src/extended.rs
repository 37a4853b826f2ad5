//! The extended UAV system: four applications, two trigger sources,
//! four configurations.
//!
//! The paper's example instantiation has two applications (§7). This
//! module scales the same architecture up, as the paper's conclusion
//! anticipates ("we address the requirements of systems of interacting
//! applications"): a [`Datalink`] telemetry application and a flight-data
//! [`Recorder`] join the autopilot and FCS, forming the dependency chain
//!
//! ```text
//! fcs ◄── autopilot          (the §7.1 dependency)
//! fcs ◄── datalink ◄── recorder   (telemetry pipeline)
//! ```
//!
//! with dependency depths 0/1/1/2 — three initialization waves under the
//! phase-checked policy. Two environment factors drive reconfiguration:
//! the electrical system (as in §7) and the datalink radio, exercising
//! choice rules that combine factors ("comms-out" keeps full flight
//! services but shuts the datalink down).

use std::sync::{Arc, Mutex};

use arfs_core::app::{AppContext, ReconfigurableApp};
use arfs_core::scram::{KernelConfig, SyncPolicy};
use arfs_core::spec::{AppDecl, ChooseRule, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::System;
use arfs_core::{AppId, SpecError, SpecId, SystemError};
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

use crate::autopilot::{Autopilot, SharedApControls};
use crate::dynamics::{Aircraft, AircraftState, ControlSurfaces, PilotInput};
use crate::electrical::ElectricalSystem;
use crate::fcs::FlightControl;
use crate::sensors::SensorSuite;
use crate::system::{SharedWorld, SimWorld};

/// Datalink full-rate telemetry specification.
pub const DL_FULL: &str = "dl-full";
/// Datalink low-rate telemetry specification (every 4th frame).
pub const DL_LOW_RATE: &str = "dl-low-rate";
/// Flight-data-recorder specification.
pub const FDR_FULL: &str = "fdr-full";

/// The state of the datalink radio, an environment factor independent of
/// the electrical system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RadioState {
    /// Radio nominal.
    #[default]
    Ok,
    /// Radio degraded (reduced bandwidth).
    Degraded,
    /// Radio failed.
    Failed,
}

impl RadioState {
    /// The environment-factor value (`"ok"`, `"degraded"`, `"failed"`).
    pub fn env_value(self) -> &'static str {
        match self {
            RadioState::Ok => "ok",
            RadioState::Degraded => "degraded",
            RadioState::Failed => "failed",
        }
    }
}

/// Shared handle to the radio state.
pub type SharedRadio = Arc<Mutex<RadioState>>;

/// The telemetry downlink application.
///
/// Publishes a frame-stamped snapshot of the aircraft state (sequence
/// number, altitude, heading) to its stable-storage region; the recorder
/// reads it from the blackboard. Under [`DL_LOW_RATE`] it transmits every
/// fourth frame only.
#[derive(Clone)]
pub struct Datalink {
    id: AppId,
    spec: SpecId,
    world: SharedWorld,
    radio: SharedRadio,
    halted: bool,
    sequence: u64,
}

impl std::fmt::Debug for Datalink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Datalink")
            .field("spec", &self.spec)
            .field("sequence", &self.sequence)
            .finish_non_exhaustive()
    }
}

impl Datalink {
    /// Creates the datalink in its full-rate specification.
    pub fn new(world: SharedWorld, radio: SharedRadio) -> Self {
        Datalink {
            id: AppId::new("datalink"),
            spec: SpecId::new(DL_FULL),
            world,
            radio,
            halted: false,
            sequence: 0,
        }
    }

    /// Telemetry frames transmitted so far.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }
}

impl ReconfigurableApp for Datalink {
    fn id(&self) -> &AppId {
        &self.id
    }

    fn current_spec(&self) -> SpecId {
        self.spec.clone()
    }

    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        if self.spec.is_off() {
            return Ok(());
        }
        let full_rate = self.spec.as_str() == DL_FULL;
        ctx.consume(Ticks::new(if full_rate { 20 } else { 5 }));
        if !full_rate && !ctx.frame.is_multiple_of(4) {
            return Ok(());
        }
        if *self.radio.lock().expect("radio") == RadioState::Failed {
            // Radio silent: nothing leaves the aircraft. Report the
            // condition so the health monitor sees a software-visible
            // fault.
            return Err("datalink radio failed; telemetry not transmitted".into());
        }
        let state = self.world.lock().expect("plant").aircraft.state();
        self.sequence += 1;
        ctx.stable.stage_u64("seq", self.sequence);
        ctx.stable
            .stage_f64("telemetry_altitude", state.altitude_ft);
        ctx.stable.stage_f64("telemetry_heading", state.heading_deg);
        Ok(())
    }

    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.halted = true;
        ctx.stable.stage_str("state", "halted");
        Ok(())
    }

    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        ctx.stable.stage_str("prepared_for", target.as_str());
        Ok(())
    }

    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.spec = target.clone();
        self.halted = false;
        ctx.stable.stage_str("state", "running");
        Ok(())
    }

    fn postcondition_established(&self) -> bool {
        self.halted
    }

    fn precondition_established(&self, spec: &SpecId) -> bool {
        !self.halted && self.spec == *spec
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

/// The flight-data recorder: consumes the datalink's published telemetry
/// (via the stable-storage blackboard) and counts records.
#[derive(Clone)]
pub struct Recorder {
    id: AppId,
    datalink_id: AppId,
    spec: SpecId,
    halted: bool,
    records: u64,
    last_seq: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("spec", &self.spec)
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates the recorder in its full specification.
    pub fn new() -> Self {
        Recorder {
            id: AppId::new("recorder"),
            datalink_id: AppId::new("datalink"),
            spec: SpecId::new(FDR_FULL),
            halted: false,
            records: 0,
            last_seq: 0,
        }
    }

    /// Telemetry records captured so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl ReconfigurableApp for Recorder {
    fn id(&self) -> &AppId {
        &self.id
    }

    fn current_spec(&self) -> SpecId {
        self.spec.clone()
    }

    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        if self.spec.is_off() {
            return Ok(());
        }
        ctx.consume(Ticks::new(5));
        if let Some(dl) = ctx.inputs.app(&self.datalink_id) {
            if let Some(seq) = dl.get_u64("seq") {
                if seq > self.last_seq {
                    self.last_seq = seq;
                    self.records += 1;
                    ctx.stable.stage_u64("records", self.records);
                }
            }
        }
        Ok(())
    }

    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.halted = true;
        ctx.stable.stage_str("state", "halted");
        Ok(())
    }

    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        ctx.stable.stage_str("prepared_for", target.as_str());
        Ok(())
    }

    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.spec = target.clone();
        self.halted = false;
        ctx.stable.stage_str("state", "running");
        Ok(())
    }

    fn postcondition_established(&self) -> bool {
        self.halted
    }

    fn precondition_established(&self, spec: &SpecId) -> bool {
        !self.halted && self.spec == *spec
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

/// Builds the extended four-application reconfiguration specification.
///
/// Configurations:
///
/// - **`full-ops`** — everything at full service across three computers;
/// - **`reduced-ops`** — one alternator: flight applications share one
///   computer at degraded service, datalink drops to low rate;
/// - **`comms-out`** — radio failed on full power: flight services stay
///   full, the datalink is off, the recorder keeps recording locally;
/// - **`minimal-ops`** — battery only: direct law, everything else off
///   (the safe configuration).
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn extended_uav_spec() -> Result<ReconfigSpec, SpecError> {
    build_spec(None)
}

/// The extended specification minus the `reduced-ops -> minimal-ops`
/// transition: the extended instantiation's **negative-control
/// fixture**. The choice function still selects `minimal-ops` from
/// `reduced-ops` on battery power, so `covering_txns` must report the
/// missing transition.
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn extended_negative_control_spec() -> Result<ReconfigSpec, SpecError> {
    build_spec(Some(("reduced-ops", "minimal-ops")))
}

fn build_spec(skip_transition: Option<(&str, &str)>) -> Result<ReconfigSpec, SpecError> {
    let t = Ticks::new(1200); // generous: 3 init waves under phase-checked
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("electrical", ["both", "one", "battery"])
        .env_factor("radio", ["ok", "degraded", "failed"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new(crate::FCS_PRIMARY).compute(Ticks::new(40)))
                .spec(FunctionalSpec::new(crate::FCS_DIRECT).compute(Ticks::new(15))),
        )
        .app(
            AppDecl::new("autopilot")
                .spec(FunctionalSpec::new(crate::AP_PRIMARY).compute(Ticks::new(40)))
                .spec(FunctionalSpec::new(crate::AP_ALT_HOLD).compute(Ticks::new(15)))
                .depends_on("fcs"),
        )
        .app(
            AppDecl::new("datalink")
                .spec(FunctionalSpec::new(DL_FULL).compute(Ticks::new(20)))
                .spec(FunctionalSpec::new(DL_LOW_RATE).compute(Ticks::new(5)))
                .depends_on("fcs"),
        )
        .app(
            AppDecl::new("recorder")
                .spec(FunctionalSpec::new(FDR_FULL).compute(Ticks::new(5)))
                .depends_on("datalink"),
        )
        .config(
            Configuration::new("full-ops")
                .describe("full power, radio nominal; three computers")
                .assign("fcs", crate::FCS_PRIMARY)
                .assign("autopilot", crate::AP_PRIMARY)
                .assign("datalink", DL_FULL)
                .assign("recorder", FDR_FULL)
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1))
                .place("datalink", ProcessorId::new(2))
                .place("recorder", ProcessorId::new(2)),
        )
        .config(
            Configuration::new("reduced-ops")
                .describe("one alternator; flight apps share a computer")
                .assign("fcs", crate::FCS_DIRECT)
                .assign("autopilot", crate::AP_ALT_HOLD)
                .assign("datalink", DL_LOW_RATE)
                .assign("recorder", FDR_FULL)
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(0))
                .place("datalink", ProcessorId::new(2))
                .place("recorder", ProcessorId::new(2)),
        )
        .config(
            Configuration::new("comms-out")
                .describe("radio failed; full flight services, datalink off")
                .assign("fcs", crate::FCS_PRIMARY)
                .assign("autopilot", crate::AP_PRIMARY)
                .assign("datalink", "off")
                .assign("recorder", FDR_FULL)
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1))
                .place("recorder", ProcessorId::new(2)),
        )
        .config(
            Configuration::new("minimal-ops")
                .describe("battery only; direct law, everything else off")
                .assign("fcs", crate::FCS_DIRECT)
                .assign("autopilot", "off")
                .assign("datalink", "off")
                .assign("recorder", "off")
                .place("fcs", ProcessorId::new(0))
                .safe(),
        );
    let configs = ["full-ops", "reduced-ops", "comms-out", "minimal-ops"];
    for from in configs {
        for to in configs {
            if from != to && skip_transition != Some((from, to)) {
                b = b.transition(from, to, t);
            }
        }
    }
    b
        // Ordered rules: power dominates; the radio matters only on full
        // power.
        .choose_when("electrical", "battery", "minimal-ops")
        .choose_when("electrical", "one", "reduced-ops")
        .choose_when("radio", "failed", "comms-out")
        .choose_rule(ChooseRule::any_from("full-ops"))
        .initial_config("full-ops")
        .initial_env([("electrical", "both"), ("radio", "ok")])
        .min_dwell_frames(8)
        .build()
}

/// The assembled extended UAV system.
pub struct ExtendedUavSystem {
    system: System,
    world: SharedWorld,
    radio: SharedRadio,
    ap_controls: SharedApControls,
}

impl std::fmt::Debug for ExtendedUavSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtendedUavSystem")
            .field("frame", &self.system.frame())
            .field("config", self.system.current_config())
            .finish_non_exhaustive()
    }
}

impl ExtendedUavSystem {
    /// Builds the system with phase-checked synchronization (the
    /// dependency chain is the point of this example).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from system assembly.
    pub fn new() -> Result<Self, SystemError> {
        let spec = extended_uav_spec().expect("extended spec is valid");
        let dt_s = spec.frame_len().raw() as f64 / 1000.0;
        let world: SharedWorld = Arc::new(Mutex::new(SimWorld {
            aircraft: Aircraft::new(AircraftState::cruise(6000.0, 45.0), dt_s),
            sensors: SensorSuite::ideal(),
            electrical: ElectricalSystem::new(),
            surfaces: ControlSurfaces::centered(),
            pilot: PilotInput {
                pitch: 0.0,
                roll: 0.0,
                throttle: 0.5,
            },
        }));
        let radio: SharedRadio = Arc::default();
        let ap_controls: SharedApControls = Arc::default();

        let monitor_world = world.clone();
        let monitor_radio = radio.clone();
        let monitor = arfs_core::environment::FnMonitor::new("power-and-radio", move |_| {
            vec![
                (
                    "electrical".to_string(),
                    monitor_world
                        .lock()
                        .expect("plant")
                        .electrical
                        .env_value()
                        .to_string(),
                ),
                (
                    "radio".to_string(),
                    monitor_radio.lock().expect("radio").env_value().to_string(),
                ),
            ]
        });

        let system = System::builder(spec)
            .kernel(KernelConfig {
                sync: SyncPolicy::PhaseChecked,
                ..KernelConfig::default()
            })
            .monitor(Box::new(monitor))
            .app(Box::new(FlightControl::new(world.clone())))
            .app(Box::new(Autopilot::new(world.clone(), ap_controls.clone())))
            .app(Box::new(Datalink::new(world.clone(), radio.clone())))
            .app(Box::new(Recorder::new()))
            .build()?;

        Ok(ExtendedUavSystem {
            system,
            world,
            radio,
            ap_controls,
        })
    }

    /// The underlying reconfigurable system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Shared handle to the physical world.
    pub fn world(&self) -> SharedWorld {
        self.world.clone()
    }

    /// Engages the autopilot.
    pub fn engage_autopilot(&mut self) {
        self.ap_controls.lock().expect("autopilot controls").engage = true;
    }

    /// Fails alternator `1` or `2`.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not `1` or `2`.
    pub fn fail_alternator(&mut self, which: u8) {
        self.world
            .lock()
            .expect("plant")
            .electrical
            .fail_alternator(which);
    }

    /// Repairs alternator `1` or `2`.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not `1` or `2`.
    pub fn repair_alternator(&mut self, which: u8) {
        self.world
            .lock()
            .expect("plant")
            .electrical
            .repair_alternator(which);
    }

    /// Sets the radio state.
    pub fn set_radio(&mut self, state: RadioState) {
        *self.radio.lock().expect("radio") = state;
    }

    /// Runs one frame of the platform and the world.
    pub fn run_frame(&mut self) {
        self.system.run_frame();
        let mut world = self.world.lock().expect("plant");
        let dt = world.aircraft.dt_s();
        let surfaces = world.surfaces;
        world.aircraft.step(&surfaces);
        world.electrical.step(dt);
    }

    /// Runs `n` frames.
    pub fn run_frames(&mut self, n: u64) {
        for _ in 0..n {
            self.run_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arfs_core::analysis;
    use arfs_core::properties;
    use arfs_core::spec::dependency_depths;
    use arfs_core::trace::ReconfSt;
    use arfs_core::ConfigId;

    #[test]
    fn extended_spec_discharges_all_obligations() {
        let spec = extended_uav_spec().unwrap();
        let report = analysis::check_obligations(&spec);
        assert!(report.all_passed(), "{report}");
        assert_eq!(spec.apps().len(), 4);
        assert_eq!(spec.configs().len(), 4);
        // 4 configs x 9 env states all covered.
        assert_eq!(spec.env_model().state_count(), 9);
    }

    #[test]
    fn dependency_chain_has_three_waves() {
        let spec = extended_uav_spec().unwrap();
        let depths = dependency_depths(spec.apps());
        assert_eq!(depths[&AppId::new("fcs")], 0);
        assert_eq!(depths[&AppId::new("autopilot")], 1);
        assert_eq!(depths[&AppId::new("datalink")], 1);
        assert_eq!(depths[&AppId::new("recorder")], 2);
    }

    #[test]
    fn telemetry_pipeline_flows_end_to_end() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(20);
        let dl = uav.system().app_stable(&AppId::new("datalink")).unwrap();
        let seq = dl.get_u64("seq").unwrap();
        assert!(seq >= 18, "datalink transmitted {seq} frames");
        let fdr = uav.system().app_stable(&AppId::new("recorder")).unwrap();
        let records = fdr.get_u64("records").unwrap();
        // One-frame blackboard latency: recorder trails by a frame or so.
        assert!(records >= seq - 2, "recorder captured {records}/{seq}");
    }

    #[test]
    fn alternator_failure_degrades_with_three_init_waves() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(10);
        uav.fail_alternator(1);
        uav.run_frames(12);
        assert_eq!(uav.system().current_config(), &ConfigId::new("reduced-ops"));
        let trace = uav.system().trace();
        let r = trace.get_reconfigs()[0];
        // 1 trigger + 1 halt + 1 prepare + 3 init waves = 6 cycles.
        assert_eq!(r.cycles(), 6);
        // Wave order visible in the trace: fcs initializes first, the
        // recorder last.
        let wave1 = trace.state(r.end_c - 2).unwrap();
        assert_eq!(
            wave1.apps[&AppId::new("fcs")].reconf_st,
            ReconfSt::Initializing
        );
        assert_eq!(
            wave1.apps[&AppId::new("recorder")].reconf_st,
            ReconfSt::Prepared
        );
        let wave2 = trace.state(r.end_c - 1).unwrap();
        assert_eq!(
            wave2.apps[&AppId::new("datalink")].reconf_st,
            ReconfSt::Initializing
        );
        let report = properties::check_extended(trace, uav.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn radio_failure_moves_to_comms_out_keeping_flight_services() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.engage_autopilot();
        uav.run_frames(10);
        uav.set_radio(RadioState::Failed);
        uav.run_frames(12);
        assert_eq!(uav.system().current_config(), &ConfigId::new("comms-out"));
        let last = uav.system().trace().states().last().unwrap();
        assert!(last.apps[&AppId::new("datalink")].spec.is_off());
        assert_eq!(
            last.apps[&AppId::new("fcs")].spec.as_str(),
            crate::FCS_PRIMARY
        );
        let report = properties::check_extended(uav.system().trace(), uav.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn power_dominates_radio_in_the_choice_order() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(10);
        uav.set_radio(RadioState::Failed);
        uav.fail_alternator(1); // both changes land together
        uav.run_frames(12);
        // electrical=one outranks radio=failed.
        assert_eq!(uav.system().current_config(), &ConfigId::new("reduced-ops"));
    }

    #[test]
    fn compound_failure_cascade_ends_safe() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(10);
        uav.set_radio(RadioState::Failed);
        uav.run_frames(15); // comms-out
        uav.fail_alternator(1);
        uav.run_frames(15); // reduced-ops
        uav.fail_alternator(2);
        uav.run_frames(15); // minimal-ops
        assert_eq!(uav.system().current_config(), &ConfigId::new("minimal-ops"));
        assert_eq!(uav.system().trace().get_reconfigs().len(), 3);
        let report = properties::check_extended(uav.system().trace(), uav.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn radio_failure_in_dl_full_reports_software_fault_until_reconfigured() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(5);
        uav.set_radio(RadioState::Failed);
        uav.run_frames(12);
        // Before the reconfiguration turned it off, the datalink reported
        // transmit failures.
        assert!(uav.system().journal().of_kind("stage-error").any(|e| e
            .payload
            .get("app")
            .and_then(|v| v.as_str())
            == Some("datalink")));
    }

    #[test]
    fn low_rate_datalink_transmits_every_fourth_frame() {
        let mut uav = ExtendedUavSystem::new().unwrap();
        uav.run_frames(10);
        uav.fail_alternator(1);
        uav.run_frames(12);
        assert_eq!(uav.system().current_config(), &ConfigId::new("reduced-ops"));
        let seq_before = uav
            .system()
            .app_stable(&AppId::new("datalink"))
            .unwrap()
            .get_u64("seq")
            .unwrap();
        uav.run_frames(16);
        let seq_after = uav
            .system()
            .app_stable(&AppId::new("datalink"))
            .unwrap()
            .get_u64("seq")
            .unwrap();
        let sent = seq_after - seq_before;
        assert!((3..=5).contains(&sent), "low rate sent {sent} in 16 frames");
    }

    #[test]
    fn extended_spec_supports_compressed_stages_too() {
        use arfs_core::scram::StagePolicy;
        use arfs_core::system::System;
        let spec = extended_uav_spec().unwrap();
        let mut system = System::builder(spec)
            .kernel(KernelConfig {
                stage: StagePolicy::CompressedPrepareInit,
                ..KernelConfig::default()
            })
            .build()
            .unwrap();
        system.run_frames(10);
        system.set_env("electrical", "one").unwrap();
        system.run_frames(10);
        assert_eq!(system.current_config(), &ConfigId::new("reduced-ops"));
        let r = system.trace().get_reconfigs()[0];
        assert_eq!(r.cycles(), 3); // trigger + halt + prepare-initialize
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn verification_pipeline_passes_on_extended_spec() {
        use arfs_core::verify::{verify_spec, VerifyOptions};
        let spec = extended_uav_spec().unwrap();
        let report = verify_spec(
            &spec,
            &VerifyOptions {
                horizon: 26,
                max_events: 1,
                threads: 4,
                mutation_screen: false, // screened separately; keep CI fast
            },
        );
        assert!(report.is_verified(), "{report}");
    }
}
