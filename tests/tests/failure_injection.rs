//! Failure-injection integration tests: processor fail-stops, lane
//! divergence in self-checking pairs, application stage faults, timing
//! overruns, and spare exhaustion — each observed end to end through the
//! platform stack.

use arfs_core::prelude::*;
use arfs_core::properties;
use arfs_failstop::{FaultPlan, PairOutcome, Program, SelfCheckingPair};

fn proc_spec() -> ReconfigSpec {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("processor-1", ["up", "down"])
        .app(
            AppDecl::new("primary")
                .spec(FunctionalSpec::new("active"))
                .spec(FunctionalSpec::new("standby")),
        )
        .app(
            AppDecl::new("shadow")
                .spec(FunctionalSpec::new("active"))
                .spec(FunctionalSpec::new("standby")),
        )
        .config(
            Configuration::new("duplex")
                .assign("primary", "active")
                .assign("shadow", "standby")
                .place("primary", ProcessorId::new(1))
                .place("shadow", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("simplex")
                .assign("primary", "off")
                .assign("shadow", "active")
                .place("shadow", ProcessorId::new(0))
                .safe(),
        )
        .transition("duplex", "simplex", Ticks::new(800))
        .transition("simplex", "duplex", Ticks::new(800))
        .choose_when("processor-1", "down", "simplex")
        .choose_when("processor-1", "up", "duplex")
        .initial_config("duplex")
        .initial_env([("processor-1", "up")])
        .min_dwell_frames(2)
        .build()
        .unwrap()
}

#[test]
fn processor_failure_triggers_failover_reconfiguration() {
    let mut system = System::builder(proc_spec()).build().unwrap();
    system.run_frames(5);
    system.fail_processor(ProcessorId::new(1));
    system.run_frames(10);

    // The membership-derived environment factor flipped and the SCRAM
    // moved the system to simplex.
    assert_eq!(system.current_config(), &ConfigId::new("simplex"));
    let journal = system.journal();
    assert!(journal
        .of_kind("fault-injected")
        .any(|e| e.payload.get("processor") == Some(&serde_json::Value::U64(1))));
    assert!(journal
        .of_kind("app-lost")
        .any(|e| e.payload.get("app").and_then(|v| v.as_str()) == Some("primary")));
    let report = properties::check_extended(system.trace(), system.spec());
    assert!(report.is_ok(), "{report}");
    // The primary is off in the new configuration.
    let last = system.trace().states().last().unwrap();
    assert!(last.apps[&AppId::new("primary")].spec.is_off());
}

#[test]
fn failure_storm_exhausts_then_recovers() {
    // Fail the processor, reconfigure to simplex, then observe the
    // system stays there (the dead processor never reports up again).
    let mut system = System::builder(proc_spec()).build().unwrap();
    system.run_frames(3);
    system.fail_processor(ProcessorId::new(1));
    system.run_frames(30);
    assert_eq!(system.current_config(), &ConfigId::new("simplex"));
    let post_failover_reconfigs = system.trace().get_reconfigs().len();
    system.run_frames(30);
    assert_eq!(
        system.trace().get_reconfigs().len(),
        post_failover_reconfigs,
        "no oscillation after failover"
    );
}

#[test]
fn self_checking_pair_masks_value_faults_as_fail_stop() {
    let mut pair = SelfCheckingPair::new(arfs_failstop::ProcessorId::new(7));
    let mut program = Program::new("guidance");
    program.push("integrate", |ctx| {
        let x = ctx.stable.get_u64("x").unwrap_or(0);
        ctx.stable.stage_u64("x", x + 1);
        Ok(())
    });
    // Ten healthy frames.
    for _ in 0..10 {
        assert_eq!(pair.run(&program), PairOutcome::Completed);
    }
    // A value-domain fault in one lane at instruction 11.
    let mut plan = FaultPlan::none();
    plan.add_lane_corruption(11);
    pair.set_fault_plan(plan);
    let outcome = pair.run(&program);
    assert!(matches!(outcome, PairOutcome::Divergence(_)), "{outcome:?}");
    // Fail-stop semantics held: the corrupt instruction left no trace.
    assert_eq!(pair.stable().get_u64("x"), Some(10));
}

#[derive(Clone)]
struct FlakyApp {
    inner: NullApp,
    fail_frames: Vec<u64>,
}

impl arfs_core::app::ReconfigurableApp for FlakyApp {
    fn id(&self) -> &AppId {
        self.inner.id()
    }
    fn current_spec(&self) -> SpecId {
        self.inner.current_spec()
    }
    fn run_normal(&mut self, ctx: &mut arfs_core::app::AppContext<'_>) -> Result<(), String> {
        if self.fail_frames.contains(&ctx.frame) {
            return Err(format!("transient software fault at frame {}", ctx.frame));
        }
        self.inner.run_normal(ctx)
    }
    fn halt(&mut self, ctx: &mut arfs_core::app::AppContext<'_>) -> Result<(), String> {
        self.inner.halt(ctx)
    }
    fn prepare(
        &mut self,
        ctx: &mut arfs_core::app::AppContext<'_>,
        t: &SpecId,
    ) -> Result<(), String> {
        self.inner.prepare(ctx, t)
    }
    fn initialize(
        &mut self,
        ctx: &mut arfs_core::app::AppContext<'_>,
        t: &SpecId,
    ) -> Result<(), String> {
        self.inner.initialize(ctx, t)
    }
    fn postcondition_established(&self) -> bool {
        self.inner.postcondition_established()
    }
    fn precondition_established(&self, s: &SpecId) -> bool {
        self.inner.precondition_established(s)
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

#[test]
fn application_stage_errors_surface_as_health_events() {
    let spec = proc_spec();
    let mut system = System::builder(spec)
        .app(Box::new(FlakyApp {
            inner: NullApp::new("primary", "active"),
            fail_frames: vec![3, 4],
        }))
        .app(Box::new(NullApp::new("shadow", "standby")))
        .build()
        .unwrap();
    system.run_frames(6);
    let errors = system
        .journal()
        .of_kind("stage-error")
        .filter(|e| e.payload.get("app").and_then(|v| v.as_str()) == Some("primary"))
        .count();
    assert_eq!(errors, 2);
}
