//! Dependency-aware reconfiguration: the §6.3 phase-checked extension.
//!
//! ```sh
//! cargo run --example dependency_waves
//! ```
//!
//! A three-application pipeline (`sensor -> filter -> actuator`, each
//! depending on the previous) reconfigures under both synchronization
//! policies:
//!
//! - **Simultaneous** (Table 1): all applications initialize together —
//!   3 protocol phases, 4 cycles total;
//! - **PhaseChecked** (§6.3): "only after that phase is complete would
//!   the SCRAM signal the dependent application to begin its next stage"
//!   — initialization runs in dependency waves, 6 cycles total, and the
//!   trace shows each wave.

use arfs::core::model::ModelChecker;
use arfs::core::prelude::*;
use arfs::core::properties;
use arfs::core::scram::{KernelConfig, SyncPolicy};

fn pipeline_spec() -> Result<ReconfigSpec, SpecError> {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(50))
        .env_factor("load", ["normal", "high"])
        .app(
            AppDecl::new("sensor")
                .spec(FunctionalSpec::new("fast"))
                .spec(FunctionalSpec::new("slow")),
        )
        .app(
            AppDecl::new("filter")
                .spec(FunctionalSpec::new("fir"))
                .spec(FunctionalSpec::new("passthrough"))
                .depends_on("sensor"),
        )
        .app(
            AppDecl::new("actuator")
                .spec(FunctionalSpec::new("smooth"))
                .spec(FunctionalSpec::new("raw"))
                .depends_on("filter"),
        )
        .config(
            Configuration::new("quality")
                .assign("sensor", "fast")
                .assign("filter", "fir")
                .assign("actuator", "smooth")
                .place("sensor", ProcessorId::new(0))
                .place("filter", ProcessorId::new(1))
                .place("actuator", ProcessorId::new(2)),
        )
        .config(
            Configuration::new("throughput")
                .assign("sensor", "slow")
                .assign("filter", "passthrough")
                .assign("actuator", "raw")
                .place("sensor", ProcessorId::new(0))
                .place("filter", ProcessorId::new(0))
                .place("actuator", ProcessorId::new(0))
                .safe(),
        )
        .transition("quality", "throughput", Ticks::new(600))
        .transition("throughput", "quality", Ticks::new(600))
        .choose_when("load", "high", "throughput")
        .choose_when("load", "normal", "quality")
        .initial_config("quality")
        .initial_env([("load", "normal")])
        .min_dwell_frames(4)
        .build()
}

fn run_with(policy: SyncPolicy) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- policy: {policy:?} ---");
    let spec = pipeline_spec()?;
    let mut system = System::builder(spec)
        .kernel(KernelConfig {
            sync: policy,
            ..KernelConfig::default()
        })
        .build()?;
    system.run_frames(5);
    system.set_env("load", "high")?;
    system.run_frames(14);

    for state in system.trace().states() {
        if state.any_reconfiguring() {
            let cells: Vec<String> = state
                .apps
                .iter()
                .map(|(app, rec)| format!("{app}={:?}", rec.reconf_st))
                .collect();
            println!("  frame {:>2}: {}", state.frame, cells.join("  "));
        }
    }
    let r = system.trace().get_reconfigs()[0];
    println!("  reconfiguration spans {} cycles", r.cycles());
    let report = properties::check_extended(system.trace(), system.spec());
    println!("  properties: {report}\n");
    assert!(report.is_ok());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_with(SyncPolicy::Simultaneous)?;
    run_with(SyncPolicy::PhaseChecked)?;

    // Both policies are exhaustively correct, not just on this schedule.
    for policy in [SyncPolicy::Simultaneous, SyncPolicy::PhaseChecked] {
        let kernel = KernelConfig {
            sync: policy,
            ..KernelConfig::default()
        };
        let report = ModelChecker::new(pipeline_spec()?, 18, 1)
            .with_kernel(kernel)
            .unwrap()
            .run();
        println!("exhaustive ({policy:?}): {report}");
        assert!(report.all_passed());
    }
    Ok(())
}
