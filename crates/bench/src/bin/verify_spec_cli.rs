//! Command-line entry to the full verification pipeline.
//!
//! ```sh
//! cargo run -p arfs-bench --bin verify_spec_cli            # the §7 avionics spec
//! cargo run -p arfs-bench --bin verify_spec_cli -- extended  # the 4-app UAV spec
//! ```
//!
//! Prints the static-obligation report PVS-style (derived from the
//! ARFS-LINT diagnostics), the lint diagnostics themselves when any
//! fire, the exhaustive model-check verdict, and the mutation screen,
//! then exits nonzero if verification fails — suitable for CI.
//!
//! The report lands in `results/verify_{avionics,extended}.json`. The
//! walk runs on one thread and the artifact keeps no wall-clock
//! metrics, so it is byte-identical run to run and host to host.

use std::process::ExitCode;

use arfs_bench::{banner, write_json};
use arfs_core::analysis;
use arfs_core::verify::{verify_spec, VerifyOptions};

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_else(|| "avionics".into());
    let (label, spec) = match which.as_str() {
        "extended" => (
            "extended UAV specification",
            arfs_avionics::extended::extended_uav_spec().expect("valid"),
        ),
        "avionics" => (
            "avionics (§7) specification",
            arfs_avionics::avionics_spec().expect("valid"),
        ),
        other => {
            eprintln!("unknown spec `{other}` (expected `avionics` or `extended`)");
            return ExitCode::FAILURE;
        }
    };

    banner(&format!("verifying the {label}"));
    println!("{}\n", analysis::check_obligations(&spec));

    let mut report = verify_spec(
        &spec,
        &VerifyOptions {
            horizon: 24,
            max_events: 1,
            threads: 1,
            mutation_screen: true,
        },
    );
    report.model_check.metrics = report.model_check.metrics.without_wall_clock();
    println!("{report}");
    if !report.lint.is_clean() {
        println!("\n{}", report.lint.render());
    }
    for m in &report.mutations {
        println!(
            "  [{}] {} caught by {}",
            if m.caught { "ok" } else { "MISSED" },
            m.mutation,
            m.property
        );
    }

    let path = write_json(&format!("verify_{which}.json"), &report);
    println!("\nartifact: {}", path.display());

    if report.is_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
