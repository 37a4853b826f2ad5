//! `arfs-lint` — the static-analysis driver for reconfiguration
//! specifications.
//!
//! ```sh
//! cargo run -p arfs-bench --bin arfs-lint -- avionics
//! cargo run -p arfs-bench --bin arfs-lint -- extended --deny-warnings
//! cargo run -p arfs-bench --bin arfs-lint -- path/to/spec.json --format json
//! cargo run -p arfs-bench --bin arfs-lint -- independence avionics --write results/independence_avionics.json
//! cargo run -p arfs-bench --bin arfs-lint -- independence avionics --check results/independence_avionics.json
//! cargo run -p arfs-bench --bin arfs-lint -- reach extended
//! ```
//!
//! The spec selector is one of the built-in instantiations (`avionics`,
//! `extended`, and their deliberately broken `-broken` negative
//! controls) or a path to a JSON file containing either a bare
//! `ReconfigSpec` or a `{"spec": ..., "assembly": ...}` fixture.
//!
//! Besides the default lint run, two subcommands expose the analyses
//! behind the diagnostics:
//!
//! - `independence <spec>` prints the choice-equivalence classes,
//!   interference graph, and certified commuting pairs. `--write PATH`
//!   stores the content-hashed [`IndependenceCertificate`] artifact;
//!   `--check PATH` re-derives the certificate and exits `1` if the
//!   stored artifact differs (stale spec hash or drifted analysis) —
//!   the CI freshness gate.
//! - `reach <spec>` prints the naive vs refined reachability of every
//!   configuration and the refined edge relation.
//!
//! Exit codes: `0` clean, `1` errors reported (or a stale certificate
//! under `--check`), `2` warnings reported under `--deny-warnings`,
//! `3` usage or load error.

use std::process::ExitCode;

use arfs_core::lint::independence::spec_content_hash;
use arfs_core::lint::reach::ReachAnalysis;
use arfs_core::lint::{Assembly, IndependenceCertificate, LintEngine, LintReport, LintTarget};
use arfs_core::spec::ReconfigSpec;

const USAGE: &str = "\
usage: arfs-lint <spec> [--format text|json] [--deny-warnings] [--spec-only]
       arfs-lint independence <spec> [--format text|json] [--write PATH] [--check PATH]
       arfs-lint reach <spec> [--format text|json]

  <spec>            avionics | extended | avionics-broken | extended-broken
                    | a path to a JSON spec or {\"spec\", \"assembly\"} fixture
  --format FORMAT   output format: text (rustc-style, default) or json
  --deny-warnings   exit 2 if any warning is reported
  --spec-only       skip assembly derivation; run spec-level passes only
  --write PATH      (independence) write the certificate artifact to PATH
  --check PATH      (independence) exit 1 unless PATH holds the exact
                    certificate this spec derives to (CI freshness gate)";

#[derive(Debug)]
enum Format {
    Text,
    Json,
}

#[derive(Debug, PartialEq)]
enum Command {
    Lint,
    Independence,
    Reach,
}

struct Options {
    command: Command,
    selector: String,
    format: Format,
    deny_warnings: bool,
    spec_only: bool,
    write: Option<String>,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut format = Format::Text;
    let mut deny_warnings = false;
    let mut spec_only = false;
    let mut write = None;
    let mut check = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format requires a value")?;
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--deny-warnings" => deny_warnings = true,
            "--spec-only" => spec_only = true,
            "--write" => {
                write = Some(it.next().ok_or("--write requires a path")?.to_string());
            }
            "--check" => {
                check = Some(it.next().ok_or("--check requires a path")?.to_string());
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => positionals.push(positional.to_string()),
        }
    }
    let (command, selector) = match positionals.first().map(String::as_str) {
        Some("independence") | Some("reach") => {
            let command = if positionals[0] == "independence" {
                Command::Independence
            } else {
                Command::Reach
            };
            if positionals.len() != 2 {
                return Err(format!(
                    "`{}` expects exactly one spec selector",
                    positionals[0]
                ));
            }
            (command, positionals[1].clone())
        }
        Some(_) if positionals.len() == 1 => (Command::Lint, positionals[0].clone()),
        Some(_) => return Err("expected exactly one spec selector".into()),
        None => return Err("expected a spec selector".into()),
    };
    if command != Command::Independence && (write.is_some() || check.is_some()) {
        return Err("--write/--check only apply to the `independence` subcommand".into());
    }
    Ok(Options {
        command,
        selector,
        format,
        deny_warnings,
        spec_only,
        write,
        check,
    })
}

/// A spec plus an optional pre-built assembly, as loaded from disk.
struct Loaded {
    spec: ReconfigSpec,
    assembly: Option<Assembly>,
}

fn load(selector: &str) -> Result<Loaded, String> {
    let builtin = |r: Result<ReconfigSpec, arfs_core::SpecError>| {
        r.map(|spec| Loaded {
            spec,
            assembly: None,
        })
        .map_err(|e| format!("builtin spec failed to build: {e}"))
    };
    match selector {
        "avionics" => builtin(arfs_avionics::avionics_spec()),
        "extended" => builtin(arfs_avionics::extended::extended_uav_spec()),
        "avionics-broken" => builtin(arfs_avionics::negative_control_spec()),
        "extended-broken" => builtin(arfs_avionics::extended::extended_negative_control_spec()),
        path => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_fixture(&body).map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
    }
}

/// Parses either a `{"spec": ..., "assembly": ...}` fixture or a bare
/// `ReconfigSpec` document.
fn parse_fixture(body: &str) -> Result<Loaded, String> {
    #[derive(serde::Deserialize)]
    struct Fixture {
        spec: ReconfigSpec,
        #[serde(default)]
        assembly: Option<Assembly>,
    }
    match serde_json::from_str::<Fixture>(body) {
        Ok(f) => Ok(Loaded {
            spec: f.spec,
            assembly: f.assembly,
        }),
        Err(fixture_err) => serde_json::from_str::<ReconfigSpec>(body)
            .map(|spec| Loaded {
                spec,
                assembly: None,
            })
            .map_err(|spec_err| format!("as fixture: {fixture_err}; as bare spec: {spec_err}")),
    }
}

fn run(opts: &Options, loaded: &Loaded) -> LintReport {
    let engine = LintEngine::new();
    if opts.spec_only {
        return engine.run(&LintTarget::spec_only(&loaded.spec));
    }
    let derived;
    let assembly = match &loaded.assembly {
        Some(a) => Some(a),
        None => match Assembly::derive(&loaded.spec) {
            Ok(a) => {
                derived = a;
                Some(&derived)
            }
            Err(_) => None,
        },
    };
    match assembly {
        Some(a) => engine.run(&LintTarget::assembled(&loaded.spec, a)),
        None => engine.run(&LintTarget::spec_only(&loaded.spec)),
    }
}

/// The `independence` subcommand: render or persist the certificate,
/// or gate on an existing artifact's freshness.
fn run_independence(opts: &Options, spec: &ReconfigSpec) -> ExitCode {
    let certificate = IndependenceCertificate::build(spec);
    if let Some(path) = &opts.check {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(e) => {
                eprintln!("error: cannot read certificate `{path}`: {e}");
                return ExitCode::from(3);
            }
        };
        let stored: IndependenceCertificate = match serde_json::from_str(&body) {
            Ok(stored) => stored,
            Err(e) => {
                eprintln!("error: cannot parse certificate `{path}`: {e}");
                return ExitCode::from(3);
            }
        };
        if stored != certificate {
            if stored.spec_hash != certificate.spec_hash {
                eprintln!(
                    "stale certificate: `{path}` was derived from spec {}, but the spec now \
                     hashes to {} — regenerate with `arfs-lint independence {} --write {path}`",
                    stored.spec_hash,
                    spec_content_hash(spec),
                    opts.selector
                );
            } else {
                eprintln!(
                    "stale certificate: `{path}` matches the spec hash but not the analysis — \
                     regenerate with `arfs-lint independence {} --write {path}`",
                    opts.selector
                );
            }
            return ExitCode::from(1);
        }
        println!(
            "certificate `{path}` is fresh (spec {})",
            certificate.spec_hash
        );
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &opts.write {
        let json = match serde_json::to_string_pretty(&certificate) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: cannot serialize certificate: {e}");
                return ExitCode::from(3);
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: cannot write `{path}`: {e}");
            return ExitCode::from(3);
        }
        println!(
            "wrote certificate for spec {} to `{path}`",
            certificate.spec_hash
        );
        return ExitCode::SUCCESS;
    }
    match opts.format {
        Format::Text => println!("{}", certificate.render()),
        Format::Json => match serde_json::to_string_pretty(&certificate) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize certificate: {e}");
                return ExitCode::from(3);
            }
        },
    }
    ExitCode::SUCCESS
}

/// The `reach` subcommand: render the naive/refined reachability.
fn run_reach(opts: &Options, spec: &ReconfigSpec) -> ExitCode {
    let analysis = ReachAnalysis::compute(spec);
    match opts.format {
        Format::Text => println!("{}", analysis.render(spec)),
        Format::Json => match serde_json::to_string_pretty(&analysis) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize analysis: {e}");
                return ExitCode::from(3);
            }
        },
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(3);
        }
    };
    let loaded = match load(&opts.selector) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(3);
        }
    };

    match opts.command {
        Command::Independence => return run_independence(&opts, &loaded.spec),
        Command::Reach => return run_reach(&opts, &loaded.spec),
        Command::Lint => {}
    }

    let report = run(&opts, &loaded);
    match opts.format {
        Format::Text => println!("{}", report.render()),
        Format::Json => match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize report: {e}");
                return ExitCode::from(3);
            }
        },
    }

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    if errors > 0 {
        ExitCode::from(1)
    } else if warnings > 0 && opts.deny_warnings {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
