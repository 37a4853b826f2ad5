//! `arfs-trace` — shell access to observability journals.
//!
//! ```sh
//! cargo run -p arfs-bench --bin arfs-trace -- summarize results/fig1_architecture.journal.jsonl
//! cargo run -p arfs-bench --bin arfs-trace -- grep results/run.jsonl --kind phase-entered
//! cargo run -p arfs-bench --bin arfs-trace -- diff results/a.jsonl results/b.jsonl
//! cargo run -p arfs-bench --bin arfs-trace -- explain results/counterexample_skip-init.json
//! cargo run -p arfs-bench --bin arfs-trace -- fleet top results/exp_fleet.journal.bin
//! cargo run -p arfs-bench --bin arfs-trace -- fleet triage results/triage_forced.json
//! cargo run -p arfs-bench --bin arfs-trace -- fleet overhead results/a.json results/b.json
//! cargo run -p arfs-bench --bin arfs-trace -- fleet decode results/exp_fleet.journal.bin
//! ```
//!
//! Journals come in two encodings, sniffed by file magic: the JSON-Lines
//! interchange form written by `Journal::to_json_lines` (optionally with
//! `{"system":N,"seed":N}` section headers between per-system runs) and
//! the length-prefixed binary form the fleet's sampled cells encode
//! (`arfs_core::obs::codec`). `summarize`, `grep`, and the `fleet`
//! subcommands *stream* either encoding record by record — a 10⁵-system
//! journal is never materialized in memory. Counterexample artifacts are
//! the single-object JSON files the model checker's flight recorder
//! attaches to failing `ModelCheckReport`s; triage bundles are the fleet
//! analogue produced when a streaming verifier violation or chaos
//! defense fires.
//!
//! Exit codes: `0` success (for `diff`: journals identical), `1` diff
//! found differences, `explain` found an empty causal chain, or `fleet
//! triage` found an empty flight ring, `3` usage or load error.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

use arfs_bench::TextTable;
use arfs_core::obs::codec::{self, BinaryJournalReader, BinaryRecord};
use arfs_core::obs::{
    Counterexample, Journal, JournalEvent, JournalSummary, Subsystem, TriageBundle,
};

const USAGE: &str = "\
usage: arfs-trace <command> [args]

  summarize <journal>                  event counts by kind/subsystem, frame range
                                       (streams JSON-Lines or binary journals)
  grep <journal> --kind KIND           print events of one kind (chaos campaigns emit
      [--subsystem SUBSYSTEM]          torn-write, bus-silenced, clock-jitter,
                                       commit-retry, quarantined, safe-fallback);
                                       --subsystem restricts further
  diff <journal-a> <journal-b>         compare two journals event by event
  explain <counterexample.json>        render a model-check counterexample:
                                       minimized schedule and fault plan, timeline,
                                       causal chain highlighted
  fleet top <journal> [--limit N]      slowest-reconfiguring and most-restricted
                                       systems of a fleet journal
  fleet triage <bundle.json>           render a fleet triage bundle: flight-ring
                                       timeline with causal markers, metrics
  fleet overhead <a.json> <b.json>     compare two BENCH_fleet.json artifacts
                                       case by case
  fleet decode <journal>               re-emit a journal as JSON-Lines on stdout";

/// One record of a fleet journal stream: a per-system section header or
/// an event belonging to the most recent header.
enum Record {
    Header { system: u64, seed: u64 },
    Event(JournalEvent),
}

/// Streams either journal encoding without materializing the file.
enum RecordStream {
    Binary(BinaryJournalReader<BufReader<File>>),
    Lines {
        reader: BufReader<File>,
        line_no: usize,
    },
}

/// Opens a journal, sniffing the encoding from the first bytes.
fn open_stream(path: &str) -> Result<RecordStream, String> {
    let file = File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut reader = BufReader::new(file);
    let prefix = reader
        .fill_buf()
        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(if codec::looks_binary(prefix) {
        RecordStream::Binary(BinaryJournalReader::new(reader))
    } else {
        RecordStream::Lines { reader, line_no: 0 }
    })
}

fn parse_line(line: &str, line_no: usize) -> Result<Record, String> {
    if line.starts_with("{\"system\"") {
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if value.get("kind").is_none() {
            let system = value
                .get("system")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {line_no}: header without a system id"))?;
            let seed = value
                .get("seed")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {line_no}: header without a seed"))?;
            return Ok(Record::Header { system, seed });
        }
    }
    JournalEvent::from_json_line(line)
        .map(Record::Event)
        .map_err(|e| format!("line {line_no}: {e}"))
}

impl Iterator for RecordStream {
    type Item = Result<Record, String>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RecordStream::Binary(reader) => Some(match reader.next()? {
                Ok(BinaryRecord::System { system, seed }) => Ok(Record::Header { system, seed }),
                Ok(BinaryRecord::Event(event)) => Ok(Record::Event(event)),
                Err(e) => Err(e),
            }),
            RecordStream::Lines { reader, line_no } => loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => return None,
                    Ok(_) => {}
                    Err(e) => return Some(Err(format!("read error: {e}"))),
                }
                *line_no += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                return Some(parse_line(trimmed, *line_no));
            },
        }
    }
}

fn load(path: &str) -> Result<Journal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Journal::from_json_lines(&text).map_err(|(line, msg)| format!("`{path}` line {line}: {msg}"))
}

fn summarize(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("summarize expects exactly one journal path".into());
    };
    // Accumulate the summary record by record: a fleet journal of 10⁵
    // systems never exists in memory as a whole.
    let mut summary = JournalSummary {
        events: 0,
        first_frame: None,
        last_frame: None,
        by_kind: BTreeMap::new(),
        by_subsystem: BTreeMap::new(),
    };
    let mut sections = 0usize;
    for record in open_stream(path)? {
        match record.map_err(|e| format!("`{path}`: {e}"))? {
            Record::Header { .. } => sections += 1,
            Record::Event(event) => {
                summary.events += 1;
                summary.first_frame = Some(
                    summary
                        .first_frame
                        .map_or(event.frame, |f| f.min(event.frame)),
                );
                summary.last_frame = Some(
                    summary
                        .last_frame
                        .map_or(event.frame, |f| f.max(event.frame)),
                );
                *summary.by_kind.entry(event.kind).or_insert(0) += 1;
                *summary
                    .by_subsystem
                    .entry(event.subsystem.as_str().to_owned())
                    .or_insert(0) += 1;
            }
        }
    }
    if sections > 0 {
        println!("{sections} system sections");
    }
    print!("{summary}");
    Ok(ExitCode::SUCCESS)
}

fn grep(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut kind = None;
    let mut subsystem = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => kind = Some(it.next().ok_or("--kind requires a value")?.clone()),
            "--subsystem" => {
                let value = it.next().ok_or("--subsystem requires a value")?;
                subsystem = Some(
                    Subsystem::parse(value)
                        .ok_or_else(|| format!("unknown subsystem `{value}`"))?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if path.replace(positional.to_string()).is_some() {
                    return Err("grep expects exactly one journal path".into());
                }
            }
        }
    }
    let path = path.ok_or("grep expects a journal path")?;
    let kind = kind.ok_or("grep requires --kind")?;
    let mut shown = 0usize;
    let mut total = 0usize;
    let mut current: Option<u64> = None;
    for record in open_stream(&path)? {
        match record.map_err(|e| format!("`{path}`: {e}"))? {
            Record::Header { system, .. } => current = Some(system),
            Record::Event(event) => {
                total += 1;
                if event.kind != kind || subsystem.is_some_and(|s| s != event.subsystem) {
                    continue;
                }
                match current {
                    Some(system) => println!("system {system}: {event}"),
                    None => println!("{event}"),
                }
                shown += 1;
            }
        }
    }
    eprintln!("{shown} of {total} events matched");
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("diff expects exactly two journal paths".into());
    };
    let diff = load(a)?.diff(&load(b)?);
    print!("{diff}");
    if diff.identical() {
        println!();
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn explain(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("explain expects exactly one counterexample path".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let ce = Counterexample::from_json_str(&text).map_err(|e| format!("`{path}`: {e}"))?;

    let (case, minimized) = (&ce.case, &ce.minimized);
    let kept = ce.shrink_steps.iter().filter(|s| s.kept).count();
    println!("horizon:   {} frames", case.horizon());
    println!("original:  {}", case.events_line());
    println!(
        "minimized: {}  ({} -> {} events; {} of {} shrink attempts kept)",
        minimized.events_line(),
        case.events().len(),
        minimized.events().len(),
        kept,
        ce.shrink_steps.len(),
    );
    if !case.faults().is_empty() {
        println!("fault plan:           {}", case.faults());
        println!(
            "minimized fault plan: {}  ({} -> {} faults)",
            minimized.faults(),
            case.faults().len(),
            minimized.faults().len(),
        );
    }
    println!("violations:");
    for v in &ce.violations {
        println!("  {v}");
    }

    println!("\ntimeline of the minimized replay (»: causal-chain link):");
    for verdict in &ce.frame_verdicts {
        let events: Vec<_> = ce
            .journal
            .events()
            .iter()
            .filter(|e| e.frame == verdict.frame)
            .collect();
        let markers: String = verdict.violated.iter().map(|p| format!(" !{p}")).collect();
        if events.is_empty() && markers.is_empty() {
            continue;
        }
        println!("frame {}{}", verdict.frame, markers);
        for event in events {
            let causal = ce
                .causal_chain
                .iter()
                .any(|l| l.frame == event.frame && l.role == event.kind);
            println!("  {} {}", if causal { "»" } else { " " }, event);
        }
    }

    println!("\ncausal chain:");
    for link in &ce.causal_chain {
        if link.detail.is_empty() {
            println!("  @{} {}", link.frame, link.role);
        } else {
            println!("  @{} {} {}", link.frame, link.role, link.detail);
        }
    }
    if ce.causal_chain.is_empty() {
        eprintln!("(empty — the artifact explains nothing)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-system roll-up accumulated while streaming a fleet journal.
#[derive(Default)]
struct SystemStats {
    seed: u64,
    events: u64,
    reconfigs: u64,
    max_cycles: u64,
    total_cycles: u64,
    restricted_frames: u64,
    defenses: u64,
}

fn fleet_top(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut limit = 10usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--limit" => {
                limit = it
                    .next()
                    .ok_or("--limit requires a value")?
                    .parse()
                    .map_err(|e| format!("--limit: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if path.replace(positional.to_string()).is_some() {
                    return Err("fleet top expects exactly one journal path".into());
                }
            }
        }
    }
    let path = path.ok_or("fleet top expects a journal path")?;

    let mut stats: BTreeMap<u64, SystemStats> = BTreeMap::new();
    let mut current: Option<u64> = None;
    for record in open_stream(&path)? {
        match record.map_err(|e| format!("`{path}`: {e}"))? {
            Record::Header { system, seed } => {
                stats.entry(system).or_default().seed = seed;
                current = Some(system);
            }
            Record::Event(event) => {
                let entry = stats.entry(current.unwrap_or(0)).or_default();
                entry.events += 1;
                match event.kind.as_str() {
                    "completed" => {
                        entry.reconfigs += 1;
                        let cycles = event
                            .payload
                            .get("cycles")
                            .and_then(|v| v.as_u64())
                            .unwrap_or(0);
                        entry.max_cycles = entry.max_cycles.max(cycles);
                        entry.total_cycles += cycles;
                    }
                    "frame-end"
                        if event.payload.get("restricted").and_then(|v| v.as_bool())
                            == Some(true) =>
                    {
                        entry.restricted_frames += 1;
                    }
                    "commit-retry" | "safe-fallback" | "quarantined" => entry.defenses += 1,
                    _ => {}
                }
            }
        }
    }
    if stats.is_empty() {
        println!("empty journal: no systems, no events");
        return Ok(ExitCode::SUCCESS);
    }

    let mut by_cycles: Vec<(&u64, &SystemStats)> = stats.iter().collect();
    by_cycles.sort_by_key(|(id, s)| (std::cmp::Reverse(s.max_cycles), **id));
    println!("slowest reconfigurations (by worst-case cycles):");
    let mut table = TextTable::new(["system", "seed", "reconfigs", "max cycles", "total cycles"]);
    for (id, s) in by_cycles.iter().take(limit) {
        table.row([
            id.to_string(),
            format!("{:#x}", s.seed),
            s.reconfigs.to_string(),
            s.max_cycles.to_string(),
            s.total_cycles.to_string(),
        ]);
    }
    println!("{table}");

    let mut by_restricted: Vec<(&u64, &SystemStats)> = stats.iter().collect();
    by_restricted.sort_by_key(|(id, s)| (std::cmp::Reverse(s.restricted_frames), **id));
    println!("most restricted (frames outside full service):");
    let mut table = TextTable::new(["system", "restricted frames", "defenses", "events"]);
    for (id, s) in by_restricted.iter().take(limit) {
        table.row([
            id.to_string(),
            s.restricted_frames.to_string(),
            s.defenses.to_string(),
            s.events.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "{} systems, {} events",
        stats.len(),
        stats.values().map(|s| s.events).sum::<u64>()
    );
    Ok(ExitCode::SUCCESS)
}

fn fleet_triage(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("fleet triage expects exactly one bundle path".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let bundle = TriageBundle::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;

    println!(
        "system {} seed {:#x} — triggered by {}",
        bundle.system, bundle.seed, bundle.trigger
    );
    if !bundle.property.is_empty() {
        println!("violated: {}", bundle.property);
    }
    if let Some(frame) = bundle.frame {
        println!("frame:    {frame}");
    }
    if let Some((start, end)) = bundle.reconfig {
        println!("reconfig: frames {start}..={end}");
    }
    if !bundle.detail.is_empty() {
        println!("detail:   {}", bundle.detail);
    }
    println!("horizon:  {} frames", bundle.case.horizon());
    if !bundle.case.events().is_empty() {
        println!("stimuli:  {}", bundle.case.events_line());
    }
    if !bundle.case.faults().is_empty() {
        println!("faults:   {}", bundle.case.faults());
    }

    println!("\nflight-recorder timeline (»: causal-chain link):");
    for event in &bundle.ring {
        let causal = bundle
            .causal_chain
            .iter()
            .any(|l| l.frame == event.frame && l.role == event.kind);
        let count = if event.count > 1 {
            format!(" x{}", event.count)
        } else {
            String::new()
        };
        let detail = if event.detail.is_empty() {
            String::new()
        } else {
            format!(" {}", event.detail)
        };
        println!(
            "  {} @{} {}{count}{detail}",
            if causal { "»" } else { " " },
            event.frame,
            event.kind,
        );
    }

    println!("\ncausal chain:");
    for link in &bundle.causal_chain {
        if link.detail.is_empty() {
            println!("  @{} {}", link.frame, link.role);
        } else {
            println!("  @{} {} {}", link.frame, link.role, link.detail);
        }
    }

    if !bundle.metrics.counters.is_empty() || !bundle.metrics.histograms.is_empty() {
        println!("\nmetrics at aggregation:");
        print!("{}", bundle.metrics);
    }

    if bundle.ring.is_empty() {
        eprintln!("(empty flight ring — the bundle explains nothing)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn artifact_cases(artifact: &serde_json::Value) -> Vec<(String, f64)> {
    artifact
        .get("cases")
        .and_then(|v| v.as_seq())
        .map(|cases| {
            cases
                .iter()
                .filter_map(|c| {
                    Some((
                        c.get("case")?.as_str()?.to_owned(),
                        c.get("frames_per_sec")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn fleet_overhead(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("fleet overhead expects exactly two BENCH_fleet.json paths".into());
    };
    let parse = |path: &str| -> Result<serde_json::Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let (art_a, art_b) = (parse(a)?, parse(b)?);
    let cases_a = artifact_cases(&art_a);
    let cases_b: BTreeMap<String, f64> = artifact_cases(&art_b).into_iter().collect();

    println!("throughput: {a} vs {b}");
    let mut table = TextTable::new(["case", "A frames/s", "B frames/s", "delta"]);
    let mut compared = 0usize;
    for (name, fps_a) in &cases_a {
        let Some(fps_b) = cases_b.get(name) else {
            continue;
        };
        compared += 1;
        table.row([
            name.clone(),
            format!("{fps_a:.0}"),
            format!("{fps_b:.0}"),
            format!("{:+.1}%", 100.0 * (fps_b - fps_a) / fps_a.max(1e-9)),
        ]);
    }
    if compared == 0 {
        return Err("the two artifacts share no cases to compare".into());
    }
    println!("{table}");

    for (label, art) in [("A", &art_a), ("B", &art_b)] {
        if let Some(frac) = art
            .get("obs")
            .and_then(|o| o.get("overhead_fraction"))
            .and_then(|v| v.as_f64())
        {
            println!("{label}: observability overhead {:.1}%", 100.0 * frac);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn fleet_decode(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("fleet decode expects exactly one journal path".into());
    };
    for record in open_stream(path)? {
        match record.map_err(|e| format!("`{path}`: {e}"))? {
            Record::Header { system, seed } => {
                println!(
                    "{}",
                    serde_json::to_string_infallible(&serde_json::json!({
                        "system": system,
                        "seed": seed,
                    }))
                );
            }
            Record::Event(event) => println!("{}", event.to_json_line()),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn fleet(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("top") => fleet_top(&args[1..]),
        Some("triage") => fleet_triage(&args[1..]),
        Some("overhead") => fleet_overhead(&args[1..]),
        Some("decode") => fleet_decode(&args[1..]),
        Some(other) => Err(format!("unknown fleet subcommand `{other}`")),
        None => Err("fleet expects a subcommand: top, triage, overhead, decode".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summarize") => summarize(&args[1..]),
        Some("grep") => grep(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("--help") | Some("-h") | None => Err(String::new()),
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            ExitCode::from(3)
        }
    }
}
