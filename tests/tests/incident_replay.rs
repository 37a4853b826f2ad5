//! Incident-replay corpus: every shrunk counterexample and triage
//! bundle ever committed under `results/` must replay, deterministically,
//! to the violation it records — through the unified
//! [`InvariantOracle`], not the harness that first produced it.
//!
//! The artifacts are regression amber: each one captures a defect a
//! past campaign caught (seeded SCRAM mutations, a zeroed retry
//! budget, a fleet-scale forced violation). If a refactor changes what
//! any of them replays to, either the artifact must be regenerated by
//! its experiment or the refactor broke the protocol/checker contract
//! the artifact pinned down. Unknown artifacts fail the suite loudly:
//! whoever commits a new incident must add its replay fixture here.
//!
//! Every artifact holds the [`Scenario`]s that replay it (stimuli,
//! fault plan, horizon), so a replay is `Scenario::run_with` on the
//! fixture's builder plus the oracle.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use arfs_avionics::{avionics_spec, known_bad_mutations, three_level_spec};
use arfs_core::assure::{InvariantOracle, OracleProfile};
use arfs_core::chaos::ChaosDefense;
use arfs_core::obs::counterexample::Counterexample;
use arfs_core::obs::triage::TriageBundle;
use arfs_core::properties::PropertyViolation;
use arfs_core::scenario::Scenario;
use arfs_core::scram::ScramMutation;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results")
}

/// Everything an artifact's cases do NOT carry: the spec they ran
/// against, the seeded defect and the defense knobs. Keyed by artifact
/// slug — the one piece of out-of-band knowledge the corpus needs.
struct Fixture {
    spec: ReconfigSpec,
    mutation: Option<ScramMutation>,
    defense: ChaosDefense,
}

impl Fixture {
    /// Replays a case on a fresh system built per the fixture and
    /// returns the exhaustive oracle's verdict — the same check set the
    /// model checker that minted the artifact ran.
    fn replay(&self, case: &Scenario) -> Vec<PropertyViolation> {
        let mut builder = System::builder(self.spec.clone()).chaos_defense(self.defense);
        if let Some(mutation) = self.mutation.clone() {
            builder = builder.mutation(mutation);
        }
        let system = case
            .run_with(builder)
            .expect("artifact cases are valid for their fixture's spec");
        InvariantOracle::new(Arc::new(self.spec.clone()), OracleProfile::Exhaustive)
            .check(system.trace())
    }
}

fn fixture_for(slug: &str) -> Fixture {
    if let Some((_, mutation)) = known_bad_mutations().into_iter().find(|(s, _)| *s == slug) {
        // exp_statespace / the avionics model-check campaign: seeded
        // SCRAM defects on the stock avionics spec, default defense.
        return Fixture {
            spec: avionics_spec().expect("avionics spec is structurally valid"),
            mutation: Some(mutation),
            defense: ChaosDefense::default(),
        };
    }
    match slug {
        // exp_dst's chaos section, the budget-0 case: a commit fault the
        // defense cannot absorb because the retry budget is zeroed.
        "chaos_budget0" => Fixture {
            spec: three_level_spec(1),
            mutation: None,
            defense: ChaosDefense {
                retry_budget_frames: 0,
                ..ChaosDefense::default()
            },
        },
        _ => panic!(
            "no replay fixture for `counterexample_{slug}.json` — a new incident artifact \
             was committed without extending the corpus in tests/tests/incident_replay.rs"
        ),
    }
}

fn corpus() -> Vec<(String, PathBuf)> {
    let mut found = Vec::new();
    for entry in fs::read_dir(results_dir()).expect("results/ exists in the repo") {
        let path = entry.expect("results/ is readable").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(slug) = name
            .strip_prefix("counterexample_")
            .and_then(|s| s.strip_suffix(".json"))
        {
            found.push((slug.to_owned(), path.clone()));
        }
    }
    found.sort();
    found
}

#[test]
fn every_counterexample_artifact_replays_to_its_recorded_violations() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 5,
        "expected the historical corpus (4 mutants + chaos_budget0), found {}: {:?}",
        corpus.len(),
        corpus.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>()
    );
    for (slug, path) in corpus {
        let text = fs::read_to_string(&path).expect("artifact is readable");
        let artifact = Counterexample::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{slug}: malformed artifact: {e}"));
        let fixture = fixture_for(&slug);

        // The artifact's violations were recorded against the
        // minimized case; the replay must reproduce them exactly.
        assert_eq!(
            fixture.replay(&artifact.minimized),
            artifact.violations,
            "{slug}: minimized replay diverged from the recorded violations"
        );

        // The original case must still fail too — shrink lineage starts
        // from a genuine failure.
        assert!(
            !fixture.replay(&artifact.case).is_empty(),
            "{slug}: the original case no longer violates anything"
        );
    }
}

#[test]
fn minimized_counterexamples_are_one_minimal() {
    for (slug, path) in corpus() {
        let text = fs::read_to_string(&path).expect("artifact is readable");
        let artifact = Counterexample::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{slug}: malformed artifact: {e}"));
        let fixture = fixture_for(&slug);
        // A fixpoint of the shrinker: no single event or fault can be
        // dropped (or moved earlier) without losing the violation.
        let mut kept = Vec::new();
        let reshrunk = artifact.minimized.shrink(|action, candidate| {
            let fails = !fixture.replay(candidate).is_empty();
            if fails {
                kept.push(action);
            }
            fails
        });
        assert!(
            kept.is_empty(),
            "{slug}: not 1-minimal, {kept:?} still violates"
        );
        assert_eq!(reshrunk, artifact.minimized, "{slug}");
    }
}

#[test]
fn forced_triage_bundle_replays_to_its_recorded_violation() {
    let path = results_dir().join("triage_forced.json");
    let text = fs::read_to_string(&path).expect("triage_forced.json is committed");
    let bundle = TriageBundle::from_json(&text).expect("bundle parses");

    // exp_fleet's forced sweep: stock avionics spec, the seeded
    // skip-Init defect, default defense; the bundle's case carries the
    // stimuli and the fleet's horizon.
    let fixture = Fixture {
        spec: avionics_spec().expect("avionics spec is structurally valid"),
        mutation: Some(ScramMutation::SkipInitPhase),
        defense: ChaosDefense::default(),
    };
    let replayed = fixture.replay(&bundle.case);

    let hit = replayed.iter().find(|v| {
        v.property.to_string() == bundle.property
            && v.reconfig.map(|r| (r.start_c, r.end_c)) == bundle.reconfig
    });
    let hit = hit.unwrap_or_else(|| {
        panic!(
            "replay did not reproduce the bundled {} violation at {:?}; got {:?}",
            bundle.property, bundle.reconfig, replayed
        )
    });
    assert_eq!(
        hit.detail, bundle.detail,
        "violation detail drifted from the bundled incident"
    );
}
