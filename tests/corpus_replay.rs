//! Gating corpus replay: every case under `tests/corpus/` re-runs through
//! the fuzzer's full check (oracle, radio trajectory, stepped vs
//! event-driven) on every CI run.
//!
//! The corpus holds hand-picked coverage cases plus every shrunk repro the
//! fuzzer ever wrote (`scenario_fuzz` saves minimal failing cases here) —
//! once a bug is found, its repro gates forever. Reproduce one locally with
//! `cargo run --release -p fiveg-bench --bin scenario_fuzz -- --replay tests/corpus/<case>.toml`.

use fiveg_bench::fuzz::replay_corpus;
use fiveg_oracle::FuzzCase;
use fiveg_sim::Trace;
use std::path::Path;

#[test]
fn corpus_cases_stay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let outcomes = replay_corpus(&dir).expect("corpus cases must parse");
    assert!(!outcomes.is_empty(), "corpus directory missing or empty: {}", dir.display());
    for o in &outcomes {
        assert!(
            o.passed(),
            "corpus case {} regressed: divergence={:?} violations={:?}",
            o.label,
            o.result.divergence,
            o.result.violations
        );
    }
}

#[test]
fn corpus_traces_round_trip_through_the_codec() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.unwrap().path();
        if path.extension() != Some("toml".as_ref()) {
            continue;
        }
        let case = FuzzCase::parse_toml(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let trace = case.scenario().run();
        let bytes = trace.encode();
        let back = Trace::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(back == trace, "{}: decode(encode(t)) != t", path.display());
        assert!(back.encode() == bytes, "{}: re-encoding changed the bytes", path.display());
        cases += 1;
    }
    assert_eq!(cases, 5, "expected the five committed corpus scenarios");
}
