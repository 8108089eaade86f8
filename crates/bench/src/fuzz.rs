//! The fuzz campaign driver behind the `scenario_fuzz` binary.
//!
//! `fiveg-oracle` owns the per-case machinery (generation, dual-engine
//! differential run, invariant checks, shrinking); this module owns the
//! campaign: fanning cases across the worker pool deterministically
//! ([`crate::pool::run_ordered`]), probing the Prognos predictor over the
//! traces of predictor-flagged cases, replaying the committed corpus, and
//! writing the `fiveg-fuzz/v1` report that the determinism CI byte-compares
//! across thread counts.

use crate::driver::run_prognos;
use crate::pool::run_ordered;
use crate::JsonBuf;
use fiveg_oracle::{run_case, shrink, CaseResult, FuzzCase};
use prognos::PrognosConfig;
use std::path::Path;

/// Report schema tag; bump on layout changes.
pub const FUZZ_SCHEMA: &str = "fiveg-fuzz/v1";

/// One fuzz case's campaign outcome: the oracle verdict plus the predictor
/// probe, keyed for the report.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Case ordinal within the campaign (or corpus file stem on replay).
    pub label: String,
    /// The case that ran.
    pub case: FuzzCase,
    /// Oracle + differential verdict.
    pub result: CaseResult,
    /// Prediction windows Prognos produced over the trace, for cases fuzzed
    /// with the predictor dimension on (`None` otherwise). The probe gates
    /// nothing beyond "the predictor ran without panicking", but its count
    /// lands in the byte-compared report, so it must be deterministic too.
    pub prognos_windows: Option<u64>,
}

impl FuzzOutcome {
    /// True when the oracle, the differential check, and the probe all held.
    pub fn passed(&self) -> bool {
        self.result.passed()
    }
}

/// Runs one case end to end: oracle verdict, plus the Prognos probe when
/// the case carries the predictor dimension.
pub fn run_outcome(label: String, case: FuzzCase) -> FuzzOutcome {
    let result = run_case(&case);
    let prognos_windows = case.prognos.then(|| {
        let trace = case.scenario().run();
        let (run, _) = run_prognos(&trace, PrognosConfig::default(), None, None);
        run.windows.len() as u64
    });
    FuzzOutcome { label, case, result, prognos_windows }
}

/// Runs the `cases`-case campaign for `fuzz_seed` on `threads` workers.
/// Output order (and content) is independent of the thread count.
pub fn run_campaign(fuzz_seed: u64, cases: u64, threads: usize) -> Vec<FuzzOutcome> {
    run_ordered(cases as usize, threads, |i| {
        run_outcome(format!("case{i:04}"), FuzzCase::generate(fuzz_seed, i as u64))
    })
}

/// Replays every `*.toml` case under `dir` (sorted by file name). Missing
/// directory is an empty corpus, not an error; an unparseable case file is.
pub fn replay_corpus(dir: &Path) -> Result<Vec<FuzzOutcome>, String> {
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => {
            rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.extension().is_some_and(|x| x == "toml")).collect()
        }
        Err(_) => return Ok(Vec::new()),
    };
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let label = path.file_stem().and_then(|s| s.to_str()).unwrap_or("case").to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let case = FuzzCase::parse_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(run_outcome(label, case));
    }
    Ok(out)
}

/// Shrinks a failing case and writes the minimal repro into `dir` as
/// `shrunk-<seed16>.toml`, annotated with the first violation. Returns the
/// written path.
pub fn shrink_and_save(outcome: &FuzzOutcome, dir: &Path) -> Result<std::path::PathBuf, String> {
    let min = shrink(&outcome.case);
    let why = outcome
        .result
        .divergence
        .clone()
        .or_else(|| outcome.result.violations.first().map(|v| v.to_string()))
        .unwrap_or_else(|| "unknown failure".into());
    let mut text = String::new();
    for line in why.lines() {
        text.push_str("# ");
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&min.to_toml());
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("shrunk-{:016x}.toml", min.seed));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Serializes campaign outcomes as the `fiveg-fuzz/v1` report. Contains no
/// wall-clock data, so equal campaigns produce equal bytes.
pub fn campaign_report(fuzz_seed: u64, outcomes: &[FuzzOutcome]) -> String {
    let failed = outcomes.iter().filter(|o| !o.passed()).count() as u64;
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(FUZZ_SCHEMA);
    j.key("fuzz_seed");
    j.uint(fuzz_seed);
    // the trace round-trip checks always run; the key stays for v1 readers
    j.key("roundtrip");
    j.uint(1);
    j.key("cases");
    j.uint(outcomes.len() as u64);
    j.key("failed");
    j.uint(failed);
    j.key("results");
    j.open('[');
    for o in outcomes {
        j.open('{');
        j.key("label");
        j.str_val(&o.label);
        j.key("case");
        j.str_val(&o.case.label());
        j.key("ticks");
        j.uint(o.result.ticks as u64);
        j.key("handovers");
        j.uint(o.result.handovers as u64);
        j.key("ho_failures");
        j.uint(o.result.ho_failures);
        j.key("violations");
        j.uint(o.result.total_violations);
        if let Some(d) = &o.result.divergence {
            j.key("divergence");
            j.str_val(d);
        }
        if let Some(w) = o.prognos_windows {
            j.key("prognos_windows");
            j.uint(w);
        }
        j.key("pass");
        j.uint(u64::from(o.passed()));
        j.close('}');
    }
    j.close(']');
    j.close('}');
    j.finish_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let serial = campaign_report(77, &run_campaign(77, 4, 1));
        let parallel = campaign_report(77, &run_campaign(77, 4, 3));
        assert_eq!(serial, parallel);
        assert!(serial.contains(FUZZ_SCHEMA));
        assert!(serial.contains("\"cases\":4"));
    }

    #[test]
    fn clean_cases_report_pass() {
        let outcomes = run_campaign(77, 2, 1);
        for o in &outcomes {
            assert!(o.passed(), "{}: {:?} {:?}", o.label, o.result.violations, o.result.divergence);
        }
    }

    #[test]
    fn missing_corpus_directory_is_empty_not_fatal() {
        let out = replay_corpus(Path::new("tests/corpus-does-not-exist")).unwrap();
        assert!(out.is_empty());
    }
}
