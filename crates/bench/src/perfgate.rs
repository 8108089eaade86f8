//! Perf-gate support: compare a fresh benchmark report against a committed
//! baseline (`BENCH_tick.json`, `BENCH_fleet.json`, `BENCH_serve.json`) and
//! fail on regression. The gating binaries share everything here: the
//! baseline loader ([`load_baseline`]), the tolerance ([`TOL`]) and the
//! allocation counter ([`CountingAlloc`]).
//!
//! The reports are written by [`crate::report::JsonBuf`] — single-line JSON
//! with a fixed key order and no whitespace — so the extractor here is a
//! deliberately small string scanner instead of a JSON parser: it finds the
//! entry object by a literal anchor (`"path":"snapshot"`, [`metric_after`])
//! or by the parsed value of its `"n_ues"` key ([`fleet_metric`]) and
//! reads one numeric metric out of that same object. This keeps the gate
//! dependency-free, like the rest of the workspace.
//!
//! # What gets gated
//!
//! The committed baselines are recorded on the development machine while CI
//! runs on shared runners whose absolute speed differs and drifts run to
//! run by more than any sane tolerance — gating raw ticks/sec against them
//! would fail on a slow runner, not on a slow commit. The gates therefore
//! cover only **machine-independent** metrics:
//!
//! * work counts (`ticks`, `ue_ticks`, the radio snapshot's
//!   `priced_cells_per_tick`, the event-driven engine's `skip_ratio`, and
//!   the sleep planner's `plan_evals` and `plan_tiles`): deterministic for
//!   a pinned workload, gated as a *band* — drift in either direction means
//!   the workload (or the work done per tick) silently changed. The
//!   priced-cell band also guards the snapshot's cull tiers: without its
//!   per-tick fading ceiling the count goes from about 40 back to about 110
//!   and fails the band;
//! * allocation proxies (`allocs_per_tick`, `allocs_per_ue_tick`): counted
//!   by [`CountingAlloc`], gated *lower-is-better*.
//!
//! No gate is built from an elapsed time. Even a same-process ratio such as
//! the fleet's fixed-vs-event `event_speedup` moves by 20% between two runs
//! of unchanged code on a shared machine, so it would fail on noise — and
//! a baseline loose enough to absorb that passes real regressions. Where
//! the event-driven engine saves time, the saving is work it skips, and the
//! work counts above pin that.
//!
//! Before any of that, [`load_baseline`] refuses a baseline whose
//! [`schema_of`] differs from the schema the caller writes — cross-schema
//! gating would silently compare rows whose metrics no longer mean the same
//! thing.
//!
//! Absolute throughput (ticks/sec) and time ratios are still compared — via
//! [`advise`] — but only as a printed hint; they can never fail the job.
//!
//! Tolerance semantics per [`Better`] direction: a run **fails** only when
//! the current value leaves the tolerance band on its bad side. Moves past
//! the band on the good side are reported as a hint to refresh the
//! committed baseline, but do not fail the job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The gate tolerance: a gated metric may move 15% on its bad side before
/// the job fails.
pub const TOL: f64 = 0.15;

/// Heap allocations counted by [`CountingAlloc`] since process start.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap-allocation counter: wraps the system allocator and counts every
/// `alloc`/`realloc` into [`ALLOCS`]. Coarse by design — it is a proxy for
/// hot-loop churn, not a profiler — but it is exact and deterministic for a
/// fixed workload. A benchmark binary installs it with its own
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`; the
/// library never does, so a binary that links it may pick another allocator.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Which direction of drift counts as a regression for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: regress when `current` drops below the band.
    Higher,
    /// Cost-like (allocation counts): regress when `current` rises above
    /// the band.
    Lower,
    /// Invariant-like (work counts): regress when `current` leaves the
    /// band in *either* direction — the workload itself changed.
    Band,
}

/// One gated comparison: a labelled metric against its committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is being compared, e.g. `snapshot allocs_per_tick` or
    /// `fleet[100] ue_ticks`.
    pub what: String,
    /// The committed value.
    pub baseline: f64,
    /// The value measured by this run.
    pub current: f64,
    /// Which drift direction fails the gate.
    pub better: Better,
}

impl Gate {
    /// `current / baseline` — above 1.0 means a larger current value.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }

    /// True when the current value left the [`TOL`] band on its bad side.
    pub fn regressed(&self) -> bool {
        let low = self.current < self.baseline * (1.0 - TOL);
        let high = self.current > self.baseline * (1.0 + TOL);
        match self.better {
            Better::Higher => low,
            Better::Lower => high,
            Better::Band => low || high,
        }
    }

    /// True when the current value beats the baseline by more than [`TOL`]
    /// — time to re-commit the baseline file. Never true for
    /// [`Better::Band`] gates, where any exit from the band is a failure.
    pub fn improved(&self) -> bool {
        match self.better {
            Better::Higher => self.current > self.baseline * (1.0 + TOL),
            Better::Lower => self.current < self.baseline * (1.0 - TOL),
            Better::Band => false,
        }
    }

    /// One human-readable verdict line for the job log.
    pub fn verdict(&self) -> String {
        let state = if self.regressed() {
            "FAIL (regression)"
        } else if self.improved() {
            "ok (better; consider refreshing the baseline)"
        } else {
            "ok"
        };
        line(&self.what, self.baseline, self.current, state)
    }
}

/// `v` with four significant digits and at least one decimal, so a gated
/// ratio such as `skip_ratio` 0.797 prints as `0.7970`, not `0.8`, and a
/// drift well inside the [`TOL`] band can be read from the job log.
fn num(v: f64) -> String {
    let decimals = if v != 0.0 && v.is_finite() { (3 - v.abs().log10().floor() as i32).clamp(1, 8) } else { 1 };
    format!("{v:.*}", decimals as usize)
}

/// One comparison line of the job log: baseline, current, their ratio and
/// the verdict `state`.
fn line(what: &str, baseline: f64, current: f64, state: &str) -> String {
    format!(
        "  {:<34} baseline {:>12}  current {:>12}  ratio {:>6.3}  {}",
        what,
        num(baseline),
        num(current),
        current / baseline,
        state
    )
}

/// Extracts the report's `"schema"` string (e.g. `fiveg-fleet/v4`), `None`
/// when the key is absent.
pub fn schema_of(json: &str) -> Option<&str> {
    const KEY: &str = "\"schema\":\"";
    let rest = &json[json.find(KEY)? + KEY.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Reads the committed baseline at `path` and returns it only when its
/// [`schema_of`] is `schema`, the one the caller writes. A mismatch is an
/// error, never a silent pass: the row extractors below pair entries by
/// anchor value, so a baseline from an older schema generation would line
/// up rows whose metrics mean different things (a different pinned
/// scenario, a renamed field) instead of refusing to gate.
pub fn load_baseline(path: &str, schema: &str) -> Result<String, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
    match schema_of(&json) {
        Some(s) if s == schema => Ok(json),
        got => Err(format!(
            "baseline {path} has schema {} but this binary writes {schema} — \
             regenerate the baseline instead of gating across schema versions",
            got.map_or_else(|| "(none)".into(), |s| format!("'{s}'"))
        )),
    }
}

/// Parses the number after `"metric":` in `scope`.
fn number_in(scope: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\":");
    let tail = &scope[scope.find(&key)? + key.len()..];
    let stop = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..stop].trim().parse::<f64>().ok()
}

/// Extracts the numeric value of `metric` from the entry object of `json`
/// identified by `anchor` (a literal substring such as `"path":"snapshot"`).
/// The metric must appear after the anchor and before the object's closing
/// brace — true for every report this crate writes, where the identifying
/// key is emitted first. Returns `None` when either the anchor or the
/// metric is absent, so callers can treat a missing entry as "not gated".
pub fn metric_after(json: &str, anchor: &str, metric: &str) -> Option<f64> {
    let rest = &json[json.find(anchor)? + anchor.len()..];
    number_in(&rest[..rest.find('}').unwrap_or(rest.len())], metric)
}

/// Extracts a top-of-report scalar such as `speedup`, which lives *outside*
/// any anchored entry object. Scans for the **last** occurrence of the key
/// so per-entry fields that happen to share a name never shadow the
/// report-level one (report-level keys are emitted after the entry arrays).
pub fn metric_anywhere(json: &str, metric: &str) -> Option<f64> {
    number_in(&json[json.rfind(&format!("\"{metric}\":"))?..], metric)
}

/// Extracts the **string** value of `metric` from the entry object of
/// `json` identified by `anchor`, with the same scoping rules as
/// [`metric_after`]. This is how non-numeric gated fields — the serve
/// report's prediction-equivalence `equiv_digest` — are compared: string
/// gates are exact-match (a digest has no tolerance band). Returns `None`
/// when the anchor, the metric, or the closing quote is absent.
pub fn str_after<'a>(json: &'a str, anchor: &str, metric: &str) -> Option<&'a str> {
    let rest = &json[json.find(anchor)? + anchor.len()..];
    let scope = &rest[..rest.find('}').unwrap_or(rest.len())];
    let key = format!("\"{metric}\":\"");
    let tail = &scope[scope.find(&key)? + key.len()..];
    Some(&tail[..tail.find('"')?])
}

/// The fleet-report entry whose `"n_ues"` **value** equals `n_ues`, from
/// that key to the entry's closing brace. Every `"n_ues":` occurrence is
/// parsed and compared numerically, so the pairing is keyed by size — a
/// reordered or extended baseline can never line a measurement up against
/// the wrong row, and a prefix size (`100` vs `1000`) or a trailing `}`
/// instead of `,` cannot confuse the match the way a literal-substring
/// anchor could. `None` when no entry has that size.
pub fn fleet_row(json: &str, n_ues: u32) -> Option<&str> {
    const KEY: &str = "\"n_ues\":";
    let mut from = 0;
    while let Some(pos) = json[from..].find(KEY) {
        from += pos + KEY.len();
        let tail = &json[from..];
        let stop = tail.find([',', '}']).unwrap_or(tail.len());
        if tail[..stop].trim().parse::<u64>() == Ok(u64::from(n_ues)) {
            return Some(&tail[..tail.find('}').unwrap_or(tail.len())]);
        }
    }
    None
}

/// Extracts `metric` from the [`fleet_row`] of size `n_ues`. Like
/// [`metric_after`], the metric must follow the key inside the same object
/// (true for every report this crate writes, where `n_ues` is emitted
/// first). Returns `None` when the size or the metric is absent.
pub fn fleet_metric(json: &str, n_ues: u32, metric: &str) -> Option<f64> {
    number_in(fleet_row(json, n_ues)?, metric)
}

/// Evaluates a set of gates, printing one verdict line each, and returns
/// whether every gate passed. An empty set passes here — callers that
/// *expected* matches must treat zero gates as their own failure (a
/// reformatted baseline silently matching nothing must not turn the gate
/// into a no-op; see `fleet_bench`).
pub fn evaluate(gates: &[Gate]) -> bool {
    let mut ok = true;
    for g in gates {
        println!("{}", g.verdict());
        ok &= !g.regressed();
    }
    ok
}

/// Prints a non-gating comparison line for a machine-dependent metric
/// (absolute throughput, elapsed-time ratios). The numbers are worth seeing next to the gated
/// verdicts, but a slow shared runner must never fail the job on them.
pub fn advise(what: &str, baseline: f64, current: f64) {
    println!("{}", line(what, baseline, current, "advisory (machine-dependent, not gated)"));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: &str = concat!(
        r#"{"schema":"fiveg-tick/v2","mode":"smoke","iters":3,"#,
        r#""paths":[{"path":"reference","ticks":1662,"elapsed_s":0.02,"ticks_per_sec":71642.0,"allocs_per_tick":17.0},"#,
        r#"{"path":"snapshot","ticks":1662,"elapsed_s":0.02,"ticks_per_sec":106960.0,"allocs_per_tick":3.0}],"#,
        r#""speedup":1.49,"des_skip_floor":0.5,"#,
        r#""des":[{"des":"city-sa","ticks":600,"skipped_ticks":539,"sleeps":10,"skip_ratio":0.898,"ue_ticks_per_sec":1912.0},"#,
        r#"{"des":"walking-sa","ticks":600,"skipped_ticks":503,"sleeps":23,"skip_ratio":0.838,"ue_ticks_per_sec":35176.0}]}"#
    );

    const FLEET: &str = concat!(
        r#"{"schema":"fiveg-fleet/v2","sizes":[{"n_ues":1,"ue_ticks_per_sec":90000.0},"#,
        r#"{"n_ues":10,"ue_ticks_per_sec":85000.0},{"n_ues":100,"ue_ticks_per_sec":80000.0},"#,
        r#"{"n_ues":1000,"ue_ticks_per_sec":76000.0}]}"#
    );

    fn gate(baseline: f64, current: f64, better: Better) -> Gate {
        Gate { what: "x".into(), baseline, current, better }
    }

    #[test]
    fn gate_lines_show_drift_inside_the_band() {
        // a 4.6% drift of a ratio-valued gate, well inside TOL, must be
        // readable from the line: one decimal would print 0.8 twice
        let g = Gate { what: "des city-sa skip_ratio".into(), baseline: 0.797, current: 0.760, better: Better::Band };
        assert_eq!(
            g.verdict(),
            "  des city-sa skip_ratio             baseline       0.7970  current       0.7600  ratio  0.954  ok"
        );
        assert_eq!(
            line("snapshot allocs_per_tick", 3.4512, 3.4487, "ok"),
            "  snapshot allocs_per_tick           baseline        3.451  current        3.449  ratio  0.999  ok"
        );
        assert_eq!(num(40.241), "40.24");
        assert_eq!(num(9037.0), "9037.0");
        assert_eq!(num(525_895.4), "525895.4");
        assert_eq!(num(0.0012346), "0.001235");
        assert_eq!(num(0.0), "0.0");
        assert_eq!(num(-0.5), "-0.5000");
        assert_eq!(num(f64::NAN), "NaN");
    }

    #[test]
    fn schema_of_reads_the_version_string() {
        assert_eq!(schema_of(TICK), Some("fiveg-tick/v2"));
        assert_eq!(schema_of(FLEET), Some("fiveg-fleet/v2"));
        assert_eq!(schema_of(r#"{"schema":"fiveg-fleet/v3","sizes":[]}"#), Some("fiveg-fleet/v3"));
        assert_eq!(schema_of(r#"{"sizes":[]}"#), None, "missing schema must be None, not a panic");
        assert_eq!(schema_of(""), None);
    }

    #[test]
    fn load_baseline_refuses_a_foreign_schema() {
        let path = std::env::temp_dir().join(format!("perfgate-baseline-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, FLEET).unwrap();
        assert_eq!(load_baseline(path, "fiveg-fleet/v2").as_deref(), Ok(FLEET));
        let err = load_baseline(path, "fiveg-fleet/v4").unwrap_err();
        assert!(err.contains("'fiveg-fleet/v2'") && err.contains("fiveg-fleet/v4"), "{err}");
        std::fs::write(path, r#"{"sizes":[]}"#).unwrap();
        assert!(load_baseline(path, "fiveg-fleet/v2").unwrap_err().contains("(none)"));
        std::fs::remove_file(path).unwrap();
        assert!(load_baseline(path, "fiveg-fleet/v2").unwrap_err().starts_with("reading baseline"));
    }

    #[test]
    fn extracts_the_anchored_entry_not_its_neighbors() {
        assert_eq!(metric_after(TICK, r#""path":"snapshot""#, "ticks_per_sec"), Some(106960.0));
        assert_eq!(metric_after(TICK, r#""path":"reference""#, "ticks_per_sec"), Some(71642.0));
        assert_eq!(metric_after(TICK, r#""path":"snapshot""#, "allocs_per_tick"), Some(3.0));
        // the v2 des entries anchor on their label key, so gates can pick a
        // scenario without being fooled by the array key or a neighbor entry
        assert_eq!(metric_after(TICK, r#""des":"city-sa""#, "skip_ratio"), Some(0.898));
        assert_eq!(metric_after(TICK, r#""des":"walking-sa""#, "skip_ratio"), Some(0.838));
        assert_eq!(metric_after(TICK, r#""des":"walking-sa""#, "ticks"), Some(600.0));
    }

    #[test]
    fn fleet_metric_disambiguates_prefix_sizes() {
        assert_eq!(fleet_metric(FLEET, 100, "ue_ticks_per_sec"), Some(80000.0));
        assert_eq!(fleet_metric(FLEET, 1000, "ue_ticks_per_sec"), Some(76000.0));
        assert_eq!(fleet_metric(FLEET, 1, "ue_ticks_per_sec"), Some(90000.0));
        assert_eq!(fleet_metric(FLEET, 10, "ue_ticks_per_sec"), Some(85000.0));
    }

    #[test]
    fn fleet_metric_is_keyed_by_value_not_position() {
        // entries deliberately out of size order, with an extra unrelated
        // size in the middle: the pairing must follow the n_ues value
        let reordered = concat!(
            r#"{"schema":"fiveg-fleet/v2","sizes":[{"n_ues":1000,"ue_ticks":9.0},"#,
            r#"{"n_ues":7,"ue_ticks":3.0},{"n_ues":100,"ue_ticks":5.0},{"n_ues":1,"ue_ticks":1.0}]}"#
        );
        assert_eq!(fleet_metric(reordered, 1, "ue_ticks"), Some(1.0));
        assert_eq!(fleet_metric(reordered, 100, "ue_ticks"), Some(5.0));
        assert_eq!(fleet_metric(reordered, 1000, "ue_ticks"), Some(9.0));
    }

    #[test]
    fn fleet_metric_matches_entries_closed_by_a_brace() {
        // n_ues as the only key: the value is terminated by '}' not ','
        let j = r#"[{"n_ues":10},{"n_ues":100,"ue_ticks":5.0}]"#;
        assert_eq!(fleet_metric(j, 100, "ue_ticks"), Some(5.0));
        assert_eq!(fleet_metric(j, 10, "ue_ticks"), None, "entry exists but lacks the metric");
    }

    #[test]
    fn fleet_row_tells_a_missing_row_from_a_missing_key() {
        assert!(fleet_row(FLEET, 100).is_some_and(|row| row.contains("80000.0")));
        assert!(fleet_row(FLEET, 100).is_some() && fleet_metric(FLEET, 100, "skip_ratio").is_none());
        assert_eq!(fleet_row(FLEET, 500), None);
    }

    #[test]
    fn missing_anchor_or_metric_is_none_not_a_panic() {
        assert_eq!(fleet_metric(FLEET, 500, "ue_ticks_per_sec"), None);
        assert_eq!(fleet_metric(FLEET, 100, "nonexistent"), None);
        assert_eq!(fleet_metric("", 100, "ue_ticks_per_sec"), None);
        assert_eq!(metric_after(TICK, r#""path":"snapshot""#, "nonexistent"), None);
        assert_eq!(metric_after("", r#""path":"snapshot""#, "ticks_per_sec"), None);
    }

    #[test]
    fn metric_lookup_stays_inside_the_anchored_object() {
        // "elapsed_s" exists only in the *next* object; the scan must stop
        // at the closing brace of the anchored one
        let j = r#"[{"n_ues":1,"a":2.0},{"n_ues":10,"elapsed_s":9.0}]"#;
        assert_eq!(metric_after(j, r#""n_ues":1,"#, "elapsed_s"), None);
    }

    #[test]
    fn str_after_reads_string_fields_inside_the_anchored_object() {
        let j = concat!(
            r#"{"schema":"fiveg-serve/v1","gated":{"sessions_completed":8,"#,
            r#""equiv_digest":"00f3a9b2c4d5e6f7","mismatches":0},"#,
            r#""advisory":{"note":"other"}}"#
        );
        assert_eq!(str_after(j, r#""gated":"#, "equiv_digest"), Some("00f3a9b2c4d5e6f7"));
        assert_eq!(str_after(j, r#""gated":"#, "note"), None, "scope ends at the first brace");
        assert_eq!(str_after(j, r#""advisory":"#, "note"), Some("other"));
        assert_eq!(str_after(j, r#""missing":"#, "equiv_digest"), None);
        assert_eq!(str_after(j, r#""gated":"#, "sessions_completed"), None, "numeric field is not a string");
        assert_eq!(str_after("", r#""gated":"#, "equiv_digest"), None);
    }

    #[test]
    fn metric_anywhere_reads_report_level_scalars() {
        assert_eq!(metric_anywhere(TICK, "speedup"), Some(1.49));
        assert_eq!(metric_anywhere(TICK, "iters"), Some(3.0));
        assert_eq!(metric_anywhere(TICK, "nonexistent"), None);
        assert_eq!(metric_anywhere("", "speedup"), None);
    }

    #[test]
    fn higher_is_better_fails_only_on_drop() {
        assert!(gate(100.0, 84.9, Better::Higher).regressed());
        assert!(!gate(100.0, 85.1, Better::Higher).regressed());
        let g = gate(100.0, 300.0, Better::Higher);
        assert!(!g.regressed(), "an improvement must never fail the gate");
        assert!(g.improved());
    }

    #[test]
    fn lower_is_better_fails_only_on_rise() {
        assert!(gate(100.0, 115.1, Better::Lower).regressed());
        assert!(!gate(100.0, 114.9, Better::Lower).regressed());
        let g = gate(100.0, 50.0, Better::Lower);
        assert!(!g.regressed(), "fewer allocations must never fail the gate");
        assert!(g.improved());
    }

    #[test]
    fn band_fails_on_drift_in_either_direction() {
        assert!(gate(100.0, 84.9, Better::Band).regressed());
        assert!(gate(100.0, 115.1, Better::Band).regressed());
        let inside = gate(100.0, 100.0, Better::Band);
        assert!(!inside.regressed());
        assert!(!gate(100.0, 200.0, Better::Band).improved(), "a band gate never 'improves'");
    }

    #[test]
    fn evaluate_aggregates_all_gates() {
        let pass = gate(100.0, 98.0, Better::Higher);
        let fail = gate(100.0, 50.0, Better::Higher);
        assert!(evaluate(std::slice::from_ref(&pass)));
        assert!(!evaluate(&[pass, fail]));
        assert!(evaluate(&[]), "no gates means nothing to fail");
    }
}
