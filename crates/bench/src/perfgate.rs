//! Perf-gate support for the gating benchmarks (`tick_bench`, `fleet_bench`,
//! `serve_load`). Each binary lists what it gates once, as a table of
//! [`Row`]s; [`report`] writes the committed report from those rows and
//! [`Baseline::gate`] reads the committed report back through the same
//! rows, so a gated key is spelled in one place per binary.
//!
//! # Report format
//!
//! One line of JSON ([`JsonBuf`], fixed key order, no whitespace):
//! `{"schema":S,"config":{..},"rows":[{..},..]}`. `config` is the pinned
//! configuration the gated values depend on (mode and scenario set,
//! threads and shards, sessions). Each row object opens with its
//! identifying key (`"path":"snapshot"`, `"des":"city-sa"`, `"n_ues":100`,
//! `"serve":"pinned"`) and holds only scalars: its gated entries. Gate lines
//! and EXPERIMENTS.md name a row by its [`Row::label`], `n_ues[100]`.
//! Nothing else is written: wall-clock numbers and ungated counts go to
//! stdout, where no baseline is compared against them.
//!
//! # What gets gated
//!
//! The committed baselines are recorded on one machine and CI runs on
//! shared runners whose speed differs and drifts run to run by more than
//! any sane tolerance, so gates cover only **machine-independent** values:
//!
//! * work counts (`ticks`, `ue_ticks`, the radio snapshot's
//!   `priced_cells_per_tick`, the event-driven engine's `skip_ratio`, the
//!   sleep planner's `plan_evals` and `plan_tiles`, the serve workload's
//!   frame and prediction counts): deterministic for a pinned workload,
//!   gated as a [`Better::Band`] — drift in either direction means the
//!   workload, or the work done per tick, silently changed. The
//!   priced-cell band also guards the snapshot's cull tiers: without its
//!   per-tick fading ceiling the count goes from about 40 back to about 110;
//! * allocation proxies (`allocs_per_tick`, `allocs_per_ue_tick`) and the
//!   serve `mismatches`: counted exactly, gated [`Better::Lower`];
//! * the serve prediction-equivalence digest: [`Better::Exact`].
//!
//! No gate is built from an elapsed time. Even a same-process ratio such as
//! a fixed-vs-event fleet speedup moves by 20% between two runs of
//! unchanged code on a shared machine; where the event-driven engine saves
//! time, the saving is work it skips, and the work counts pin that.
//!
//! # Refusals
//!
//! [`Baseline::load`] refuses a baseline of another schema or another
//! pinned configuration, before the benchmark runs: rows paired across
//! either would compare values that no longer mean the same thing.
//! [`Baseline::gate`] pairs rows by label, never by position. A run row the
//! baseline lacks is skipped, so a new fleet size does not fail the run
//! that introduces it; a matched row that lacks a gated key fails, and so
//! does a baseline that matches no row — a reformatted baseline must not
//! silently gate less.
//!
//! A numeric gate **fails** only when the current value leaves the [`TOL`]
//! band on its bad side; a `Lower` value that beats the band prints a hint
//! to refresh the committed baseline.

use crate::JsonBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
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

/// Which drift of a gated entry counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Cost-like (allocation counts): regress when `current` rises above
    /// the band.
    Lower,
    /// Invariant-like (work counts): regress when `current` leaves the
    /// band in *either* direction — the workload itself changed.
    Band,
    /// Digest-like: regress on any difference; a digest has no band.
    Exact,
}

/// A row's identifying value or a gated value: a number or a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Written with Rust's shortest round-trip formatting (`20961`, `40.24…`).
    Num(f64),
    /// Written as a JSON string.
    Str(String),
}

impl Value {
    /// One scalar token of a report read back: a quoted string or a number.
    fn parse(token: &str) -> Option<Value> {
        match token.strip_prefix('"') {
            Some(s) => s.strip_suffix('"').map(|s| Value::Str(s.into())),
            None => token.parse().ok().map(Value::Num),
        }
    }

    fn write(&self, j: &mut JsonBuf) {
        match self {
            Value::Num(v) => j.num(*v),
            Value::Str(s) => j.str_val(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.into())
    }
}

/// One row of a benchmark's report: its identifying key and value, then
/// its gated entries in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    id: (&'static str, Value),
    entries: Vec<(&'static str, Value, Better)>,
}

impl Row {
    /// An empty row identified by `key` = `id`, e.g. `Row::new("n_ues", 100)`.
    pub fn new(key: &'static str, id: impl Into<Value>) -> Row {
        Row { id: (key, id.into()), entries: Vec::new() }
    }

    /// Adds a [`Better::Band`] entry.
    pub fn band(self, key: &'static str, v: f64) -> Row {
        self.with(key, Value::Num(v), Better::Band)
    }

    /// Adds a [`Better::Lower`] entry.
    pub fn lower(self, key: &'static str, v: f64) -> Row {
        self.with(key, Value::Num(v), Better::Lower)
    }

    /// Adds a [`Better::Exact`] string entry.
    pub fn exact(self, key: &'static str, v: &str) -> Row {
        self.with(key, Value::Str(v.into()), Better::Exact)
    }

    fn with(mut self, key: &'static str, v: Value, better: Better) -> Row {
        self.entries.push((key, v, better));
        self
    }

    /// The row's name in gate lines and docs: `n_ues[100]`, `des[city-sa]`.
    pub fn label(&self) -> String {
        label(self.id.0, &self.id.1)
    }
}

fn label(key: &str, id: &Value) -> String {
    format!("{key}[{id}]")
}

/// Renders the pinned configuration: the keys `f` writes, as one JSON
/// object. [`report`] embeds it verbatim and [`Baseline::load`] compares
/// it byte for byte.
pub fn config(f: impl FnOnce(&mut JsonBuf)) -> String {
    let mut j = JsonBuf::new();
    j.open('{');
    f(&mut j);
    j.close('}');
    j.as_str().to_string()
}

/// The report: schema, pinned configuration and gated rows, one line.
pub fn report(schema: &str, config: &str, rows: &[Row]) -> String {
    let mut j = JsonBuf::new();
    j.open('[');
    for r in rows {
        j.open('{');
        j.key(r.id.0);
        r.id.1.write(&mut j);
        for (key, v, _) in &r.entries {
            j.key(key);
            v.write(&mut j);
        }
        j.close('}');
    }
    j.close(']');
    format!("{{\"schema\":\"{schema}\",\"config\":{config},\"rows\":{}}}\n", j.as_str())
}

/// The report's `"schema"` string (e.g. `fiveg-fleet/v6`), `None` when the
/// key is absent.
fn schema_of(json: &str) -> Option<&str> {
    const KEY: &str = "\"schema\":\"";
    let rest = &json[json.find(KEY)? + KEY.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The report's `"config"` object, verbatim; `None` when absent or
/// unbalanced.
fn config_of(json: &str) -> Option<&str> {
    const KEY: &str = "\"config\":{";
    let start = json.find(KEY)? + KEY.len() - 1;
    let mut depth = 0;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A report row read back: its [`Row::label`] and its `(key, value)`
/// entries.
pub type ReadRow<'a> = (String, Vec<(&'a str, Value)>);

/// The rows of a report, in report order; `None` when the `"rows"` array is
/// absent or a row does not parse. Rows hold only scalars, so the scan
/// splits on the writer's separators instead of parsing JSON.
pub fn rows_of(json: &str) -> Option<Vec<ReadRow<'_>>> {
    const KEY: &str = "\"rows\":[";
    let rest = &json[json.find(KEY)? + KEY.len()..];
    let body = &rest[..rest.find(']')?];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.strip_prefix('{')?
        .strip_suffix('}')?
        .split("},{")
        .map(|obj| {
            let entries = obj
                .split(',')
                .map(|kv| {
                    let (k, v) = kv.split_once(':')?;
                    Some((k.strip_prefix('"')?.strip_suffix('"')?, Value::parse(v)?))
                })
                .collect::<Option<Vec<_>>>()?;
            let (id_key, id) = entries.first()?;
            Some((label(id_key, id), entries[1..].to_vec()))
        })
        .collect()
}

/// One gated comparison: a labelled entry against its committed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The row label and key, e.g. `n_ues[100] ue_ticks`.
    pub what: String,
    /// The committed value.
    pub baseline: Value,
    /// The value measured by this run.
    pub current: Value,
    /// Which drift fails the gate.
    pub better: Better,
}

impl Gate {
    /// True when the current value left the [`TOL`] band on its bad side,
    /// or, for an exact entry or a baseline of another type, differs.
    pub fn regressed(&self) -> bool {
        match (&self.baseline, &self.current, self.better) {
            (Value::Num(b), Value::Num(c), Better::Lower) => *c > b * (1.0 + TOL),
            (Value::Num(b), Value::Num(c), Better::Band) => *c < b * (1.0 - TOL) || *c > b * (1.0 + TOL),
            (b, c, _) => b != c,
        }
    }

    /// True when a [`Better::Lower`] value beats the baseline by more than
    /// [`TOL`] — time to re-commit the baseline file. Band and exact gates
    /// never improve: any exit from them is a failure.
    pub fn improved(&self) -> bool {
        matches!((&self.baseline, &self.current, self.better),
            (Value::Num(b), Value::Num(c), Better::Lower) if *c < b * (1.0 - TOL))
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
        match (&self.baseline, &self.current) {
            (Value::Num(b), Value::Num(c)) => {
                // a zero baseline (serve `mismatches`) has no ratio
                let ratio = if *b == 0.0 { "-".into() } else { format!("{:.3}", c / b) };
                format!(
                    "  {:<36} baseline {:>12}  current {:>12}  ratio {ratio:>6}  {state}",
                    self.what,
                    num(*b),
                    num(*c)
                )
            }
            (b, c) => format!("  {:<36} baseline {:>12}  current {:>12}  {state}", self.what, b, c),
        }
    }
}

/// `v` with four significant digits and at least one decimal, so a gated
/// ratio such as `skip_ratio` 0.797 prints as `0.7970`, not `0.8`, and a
/// drift well inside the [`TOL`] band can be read from the job log.
fn num(v: f64) -> String {
    let decimals = if v != 0.0 && v.is_finite() { (3 - v.abs().log10().floor() as i32).clamp(1, 8) } else { 1 };
    format!("{v:.*}", decimals as usize)
}

/// A committed report whose schema and pinned configuration are this run's.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    json: String,
}

impl Baseline {
    /// Reads the committed report at `path` and accepts it only under
    /// [`Baseline::parse`]'s rules.
    pub fn load(path: &str, schema: &str, config: &str) -> Result<Baseline, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        Baseline::parse(path, json, schema, config)
    }

    /// Accepts `json` (read from `path`) only when its `"schema"` is
    /// `schema` and its pinned configuration is `config`, the run's own.
    /// A mismatch is an error, never a silent pass.
    pub fn parse(path: &str, json: String, schema: &str, config: &str) -> Result<Baseline, String> {
        match schema_of(&json) {
            Some(s) if s == schema => {}
            got => {
                return Err(format!(
                    "baseline {path} has schema {} but this binary writes {schema} — \
                     regenerate the baseline instead of gating across schema versions",
                    got.map_or_else(|| "(none)".into(), |s| format!("'{s}'"))
                ))
            }
        }
        match config_of(&json) {
            Some(c) if c == config => Ok(Baseline { path: path.into(), json }),
            got => Err(format!(
                "baseline {path} pins config {} but this run's is {config} — \
                 rerun with the baseline's configuration instead of gating across it",
                got.unwrap_or("(none)")
            )),
        }
    }

    /// Pairs each run row with the baseline row of the same label and
    /// returns one [`Gate`] per gated entry. A row the baseline lacks is
    /// skipped with a printed line; a matched row that lacks a gated key,
    /// or no matched row at all, is an error.
    pub fn gates(&self, rows: &[Row]) -> Result<Vec<Gate>, String> {
        let path = &self.path;
        let committed = rows_of(&self.json).ok_or_else(|| format!("baseline {path} has no readable rows"))?;
        let mut gates = Vec::new();
        for row in rows {
            let label = row.label();
            let Some((_, entries)) = committed.iter().find(|(l, _)| *l == label) else {
                println!("  {label}: not in baseline, skipped");
                continue;
            };
            for (key, current, better) in &row.entries {
                let Some((_, baseline)) = entries.iter().find(|(k, _)| k == key) else {
                    return Err(format!("baseline {path} row {label} lacks gated key {key}"));
                };
                let (baseline, current) = (baseline.clone(), current.clone());
                gates.push(Gate { what: format!("{label} {key}"), baseline, current, better: *better });
            }
        }
        if gates.is_empty() {
            return Err(format!("baseline {path} matched none of this run's rows — reformatted or wrong file?"));
        }
        Ok(gates)
    }

    /// Gates `rows`, printing one verdict line per entry; `Ok(false)` when
    /// any entry regressed.
    pub fn gate(&self, rows: &[Row]) -> Result<bool, String> {
        println!("  perf gate vs {} (tol {:.0}%):", self.path, TOL * 100.0);
        let gates = self.gates(rows)?;
        let mut ok = true;
        for g in &gates {
            println!("{}", g.verdict());
            ok &= !g.regressed();
        }
        Ok(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_config(threads: u64) -> String {
        config(|j| {
            j.key("threads");
            j.uint(threads);
            j.key("shards");
            j.uint(16);
            j.key("base");
            j.open('{');
            j.key("seed");
            j.uint(201);
            j.close('}');
        })
    }

    /// Rows shaped like each gating binary's: string and numeric ids,
    /// fractional ratios, large counts, a digest.
    fn rows() -> Vec<Row> {
        vec![
            Row::new("path", "snapshot").band("ticks", 20961.0).lower("allocs_per_tick", 3.448).band("priced", 40.2413),
            Row::new("des", "city-sa").band("skip_ratio", 0.8405797101449275).band("plan_evals", 17096.0),
            Row::new("n_ues", 1000).band("ue_ticks", 600_000.0).band("plan_evals", 75_001_653.0),
            Row::new("n_ues", 100).band("ue_ticks", 60_000.0),
            Row::new("serve", "pinned").lower("mismatches", 0.0).exact("equiv_digest", "5da2ba60f4a46758"),
        ]
    }

    fn baseline(json: String) -> Result<Baseline, String> {
        Baseline::parse("fixture", json, "fiveg-x/v1", &fleet_config(1))
    }

    fn gate(baseline: f64, current: f64, better: Better) -> Gate {
        Gate { what: "x".into(), baseline: Value::Num(baseline), current: Value::Num(current), better }
    }

    #[test]
    fn the_report_holds_schema_config_and_rows_only() {
        let json = report("fiveg-x/v1", &fleet_config(1), &rows()[3..4]);
        assert_eq!(
            json,
            "{\"schema\":\"fiveg-x/v1\",\"config\":{\"threads\":1,\"shards\":16,\"base\":{\"seed\":201}},\
             \"rows\":[{\"n_ues\":100,\"ue_ticks\":60000}]}\n"
        );
        assert_eq!(schema_of(&json), Some("fiveg-x/v1"));
        assert_eq!(config_of(&json), Some(fleet_config(1).as_str()));
        assert_eq!(schema_of(r#"{"rows":[]}"#), None, "missing schema must be None, not a panic");
        assert_eq!(rows_of(r#"{"rows":[]}"#), Some(Vec::new()));
        assert_eq!(rows_of(""), None);
    }

    #[test]
    fn every_gated_entry_round_trips_through_the_report() {
        let rows = rows();
        let gates = baseline(report("fiveg-x/v1", &fleet_config(1), &rows)).unwrap().gates(&rows).unwrap();
        assert_eq!(gates.len(), 10);
        for g in &gates {
            assert_eq!(g.baseline, g.current, "{}", g.what);
            assert!(!g.regressed() && !g.improved(), "{}", g.what);
        }
        assert_eq!(gates[9].what, "serve[pinned] equiv_digest");
    }

    #[test]
    fn rows_pair_by_label_not_position() {
        let json = report("fiveg-x/v1", &fleet_config(1), &rows());
        let mut reordered = rows();
        reordered.reverse();
        let gates = baseline(json.clone()).unwrap().gates(&reordered).unwrap();
        assert!(gates.iter().all(|g| g.baseline == g.current));
        // a prefix size (`100` vs `1000`) is a different row
        let committed = rows_of(&json).unwrap();
        let row = |l: &str| committed.iter().find(|(label, _)| label == l).map(|(_, e)| e.clone());
        assert_eq!(row("n_ues[100]"), Some(vec![("ue_ticks", Value::Num(60_000.0))]));
        assert_eq!(row("n_ues[10]"), None);
    }

    #[test]
    fn a_missing_row_is_skipped_but_a_missing_key_or_no_match_fails() {
        let b = baseline(report("fiveg-x/v1", &fleet_config(1), &rows())).unwrap();
        let new_size = [Row::new("n_ues", 100).band("ue_ticks", 60_000.0), Row::new("n_ues", 7).band("ue_ticks", 1.0)];
        assert_eq!(b.gates(&new_size).unwrap().len(), 1);
        let err = b.gates(&[Row::new("n_ues", 100).band("skip_ratio", 0.8)]).unwrap_err();
        assert!(err.contains("n_ues[100] lacks gated key skip_ratio"), "{err}");
        let err = b.gates(&[Row::new("n_ues", 7).band("ue_ticks", 1.0)]).unwrap_err();
        assert!(err.contains("matched none"), "{err}");
    }

    #[test]
    fn a_baseline_of_another_schema_or_config_is_refused() {
        let json = report("fiveg-x/v1", &fleet_config(1), &rows());
        let err = Baseline::parse("b.json", json.clone(), "fiveg-x/v2", &fleet_config(1)).unwrap_err();
        assert!(err.contains("schema 'fiveg-x/v1'") && err.contains("fiveg-x/v2"), "{err}");
        let err = Baseline::parse("b.json", json, "fiveg-x/v1", &fleet_config(2)).unwrap_err();
        assert!(
            err.contains(r#"pins config {"threads":1,"#) && err.contains(r#"this run's is {"threads":2,"#),
            "{err}"
        );
        let err = baseline(r#"{"schema":"fiveg-x/v1","rows":[]}"#.into()).unwrap_err();
        assert!(err.contains("pins config (none)"), "{err}");
    }

    #[test]
    fn load_reads_the_file_and_applies_the_same_refusals() {
        let path = std::env::temp_dir().join(format!("perfgate-baseline-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, report("fiveg-x/v1", &fleet_config(1), &rows())).unwrap();
        assert!(Baseline::load(path, "fiveg-x/v1", &fleet_config(1)).is_ok());
        assert!(Baseline::load(path, "fiveg-x/v1", &fleet_config(2)).unwrap_err().contains("pins config"));
        std::fs::remove_file(path).unwrap();
        assert!(Baseline::load(path, "fiveg-x/v1", &fleet_config(1)).unwrap_err().starts_with("reading baseline"));
    }

    #[test]
    fn gate_lines_show_drift_inside_the_band() {
        // a 4.6% drift of a ratio-valued gate, well inside TOL, must be
        // readable from the line: one decimal would print 0.8 twice
        let mut g = gate(0.797, 0.760, Better::Band);
        g.what = "des[city-sa] skip_ratio".into();
        assert_eq!(
            g.verdict(),
            "  des[city-sa] skip_ratio              baseline       0.7970  current       0.7600  ratio  0.954  ok"
        );
        let d = Gate {
            what: "serve[pinned] equiv_digest".into(),
            baseline: "5da2ba60f4a46758".into(),
            current: "5da2ba60f4a46759".into(),
            better: Better::Exact,
        };
        assert_eq!(
            d.verdict(),
            "  serve[pinned] equiv_digest           baseline 5da2ba60f4a46758  current 5da2ba60f4a46759  FAIL (regression)"
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
    fn lower_is_better_fails_only_on_rise() {
        assert!(gate(100.0, 115.1, Better::Lower).regressed());
        assert!(!gate(100.0, 114.9, Better::Lower).regressed());
        let g = gate(100.0, 50.0, Better::Lower);
        assert!(!g.regressed(), "fewer allocations must never fail the gate");
        assert!(g.improved());
        let zero = gate(0.0, 1.0, Better::Lower);
        assert!(zero.regressed(), "a zero baseline has no slack");
        assert!(zero.verdict().contains("ratio      -  FAIL"), "{}", zero.verdict());
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
    fn exact_fails_on_any_difference_and_on_a_baseline_of_another_type() {
        assert!(gate(1.0, 1.0 + 1e-12, Better::Exact).regressed());
        assert!(!gate(1.0, 1.0, Better::Exact).regressed());
        let mistyped = Gate { baseline: "40".into(), ..gate(40.0, 40.0, Better::Band) };
        assert!(mistyped.regressed(), "a string baseline for a numeric key must not pass");
    }
}
