//! Handover vivisection harness: spans + oracle across a scenario matrix.
//!
//! This is the aggregation layer above `fiveg-trace`. Each matrix cell runs
//! a pinned fleet scenario with a [`VivisectObserver`] per UE — a span
//! assembler and a shadow oracle riding the same hook stream, the oracle's
//! first violation snapshotting the assembler's flight recorder — then
//! folds the per-UE [`SpanLog`]s in UE order and **reconciles** the span
//! counts against the engine's own telemetry counters: completed spans per
//! type must equal the `ho.<TYPE>` commit counters exactly, their total
//! must equal `sum_prefix("ho.")` and `sim.handovers`, and failed spans
//! must equal `faults.ho_failure`. A mismatch means the span layer dropped
//! or fabricated a handover and [`reconcile`] fails loudly — the
//! `ho_vivisect` binary exits nonzero on it.
//!
//! The report (`BENCH_vivisect.json`, schema `fiveg-vivisect/v1`) contains
//! only sim-time quantities — per-phase duration CDFs, per-type /
//! per-cause / per-cell-pair breakdowns, interruption totals — and no
//! thread count, wall clock or host detail, so it is byte-identical at any
//! `--threads` and across machines. The `vivisect-smoke` CI step diffs two
//! runs to lock that in.

use crate::report::JsonBuf;
use crate::sweep::run_ordered;
use fiveg_oracle::Oracle;
use fiveg_ran::{Arch, Carrier, HandoverRecord, HoPhase, HoType, RadioTech};
use fiveg_rrc::ReconfigAction;
use fiveg_sim::{
    run_fleet_exec_observed, AttachReason, FaultConfig, FleetExec, FleetSpec, ScenarioBuilder, ServingCells, SimHook,
    Telemetry, TelemetryConfig, TickView,
};
use fiveg_telemetry::{CounterSnapshot, Histogram};
use fiveg_trace::{SpanAssembler, SpanLog, SpanOutcome};
use std::collections::BTreeMap;

/// Schema tag of the vivisection report.
pub const VIVISECT_SCHEMA: &str = "fiveg-vivisect/v1";

/// Span assembler + shadow oracle on one hook stream. The oracle's *first*
/// violation for this UE snapshots the assembler's flight recorder with
/// reason `oracle_violation`; subsequent violations only count.
pub struct VivisectObserver {
    oracle: Oracle,
    asm: SpanAssembler,
    seen: u64,
}

impl VivisectObserver {
    /// Observer for UE `ue` under `arch`; `seed` tags the oracle's
    /// violation reports.
    pub fn new(ue: u32, arch: Arch, seed: u64) -> VivisectObserver {
        VivisectObserver { oracle: Oracle::new(arch, seed), asm: SpanAssembler::new(ue, arch), seen: 0 }
    }

    /// The assembled span log and the oracle's violation count.
    pub fn finish(self) -> (SpanLog, u64) {
        let v = self.oracle.total_violations();
        (self.asm.finish(), v)
    }

    fn check(&mut self, t: f64) {
        let v = self.oracle.total_violations();
        if v > self.seen {
            if self.seen == 0 {
                self.asm.force_dump("oracle_violation", t);
            }
            self.seen = v;
        }
    }
}

impl SimHook for VivisectObserver {
    fn on_attach(&mut self, t: f64, reason: AttachReason, serving: ServingCells) {
        self.oracle.on_attach(t, reason, serving);
        self.asm.on_attach(t, reason, serving);
        self.check(t);
    }

    fn on_decision(&mut self, t: f64, action: &ReconfigAction) {
        self.oracle.on_decision(t, action);
        self.asm.on_decision(t, action);
        self.check(t);
    }

    fn on_ho_command(&mut self, t: f64) {
        self.oracle.on_ho_command(t);
        self.asm.on_ho_command(t);
        self.check(t);
    }

    fn on_ho_complete(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.oracle.on_ho_complete(t, rec, serving);
        self.asm.on_ho_complete(t, rec, serving);
        self.check(t);
    }

    fn on_ho_failure(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.oracle.on_ho_failure(t, rec, serving);
        self.asm.on_ho_failure(t, rec, serving);
        self.check(t);
    }

    fn on_sleep(&mut self, from_tick: u64, skipped: u64) {
        self.oracle.on_sleep(from_tick, skipped);
        self.asm.on_sleep(from_tick, skipped);
    }

    fn on_tick(&mut self, view: &TickView) {
        self.oracle.on_tick(view);
        self.asm.on_tick(view);
        self.check(view.t);
    }

    fn on_run_end(&mut self, t: f64, serving: ServingCells, phase: HoPhase, queued: usize) {
        self.oracle.on_run_end(t, serving, phase, queued);
        self.asm.on_run_end(t, serving, phase, queued);
        self.check(t);
    }
}

/// One cell of the vivisection matrix: a pinned fleet scenario.
#[derive(Debug, Clone)]
pub struct VivisectCell {
    /// Stable cell name, the report key.
    pub name: &'static str,
    /// Carrier under test.
    pub carrier: Carrier,
    /// Architecture.
    pub arch: Arch,
    /// Fleet size (1 = the single-UE hot path through the fleet engine).
    pub n_ues: u32,
    /// Route length, km.
    pub km: f64,
    /// Per-UE duration cap, s.
    pub duration_s: f64,
    /// Scenario seed.
    pub seed: u64,
    /// Fault injection for this cell.
    pub faults: FaultConfig,
}

/// The pinned matrix. Smoke keeps three cells (clean NSA fleet, clean SA
/// fleet, heavily faulted NSA single-UE); full mode widens the fleet, adds
/// the LTE baseline and a faulted fleet. Cell parameters are identical in
/// both modes so their rows are comparable across commits.
pub fn matrix(smoke: bool) -> Vec<VivisectCell> {
    let mut cells = vec![
        VivisectCell {
            name: "nsa_fleet_clean",
            carrier: Carrier::OpY,
            arch: Arch::Nsa,
            n_ues: 3,
            km: 4.0,
            duration_s: 60.0,
            seed: 301,
            faults: FaultConfig::NONE,
        },
        VivisectCell {
            name: "sa_fleet_clean",
            carrier: Carrier::OpY,
            arch: Arch::Sa,
            n_ues: 3,
            km: 4.0,
            duration_s: 60.0,
            seed: 302,
            faults: FaultConfig::NONE,
        },
        VivisectCell {
            name: "nsa_faulted",
            carrier: Carrier::OpY,
            arch: Arch::Nsa,
            n_ues: 1,
            km: 6.0,
            duration_s: 120.0,
            seed: 303,
            faults: FaultConfig { mr_loss_prob: 0.05, ho_failure_prob: 0.3 },
        },
    ];
    if !smoke {
        cells.push(VivisectCell {
            name: "lte_single_clean",
            carrier: Carrier::OpY,
            arch: Arch::Lte,
            n_ues: 1,
            km: 6.0,
            duration_s: 120.0,
            seed: 304,
            faults: FaultConfig::NONE,
        });
        cells.push(VivisectCell {
            name: "nsa_fleet_faulted",
            carrier: Carrier::OpY,
            arch: Arch::Nsa,
            n_ues: 10,
            km: 4.0,
            duration_s: 120.0,
            seed: 305,
            faults: FaultConfig { mr_loss_prob: 0.02, ho_failure_prob: 0.15 },
        });
    }
    cells
}

/// The result of one matrix cell.
pub struct CellOutcome {
    /// Which cell ran.
    pub cell: VivisectCell,
    /// UE-order-merged span log.
    pub log: SpanLog,
    /// The cell's telemetry counters (per-UE handles absorbed in UE order).
    pub counters: CounterSnapshot,
    /// Total oracle violations across the cell's UEs.
    pub violations: u64,
    /// Span-vs-counter reconciliation verdict.
    pub reconciled: Result<(), String>,
}

impl CellOutcome {
    /// True when the cell is fully healthy: spans reconcile, no causality
    /// anomalies, no oracle violations.
    pub fn healthy(&self) -> bool {
        self.reconciled.is_ok() && self.log.anomalies.is_empty() && self.violations == 0
    }
}

/// Runs one cell: fleet with a [`VivisectObserver`] per UE, logs merged in
/// UE order, counters snapshotted, spans reconciled. The inner fleet always
/// runs single-threaded — matrix parallelism is across cells
/// ([`run_matrix`]) — so nested thread pools never fight for cores.
pub fn run_cell(cell: &VivisectCell) -> CellOutcome {
    let base = ScenarioBuilder::freeway(cell.carrier, cell.arch, cell.km, cell.seed)
        .duration_s(cell.duration_s)
        .sample_hz(10.0)
        .faults(cell.faults)
        .build();
    let spec = FleetSpec::new(base, cell.n_ues).stagger_s(10.0).speed_jitter(0.1);
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let (arch, seed) = (cell.arch, cell.seed);
    let (_ft, observers) =
        run_fleet_exec_observed(&spec, FleetExec::threads(1), &tele, |ue| VivisectObserver::new(ue, arch, seed));

    let mut log = SpanLog::default();
    let mut violations = 0;
    for o in observers {
        let (l, v) = o.finish();
        violations += v;
        log.absorb(l);
    }
    let counters = tele.counter_snapshot();
    let reconciled = reconcile(&log, &counters);
    CellOutcome { cell: cell.clone(), log, counters, violations, reconciled }
}

/// Runs the whole matrix, cells fanned out over `threads` workers, results
/// in matrix order regardless of completion order.
pub fn run_matrix(cells: &[VivisectCell], threads: usize) -> Vec<CellOutcome> {
    run_ordered(cells.len(), threads, |i| run_cell(&cells[i]))
}

/// Cross-checks the span log against the engine's telemetry counters.
///
/// The two sides never share code: counters are incremented by the engine
/// at commit, spans are assembled from the hook stream. Exact agreement —
/// per type, in total, and on failures — is therefore real evidence that
/// the span layer neither drops nor fabricates handovers.
pub fn reconcile(log: &SpanLog, counters: &CounterSnapshot) -> Result<(), String> {
    let mut total = 0u64;
    for (h, n) in log.completed_by_type() {
        let key = format!("ho.{}", h.acronym());
        let c = counters.get(&key);
        if c != n {
            return Err(format!("{key}: {n} completed spans vs counter {c}"));
        }
        total += n;
    }
    let by_prefix = counters.sum_prefix("ho.");
    if by_prefix != total {
        return Err(format!("ho.* counters sum to {by_prefix}, spans completed {total}"));
    }
    let commits = counters.get("sim.handovers");
    if commits != total {
        return Err(format!("sim.handovers is {commits}, spans completed {total}"));
    }
    let failed = log.count(SpanOutcome::Failed);
    let fail_ctr = counters.get("faults.ho_failure");
    if fail_ctr != failed {
        return Err(format!("faults.ho_failure is {fail_ctr}, failed spans {failed}"));
    }
    Ok(())
}

fn leg_str(leg: Option<RadioTech>) -> &'static str {
    match leg {
        Some(RadioTech::Lte) => "lte",
        Some(RadioTech::Nr) => "nr",
        None => "?",
    }
}

/// Writes a phase-duration CDF object from `h` under the current JSON
/// position: count plus min/p10/p25/p50/p75/p90/p95/p99/max/mean, all ms.
fn write_cdf(j: &mut JsonBuf, h: &Histogram, sum_ms: f64) {
    j.open('{');
    j.key("count");
    j.uint(h.count());
    j.key("min_ms");
    j.num(h.percentile(0.0));
    for (k, q) in
        [("p10", 0.10), ("p25", 0.25), ("p50", 0.50), ("p75", 0.75), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)]
    {
        j.key(&format!("{k}_ms"));
        j.num(h.percentile(q));
    }
    j.key("max_ms");
    j.num(h.percentile(1.0));
    j.key("mean_ms");
    j.num(if h.count() == 0 { 0.0 } else { sum_ms / h.count() as f64 });
    j.close('}');
}

/// Builds the `fiveg-vivisect/v1` report. Deliberately **no** `threads`
/// field and no wall-clock metric: the report must be byte-identical at any
/// thread count.
pub fn report(mode: &str, outcomes: &[CellOutcome]) -> String {
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(VIVISECT_SCHEMA);
    j.key("mode");
    j.str_val(mode);
    j.key("cells");
    j.open('[');
    for o in outcomes {
        write_cell(&mut j, o);
    }
    j.close(']');
    j.key("totals");
    j.open('{');
    for (key, f) in [
        ("spans", SpanOutcome::Completed),
        ("failed", SpanOutcome::Failed),
        ("orphaned", SpanOutcome::Orphaned),
        ("abandoned", SpanOutcome::Abandoned),
    ] {
        let n: u64 = outcomes.iter().map(|o| o.log.count(f)).sum();
        j.key(if key == "spans" { "completed" } else { key });
        j.uint(n);
    }
    j.key("anomalies");
    j.uint(outcomes.iter().map(|o| o.log.anomalies.len() as u64).sum());
    j.key("violations");
    j.uint(outcomes.iter().map(|o| o.violations).sum());
    j.key("dumps");
    j.uint(outcomes.iter().map(|o| o.log.dumps.len() as u64).sum());
    j.key("reconciled");
    j.bool_val(outcomes.iter().all(|o| o.reconciled.is_ok()));
    j.close('}');
    j.close('}');
    j.finish_line()
}

fn write_cell(j: &mut JsonBuf, o: &CellOutcome) {
    let c = &o.cell;
    j.open('{');
    j.key("name");
    j.str_val(c.name);
    j.key("carrier");
    j.str_val(&format!("{:?}", c.carrier));
    j.key("arch");
    j.str_val(c.arch.label());
    j.key("n_ues");
    j.uint(u64::from(c.n_ues));
    j.key("duration_s");
    j.num(c.duration_s);
    j.key("faulted");
    j.bool_val(c.faults.active());
    j.key("seed");
    j.uint(c.seed);

    for (key, outcome) in [
        ("completed", SpanOutcome::Completed),
        ("failed", SpanOutcome::Failed),
        ("orphaned", SpanOutcome::Orphaned),
        ("abandoned", SpanOutcome::Abandoned),
    ] {
        j.key(key);
        j.uint(o.log.count(outcome));
    }
    j.key("anomalies");
    j.uint(o.log.anomalies.len() as u64);
    j.key("violations");
    j.uint(o.violations);
    j.key("dumps");
    j.uint(o.log.dumps.len() as u64);
    j.key("reconciled");
    j.bool_val(o.reconciled.is_ok());
    if let Err(e) = &o.reconciled {
        j.key("reconcile_error");
        j.str_val(e);
    }

    // --- phase CDFs over completed spans (sim-time, ms)
    let mut trigger = Histogram::new();
    let mut prep = Histogram::new();
    let mut exec = Histogram::new();
    let mut completion = Histogram::new();
    let mut total = Histogram::new();
    let (mut sums, mut int_lte, mut int_nr) = ([0.0f64; 5], 0.0f64, 0.0f64);
    for s in o.log.spans.iter() {
        match s.outcome {
            SpanOutcome::Completed => {}
            SpanOutcome::Failed => {
                // a failed execution still halts the data plane until the
                // rollback lands — charge its window too
                let (l, n) = s.interruption_ms();
                int_lte += l;
                int_nr += n;
                continue;
            }
            _ => continue,
        }
        trigger.observe(s.trigger_ms());
        sums[0] += s.trigger_ms();
        if let Some(v) = s.prep_ms() {
            prep.observe(v);
            sums[1] += v;
        }
        if let Some(v) = s.exec_ms() {
            exec.observe(v);
            sums[2] += v;
        }
        if let Some(v) = s.completion_ms() {
            completion.observe(v);
            sums[3] += v;
        }
        if let Some(v) = s.total_ms() {
            total.observe(v);
            sums[4] += v;
        }
        let (l, n) = s.interruption_ms();
        int_lte += l;
        int_nr += n;
    }
    j.key("phases");
    j.open('{');
    for (key, h, sum) in [
        ("trigger", &trigger, sums[0]),
        ("preparation", &prep, sums[1]),
        ("execution", &exec, sums[2]),
        ("completion", &completion, sums[3]),
        ("total", &total, sums[4]),
    ] {
        j.key(key);
        write_cdf(j, h, sum);
    }
    j.close('}');

    j.key("interruption");
    j.open('{');
    j.key("lte_ms_total");
    j.num(int_lte);
    j.key("nr_ms_total");
    j.num(int_nr);
    j.close('}');

    // --- per-type rows (completed spans), HoType::ALL order, non-zero only
    j.key("by_type");
    j.open('[');
    for h in HoType::ALL {
        let mut hist = Histogram::new();
        let mut sum = 0.0;
        for s in o.log.spans.iter().filter(|s| s.outcome == SpanOutcome::Completed && s.ho_type == Some(h)) {
            if let Some(v) = s.total_ms() {
                hist.observe(v);
                sum += v;
            }
        }
        if hist.count() == 0 {
            continue;
        }
        j.open('{');
        j.key("type");
        j.str_val(h.acronym());
        j.key("durations");
        write_cdf(j, &hist, sum);
        j.close('}');
    }
    j.close(']');

    // --- per-cause counts (all spans: a cause that only ever fails or
    // orphans still shows up)
    let mut by_cause: BTreeMap<&str, u64> = BTreeMap::new();
    for s in o.log.spans.iter() {
        *by_cause.entry(s.cause).or_insert(0) += 1;
    }
    j.key("by_cause");
    j.open('[');
    for (cause, n) in by_cause {
        j.open('{');
        j.key("cause");
        j.str_val(cause);
        j.key("count");
        j.uint(n);
        j.close('}');
    }
    j.close(']');

    // --- per-cell-pair counts (completed spans; source/target are the
    // deployment's dense cell ids, `null` encoded as -1)
    let mut pairs: BTreeMap<(&str, i64, i64), u64> = BTreeMap::new();
    for s in o.log.spans.iter().filter(|s| s.outcome == SpanOutcome::Completed) {
        let key = (
            leg_str(s.leg),
            s.source.map(|c| i64::from(c.0)).unwrap_or(-1),
            s.target.map(|c| i64::from(c.0)).unwrap_or(-1),
        );
        *pairs.entry(key).or_insert(0) += 1;
    }
    j.key("by_cell_pair");
    j.open('[');
    for ((leg, src, dst), n) in pairs {
        j.open('{');
        j.key("leg");
        j.str_val(leg);
        j.key("source");
        j.num(src as f64);
        j.key("target");
        j.num(dst as f64);
        j.key("count");
        j.uint(n);
        j.close('}');
    }
    j.close(']');
    j.close('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_healthy_and_reconciles() {
        let cells = matrix(true);
        assert_eq!(cells.len(), 3);
        let outcomes = run_matrix(&cells, 1);
        for o in &outcomes {
            assert!(o.reconciled.is_ok(), "{}: {:?}", o.cell.name, o.reconciled);
            assert!(o.log.anomalies.is_empty(), "{}: {:?}", o.cell.name, o.log.anomalies);
            assert_eq!(o.violations, 0, "{}", o.cell.name);
            assert!(o.healthy());
        }
        // the matrix must actually exercise handovers, and the faulted cell
        // must produce failed spans — otherwise the reconciliation of
        // `faults.ho_failure` is vacuous
        let completed: u64 = outcomes.iter().map(|o| o.log.count(SpanOutcome::Completed)).sum();
        assert!(completed > 0, "matrix produced no handovers");
        let failed: u64 = outcomes.iter().map(|o| o.log.count(SpanOutcome::Failed)).sum();
        assert!(failed > 0, "faulted cell produced no failed spans");
    }

    #[test]
    fn report_is_thread_count_independent() {
        let cells = matrix(true);
        let r1 = report("smoke", &run_matrix(&cells, 1));
        let r2 = report("smoke", &run_matrix(&cells, 2));
        assert_eq!(r1, r2);
        assert!(r1.contains("\"schema\":\"fiveg-vivisect/v1\""));
        assert!(!r1.contains("\"threads\""));
    }

    #[test]
    fn reconcile_rejects_fabricated_and_dropped_spans() {
        let cells = matrix(true);
        let o = run_cell(&cells[0]);
        assert!(o.reconciled.is_ok());
        // dropping a completed span breaks the per-type equality
        let mut dropped = o.log.clone();
        let idx = dropped.spans.iter().position(|s| s.outcome == SpanOutcome::Completed).expect("has completed span");
        dropped.spans.remove(idx);
        assert!(reconcile(&dropped, &o.counters).is_err());
        // fabricating one breaks it the other way
        let mut fabricated = o.log.clone();
        let mut extra = fabricated.spans[0].clone();
        extra.seq += 1000;
        extra.outcome = SpanOutcome::Completed;
        fabricated.spans.push(extra);
        assert!(reconcile(&fabricated, &o.counters).is_err());
    }
}
