//! The post-run half of the oracle: consistency checks over a finished
//! [`Trace`], the telemetry counter algebra, the event journal, and the
//! codec round-trip identity.
//!
//! These complement the live shadow checks ([`crate::shadow::Oracle`]):
//! the shadow watches transitions as they happen; this module checks the
//! *artifacts* a run leaves behind — the things every figure and benchmark
//! in the repo is computed from.

use crate::violation::Violation;
use fiveg_geo::Point;
use fiveg_ran::{per_band_top, Arch, Deployment, RadioSnapshot};
use fiveg_sim::engine::SEARCH_RADIUS_M;
use fiveg_sim::{FaultConfig, Scenario, Telemetry, Trace};
use std::collections::BTreeSet;

/// Physical RSRP bounds, dBm (the `Rrs` clamp range).
const RSRP_BOUNDS: (f64, f64) = (-140.0, -44.0);
/// Physical RSRQ bounds, dB.
const RSRQ_BOUNDS: (f64, f64) = (-20.0, -3.0);
/// Physical SINR bounds, dB.
const SINR_BOUNDS: (f64, f64) = (-20.0, 40.0);
/// Detail cap: a systematically broken trace would otherwise report one
/// violation per sample.
const MAX_DETAILED: usize = 64;

struct Collector {
    seed: u64,
    kept: Vec<Violation>,
    total: u64,
}

impl Collector {
    fn push(&mut self, invariant: &'static str, t: f64, detail: String) {
        self.total += 1;
        if self.kept.len() < MAX_DETAILED {
            self.kept.push(Violation { invariant, tick: 0, t, seed: self.seed, detail });
        }
    }

    fn finish(mut self) -> Vec<Violation> {
        let overflow = self.total - self.kept.len() as u64;
        if overflow > 0 {
            self.kept.push(Violation {
                invariant: "violations_truncated",
                tick: 0,
                t: 0.0,
                seed: self.seed,
                detail: format!("{overflow} further violations suppressed"),
            });
        }
        self.kept
    }
}

/// Checks every post-run invariant of `trace`. `faults` must be the config
/// the run actually used (pass the scenario's `faults`; clamping is applied
/// here). `tele` enables the counter-algebra and journal checks when it is
/// the enabled handle the run recorded into; pass `None` for uninstrumented
/// runs. Returns all violations found (empty = consistent).
pub fn check_trace(trace: &Trace, faults: FaultConfig, tele: Option<&Telemetry>) -> Vec<Violation> {
    let mut c = Collector { seed: trace.meta.seed, kept: Vec::new(), total: 0 };
    check_samples(trace, &mut c);
    check_handovers(trace, &mut c);
    check_reports(trace, &mut c);
    if let Some(tele) = tele {
        if tele.is_enabled() {
            check_counters(trace, faults, tele, &mut c);
            check_journal(trace, tele, &mut c);
        }
    }
    check_roundtrip(trace, &mut c);
    c.finish()
}

fn check_rrs_bounds(c: &mut Collector, t: f64, what: &str, rrs: &fiveg_radio::Rrs) {
    let fields = [
        ("rsrp_dbm", rrs.rsrp_dbm, RSRP_BOUNDS),
        ("rsrq_db", rrs.rsrq_db, RSRQ_BOUNDS),
        ("sinr_db", rrs.sinr_db, SINR_BOUNDS),
    ];
    for (name, v, (lo, hi)) in fields {
        if !v.is_finite() || v < lo - 1e-9 || v > hi + 1e-9 {
            c.push("rrs_bounds", t, format!("{what} {name}={v} outside [{lo}, {hi}]"));
        }
    }
}

fn check_samples(trace: &Trace, c: &mut Collector) {
    let known: BTreeSet<u32> = trace.cells.iter().map(|e| e.cell).collect();
    let mut last_t = f64::NEG_INFINITY;
    let mut last_dist = f64::NEG_INFINITY;
    for s in &trace.samples {
        if s.t <= last_t {
            c.push("sample_times", s.t, format!("sample t={} did not advance past {last_t}", s.t));
        }
        last_t = s.t;
        if s.dist_m < last_dist - 1e-9 {
            c.push("sample_distance", s.t, format!("dist_m={} ran backwards past {last_dist}", s.dist_m));
        }
        last_dist = s.dist_m;
        for (leg, id) in [("lte", s.lte_cell), ("nr", s.nr_cell)] {
            if let Some(id) = id {
                if !known.contains(&id) {
                    c.push("cell_dict", s.t, format!("serving {leg} cell {id} missing from the cell dictionary"));
                }
            }
        }
        if let Some(rrs) = &s.lte_rrs {
            check_rrs_bounds(c, s.t, "lte serving", rrs);
        }
        if let Some(rrs) = &s.nr_rrs {
            check_rrs_bounds(c, s.t, "nr serving", rrs);
        }
        for (id, rrs) in s.lte_neighbors.iter().chain(s.nr_neighbors.iter()) {
            if !known.contains(id) {
                c.push("cell_dict", s.t, format!("neighbor cell {id} missing from the cell dictionary"));
            }
            check_rrs_bounds(c, s.t, "neighbor", rrs);
        }
        if !s.capacity_mbps.is_finite() || s.capacity_mbps < 0.0 {
            c.push("capacity_bounds", s.t, format!("capacity_mbps={}", s.capacity_mbps));
        }
        if !s.base_rtt_ms.is_finite() || s.base_rtt_ms < 0.0 {
            c.push("capacity_bounds", s.t, format!("base_rtt_ms={}", s.base_rtt_ms));
        }
    }
}

fn check_handovers(trace: &Trace, c: &mut Collector) {
    let mut last_complete = f64::NEG_INFINITY;
    for h in &trace.handovers {
        if !(h.t_decision < h.t_command && h.t_command < h.t_complete) {
            c.push(
                "record_times",
                h.t_complete,
                format!(
                    "{}: t_decision={} t_command={} t_complete={} not strictly ordered",
                    h.ho_type.acronym(),
                    h.t_decision,
                    h.t_command,
                    h.t_complete
                ),
            );
        }
        if h.t_complete < last_complete - 1e-9 {
            c.push(
                "record_times",
                h.t_complete,
                format!("{} completed at {} after a later HO at {last_complete}", h.ho_type.acronym(), h.t_complete),
            );
        }
        last_complete = last_complete.max(h.t_complete);
        if h.arch != trace.meta.arch {
            c.push("record_times", h.t_complete, format!("{} recorded arch {:?}", h.ho_type.acronym(), h.arch));
        }
    }
}

fn check_reports(trace: &Trace, c: &mut Collector) {
    let mut last_t = f64::NEG_INFINITY;
    for r in &trace.reports {
        if r.t < last_t - 1e-9 {
            c.push("report_times", r.t, format!("report t={} ran backwards past {last_t}", r.t));
        }
        last_t = last_t.max(r.t);
    }
}

/// The counter algebra: telemetry counters and trace statistics are two
/// recordings of the same run and must agree exactly.
fn check_counters(trace: &Trace, faults: FaultConfig, tele: &Telemetry, c: &mut Collector) {
    let snap = tele.counter_snapshot();
    let exact: [(&str, u64, u64); 5] = [
        ("sim.ticks", snap.get("sim.ticks"), trace.samples.len() as u64),
        ("sim.reports", snap.get("sim.reports"), trace.reports.len() as u64),
        ("sim.handovers", snap.get("sim.handovers"), trace.handovers.len() as u64),
        ("sim.rlf", snap.get("sim.rlf"), trace.rlf_count),
        ("faults.ho_failure", snap.get("faults.ho_failure"), trace.ho_failures),
    ];
    for (name, got, want) in exact {
        if got != want {
            c.push("counter_algebra", 0.0, format!("{name}={got} but the trace says {want}"));
        }
    }
    let per_type = snap.sum_prefix("ho.");
    if per_type != trace.handovers.len() as u64 {
        c.push(
            "counter_algebra",
            0.0,
            format!("per-type ho.* counters sum to {per_type}, trace has {} handovers", trace.handovers.len()),
        );
    }
    // every started HO either committed, failed, or is still in flight at
    // run end (at most one)
    let started = snap.get("ran.ho_started");
    let finished = trace.handovers.len() as u64 + trace.ho_failures;
    if started < finished || started > finished + 1 {
        c.push(
            "counter_algebra",
            0.0,
            format!("ran.ho_started={started} vs {} commits + {} failures", trace.handovers.len(), trace.ho_failures),
        );
    }
    // fault counters must be silent when the (clamped) probability is zero
    let f = faults.clamped();
    if f.mr_loss_prob == 0.0 && snap.get("faults.mr_loss") != 0 {
        c.push("counter_algebra", 0.0, format!("faults.mr_loss={} with mr_loss_prob=0", snap.get("faults.mr_loss")));
    }
    if f.ho_failure_prob == 0.0 && trace.ho_failures != 0 {
        c.push("counter_algebra", 0.0, format!("{} HO failures with ho_failure_prob=0", trace.ho_failures));
    }
}

/// Journal sanity: sequence numbers are strictly increasing, sim-time is
/// monotone up to one tick interval (HO events are journaled at the tick
/// that processes them but stamped with their precise completion time, which
/// falls inside the preceding interval), and (when nothing was dropped) the
/// journaled HO story matches the trace.
fn check_journal(trace: &Trace, tele: &Telemetry, c: &mut Collector) {
    let dt = match trace.samples.as_slice() {
        [a, b, ..] => b.t - a.t,
        _ => 0.0,
    };
    let entries = tele.events();
    let mut last_t = f64::NEG_INFINITY;
    let mut last_seq = None::<u64>;
    let mut commits = 0u64;
    let mut failures = 0u64;
    let mut rlfs = 0u64;
    for e in &entries {
        if e.t < last_t - dt - 1e-9 {
            c.push(
                "journal_order",
                e.t,
                format!("journal t={} ran {dt}+ backwards past {last_t} (seq {})", e.t, e.seq),
            );
        }
        last_t = last_t.max(e.t);
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                c.push("journal_order", e.t, format!("journal seq {} did not advance past {prev}", e.seq));
            }
        }
        last_seq = Some(e.seq);
        match e.event.kind() {
            "ho_commit" => commits += 1,
            "ho_failure" => failures += 1,
            "rlf" => rlfs += 1,
            _ => {}
        }
    }
    if tele.journal_dropped() == 0 {
        let story = [
            ("ho_commit", commits, trace.handovers.len() as u64),
            ("ho_failure", failures, trace.ho_failures),
            ("rlf", rlfs, trace.rlf_count),
        ];
        for (kind, got, want) in story {
            if got != want {
                c.push("journal_story", 0.0, format!("journal has {got} {kind} events, trace says {want}"));
            }
        }
    }
}

/// Save/load identity: the trace codec must neither lose nor invent data.
fn check_roundtrip(trace: &Trace, c: &mut Collector) {
    let first = trace.encode();
    let back = match Trace::decode(&first) {
        Ok(t) => t,
        Err(e) => {
            c.push("trace_roundtrip", 0.0, format!("decode failed: {e}"));
            return;
        }
    };
    if &back != trace {
        c.push("trace_roundtrip", 0.0, "trace != decode(encode(trace))".into());
    } else if back.encode() != first {
        c.push("trace_roundtrip", 0.0, "re-encoded bytes differ from the first encoding".into());
    }
}

/// The snapshot engine's radio contract, checked along the trajectory of a
/// finished run of `s`. A [`RadioSnapshot`] is refreshed at the t=0 attach
/// point and at every recorded sample's `(pos, t)`, with the engine's leg
/// flags, and each wanted leg must equal [`per_band_top`] bit for bit. The
/// engine reads radio state only through that table, plus `Cell::rx_dbm` for
/// a serving cell outside it, so equality at every tick means the trace is
/// the one an exhaustive [`Deployment::strongest`] scan would have produced.
/// Returns the number of points checked, or the first mismatch.
pub fn check_radio_trajectory(s: &Scenario, trace: &Trace) -> Result<usize, String> {
    let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
    let mut snap = RadioSnapshot::new();
    // the initial attach reads only the control-plane technology's leg
    let sa = s.arch == Arch::Sa;
    let attach = (s.route.point_at(0.0), 0.0, !sa, sa);
    let ticks = trace.samples.iter().map(|x| (Point::new(x.pos.0, x.pos.1), x.t, !sa, s.arch != Arch::Lte));
    let mut points = 0;
    for (pos, t, want_lte, want_nr) in std::iter::once(attach).chain(ticks) {
        snap.refresh(&d, &pos, t, SEARCH_RADIUS_M, want_lte, want_nr);
        for (nr, wanted) in [(false, want_lte), (true, want_nr)] {
            if !wanted {
                continue;
            }
            let want = per_band_top(&d, &pos, t, nr, SEARCH_RADIUS_M);
            let got = snap.strongest(nr);
            let same = got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
            if !same {
                let leg = if nr { "NR" } else { "LTE" };
                return Err(format!(
                    "{leg} snapshot at t={t} ({:.1}, {:.1}) is {got:?}, per-band top is {want:?}",
                    pos.x, pos.y
                ));
            }
        }
        points += 1;
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::{Arch, Carrier};
    use fiveg_sim::{ScenarioBuilder, TelemetryConfig};

    #[test]
    fn clean_instrumented_run_passes_all_checks() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 51).duration_s(180.0).sample_hz(10.0).build();
        let tele = Telemetry::new(TelemetryConfig::deterministic());
        let tr = s.run_instrumented(&tele);
        let v = check_trace(&tr, s.faults, Some(&tele));
        assert!(v.is_empty(), "{:?}", v.iter().map(|x| x.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn faulty_instrumented_run_passes_all_checks() {
        let mut s =
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 52).duration_s(180.0).sample_hz(10.0).build();
        s.faults = FaultConfig { mr_loss_prob: 0.3, ho_failure_prob: 0.5 };
        let tele = Telemetry::new(TelemetryConfig::deterministic());
        let tr = s.run_instrumented(&tele);
        let v = check_trace(&tr, s.faults, Some(&tele));
        assert!(v.is_empty(), "{:?}", v.iter().map(|x| x.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn corrupted_sample_times_are_flagged() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Lte, 3.0, 53).duration_s(60.0).sample_hz(10.0).build();
        let mut tr = s.run();
        let n = tr.samples.len();
        tr.samples[n / 2].t = tr.samples[n / 2 - 1].t; // stall the clock
        let v = check_trace(&tr, s.faults, None);
        assert!(v.iter().any(|x| x.invariant == "sample_times"), "{v:?}");
    }

    #[test]
    fn corrupted_rrs_is_flagged() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Lte, 3.0, 54).duration_s(60.0).sample_hz(10.0).build();
        let mut tr = s.run();
        let sample = tr.samples.iter_mut().find(|s| s.lte_rrs.is_some()).expect("an attached sample");
        sample.lte_rrs.as_mut().unwrap().rsrp_dbm = 17.0; // transmit-side power at the UE
        let v = check_trace(&tr, s.faults, None);
        assert!(v.iter().any(|x| x.invariant == "rrs_bounds"), "{v:?}");
    }

    #[test]
    fn corrupted_handover_ordering_is_flagged() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 55).duration_s(180.0).sample_hz(10.0).build();
        let mut tr = s.run();
        assert!(!tr.handovers.is_empty());
        tr.handovers[0].t_command = tr.handovers[0].t_complete + 1.0;
        let v = check_trace(&tr, s.faults, None);
        assert!(v.iter().any(|x| x.invariant == "record_times"), "{v:?}");
    }

    #[test]
    fn counter_mismatch_is_flagged() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 56).duration_s(180.0).sample_hz(10.0).build();
        let tele = Telemetry::new(TelemetryConfig::deterministic());
        let mut tr = s.run_instrumented(&tele);
        tr.samples.pop(); // now sim.ticks != samples.len()
        let v = check_trace(&tr, s.faults, Some(&tele));
        assert!(v.iter().any(|x| x.invariant == "counter_algebra"), "{v:?}");
    }

    #[test]
    fn detail_flood_is_truncated() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Lte, 3.0, 57).duration_s(120.0).sample_hz(10.0).build();
        let mut tr = s.run();
        for sample in &mut tr.samples {
            sample.capacity_mbps = -1.0;
        }
        let v = check_trace(&tr, s.faults, None);
        assert!(v.len() <= MAX_DETAILED + 1);
        assert!(v.last().unwrap().invariant == "violations_truncated", "{:?}", v.last());
    }
}
