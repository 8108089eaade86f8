//! # fiveg-telemetry — deterministic instrumentation for the simulator stack
//!
//! The paper's method is cross-layer *visibility*: XCAL + 5G Tracker record
//! RRC events, radio state and application QoE on every drive. This crate is
//! the simulator's equivalent recorder, designed around three rules:
//!
//! 1. **Off by default, free when off.** Every subsystem holds a cheap
//!    [`Telemetry`] handle; a disabled handle is a single `Option` check on
//!    every operation and allocates nothing.
//! 2. **Bit-for-bit deterministic when on.** Journal events carry *sim-time*
//!    only — two runs of the same scenario produce identical journals.
//!    Wall-clock appears only in the optional phase-timing report.
//! 3. **Zero external dependencies.** The journal's JSONL sink and the
//!    summary formatter are hand-rolled over `std`, so every workspace crate
//!    can depend on telemetry without widening the dependency graph.
//!
//! What it provides:
//!
//! * a registry-backed set of named **counters**, **gauges** and
//!   **log-scale histograms** (p50/p95/p99 from geometric buckets), with
//!   cheap cloneable handles ([`Counter`], [`HistogramHandle`]);
//! * **scoped phase timers** ([`Phase`], [`Telemetry::phase`]): RAII guards
//!   that attribute wall-time to tick-loop phases (mobility, channel/RRS,
//!   measurement, policy, HO state machine, link, trace append) and to
//!   Prognos prep/exec stages;
//! * a bounded **event journal** ([`Event`], [`JournalEntry`]): a ring
//!   buffer of typed events (HO start/commit/failure, RLF, MR loss, stall
//!   start/end, prediction issued/hit/miss, fault injections) with a JSONL
//!   sink and a thousands-separated, percentile-annotated end-of-run
//!   summary ([`Telemetry::summary`]);
//! * the deterministic **JSON writer** ([`JsonBuf`]) shared by every
//!   byte-compared report and flight-recorder dump in the workspace.

pub mod histogram;
pub mod journal;
pub mod json;
pub mod phase;
pub mod summary;

pub use histogram::{Histogram, HistogramSnapshot};
pub use journal::{Event, JournalEntry};
pub use json::JsonBuf;
pub use phase::{Phase, PhaseStats};
pub use summary::group_thousands;

use histogram::Histogram as Hist;
use journal::Journal;
use std::collections::BTreeMap;
use std::io::Write as IoWrite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Telemetry configuration, carried on a `Scenario`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch. Off ⇒ every handle is a no-op.
    pub enabled: bool,
    /// Ring-buffer capacity of the event journal. When full, the oldest
    /// events are dropped (and counted as dropped).
    pub journal_capacity: usize,
    /// Collect wall-clock phase timings (the only non-deterministic data;
    /// never enters the journal).
    pub timing: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub const OFF: TelemetryConfig = TelemetryConfig { enabled: false, journal_capacity: 0, timing: false };

    /// Counters + journal + phase timers on, with a 64 Ki-event journal.
    pub fn on() -> TelemetryConfig {
        TelemetryConfig { enabled: true, journal_capacity: 65_536, timing: true }
    }

    /// Counters + journal on, wall-clock timers off (fully deterministic
    /// output, summary included).
    pub fn deterministic() -> TelemetryConfig {
        TelemetryConfig { enabled: true, journal_capacity: 65_536, timing: false }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::OFF
    }
}

struct Inner {
    cfg: TelemetryConfig,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Mutex<Hist>>>>,
    phases: [phase::PhaseCell; Phase::COUNT],
    journal: Mutex<Journal>,
}

/// A cheap, cloneable recorder handle. Disabled handles no-op everywhere.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "Telemetry(enabled, journal={})", i.journal.lock().unwrap().len()),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

/// A counter handle: one atomic, no name lookup after creation.
#[derive(Clone, Default, Debug)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

/// Immutable point-in-time copy of a counter registry, taken with
/// [`Telemetry::counter_snapshot`]. Built for consumers that *check* counters
/// rather than display them — fiveg-oracle's counter-algebra invariants —
/// so it offers exact lookup and dotted-prefix sums over a stable map.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    map: BTreeMap<String, u64>,
}

impl CounterSnapshot {
    /// Value of one counter; 0 when it was never created (matching
    /// [`Telemetry::counter_value`] semantics).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `sum_prefix("ho.")` totals the per-HO-type commit counters.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.map.range(prefix.to_string()..).take_while(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Name-sorted iteration over all counters.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of distinct counters captured.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no counter was ever created (or telemetry was disabled).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A histogram handle bound to one named log-scale histogram.
#[derive(Clone, Default, Debug)]
pub struct HistogramHandle(Option<Arc<Mutex<Hist>>>);

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().observe(v);
        }
    }
}

/// RAII guard returned by [`Telemetry::phase`]; records wall-time on drop.
pub struct PhaseGuard {
    inner: Option<(Arc<Inner>, Phase, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((inner, p, start)) = self.inner.take() {
            let ns = start.elapsed().as_nanos() as u64;
            let cell = &inner.phases[p.index()];
            cell.total_ns.fetch_add(ns, Ordering::Relaxed);
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.hist.lock().unwrap().observe(ns as f64);
        }
    }
}

impl Telemetry {
    /// A handle that records nothing, at near-zero cost.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Builds a recorder from a config (`enabled: false` ⇒ disabled handle).
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        if !cfg.enabled {
            return Telemetry::disabled();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                cfg,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                phases: std::array::from_fn(|_| phase::PhaseCell::new()),
                journal: Mutex::new(Journal::new(cfg.journal_capacity)),
            })),
        }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // --- counters ---------------------------------------------------------

    /// Returns a cheap handle to the named counter (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => {
                let mut map = inner.counters.lock().unwrap();
                let cell = map.entry(name.to_string()).or_default();
                Counter(Some(Arc::clone(cell)))
            }
            None => Counter(None),
        }
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            let mut map = inner.counters.lock().unwrap();
            map.entry(name.to_string()).or_default().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.lock().unwrap().get(name).map(|c| c.load(Ordering::Relaxed)))
            .unwrap_or(0)
    }

    /// Snapshot of all counters, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(i) => i.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect(),
            None => Vec::new(),
        }
    }

    /// Point-in-time, queryable copy of the whole counter registry. Where
    /// [`Telemetry::counters`] hands back a flat listing for display, a
    /// [`CounterSnapshot`] supports the lookups a consistency checker needs
    /// (exact values, prefix sums) without re-locking the live registry per
    /// query. Empty when disabled.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        CounterSnapshot { map: self.counters().into_iter().collect() }
    }

    // --- gauges -----------------------------------------------------------

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let mut map = inner.gauges.lock().unwrap();
            map.entry(name.to_string()).or_default().store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value of a gauge (`None` when absent or disabled).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|i| i.gauges.lock().unwrap().get(name).map(|g| f64::from_bits(g.load(Ordering::Relaxed))))
    }

    /// Snapshot of all gauges, name-sorted.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        match &self.inner {
            Some(i) => i
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            None => Vec::new(),
        }
    }

    // --- histograms -------------------------------------------------------

    /// Returns a cheap handle to the named histogram (created on first use).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match &self.inner {
            Some(inner) => {
                let mut map = inner.hists.lock().unwrap();
                let cell = map.entry(name.to_string()).or_insert_with(|| Arc::new(Mutex::new(Hist::new())));
                HistogramHandle(Some(Arc::clone(cell)))
            }
            None => HistogramHandle(None),
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let mut map = inner.hists.lock().unwrap();
            map.entry(name.to_string()).or_insert_with(|| Arc::new(Mutex::new(Hist::new()))).lock().unwrap().observe(v);
        }
    }

    /// Snapshot of the named histogram (`None` when absent or disabled).
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.as_ref().and_then(|i| i.hists.lock().unwrap().get(name).map(|h| h.lock().unwrap().snapshot()))
    }

    /// Snapshots of all histograms, name-sorted.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        match &self.inner {
            Some(i) => i.hists.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.lock().unwrap().snapshot())).collect(),
            None => Vec::new(),
        }
    }

    // --- phase timers -----------------------------------------------------

    /// Starts a scoped wall-clock timer for `p`; the elapsed time is
    /// attributed when the returned guard drops. No-op when disabled or
    /// when `timing` is off in the config.
    pub fn phase(&self, p: Phase) -> PhaseGuard {
        match &self.inner {
            Some(inner) if inner.cfg.timing => PhaseGuard { inner: Some((Arc::clone(inner), p, Instant::now())) },
            _ => PhaseGuard { inner: None },
        }
    }

    /// Aggregated wall-clock stats for one phase.
    pub fn phase_stats(&self, p: Phase) -> PhaseStats {
        match &self.inner {
            Some(inner) => {
                let cell = &inner.phases[p.index()];
                PhaseStats {
                    phase: p,
                    calls: cell.calls.load(Ordering::Relaxed),
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    hist: cell.hist.lock().unwrap().snapshot(),
                }
            }
            None => PhaseStats { phase: p, calls: 0, total_ns: 0, hist: HistogramSnapshot::default() },
        }
    }

    /// Stats for every phase that recorded at least one call.
    pub fn phases(&self) -> Vec<PhaseStats> {
        Phase::ALL.iter().map(|&p| self.phase_stats(p)).filter(|s| s.calls > 0).collect()
    }

    // --- event journal ----------------------------------------------------

    /// Appends an event at sim-time `t` (seconds).
    pub fn record(&self, t: f64, event: Event) {
        if let Some(inner) = &self.inner {
            inner.journal.lock().unwrap().record(t, event);
        }
    }

    /// Number of events currently retained.
    pub fn journal_len(&self) -> usize {
        self.inner.as_ref().map(|i| i.journal.lock().unwrap().len()).unwrap_or(0)
    }

    /// Events dropped because the ring buffer was full.
    pub fn journal_dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.journal.lock().unwrap().dropped()).unwrap_or(0)
    }

    /// A snapshot of the retained journal entries, in record order.
    pub fn events(&self) -> Vec<JournalEntry> {
        match &self.inner {
            Some(i) => i.journal.lock().unwrap().entries().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The journal as JSONL (one event object per line).
    pub fn journal_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Streams the journal as JSONL into `w`.
    pub fn write_journal(&self, w: &mut dyn IoWrite) -> std::io::Result<()> {
        for e in self.events() {
            writeln!(w, "{}", e.to_json())?;
        }
        Ok(())
    }

    /// Writes the JSONL journal to `path`.
    pub fn save_journal(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.write_journal(&mut f)
    }

    // --- merging ----------------------------------------------------------

    /// Folds another recorder's registries into this one: counters add,
    /// histograms merge bucket-wise, per-phase wall-clock totals and call
    /// counts add, and gauges take `other`'s latest value. The event
    /// journal is **not** merged — journals are per-run artifacts with
    /// their own sequence numbers.
    ///
    /// Counter/histogram/phase absorption is commutative and associative,
    /// so per-worker recorders folded in any order produce the same
    /// registry state — this is what lets the fleet fold its per-UE
    /// telemetry, and a pooled bench its per-job telemetry, up
    /// deterministically. (Gauges are last-writer and should
    /// be absorbed in a deterministic order when they matter.)
    ///
    /// No-op when either handle is disabled.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(inner), Some(from)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, from) {
            return; // absorbing yourself would double-count (and deadlock)
        }
        {
            let src = from.counters.lock().unwrap();
            let mut dst = inner.counters.lock().unwrap();
            for (name, v) in src.iter() {
                dst.entry(name.clone()).or_default().fetch_add(v.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        {
            let src = from.gauges.lock().unwrap();
            let mut dst = inner.gauges.lock().unwrap();
            for (name, v) in src.iter() {
                dst.entry(name.clone()).or_default().store(v.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        {
            let src = from.hists.lock().unwrap();
            let mut dst = inner.hists.lock().unwrap();
            for (name, h) in src.iter() {
                dst.entry(name.clone())
                    .or_insert_with(|| Arc::new(Mutex::new(Hist::new())))
                    .lock()
                    .unwrap()
                    .merge(&h.lock().unwrap());
            }
        }
        for (dst, src) in inner.phases.iter().zip(from.phases.iter()) {
            dst.total_ns.fetch_add(src.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
            dst.calls.fetch_add(src.calls.load(Ordering::Relaxed), Ordering::Relaxed);
            dst.hist.lock().unwrap().merge(&src.hist.lock().unwrap());
        }
    }

    // --- reporting --------------------------------------------------------

    /// The human-readable end-of-run summary: counters (thousands
    /// separated), gauges, histogram percentiles, per-phase wall-clock
    /// timings and journal occupancy.
    pub fn summary(&self) -> String {
        summary::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr("x");
        t.observe("h", 1.0);
        t.set_gauge("g", 2.0);
        t.record(0.5, Event::Rlf { leg: "lte".into() });
        let _guard = t.phase(Phase::Mobility);
        assert!(!t.is_enabled());
        assert_eq!(t.counter_value("x"), 0);
        assert_eq!(t.journal_len(), 0);
        assert!(t.counters().is_empty());
        assert!(t.summary().contains("disabled"));
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.incr("b.two");
        t.add("a.one", 5);
        let h = t.counter("b.two");
        h.inc();
        h.add(3);
        assert_eq!(t.counter_value("a.one"), 5);
        assert_eq!(t.counter_value("b.two"), 5);
        assert_eq!(h.get(), 5);
        let names: Vec<String> = t.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one".to_string(), "b.two".to_string()]);
    }

    #[test]
    fn gauges_store_latest() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.set_gauge("speed", 1.5);
        t.set_gauge("speed", 2.5);
        assert_eq!(t.gauge_value("speed"), Some(2.5));
        assert_eq!(t.gauge_value("absent"), None);
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let t = Telemetry::new(TelemetryConfig::on());
        for i in 1..=1000 {
            t.observe("lat", i as f64);
        }
        let s = t.histogram_snapshot("lat").unwrap();
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{s:?}");
        assert!(s.p50 > 300.0 && s.p50 < 700.0, "p50 {}", s.p50);
        assert!(s.p99 > 800.0, "p99 {}", s.p99);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn phase_guard_records_time() {
        let t = Telemetry::new(TelemetryConfig::on());
        {
            let _g = t.phase(Phase::Link);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let s = t.phase_stats(Phase::Link);
        assert_eq!(s.calls, 1);
        assert!(s.total_ns > 0);
        assert_eq!(t.phases().len(), 1);
    }

    #[test]
    fn timing_off_disables_phase_guards_only() {
        let t = Telemetry::new(TelemetryConfig::deterministic());
        {
            let _g = t.phase(Phase::Link);
        }
        assert_eq!(t.phase_stats(Phase::Link).calls, 0);
        t.incr("still.works");
        assert_eq!(t.counter_value("still.works"), 1);
    }

    #[test]
    fn journal_is_bounded_ring() {
        let cfg = TelemetryConfig { enabled: true, journal_capacity: 4, timing: false };
        let t = Telemetry::new(cfg);
        for i in 0..10 {
            t.record(i as f64, Event::Rlf { leg: "nr".into() });
        }
        assert_eq!(t.journal_len(), 4);
        assert_eq!(t.journal_dropped(), 6);
        let ev = t.events();
        // oldest dropped: first retained seq is 6
        assert_eq!(ev[0].seq, 6);
        assert_eq!(ev[3].seq, 9);
    }

    #[test]
    fn journal_jsonl_is_deterministic() {
        let mk = || {
            let t = Telemetry::new(TelemetryConfig::on());
            t.record(0.25, Event::HoStart { ho_type: "SCGA".into(), target_pci: Some(42) });
            t.record(0.5, Event::HoCommit { ho_type: "SCGA".into(), duration_ms: 120.5 });
            t.record(1.0, Event::PredictionMiss { predicted: None, actual: "SCGR".into() });
            t.journal_jsonl()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(a.lines().count() == 3);
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"t\":"), "{line}");
            assert!(line.contains("\"kind\":"), "{line}");
        }
    }

    #[test]
    fn summary_contains_all_sections() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.add("sim.ticks", 1_234_567);
        t.set_gauge("route.km", 20.0);
        for i in 0..100 {
            t.observe("ho.duration_ms", 50.0 + i as f64);
        }
        {
            let _g = t.phase(Phase::Mobility);
        }
        t.record(1.0, Event::Rlf { leg: "lte".into() });
        let s = t.summary();
        assert!(s.contains("1,234,567"), "{s}");
        assert!(s.contains("sim.ticks"), "{s}");
        assert!(s.contains("ho.duration_ms"), "{s}");
        assert!(s.contains("p99"), "{s}");
        assert!(s.contains("mobility"), "{s}");
        assert!(s.contains("journal"), "{s}");
    }

    #[test]
    fn absorb_rolls_up_counters_gauges_hists_phases() {
        let total = Telemetry::new(TelemetryConfig::on());
        total.add("jobs.done", 1);
        let worker = Telemetry::new(TelemetryConfig::on());
        worker.add("jobs.done", 2);
        worker.add("worker.only", 7);
        worker.set_gauge("route.km", 12.5);
        worker.observe("lat_ms", 4.0);
        worker.record(1.0, Event::Rlf { leg: "lte".into() });
        {
            let _g = worker.phase(Phase::Link);
        }
        total.absorb(&worker);
        assert_eq!(total.counter_value("jobs.done"), 3);
        assert_eq!(total.counter_value("worker.only"), 7);
        assert_eq!(total.gauge_value("route.km"), Some(12.5));
        assert_eq!(total.histogram_snapshot("lat_ms").unwrap().count, 1);
        assert_eq!(total.phase_stats(Phase::Link).calls, 1);
        // journals are per-run artifacts: never merged
        assert_eq!(total.journal_len(), 0);
        // the source is read-only during absorption
        assert_eq!(worker.counter_value("jobs.done"), 2);
    }

    #[test]
    fn absorb_is_order_independent_for_counters_and_hists() {
        let build = |order: &[usize]| {
            let workers: Vec<Telemetry> = (0..3)
                .map(|i| {
                    let t = Telemetry::new(TelemetryConfig::on());
                    t.add("n", i as u64 + 1);
                    t.observe("h", (i + 1) as f64);
                    t
                })
                .collect();
            let total = Telemetry::new(TelemetryConfig::on());
            for &i in order {
                total.absorb(&workers[i]);
            }
            (total.counters(), total.histogram_snapshot("h").unwrap())
        };
        assert_eq!(build(&[0, 1, 2]), build(&[2, 0, 1]));
    }

    proptest::proptest! {
        // The deterministic roll-up contract: folding any set of worker
        // recorders in any order yields the same registry. Counter amounts
        // are integers and histogram values small integers, so every sum is
        // exact and the equality is byte-strict, not approximate.
        #[test]
        fn absorb_is_order_independent_for_arbitrary_shards(
            shards in proptest::collection::vec(proptest::collection::vec(0u64..500, 0..8), 1..6),
        ) {
            let workers: Vec<Telemetry> = shards
                .iter()
                .map(|vals| {
                    let t = Telemetry::new(TelemetryConfig::on());
                    for &v in vals {
                        t.add(if v % 2 == 0 { "ho.even" } else { "ho.odd" }, v);
                        t.observe("lat_ms", v as f64);
                    }
                    t
                })
                .collect();
            let fold = |order: Box<dyn Iterator<Item = &Telemetry>>| {
                let total = Telemetry::new(TelemetryConfig::on());
                for w in order {
                    total.absorb(w);
                }
                (total.counters(), total.histogram_snapshot("lat_ms"))
            };
            let forward = fold(Box::new(workers.iter()));
            let reverse = fold(Box::new(workers.iter().rev()));
            proptest::prop_assert_eq!(forward, reverse);
        }
    }

    #[test]
    fn absorb_disabled_and_self_are_noops() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.incr("x");
        t.absorb(&Telemetry::disabled());
        Telemetry::disabled().absorb(&t);
        let u = t.clone();
        t.absorb(&u); // same inner: must not deadlock or double-count
        assert_eq!(t.counter_value("x"), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(TelemetryConfig::on());
        let u = t.clone();
        u.incr("shared");
        assert_eq!(t.counter_value("shared"), 1);
    }

    #[test]
    fn absorbed_counters_equal_shard_sums() {
        // satellite check: a merged registry is exactly the per-shard sum,
        // counter for counter — not just for the names every shard touched
        let shards: Vec<Telemetry> = (0..5)
            .map(|i| {
                let t = Telemetry::new(TelemetryConfig::on());
                t.add("common", i as u64 + 1);
                t.add(&format!("shard.{i}"), 10 * (i as u64 + 1));
                if i % 2 == 0 {
                    t.add("ho.even_only", 3);
                }
                t
            })
            .collect();
        let merged = Telemetry::new(TelemetryConfig::on());
        for s in &shards {
            merged.absorb(s);
        }
        let snap = merged.counter_snapshot();
        let mut expect: std::collections::BTreeMap<String, u64> = Default::default();
        for s in &shards {
            for (name, v) in s.counters() {
                *expect.entry(name).or_default() += v;
            }
        }
        assert_eq!(snap.len(), expect.len());
        for (name, v) in &expect {
            assert_eq!(snap.get(name), *v, "counter {name}");
        }
        assert_eq!(snap.sum_prefix("shard."), 10 + 20 + 30 + 40 + 50);
        assert_eq!(snap.sum_prefix("ho."), 9);
        assert_eq!(snap.get("never.created"), 0);
        assert!(Telemetry::disabled().counter_snapshot().is_empty());
    }
}
