//! Deterministic scenario fuzzer: seeded random cases over the route ×
//! carrier × arch × fault × predictor space, each run through the snapshot
//! engine under the full oracle, its radio snapshot checked along the run's
//! trajectory against the exhaustive per-band scan, and the event-driven
//! fleet scheduler run differentially.
//!
//! Everything is a pure function of `(fuzz_seed, index)` — same seed, same
//! cases, same verdicts, on any machine and any thread count. A failing
//! case shrinks ([`shrink`]) to a minimal still-failing configuration and
//! serializes to the corpus TOML dialect (`tests/corpus/*.toml`), which is
//! replayed by CI forever after. The TOML codec here is a deliberately tiny
//! `key = value` subset parsed with std only.

use crate::check;
use crate::shadow::Oracle;
use crate::violation::Violation;
use fiveg_radio::{hash2, DetRng};
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{
    engine, run_fleet_exec, EngineMode, FaultConfig, FleetExec, FleetSpec, FleetTrace, Scenario, ScenarioBuilder,
    Telemetry, TelemetryConfig, Trace,
};

/// Corpus file schema tag; bump on incompatible layout changes.
pub const CASE_SCHEMA: &str = "fiveg-fuzz-case/v1";

/// Route family of a fuzz case. Parameters are coarse on purpose: shrinking
/// halves them, and the corpus should read like a scenario name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FuzzRoute {
    /// Curved freeway drive of the given length, km.
    Freeway(f64),
    /// The standard urban rectangular loop.
    CityLoop,
    /// The dense-urban small-cell loop.
    CityLoopDense,
    /// Walking loop sized to the given minutes per lap.
    Walking(f64),
}

impl FuzzRoute {
    fn name(self) -> &'static str {
        match self {
            FuzzRoute::Freeway(_) => "freeway",
            FuzzRoute::CityLoop => "city_loop",
            FuzzRoute::CityLoopDense => "city_loop_dense",
            FuzzRoute::Walking(_) => "walking",
        }
    }
}

/// Engine-mode axis of a fuzz case: which scheduled-engine differential the
/// case runs on top of the radio-trajectory check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FuzzEngine {
    /// The historical check: an event-driven fleet of one must reproduce
    /// the fixed-step single-UE trace byte-for-byte.
    Stepped,
    /// A staggered fleet of `ues` run under the referee (steps every tick,
    /// full control plane, unsampled while asleep) at 1 thread × 1 shard
    /// and event-driven at `threads` × `shards` must produce byte-identical
    /// [`fiveg_sim::FleetTrace`]s — the axis that exercises calendar-wheel
    /// wakeups racing shard migration under real cell-load coupling.
    /// Traces stay off: a UE that records samples never sleeps, so only the
    /// summary pair actually walks the scheduler.
    EventDriven {
        /// Fleet size of the differential pair.
        ues: u32,
        /// Worker threads of the event-driven run.
        threads: u32,
        /// Spatial shards of the event-driven run.
        shards: u32,
    },
}

impl FuzzEngine {
    fn name(self) -> &'static str {
        match self {
            FuzzEngine::Stepped => "stepped",
            FuzzEngine::EventDriven { .. } => "event",
        }
    }
}

/// One point in the fuzzed scenario space. Fully determines a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Route family and size.
    pub route: FuzzRoute,
    /// Operator deployment.
    pub carrier: Carrier,
    /// Radio architecture.
    pub arch: Arch,
    /// Scenario seed (deployment, channel noise, fault draws).
    pub seed: u64,
    /// Duration cap, s.
    pub duration_s: f64,
    /// Tick rate, Hz.
    pub sample_hz: f64,
    /// MR loss probability — may be out of \[0,1\] on purpose, to exercise
    /// the engine-side clamping.
    pub mr_loss_prob: f64,
    /// HO failure probability — may be out of \[0,1\], as above.
    pub ho_failure_prob: f64,
    /// Also probe the Prognos predictor over the finished trace (exercised
    /// by the `scenario_fuzz` binary; the core checks ignore it).
    pub prognos: bool,
    /// Engine-mode axis: stepped-vs-event-driven differential shape.
    pub engine: FuzzEngine,
}

/// The probability pool cases draw from. Includes out-of-range values so
/// every fuzz run exercises `FaultConfig::clamped`.
const PROB_POOL: [f64; 8] = [0.0, 0.0, 0.0, 0.05, 0.2, 0.5, 1.5, -0.25];

impl FuzzCase {
    /// The `index`-th case of fuzz run `fuzz_seed`. Pure: same inputs, same
    /// case, independent of generation order.
    pub fn generate(fuzz_seed: u64, index: u64) -> FuzzCase {
        let mut rng = DetRng::new(hash2(fuzz_seed, index));
        let route = match rng.below(4) {
            0 => FuzzRoute::Freeway(2.0 + rng.below(7) as f64),
            1 => FuzzRoute::CityLoop,
            2 => FuzzRoute::CityLoopDense,
            _ => FuzzRoute::Walking(6.0 + rng.below(10) as f64),
        };
        FuzzCase {
            route,
            carrier: Carrier::ALL[rng.below(Carrier::ALL.len())],
            arch: [Arch::Lte, Arch::Nsa, Arch::Sa][rng.below(3)],
            seed: rng.next_u64(),
            duration_s: (45 + 15 * rng.below(12)) as f64,
            sample_hz: [5.0, 10.0, 20.0][rng.below(3)],
            mr_loss_prob: PROB_POOL[rng.below(PROB_POOL.len())],
            ho_failure_prob: PROB_POOL[rng.below(PROB_POOL.len())],
            prognos: rng.chance(0.25),
            // small fleets keep the per-case budget flat: the multi-UE pair
            // replaces (not stacks on) the fleet-of-one transparency check
            engine: if rng.chance(0.35) {
                FuzzEngine::EventDriven {
                    ues: 2 + rng.below(3) as u32,
                    threads: [1, 2, 4][rng.below(3)],
                    shards: [1, 2, 8][rng.below(3)],
                }
            } else {
                FuzzEngine::Stepped
            },
        }
    }

    /// Builds the concrete scenario this case denotes.
    pub fn scenario(&self) -> Scenario {
        let b = match self.route {
            FuzzRoute::Freeway(km) => ScenarioBuilder::freeway(self.carrier, self.arch, km, self.seed),
            FuzzRoute::CityLoop => ScenarioBuilder::city_loop(self.carrier, self.seed),
            FuzzRoute::CityLoopDense => ScenarioBuilder::city_loop_dense(self.carrier, self.seed),
            FuzzRoute::Walking(minutes) => ScenarioBuilder::walking_loop(self.carrier, minutes, 2, self.seed),
        };
        b.arch(self.arch)
            .duration_s(self.duration_s)
            .sample_hz(self.sample_hz)
            .faults(FaultConfig { mr_loss_prob: self.mr_loss_prob, ho_failure_prob: self.ho_failure_prob })
            .build()
    }

    /// Short human label, e.g. `freeway6-OpY-nsa#3fa9c1d2`.
    pub fn label(&self) -> String {
        let route = match self.route {
            FuzzRoute::Freeway(km) => format!("freeway{km}"),
            FuzzRoute::Walking(m) => format!("walking{m}"),
            r => r.name().to_string(),
        };
        let engine = match self.engine {
            FuzzEngine::Stepped => String::new(),
            FuzzEngine::EventDriven { ues, threads, shards } => format!("-des{ues}u{threads}t{shards}s"),
        };
        format!("{route}-{:?}-{}{engine}#{:08x}", self.carrier, arch_name(self.arch), self.seed as u32)
    }

    /// Encodes the case in the corpus TOML dialect (`key = value` lines
    /// only, [`CASE_SCHEMA`] first).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("schema", format!("\"{CASE_SCHEMA}\""));
        kv("route", format!("\"{}\"", self.route.name()));
        match self.route {
            FuzzRoute::Freeway(km) => kv("route_km", fmt_f64(km)),
            FuzzRoute::Walking(m) => kv("route_minutes", fmt_f64(m)),
            _ => {}
        }
        kv("carrier", format!("\"{:?}\"", self.carrier));
        kv("arch", format!("\"{}\"", arch_name(self.arch)));
        kv("seed", self.seed.to_string());
        kv("duration_s", fmt_f64(self.duration_s));
        kv("sample_hz", fmt_f64(self.sample_hz));
        kv("mr_loss_prob", fmt_f64(self.mr_loss_prob));
        kv("ho_failure_prob", fmt_f64(self.ho_failure_prob));
        kv("prognos", self.prognos.to_string());
        kv("engine", format!("\"{}\"", self.engine.name()));
        if let FuzzEngine::EventDriven { ues, threads, shards } = self.engine {
            kv("fleet_ues", ues.to_string());
            kv("fleet_threads", threads.to_string());
            kv("fleet_shards", shards.to_string());
        }
        out
    }

    /// Parses the corpus TOML dialect back into a case.
    pub fn parse_toml(text: &str) -> Result<FuzzCase, String> {
        let mut map = std::collections::BTreeMap::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line.split_once('=').ok_or_else(|| format!("line {}: expected `key = value`", ln + 1))?;
            map.insert(k.trim().to_string(), v.trim().trim_matches('"').to_string());
        }
        let get = |k: &str| map.get(k).ok_or_else(|| format!("missing key `{k}`"));
        let f64_of = |k: &str| -> Result<f64, String> { get(k)?.parse::<f64>().map_err(|e| format!("key `{k}`: {e}")) };
        let schema = get("schema")?;
        if schema.as_str() != CASE_SCHEMA {
            return Err(format!("schema `{schema}` != `{CASE_SCHEMA}`"));
        }
        let route = match get("route")?.as_str() {
            "freeway" => FuzzRoute::Freeway(f64_of("route_km")?),
            "city_loop" => FuzzRoute::CityLoop,
            "city_loop_dense" => FuzzRoute::CityLoopDense,
            "walking" => FuzzRoute::Walking(f64_of("route_minutes")?),
            other => return Err(format!("unknown route `{other}`")),
        };
        let carrier = match get("carrier")?.as_str() {
            "OpX" => Carrier::OpX,
            "OpY" => Carrier::OpY,
            "OpZ" => Carrier::OpZ,
            other => return Err(format!("unknown carrier `{other}`")),
        };
        let arch = match get("arch")?.as_str() {
            "lte" => Arch::Lte,
            "nsa" => Arch::Nsa,
            "sa" => Arch::Sa,
            other => return Err(format!("unknown arch `{other}`")),
        };
        // the engine axis post-dates the v1 corpus: absent key means the
        // historical stepped differential, so old case files keep replaying
        let u32_of = |k: &str| -> Result<u32, String> { get(k)?.parse::<u32>().map_err(|e| format!("key `{k}`: {e}")) };
        let engine = match map.get("engine").map(String::as_str) {
            None | Some("stepped") => FuzzEngine::Stepped,
            Some("event") => FuzzEngine::EventDriven {
                ues: u32_of("fleet_ues")?,
                threads: u32_of("fleet_threads")?,
                shards: u32_of("fleet_shards")?,
            },
            Some(other) => return Err(format!("unknown engine `{other}`")),
        };
        Ok(FuzzCase {
            route,
            carrier,
            arch,
            seed: get("seed")?.parse().map_err(|e| format!("key `seed`: {e}"))?,
            duration_s: f64_of("duration_s")?,
            sample_hz: f64_of("sample_hz")?,
            mr_loss_prob: f64_of("mr_loss_prob")?,
            ho_failure_prob: f64_of("ho_failure_prob")?,
            prognos: get("prognos")?.as_str() == "true",
            engine,
        })
    }
}

fn arch_name(a: Arch) -> &'static str {
    match a {
        Arch::Lte => "lte",
        Arch::Nsa => "nsa",
        Arch::Sa => "sa",
    }
}

/// `Display`-formats an f64 so that `parse::<f64>()` round-trips exactly
/// (Rust's shortest-repr float formatting guarantees this).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Verdict of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Retained violations (live oracle + post-run checks).
    pub violations: Vec<Violation>,
    /// Total violation count including ones beyond the retention cap.
    pub total_violations: u64,
    /// The first radio-trajectory mismatch, or the first difference between
    /// the stepped and event-driven runs, when either check failed.
    pub divergence: Option<String>,
    /// Ticks the run executed.
    pub ticks: usize,
    /// Committed handovers.
    pub handovers: usize,
    /// Fault-injected HO failures.
    pub ho_failures: u64,
}

impl CaseResult {
    /// True when the case found nothing: no violations, no divergence.
    pub fn passed(&self) -> bool {
        self.total_violations == 0 && self.divergence.is_none()
    }
}

/// Runs one case through the snapshot engine under the live oracle, the
/// post-run trace/counter/journal checks, the radio-trajectory check and
/// the event-driven fleet scheduler differentially.
pub fn run_case(case: &FuzzCase) -> CaseResult {
    let s = case.scenario();
    // deterministic telemetry, so the counter algebra is checkable
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let mut oracle = Oracle::new(s.arch, case.seed);
    let trace = engine::run_hooked(&s, &tele, &mut oracle);

    let (completions, failures) = (oracle.completions, oracle.failures);
    let mut total = oracle.total_violations();
    let mut violations = oracle.into_violations();
    let mut tally = |invariant: &'static str, detail: String| {
        total += 1;
        violations.push(Violation { invariant, tick: 0, t: 0.0, seed: case.seed, detail });
    };
    // the hook stream and the trace are two recordings of the same run
    if completions != trace.handovers.len() as u64 {
        tally("hook_tally", format!("hook saw {completions} completions, trace has {}", trace.handovers.len()));
    }
    if failures != trace.ho_failures {
        tally("hook_tally", format!("hook saw {failures} HO failures, trace says {}", trace.ho_failures));
    }

    let post = check::check_trace(&trace, s.faults, Some(&tele));
    total += post.len() as u64;
    violations.extend(post);

    let mut divergence = check::check_radio_trajectory(&s, &trace).err().map(|e| format!("radio trajectory: {e}"));

    // the scheduled engine, differentially. Stepped axis: a trace-keeping
    // fleet of one under `EventDriven` must reproduce the single-UE run's
    // trace exactly — the fleet loop itself (activation, load publish,
    // finalize) adds nothing. A trace-recording UE never plans a sleep, so
    // this axis proves no sleep window sound; the event axis does: a
    // staggered multi-UE fleet run under the referee and event-driven at
    // the fuzzed geometry must match byte-for-byte, so calendar-wheel
    // wakeups racing shard migration and load-coupled early wakes cannot
    // bend the output. Traces are deliberately off on the event axis, so
    // that pair really sleeps.
    if divergence.is_none() {
        divergence = match case.engine {
            FuzzEngine::Stepped => {
                let event = run_fleet_exec(
                    &FleetSpec::new(s.clone(), 1).keep_traces(true),
                    FleetExec::threads(1).shards(1).engine(EngineMode::EventDriven),
                );
                diff_traces(&event.traces[0], &trace).map(|d| format!("event-driven fleet vs fixed-step: {d}"))
            }
            FuzzEngine::EventDriven { ues, threads, shards } => {
                let spec = FleetSpec::new(s.clone(), ues).stagger_s(2.0);
                let referee = run_fleet_exec(&spec, FleetExec::threads(1).shards(1).engine(EngineMode::Referee));
                let event = run_fleet_exec(
                    &spec,
                    FleetExec::threads(threads as usize).shards(shards as usize).engine(EngineMode::EventDriven),
                );
                diff_fleets(&referee, &event)
                    .map(|d| format!("referee vs event-driven fleet ({ues} UEs, {threads}t x {shards}s): {d}"))
            }
        };
    }

    CaseResult {
        violations,
        total_violations: total,
        divergence,
        ticks: trace.samples.len(),
        handovers: trace.handovers.len(),
        ho_failures: trace.ho_failures,
    }
}

/// Describes the first difference between two traces, or `None` when they
/// are equal and encode to identical bytes.
fn diff_traces(x: &Trace, y: &Trace) -> Option<String> {
    if x == y {
        return (x.encode() != y.encode()).then(|| "equal traces encoded to different bytes".into());
    }
    if x.samples.len() != y.samples.len() {
        return Some(format!("sample count {} vs {}", x.samples.len(), y.samples.len()));
    }
    for (i, (a, b)) in x.samples.iter().zip(&y.samples).enumerate() {
        if a != b {
            return Some(format!("first divergent sample at index {i} (t={})", a.t));
        }
    }
    if x.handovers.len() != y.handovers.len() {
        return Some(format!("handover count {} vs {}", x.handovers.len(), y.handovers.len()));
    }
    for (i, (a, b)) in x.handovers.iter().zip(&y.handovers).enumerate() {
        if a != b {
            return Some(format!(
                "first divergent handover at index {i} ({} vs {})",
                a.ho_type.acronym(),
                b.ho_type.acronym()
            ));
        }
    }
    if x.reports != y.reports {
        return Some("measurement reports diverged".into());
    }
    if x.rlf_count != y.rlf_count || x.ho_failures != y.ho_failures {
        return Some(format!(
            "rlf/failure counts {}/{} vs {}/{}",
            x.rlf_count, x.ho_failures, y.rlf_count, y.ho_failures
        ));
    }
    Some("traces differ outside samples/handovers/reports".into())
}

/// First difference between two scheduled fleet runs that must agree on
/// everything: per-UE summaries, the load summary, the scheduler
/// accounting, and every kept trace.
fn diff_fleets(a: &FleetTrace, b: &FleetTrace) -> Option<String> {
    if a.meta != b.meta {
        return Some("fleet meta diverged".into());
    }
    if a.sched != b.sched {
        return Some(format!("scheduler accounting diverged: {:?} vs {:?}", a.sched, b.sched));
    }
    if a.ues != b.ues {
        let i = a.ues.iter().zip(&b.ues).position(|(x, y)| x != y);
        return Some(format!("UE summaries diverged (first at index {i:?})"));
    }
    if a.load != b.load {
        return Some("load summary diverged".into());
    }
    if a.traces.len() != b.traces.len() {
        return Some(format!("kept {} vs {} traces", a.traces.len(), b.traces.len()));
    }
    for (i, (x, y)) in a.traces.iter().zip(&b.traces).enumerate() {
        if let Some(d) = diff_traces(x, y) {
            return Some(format!("UE {i} trace: {d}"));
        }
    }
    None
}

/// Greedy fixpoint shrink with a caller-supplied failure predicate.
/// `still_fails` must be true for `case` itself; the result is a case that
/// still fails but where no single shrink step keeps it failing.
pub fn shrink_with(case: &FuzzCase, still_fails: &mut dyn FnMut(&FuzzCase) -> bool) -> FuzzCase {
    let mut best = case.clone();
    'outer: loop {
        for cand in shrink_candidates(&best) {
            if still_fails(&cand) {
                best = cand;
                continue 'outer;
            }
        }
        return best;
    }
}

/// Minimizes a failing case under [`run_case`]: the returned case still
/// fails, with the shortest duration / simplest route / fewest knobs this
/// greedy pass can reach. Deterministic.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    shrink_with(case, &mut |c| !run_case(c).passed())
}

/// Single-step shrink candidates, biggest expected reduction first.
fn shrink_candidates(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    if c.duration_s > 30.0 {
        out.push(FuzzCase { duration_s: (c.duration_s / 2.0).max(30.0), ..c.clone() });
    }
    if c.sample_hz > 5.0 {
        out.push(FuzzCase { sample_hz: 5.0, ..c.clone() });
    }
    match c.route {
        FuzzRoute::Freeway(km) if km > 2.0 => {
            out.push(FuzzCase { route: FuzzRoute::Freeway((km / 2.0).max(2.0)), ..c.clone() })
        }
        FuzzRoute::CityLoopDense => out.push(FuzzCase { route: FuzzRoute::CityLoop, ..c.clone() }),
        FuzzRoute::CityLoop => out.push(FuzzCase { route: FuzzRoute::Freeway(3.0), ..c.clone() }),
        FuzzRoute::Walking(m) if m > 5.0 => {
            out.push(FuzzCase { route: FuzzRoute::Walking((m / 2.0).max(5.0)), ..c.clone() })
        }
        _ => {}
    }
    if c.mr_loss_prob != 0.0 {
        out.push(FuzzCase { mr_loss_prob: 0.0, ..c.clone() });
    }
    if c.ho_failure_prob != 0.0 {
        out.push(FuzzCase { ho_failure_prob: 0.0, ..c.clone() });
    }
    if c.prognos {
        out.push(FuzzCase { prognos: false, ..c.clone() });
    }
    if let FuzzEngine::EventDriven { ues, threads, shards } = c.engine {
        out.push(FuzzCase { engine: FuzzEngine::Stepped, ..c.clone() });
        if ues > 2 {
            out.push(FuzzCase { engine: FuzzEngine::EventDriven { ues: 2, threads, shards }, ..c.clone() });
        }
        if threads > 1 {
            out.push(FuzzCase { engine: FuzzEngine::EventDriven { ues, threads: 1, shards }, ..c.clone() });
        }
        if shards > 1 {
            out.push(FuzzCase { engine: FuzzEngine::EventDriven { ues, threads, shards: 1 }, ..c.clone() });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_diverse() {
        let mut archs = std::collections::BTreeSet::new();
        let mut routes = std::collections::BTreeSet::new();
        let mut engines = std::collections::BTreeSet::new();
        for i in 0..64 {
            let a = FuzzCase::generate(1, i);
            let b = FuzzCase::generate(1, i);
            assert_eq!(a, b, "case {i} not a pure function of (seed, index)");
            archs.insert(arch_name(a.arch));
            routes.insert(a.route.name());
            engines.insert(a.engine.name());
        }
        assert_eq!(archs.len(), 3, "64 cases must cover all archs");
        assert_eq!(routes.len(), 4, "64 cases must cover all route families");
        assert_eq!(engines.len(), 2, "64 cases must cover both engine axes");
        assert_ne!(FuzzCase::generate(1, 0), FuzzCase::generate(2, 0));
    }

    #[test]
    fn toml_round_trips_generated_cases() {
        for i in 0..32 {
            let c = FuzzCase::generate(9, i);
            let text = c.to_toml();
            let back = FuzzCase::parse_toml(&text).unwrap_or_else(|e| panic!("case {i}: {e}\n{text}"));
            assert_eq!(back, c, "{text}");
        }
    }

    #[test]
    fn toml_parser_rejects_bad_input() {
        assert!(FuzzCase::parse_toml("").unwrap_err().contains("schema"));
        let mut wrong = FuzzCase::generate(1, 0).to_toml();
        wrong = wrong.replace(CASE_SCHEMA, "fiveg-fuzz-case/v0");
        assert!(FuzzCase::parse_toml(&wrong).unwrap_err().contains("schema"));
        let missing = "schema = \"fiveg-fuzz-case/v1\"\nroute = \"city_loop\"\n";
        assert!(FuzzCase::parse_toml(missing).unwrap_err().contains("missing key"));
    }

    #[test]
    fn toml_parser_ignores_comments_and_blank_lines() {
        let c = FuzzCase::generate(3, 7);
        let text = format!("# corpus case\n\n{}\n# trailing\n", c.to_toml());
        assert_eq!(FuzzCase::parse_toml(&text).unwrap(), c);
    }

    /// Corpus files written before the engine axis carry no `engine` key;
    /// they must keep parsing as the historical stepped differential.
    #[test]
    fn missing_engine_key_defaults_to_stepped() {
        let mut c = FuzzCase::generate(5, 0);
        c.engine = FuzzEngine::Stepped;
        let text: String = c.to_toml().lines().filter(|l| !l.starts_with("engine")).map(|l| format!("{l}\n")).collect();
        let back = FuzzCase::parse_toml(&text).unwrap();
        assert_eq!(back.engine, FuzzEngine::Stepped);
        assert_eq!(back, c);
        let bad = c.to_toml().replace("engine = \"stepped\"", "engine = \"warp\"");
        assert!(FuzzCase::parse_toml(&bad).unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn known_good_case_passes_the_full_check() {
        let case = FuzzCase {
            route: FuzzRoute::Freeway(3.0),
            carrier: Carrier::OpY,
            arch: Arch::Nsa,
            seed: 7,
            duration_s: 60.0,
            sample_hz: 10.0,
            mr_loss_prob: 0.0,
            ho_failure_prob: 0.0,
            prognos: false,
            engine: FuzzEngine::Stepped,
        };
        let r = run_case(&case);
        assert!(r.passed(), "violations={:?} divergence={:?}", r.violations, r.divergence);
        assert!(r.ticks >= 590 && r.ticks <= 601, "{} ticks for a 60 s / 10 Hz run", r.ticks);
    }

    /// The event axis at its raciest geometry: calendar-wheel wakeups and
    /// load-coupled early wakes racing shard migration on a city loop must
    /// still match the stepped fleet byte-for-byte.
    #[test]
    fn known_good_event_case_passes_the_full_check() {
        let case = FuzzCase {
            route: FuzzRoute::CityLoop,
            carrier: Carrier::OpY,
            arch: Arch::Sa,
            seed: 19,
            duration_s: 50.0,
            sample_hz: 5.0,
            mr_loss_prob: 0.0,
            ho_failure_prob: 0.0,
            prognos: false,
            engine: FuzzEngine::EventDriven { ues: 4, threads: 2, shards: 8 },
        };
        let r = run_case(&case);
        assert!(r.passed(), "violations={:?} divergence={:?}", r.violations, r.divergence);
    }

    #[test]
    fn shrink_reaches_the_minimal_failing_configuration() {
        let case = FuzzCase {
            route: FuzzRoute::CityLoopDense,
            carrier: Carrier::OpX,
            arch: Arch::Nsa,
            seed: 11,
            duration_s: 240.0,
            sample_hz: 20.0,
            mr_loss_prob: 0.2,
            ho_failure_prob: 0.5,
            prognos: true,
            engine: FuzzEngine::EventDriven { ues: 4, threads: 4, shards: 8 },
        };
        // synthetic bug: fails whenever it runs ≥60 s with HO failures on
        let mut predicate = |c: &FuzzCase| c.duration_s >= 60.0 && c.ho_failure_prob > 0.0;
        assert!(predicate(&case));
        let min = shrink_with(&case, &mut predicate);
        assert!(predicate(&min));
        assert_eq!(min.duration_s, 60.0, "duration not minimized: {min:?}");
        assert!(min.ho_failure_prob > 0.0, "load-bearing knob removed: {min:?}");
        assert_eq!(min.mr_loss_prob, 0.0);
        assert_eq!(min.sample_hz, 5.0);
        assert!(!min.prognos);
        assert_eq!(min.engine, FuzzEngine::Stepped, "engine axis not shrunk away: {min:?}");
        // CityLoopDense → CityLoop → Freeway(3.0) → Freeway(2.0)
        assert_eq!(min.route, FuzzRoute::Freeway(2.0), "route not simplified: {min:?}");
    }
}
