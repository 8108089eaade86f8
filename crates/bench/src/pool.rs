//! The ordered worker pool behind the figure benches, the datasets, the
//! scenario fuzzer and the vivisection harness.
//!
//! [`run_ordered`] fans a job list out over `std::thread::scope` workers and
//! merges the results in job-index order, so a harness whose jobs depend
//! only on their index produces byte-identical output at any worker count.

use fiveg_sim::{Scenario, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Executes `f(0)..f(n-1)` on `threads` scoped workers and
/// returns the results **in index order**, regardless of thread count or
/// scheduling. Workers pull indices from a shared atomic counter, so the
/// assignment of jobs to threads is racy — but because each `f(i)` depends
/// only on `i` and the merge slots results by index, the output is
/// identical to the serial `(0..n).map(f)`.
pub fn run_ordered<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().expect("pool worker panicked")[i] = Some(r);
            });
        }
    });
    results.into_inner().expect("pool worker panicked").into_iter().map(|o| o.expect("every job completed")).collect()
}

/// Runs a batch of scenarios on the pool and returns their traces in
/// input order. The shared backbone of the figure benches and datasets.
pub fn parallel_traces(scenarios: &[Scenario], threads: usize) -> Vec<Trace> {
    run_ordered(scenarios.len(), threads, |i| scenarios[i].run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_radio::rng::splitmix64;
    use fiveg_ran::{Arch, Carrier};
    use fiveg_sim::ScenarioBuilder;
    use fiveg_telemetry::{Telemetry, TelemetryConfig};

    #[test]
    fn run_ordered_matches_serial_map() {
        for threads in [1usize, 2, 3, 8] {
            let got = run_ordered(25, threads, |i| i * i + 1);
            let want: Vec<usize> = (0..25).map(|i| i * i + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(run_ordered(0, 4, |i| i).is_empty());
    }

    // Journal ordering must survive the ordered merge: each job records its
    // own event journal, and concatenating the per-job journals in index
    // order yields the same bytes on any worker count — with every entry's
    // sequence number strictly increasing within its job.
    #[test]
    fn job_journals_survive_the_ordered_merge() {
        let journals = |threads: usize| -> String {
            run_ordered(4, threads, |i| {
                let tele = Telemetry::new(TelemetryConfig::deterministic());
                let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 100 + i as u64)
                    .duration_s(60.0)
                    .sample_hz(5.0)
                    .build();
                s.run_instrumented(&tele);
                let entries = tele.events();
                assert!(!entries.is_empty(), "job {i} journaled nothing");
                for w in entries.windows(2) {
                    assert!(w[0].seq < w[1].seq, "job {i}: seq {} !< {}", w[0].seq, w[1].seq);
                }
                tele.journal_jsonl()
            })
            .concat()
        };
        let serial = journals(1);
        assert_eq!(serial, journals(4), "merged journals must not depend on thread count");
        assert_eq!(serial, journals(3), "merged journals must not depend on thread count");
    }

    proptest::proptest! {
        // The merge invariant behind the whole pool: for any job list
        // and any worker count, pool output equals the serial map. Jobs
        // burn a tiny data-dependent amount of work so scheduling actually
        // interleaves differently across runs.
        #[test]
        fn run_ordered_is_worker_count_independent(
            items in proptest::collection::vec(0u64..1000, 0..64),
            threads in 1usize..9,
        ) {
            let f = |i: usize| {
                let mut acc = items[i];
                for _ in 0..(items[i] % 17) {
                    acc = splitmix64(acc);
                }
                (i, acc)
            };
            let serial: Vec<(usize, u64)> = (0..items.len()).map(f).collect();
            let pooled = run_ordered(items.len(), threads, f);
            proptest::prop_assert_eq!(serial, pooled);
        }
    }
}
