//! The acceptance property of the bench harness: two runs with the same
//! seed serialize byte-identically (the committed baselines — and CI's
//! `bench --check` — depend on it). Latency numbers come from the
//! modeled-time ledger, and jitter comes from the seeded fault RNG, so
//! nothing in the files depends on wall clock or scheduling.

use rpcoib_bench::figures::{run_batching, run_bufpool, run_bulk, run_pingpong, RunOpts};
use rpcoib_bench::regress::check_regression;

const OPTS: RunOpts = RunOpts {
    quick: true,
    seed: 42,
};

fn enable_fast_forward() {
    // Process-global; modeled charges are unaffected, only the busy-wait
    // spins are skipped, so this cannot change the serialized output.
    simnet::set_fast_forward(true);
}

#[test]
fn pingpong_runs_are_byte_identical() {
    enable_fast_forward();
    let a = run_pingpong(&OPTS, "test-rev").pretty();
    let b = run_pingpong(&OPTS, "test-rev").pretty();
    assert_eq!(a, b, "same seed must produce byte-identical pingpong JSON");

    // And a different seed draws different jitter (the percentiles are
    // really fed by the RNG, not constants).
    let c = run_pingpong(
        &RunOpts {
            quick: true,
            seed: 1337,
        },
        "test-rev",
    )
    .pretty();
    assert_ne!(a, c, "different seed must perturb the samples");
}

#[test]
fn bufpool_runs_are_byte_identical_and_pass_self_check() {
    enable_fast_forward();
    let a = run_bufpool(&OPTS, "test-rev");
    let b = run_bufpool(&OPTS, "test-rev");
    assert_eq!(a.pretty(), b.pretty());

    // A run always passes a zero-tolerance check against itself.
    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert!(
        outcome.compared >= 8,
        "both transports x all mixes compared"
    );

    // The verbs rows carry pool counters that actually counted.
    let rows = a.get("rows").unwrap().as_arr().unwrap();
    let verbs_lookups: u64 = rows
        .iter()
        .filter(|r| r.get("transport").and_then(|t| t.as_str()) == Some("verbs"))
        .filter_map(|r| r.get("pool"))
        .filter_map(|p| {
            Some(
                p.get("history_hits")?.as_u64()?
                    + p.get("grows")?.as_u64()?
                    + p.get("shrinks")?.as_u64()?
                    + p.get("cold")?.as_u64()?,
            )
        })
        .sum();
    assert!(verbs_lookups > 0, "verbs rows must surface pool activity");
}

/// The batching figure: byte-identical per seed, self-check clean, and
/// the acceptance numbers hold — every multi-client burst point shows
/// ≥ 2× modeled throughput from coalescing, and every lone-caller guard
/// row is present (its ledger is pinned by the committed baseline).
#[test]
fn batching_runs_are_byte_identical_and_meet_the_bar() {
    enable_fast_forward();
    let a = run_batching(&OPTS, "test-rev");
    let b = run_batching(&OPTS, "test-rev");
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "same seed must produce byte-identical batching JSON"
    );

    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);

    let rows = a.get("rows").unwrap().as_arr().unwrap();
    let mut multi_points = 0;
    let mut single_guards = 0;
    for row in rows {
        let point = row.get("point").and_then(|p| p.as_str()).unwrap();
        if point.starts_with("multi") {
            multi_points += 1;
            let speedup = row.get("speedup_bp").and_then(|s| s.as_u64()).unwrap();
            assert!(
                speedup >= 20_000,
                "{point}: coalescing must model ≥2× throughput, got {speedup} bp"
            );
        } else if point.starts_with("single") {
            single_guards += 1;
            assert!(row.get("p99_ns").and_then(|p| p.as_u64()).is_some());
        }
    }
    assert_eq!(multi_points, 6, "both transports × three payloads");
    assert_eq!(single_guards, 6, "a guard row per (transport, payload)");
}

/// The bulk figure: byte-identical per seed, self-check clean, and the
/// acceptance numbers hold — every pipelined payload models ≥ 2×
/// throughput from the multi-slot ring versus the one-deep gate, a lone
/// transfer's ledger is *identical* across ring depths
/// (`p50_delta_bp == 0` exactly), steady-state large calls register no
/// memory and miss no pool.
#[test]
fn bulk_runs_are_byte_identical_and_meet_the_bar() {
    enable_fast_forward();
    let a = run_bulk(&OPTS, "test-rev");
    let b = run_bulk(&OPTS, "test-rev");
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "same seed must produce byte-identical bulk JSON"
    );

    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert!(
        outcome.compared >= 12,
        "lone guards + pipeline points all gate on p99"
    );

    let rows = a.get("rows").unwrap().as_arr().unwrap();
    let mut pipe_points = 0;
    let mut lone_guards = 0;
    for row in rows {
        let point = row.get("point").and_then(|p| p.as_str()).unwrap();
        if point.starts_with("pipe") {
            pipe_points += 1;
            let speedup = row.get("speedup_bp").and_then(|s| s.as_u64()).unwrap();
            assert!(
                speedup >= 20_000,
                "{point}: multi-slot ring must model ≥2× pipelined throughput, got {speedup} bp"
            );
        } else if point.starts_with("lone") {
            let regs = row
                .get("steady_registrations")
                .and_then(|r| r.as_u64())
                .unwrap();
            let misses = row
                .get("steady_pool_misses")
                .and_then(|m| m.as_u64())
                .unwrap();
            assert_eq!(regs, 0, "{point}: steady-state large calls registered");
            assert_eq!(
                misses, 0,
                "{point}: steady-state large calls missed the pool"
            );
            if let Some(delta) = row.get("p50_delta_bp") {
                lone_guards += 1;
                assert_eq!(
                    delta.as_u64(),
                    Some(0),
                    "{point}: a lone transfer must not pay for the multi-slot ring"
                );
            }
        }
    }
    assert_eq!(pipe_points, 4, "a pipeline point per payload");
    assert_eq!(lone_guards, 4, "a lone-transfer guard per payload");
}
