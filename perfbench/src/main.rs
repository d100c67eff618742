//! Host-path RPC benchmark.
//!
//! Boots the real `rpcoib` server and client on a simnet `Fabric` in one
//! process, drives one of three seeded closed-loop workloads through
//! `Client::call`, verifies every response, and prints the metrics by
//! name with their units. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```sh
//! perfbench --workload small_verbs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs an
//! untraced reference window and then a traced window of the same calls,
//! and reports the per-layer metrics (see `trace.rs` for the spans).
//!
//! Modeled delays are charged to the simnet ledger but not spun
//! (`simnet::set_fast_forward(true)`), so wall-clock and CPU measure the
//! host path only; the wire's share is reported from the ledger.

mod hist;
mod host;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rpcoib::{Client, MetricsSnapshot, Phase, PoolCounters, Server, ServiceRegistry};
use simnet::{Fabric, NodeId, SimAddr};

use hist::Hist;
use workload::{BenchService, Generator, Pattern, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Set-ups per run, all but the measured one in child processes;
/// `setup_s` is the median of the quietest third (see [`quietest`]).
const SETUPS: usize = 15;
/// Span buffer for the traced window (32 B a span, six spans a call).
const SPAN_CAPACITY: usize = 1 << 20;
/// Generator streams of warm-up calls; window streams are the caller index.
const WARMUP_STREAM: u64 = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    /// Time one set-up, print its seconds and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        setup_only,
    })
}

/// A booted server and a connected, warmed-up client.
struct Bench {
    fabric: Fabric,
    server: Server,
    client: Client,
    client_node: NodeId,
    server_node: NodeId,
    addr: SimAddr,
}

impl Bench {
    fn teardown(self) {
        self.client.shutdown();
        self.server.stop();
    }
}

/// Fabric, server start, connect + handshake, `prewarm_pool` and warm-up:
/// everything up to the first timed call.
fn setup(w: Workload, seed: u64, pattern: &'static Pattern) -> Bench {
    let fabric = Fabric::new(w.net());
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(BenchService { pattern }));
    let server =
        Server::start(&fabric, server_node, 8020, w.config(), registry).expect("server start");
    let client = Client::new(&fabric, client_node, w.config()).expect("client");
    // Room for the largest frame: payload plus RPC header.
    client.prewarm_pool(w.max_payload() + 4096, 2);
    let bench = Bench {
        addr: server.addr(),
        fabric,
        server,
        client,
        client_node,
        server_node,
    };
    let warm = run_callers(
        &bench,
        w,
        seed,
        pattern,
        WARMUP_STREAM,
        Stop::Calls(w.warmup_calls()),
    );
    if warm.failed > 0 {
        panic!("warm-up failed: {}", warm.failures.join("; "));
    }
    bench
}

/// Time one set-up in a fresh process: (seconds, steal µs around it).
/// Set-ups repeated in the measured process left 0–8 MiB of
/// freed-but-resident memory each, at random, which `peak_rss_mib` then
/// reported.
fn setup_in_child(w: Workload, seed: u64) -> (f64, u64) {
    let exe = std::env::current_exe().expect("path of this executable");
    let seed = seed.to_string();
    let steal = host::steal_us();
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed, "--setup-only"])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a set-up process");
    assert!(
        out.status.success(),
        "set-up process failed: {}",
        out.status
    );
    let secs = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up process prints its seconds");
    (secs, host::steal_us() - steal)
}

#[derive(Clone, Copy)]
enum Stop {
    Calls(u64),
    After(Duration),
}

/// Latency (ns) and payload bytes of verified calls.
#[derive(Clone, Default)]
struct Acc {
    latency: Hist,
    bytes: u64,
}

impl Acc {
    fn calls(&self) -> u64 {
        self.latency.total()
    }
}

/// One slice of a timed window.
struct Slice {
    secs: f64,
    done: Acc,
    cpu_us: u64,
    steal_us: u64,
}

impl Slice {
    /// Wall-clock seconds the benchmark's CPU actually ran this guest:
    /// the slice less the time the hypervisor gave that CPU to others.
    fn run_secs(&self) -> f64 {
        (self.secs - self.steal_us as f64 / 1e6).max(self.secs / 100.0)
    }
}

struct Window {
    /// Verified calls, stragglers after the last slice included.
    calls: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    slices: Vec<Slice>,
}

/// Run the workload's closed-loop callers. Caller `c` draws from
/// generator stream `stream_base + c`. A timed window is cut into slices
/// of about `w.slice()`; at each boundary the main thread swaps the callers'
/// accumulators out and merges them, so memory stays flat however many
/// calls complete.
fn run_callers(
    b: &Bench,
    w: Workload,
    seed: u64,
    pattern: &Pattern,
    stream_base: u64,
    stop: Stop,
) -> Window {
    let tracing = trace::start().is_some();
    let accs: Vec<Mutex<Acc>> = (0..w.callers()).map(|_| Mutex::default()).collect();
    let open = Instant::now();
    let mut slices = Vec::new();
    let logs: Vec<(u64, u64, Vec<String>)> = thread::scope(|s| {
        let callers: Vec<_> = accs
            .iter()
            .zip(stream_base..)
            .map(|(acc, stream)| {
                s.spawn(move || {
                    let mut gen = Generator::new(w, seed, stream);
                    let mut failures = Vec::new();
                    let (mut attempted, mut verified) = (0u64, 0u64);
                    loop {
                        let more = match stop {
                            Stop::Calls(n) => attempted < n,
                            Stop::After(d) => {
                                open.elapsed() < d && !(tracing && trace::nearly_full())
                            }
                        };
                        if !more {
                            break;
                        }
                        let call = gen.next_call();
                        attempted += 1;
                        match workload::execute(&b.client, b.addr, pattern, call) {
                            Ok(latency_ns) => {
                                verified += 1;
                                let mut acc = acc.lock().expect("accumulator poisoned");
                                acc.latency.record(latency_ns);
                                acc.bytes += workload::payload_bytes(call.op);
                            }
                            Err(e) => {
                                failures.push(format!("call {:#x} {:?}: {e}", call.id, call.op))
                            }
                        }
                    }
                    (attempted, verified, failures)
                })
            })
            .collect();
        if let Stop::After(d) = stop {
            let n = (d.as_secs_f64() / w.slice().as_secs_f64()).round().max(1.0) as u32;
            let mut spare = Acc::default();
            let (mut t0, mut cpu0, mut steal0) = (open, host::cpu_us(), host::steal_us());
            for k in 1..=n {
                thread::sleep((open + d * k / n).saturating_duration_since(Instant::now()));
                let done = callers.iter().all(|h| h.is_finished());
                let (t1, cpu1, steal1) = (Instant::now(), host::cpu_us(), host::steal_us());
                let mut slice = Slice {
                    secs: (t1 - t0).as_secs_f64(),
                    done: Acc::default(),
                    cpu_us: cpu1 - cpu0,
                    steal_us: steal1 - steal0,
                };
                // Each caller gets the emptied spare and hands back what
                // it completed in this slice.
                for acc in &accs {
                    std::mem::swap(&mut *acc.lock().expect("accumulator poisoned"), &mut spare);
                    slice.done.latency.merge(&spare.latency);
                    slice.done.bytes += spare.bytes;
                    spare.latency.clear();
                    spare.bytes = 0;
                }
                if slice.done.calls() > 0 {
                    slices.push(slice);
                }
                (t0, cpu0, steal0) = (t1, cpu1, steal1);
                if done {
                    break;
                }
            }
        }
        callers
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut win = Window {
        calls: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        slices,
    };
    for (attempted, verified, failures) in logs {
        win.calls += verified;
        win.attempted += attempted;
        win.failed += failures.len() as u64;
        win.failures.extend(failures);
    }
    win
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The third of `items` least disturbed by the hypervisor: fewest steal
/// µs first, earlier first on ties, at least one. On a shared host other
/// guests intermittently take this guest's CPUs; such a sample times the
/// neighbours, not this program.
fn quietest<T>(mut items: Vec<T>, steal_us: impl Fn(&T) -> u64) -> Vec<T> {
    let keep = items.len().div_ceil(3);
    items.sort_by_key(steal_us);
    items.truncate(keep);
    items
}

/// The median of `f` over the window's slices. On a shared host the
/// speed of the benchmark's CPU drifts with what other guests run beside
/// it (a 30 s run of one build on a 2-vCPU KVM guest measured 22–44 µs of
/// CPU a call from one 250 ms slice to the next); a median over many
/// slices is moved by neither a few disturbed slices nor a few lucky ones.
fn slice_median(win: &Window, f: impl Fn(&Slice) -> f64) -> f64 {
    median(win.slices.iter().map(f).collect())
}

/// Call-latency quantile in µs: the median over slices of each slice's
/// quantile, so that one slice the hypervisor stalled cannot set the
/// tail of the whole window.
fn latency_us(win: &Window, q: f64) -> f64 {
    slice_median(win, |s| s.done.latency.quantile(q) / 1000.0)
}

/// Ledger, registration and engine counters around a window.
struct Counters {
    modeled_client_ns: u64,
    modeled_server_ns: u64,
    registrations: u64,
    ctx_switches: u64,
    client: MetricsSnapshot,
    server: MetricsSnapshot,
}

fn counters(b: &Bench) -> Counters {
    Counters {
        modeled_client_ns: b.fabric.modeled_ns(b.client_node),
        modeled_server_ns: b.fabric.modeled_ns(b.server_node),
        registrations: b.fabric.stats().snapshot().3,
        ctx_switches: host::ctx_switches(),
        client: b.client.metrics_snapshot(),
        server: b.server.metrics_snapshot(),
    }
}

/// p50 in µs of the server `ServerQueue` samples recorded between two
/// snapshots, all methods merged. The histogram's buckets are log2 wide
/// (`[2^(i-1), 2^i)` ns); the p50 is placed within its bucket by rank,
/// samples taken as evenly spread over the bucket.
fn queue_wait_p50_us(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    let merged = |s: &MetricsSnapshot| {
        let mut buckets: Vec<u64> = Vec::new();
        for (_, phases) in &s.phases {
            let q = &phases.get(Phase::ServerQueue).buckets;
            buckets.resize(q.len().max(buckets.len()), 0);
            for (dst, n) in buckets.iter_mut().zip(q) {
                *dst += n;
            }
        }
        buckets
    };
    let (b, mut a) = (merged(before), merged(after));
    for (dst, n) in a.iter_mut().zip(&b) {
        *dst -= n;
    }
    let total: u64 = a.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total.div_ceil(2);
    let mut seen = 0;
    for (i, &n) in a.iter().enumerate() {
        if seen + n >= rank {
            let (lo, hi) = if i == 0 {
                (0, 0)
            } else {
                (1u64 << (i - 1), 1u64 << i)
            };
            let within = (rank - seen) as f64 - 0.5;
            return (lo as f64 + (hi - lo) as f64 * within / n as f64) / 1000.0;
        }
        seen += n;
    }
    unreachable!("rank is at most the total count")
}

/// Shadow-pool history hits, all acquisitions, and oversize requests
/// recorded between two snapshots.
fn pool_use(before: &MetricsSnapshot, after: &MetricsSnapshot) -> [u64; 3] {
    let (b, a) = (
        before.pool.unwrap_or_default(),
        after.pool.unwrap_or_default(),
    );
    let acquired = |p: &PoolCounters| p.history_hits + p.grows + p.shrinks + p.cold;
    [
        a.history_hits - b.history_hits,
        acquired(&a) - acquired(&b),
        a.oversize - b.oversize,
    ]
}

/// Metrics in report order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(
    b: &Bench,
    w: Workload,
    seed: u64,
    pattern: &Pattern,
    secs: f64,
    setup_s: f64,
) -> (Window, Metrics) {
    let before = counters(b);
    let win = run_callers(
        b,
        w,
        seed,
        pattern,
        0,
        Stop::After(Duration::from_secs_f64(secs)),
    );
    let after = counters(b);
    let metrics = vec![
        (
            "calls_per_s",
            slice_median(&win, |s| s.done.calls() as f64 / s.run_secs()),
            "1/s",
        ),
        (
            "goodput_mib_s",
            slice_median(&win, |s| {
                s.done.bytes as f64 / s.run_secs() / (1024.0 * 1024.0)
            }),
            "MiB/s",
        ),
        ("call_p50_us", latency_us(&win, 0.50), "us"),
        ("call_p99_us", latency_us(&win, 0.99), "us"),
        (
            "cpu_us_per_call",
            slice_median(&win, |s| s.cpu_us as f64 / s.done.calls() as f64),
            "us",
        ),
        (
            "modeled_us_per_call",
            ratio(
                (after.modeled_client_ns - before.modeled_client_ns) as f64 / 1000.0,
                win.calls as f64,
            ),
            "us",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", host::peak_rss_kib() as f64 / 1024.0, "MiB"),
    ];
    (win, metrics)
}

fn per_layer(
    b: &Bench,
    w: Workload,
    seed: u64,
    pattern: &Pattern,
    secs: f64,
    trace_out: Option<&PathBuf>,
) -> (Window, Metrics) {
    let half = Duration::from_secs_f64(secs / 2.0);
    let reference = run_callers(b, w, seed, pattern, 0, Stop::After(half));

    let before = counters(b);
    trace::arm(SPAN_CAPACITY);
    host::count_allocs(true);
    let traced = run_callers(b, w, seed, pattern, 0, Stop::After(half));
    host::count_allocs(false);
    trace::disarm();
    let threads = host::threads();
    let after = counters(b);
    let (allocs, alloc_bytes) = host::alloc_counts();

    let spans = trace::collect();
    if let Some(path) = trace_out {
        if let Err(e) = trace::write_csv(path, &spans) {
            eprintln!("writing spans to {}: {e}", path.display());
        }
    }
    let analysis = trace::analyze(spans);
    for example in &analysis.misordered_examples {
        println!("misordered spans: {example}");
    }

    let calls = traced.calls as f64;
    let per_call = |n: u64| ratio(n as f64, calls);
    let (c, s) = (
        pool_use(&before.client, &after.client),
        pool_use(&before.server, &after.server),
    );
    let [history_hits, acquisitions, oversize] = [0, 1, 2].map(|i| c[i] + s[i]);
    let server_counter = |f: fn(&rpcoib::EngineCounters) -> u64| {
        (f(&after.server.counters) - f(&before.server.counters)) as f64
    };
    let client_counter = |f: fn(&rpcoib::EngineCounters) -> u64| {
        (f(&after.client.counters) - f(&before.client.counters)) as f64
    };

    let mut metrics: Metrics = trace::LAYERS
        .into_iter()
        .zip(analysis.layer_p50_us)
        .chain(trace::LAYER_MEANS.into_iter().zip(analysis.layer_mean_us))
        .map(|(n, v)| (n, v, "us"))
        .collect();
    metrics.extend([
        (
            "process.ctx_switches_per_call",
            per_call(after.ctx_switches - before.ctx_switches),
            "count",
        ),
        ("process.allocs_per_call", per_call(allocs), "count"),
        ("process.alloc_bytes_per_call", per_call(alloc_bytes), "B"),
        ("process.threads", threads as f64, "count"),
        (
            "bufpool.history_hit_ratio",
            ratio(history_hits as f64, acquisitions as f64),
            "ratio",
        ),
        (
            "bufpool.registrations_per_call",
            per_call(after.registrations - before.registrations),
            "count",
        ),
        ("bufpool.oversize_per_call", per_call(oversize), "count"),
        (
            "server.queue_wait_us",
            queue_wait_p50_us(&before.server, &after.server),
            "us",
        ),
        (
            "server.queue_depth_max",
            after
                .server
                .shards
                .iter()
                .map(|s| s.queue_depth_max)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "server.busy_rejections",
            server_counter(|c| c.busy_rejections),
            "count",
        ),
        (
            "server.frame_errors",
            server_counter(|c| c.frame_errors),
            "count",
        ),
        ("client.retries", client_counter(|c| c.retries), "count"),
        (
            "client.late_responses",
            client_counter(|c| c.late_responses),
            "count",
        ),
        (
            "simnet.modeled_client_us_per_call",
            per_call(after.modeled_client_ns - before.modeled_client_ns) / 1000.0,
            "us",
        ),
        (
            "simnet.modeled_server_us_per_call",
            per_call(after.modeled_server_ns - before.modeled_server_ns) / 1000.0,
            "us",
        ),
        (
            "trace.overhead_ratio",
            ratio(latency_us(&traced, 0.5), latency_us(&reference, 0.5)),
            "ratio",
        ),
        ("trace.calls", analysis.calls as f64, "count"),
        (
            "trace.misordered_calls",
            analysis.misordered as f64,
            "count",
        ),
    ]);
    let combined = Window {
        calls: reference.calls + traced.calls,
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        failures: reference
            .failures
            .into_iter()
            .chain(traced.failures)
            .collect(),
        slices: traced.slices,
    };
    (combined, metrics)
}

fn json_line(correct: bool, win: &Window, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        win.attempted,
        win.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <small_verbs|bulk_verbs|mixed_socket> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    simnet::set_fast_forward(true);
    let pattern: &'static Pattern = Box::leak(Box::new(Pattern::new(args.seed)));

    // Every thread of the process, and every set-up child, inherits the
    // main thread's CPU. See README.md, "One CPU".
    let cpus = host::allowed_cpus();
    let pinned = cpus
        .last()
        .copied()
        .filter(|&c| host::pin_current_thread(c));
    if args.setup_only {
        let t = Instant::now();
        let bench = setup(w, args.seed, pattern);
        println!("{}", t.elapsed().as_secs_f64());
        bench.teardown();
        return ExitCode::SUCCESS;
    }
    let mut setups: Vec<(f64, u64)> = (1..SETUPS).map(|_| setup_in_child(w, args.seed)).collect();
    let (t, steal) = (Instant::now(), host::steal_us());
    let bench = setup(w, args.seed, pattern);
    setups.push((t.elapsed().as_secs_f64(), host::steal_us() - steal));
    let setup_s = median(quietest(setups, |s| s.1).into_iter().map(|s| s.0).collect());

    let (win, metrics) = if args.trace {
        per_layer(
            &bench,
            w,
            args.seed,
            pattern,
            args.seconds,
            args.trace_out.as_ref(),
        )
    } else {
        end_to_end(&bench, w, args.seed, pattern, args.seconds, setup_s)
    };
    bench.teardown();

    let correct = win.failed == 0;
    println!(
        "workload {} seed {} trace {} callers {} fast_forward on",
        w.name(),
        args.seed,
        u8::from(args.trace),
        w.callers()
    );
    match pinned {
        Some(c) => println!("placement every thread on cpu {c}"),
        None => println!("placement unpinned ({} cpu available)", cpus.len()),
    }
    println!(
        "verified calls {} in {} slices of {} ms; {} ms steal on the benchmark's cpu",
        win.calls,
        win.slices.len(),
        w.slice().as_millis(),
        win.slices.iter().map(|s| s.steal_us).sum::<u64>() / 1000,
    );
    println!(
        "failed_ratio {} ratio ({} of {} attempted)",
        ratio(win.failed as f64, win.attempted as f64),
        win.failed,
        win.attempted
    );
    for f in win.failures.iter().take(5) {
        println!("failure: {f}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", json_line(correct, &win, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
