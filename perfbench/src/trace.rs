//! Outside-in call tracing.
//!
//! Spans are recorded only by code this benchmark owns: the caller
//! around `Client::call`, the request/response `Writable` impls (which
//! the transports drive), and the service body. Every span carries the
//! u64 call id from the first 8 bytes of its message, which joins the
//! client and server halves of a call. Spans land in a buffer allocated
//! before the traced window opens; recording one is an atomic slot claim
//! plus four relaxed stores, and nothing allocates.
//!
//! The engine layers are the gaps between spans:
//!
//! ```text
//! call ─┬─ req_ser ─ [request path] ─ service ─┬─ req_deser ─┬─ [turnaround] ─ resp_ser ─ [response path] ─ resp_deser ─┐
//!       └─ client overhead ────────────────────┴─ handler ───┘                                                          ┴─ client overhead
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The span kinds, in the order a successful call produces them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Caller: around `Client::call`.
    Call,
    /// Client transport drives the request's `Writable::write`.
    ReqSer,
    /// Server: the service body, entry to return.
    Service,
    /// Service reads the request (`Writable::read_fields`).
    ReqDeser,
    /// Server engine drives the response's `Writable::write`.
    RespSer,
    /// `Client::call` reads the response (`Writable::read_fields`).
    RespDeser,
}

const KINDS: [Kind; 6] = [
    Kind::Call,
    Kind::ReqSer,
    Kind::Service,
    Kind::ReqDeser,
    Kind::RespSer,
    Kind::RespDeser,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::ReqSer => "req_ser",
            Kind::Service => "service",
            Kind::ReqDeser => "req_deser",
            Kind::RespSer => "resp_ser",
            Kind::RespDeser => "resp_deser",
        }
    }

    /// The span that caused this one.
    pub fn parent(self) -> Option<Kind> {
        match self {
            Kind::Call => None,
            Kind::ReqDeser => Some(Kind::Service),
            _ => Some(Kind::Call),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call_id: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// call id, start, end, kind index.
type Slot = [AtomicU64; 4];

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOTS: OnceLock<Box<[Slot]>> = OnceLock::new();
static NEXT: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Spans a claim can still add after a caller last saw room: two callers
/// each finish one in-flight call of six spans.
const HEADROOM: usize = 64;

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span: `Some(start)` while tracing, `None` (no clock read) otherwise.
#[inline]
pub fn start() -> Option<u64> {
    ENABLED.load(Ordering::Relaxed).then(now_ns)
}

/// Close a span opened by [`start`].
#[inline]
pub fn end(kind: Kind, start: Option<u64>, call_id: u64) {
    let Some(start_ns) = start else { return };
    let end_ns = now_ns();
    let slots = SLOTS.get().expect("tracing armed without a buffer");
    let i = NEXT.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = slots.get(i) {
        slot[0].store(call_id, Ordering::Relaxed);
        slot[1].store(start_ns, Ordering::Relaxed);
        slot[2].store(end_ns, Ordering::Relaxed);
        slot[3].store(kind as u64, Ordering::Relaxed);
    }
}

/// Allocate (once) a buffer of `capacity` spans, empty it and start recording.
pub fn arm(capacity: usize) {
    let slots = SLOTS.get_or_init(|| (0..capacity).map(|_| Slot::default()).collect());
    assert!(
        slots.len() >= capacity,
        "span buffer already allocated smaller"
    );
    NEXT.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording.
pub fn disarm() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether a caller should stop issuing traced calls: the buffer is too
/// full to hold another call's spans.
pub fn nearly_full() -> bool {
    SLOTS
        .get()
        .is_some_and(|s| NEXT.load(Ordering::Relaxed) + HEADROOM >= s.len())
}

/// The spans recorded since [`arm`]. Call after every recording thread
/// has handed its last result back (the caller threads are joined).
pub fn collect() -> Vec<Span> {
    let Some(slots) = SLOTS.get() else {
        return Vec::new();
    };
    let n = NEXT.load(Ordering::SeqCst).min(slots.len());
    slots[..n]
        .iter()
        .map(|s| Span {
            call_id: s[0].load(Ordering::Relaxed),
            start_ns: s[1].load(Ordering::Relaxed),
            end_ns: s[2].load(Ordering::Relaxed),
            kind: KINDS[s[3].load(Ordering::Relaxed) as usize],
        })
        .collect()
}

/// Write spans as CSV: `call_id,span,parent,start_ns,end_ns`.
pub fn write_csv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "call_id,span,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = s.kind.parent().map_or("", Kind::name);
        writeln!(
            out,
            "{},{},{},{},{}",
            s.call_id,
            s.kind.name(),
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// The layers derived from one call's six spans. Each is reported as a
/// p50 and as a mean: means add up to the mean call time, and they stay
/// defined where a two-sided mix (bulk_verbs' put/get) makes the p50 of
/// a one-direction layer flip between the two halves.
pub const LAYERS: [&str; 9] = [
    "wire.req_serialize_us",
    "wire.req_deserialize_us",
    "wire.resp_serialize_us",
    "wire.resp_deserialize_us",
    "core.request_path_us",
    "core.response_path_us",
    "core.server_turnaround_us",
    "core.handler_us",
    "client.overhead_us",
];
pub const LAYER_MEANS: [&str; 9] = [
    "wire.req_serialize_mean_us",
    "wire.req_deserialize_mean_us",
    "wire.resp_serialize_mean_us",
    "wire.resp_deserialize_mean_us",
    "core.request_path_mean_us",
    "core.response_path_mean_us",
    "core.server_turnaround_mean_us",
    "core.handler_mean_us",
    "client.overhead_mean_us",
];

pub struct Analysis {
    /// Calls whose spans formed one ordered, nested chain.
    pub calls: u64,
    /// Calls whose spans were missing, duplicated, unordered or not
    /// nested. Counted and described, never folded into the layers.
    pub misordered: u64,
    pub misordered_examples: Vec<String>,
    /// p50 and mean of each of [`LAYERS`], in µs.
    pub layer_p50_us: [f64; 9],
    pub layer_mean_us: [f64; 9],
}

/// Check every call's spans and derive the layer p50s.
pub fn analyze(mut spans: Vec<Span>) -> Analysis {
    spans.sort_unstable_by_key(|s| (s.call_id, s.kind, s.start_ns));
    let mut layers: [Vec<u64>; 9] = Default::default();
    let mut calls = 0;
    let mut misordered = 0;
    let mut misordered_examples = Vec::new();
    for group in spans.chunk_by(|a, b| a.call_id == b.call_id) {
        match layer_times(group) {
            Some(times) => {
                calls += 1;
                for (dst, t) in layers.iter_mut().zip(times) {
                    dst.push(t);
                }
            }
            None => {
                misordered += 1;
                if misordered_examples.len() < 5 {
                    let desc: Vec<String> = group
                        .iter()
                        .map(|s| format!("{}[{}..{}]", s.kind.name(), s.start_ns, s.end_ns))
                        .collect();
                    misordered_examples.push(format!(
                        "call {:#x}: {}",
                        group[0].call_id,
                        desc.join(" ")
                    ));
                }
            }
        }
    }
    let layer_mean_us = layers.each_ref().map(|v| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / 1000.0
        }
    });
    let layer_p50_us = layers.map(|mut v| quantile(&mut v, 0.5) as f64 / 1000.0);
    Analysis {
        calls,
        misordered,
        misordered_examples,
        layer_p50_us,
        layer_mean_us,
    }
}

/// The nine layer times of one call (sorted by kind), or `None` unless it
/// has exactly one span of each kind and they form the chain
/// call ⊇ req_ser < service ⊇ req_deser < resp_ser < resp_deser.
fn layer_times(group: &[Span]) -> Option<[u64; 9]> {
    if group.len() != KINDS.len() || group.iter().zip(KINDS).any(|(s, k)| s.kind != k) {
        return None;
    }
    let [call, req_ser, service, req_deser, resp_ser, resp_deser] =
        [0, 1, 2, 3, 4, 5].map(|i| group[i]);
    let chain = [
        call.start_ns,
        req_ser.start_ns,
        req_ser.end_ns,
        service.start_ns,
        req_deser.start_ns,
        req_deser.end_ns,
        service.end_ns,
        resp_ser.start_ns,
        resp_ser.end_ns,
        resp_deser.start_ns,
        resp_deser.end_ns,
        call.end_ns,
    ];
    if chain.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    let dur = |s: Span| s.end_ns - s.start_ns;
    Some([
        dur(req_ser),
        dur(req_deser),
        dur(resp_ser),
        dur(resp_deser),
        service.start_ns - req_ser.end_ns,
        resp_deser.start_ns - resp_ser.end_ns,
        resp_ser.start_ns - service.end_ns,
        dur(service) - dur(req_deser),
        (req_ser.start_ns - call.start_ns) + (call.end_ns - resp_deser.end_ns),
    ])
}

/// Nearest-rank quantile of `samples` (0 when empty); reorders them.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(call_id: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            call_id,
            kind,
            start_ns,
            end_ns,
        }
    }

    /// One well-formed call starting at `t`: every layer 1 ns except the
    /// request path (10) and response path (20).
    fn call(id: u64, t: u64) -> Vec<Span> {
        vec![
            span(id, Kind::Call, t, t + 40),
            span(id, Kind::ReqSer, t + 1, t + 2),
            span(id, Kind::Service, t + 12, t + 15),
            span(id, Kind::ReqDeser, t + 13, t + 14),
            span(id, Kind::RespSer, t + 16, t + 17),
            span(id, Kind::RespDeser, t + 37, t + 38),
        ]
    }

    #[test]
    fn layers_are_the_gaps_between_spans() {
        let a = analyze(call(7, 100));
        assert_eq!((a.calls, a.misordered), (1, 0));
        let us = |ns: f64| ns / 1000.0;
        assert_eq!(
            a.layer_p50_us,
            [1.0, 1.0, 1.0, 1.0, 10.0, 20.0, 1.0, 2.0, 3.0].map(us)
        );
        // The layers partition the call span.
        let total_ns: f64 = a.layer_mean_us.iter().sum::<f64>() * 1000.0;
        assert_eq!(total_ns.round(), 40.0);
    }

    #[test]
    fn unordered_or_incomplete_calls_are_reported_not_used() {
        let mut spans = call(1, 0);
        let mut late_service = call(2, 100);
        late_service[2] = span(2, Kind::Service, 119, 121); // after resp_ser starts
        spans.extend(late_service);
        let mut missing = call(3, 200);
        missing.pop();
        spans.extend(missing);
        let a = analyze(spans);
        assert_eq!((a.calls, a.misordered), (1, 2));
        assert_eq!(a.misordered_examples.len(), 2);
    }
}
