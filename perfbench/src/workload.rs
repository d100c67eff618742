//! The seeded workloads, the benchmark-owned service and its messages,
//! and response verification.
//!
//! Every request and response starts with the u64 call id, so traced
//! and untraced runs send byte-identical inputs and the tracer can join
//! a call's client and server spans. Payload bytes are slices of one
//! seeded pattern: `bytes(len, seed)` is the pattern from an offset
//! derived from `seed`, which both sides can regenerate at no cost.

use std::borrow::Cow;
use std::time::Duration;
use std::{fmt, io};

use rpcoib::{Client, RpcConfig, RpcError, RpcService};
use simnet::{model, NetworkModel, SimAddr};
use wire::{DataInput, DataOutput, Writable};

use crate::trace::{self, Kind};

pub const PROTOCOL: &str = "perfbench.Service";
pub const ECHO_METHODS: [&str; 4] = ["echo0", "echo1", "echo2", "echo3"];
/// small_verbs' per-method echo sizes, spread over 16–512 B.
const ECHO_SIZES: [u32; 4] = [16, 64, 192, 512];

const KIB: u32 = 1024;
const MIB: u32 = 1024 * 1024;
/// Largest payload any workload sends.
pub const MAX_PAYLOAD: usize = 2 * MIB as usize;
/// Pattern length: room for `MAX_PAYLOAD` at any offset below `MAX_PAYLOAD`.
const PATTERN_BYTES: usize = 2 * MAX_PAYLOAD;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallVerbs,
    BulkVerbs,
    MixedSocket,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SmallVerbs,
        Workload::BulkVerbs,
        Workload::MixedSocket,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallVerbs => "small_verbs",
            Workload::BulkVerbs => "bulk_verbs",
            Workload::MixedSocket => "mixed_socket",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop caller threads, all sharing one `Client` (one connection).
    pub fn callers(self) -> usize {
        match self {
            Workload::SmallVerbs => 1,
            Workload::BulkVerbs | Workload::MixedSocket => 2,
        }
    }

    pub fn net(self) -> NetworkModel {
        match self {
            Workload::SmallVerbs | Workload::BulkVerbs => model::IB_QDR_VERBS,
            Workload::MixedSocket => model::IPOIB_QDR,
        }
    }

    /// The production defaults of the workload's transport, except that
    /// bulk_verbs bounds the retry cache. The default cache keeps 8192
    /// completed responses for 120 s; at ~1 MiB `get` responses that pins
    /// up to 8 GiB, and peak memory would track call count, not the engine.
    pub fn config(self) -> RpcConfig {
        match self {
            Workload::SmallVerbs => RpcConfig::rpcoib(),
            Workload::BulkVerbs => RpcConfig {
                retry_cache_capacity: 256,
                ..RpcConfig::rpcoib()
            },
            Workload::MixedSocket => RpcConfig::socket(),
        }
    }

    /// Largest payload the workload generates.
    pub fn max_payload(self) -> usize {
        match self {
            Workload::SmallVerbs => 512,
            Workload::BulkVerbs => MAX_PAYLOAD,
            Workload::MixedSocket => 256 * KIB as usize,
        }
    }

    /// Length of the slices a timed window is cut into: short enough for
    /// many slices a window, long enough that each slice's p99 has ten
    /// calls beyond it (bulk_verbs completes ~900 calls a second).
    pub fn slice(self) -> Duration {
        match self {
            Workload::SmallVerbs | Workload::MixedSocket => Duration::from_millis(250),
            Workload::BulkVerbs => Duration::from_millis(1250),
        }
    }

    /// Calls per caller run before timing starts: enough for the size
    /// history and the registered pools to reach steady state.
    pub fn warmup_calls(self) -> u64 {
        match self {
            Workload::SmallVerbs => 400,
            Workload::BulkVerbs => 48,
            Workload::MixedSocket => 300,
        }
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// The seeded byte pattern every payload is a slice of, with prefix sums
/// that give any word-aligned slice's checksum in O(1).
pub struct Pattern {
    bytes: Vec<u8>,
    /// `p0[k]` = Σ_{j<k} w_j and `p1[k]` = Σ_{j<k} j·w_j over the pattern's
    /// little-endian u64 words, wrapping.
    p0: Vec<u64>,
    p1: Vec<u64>,
}

impl Pattern {
    pub fn new(seed: u64) -> Pattern {
        let mut rng = Rng::new(seed ^ 0x5041_5454_4552_4E00);
        let words: Vec<u64> = (0..PATTERN_BYTES / 8).map(|_| rng.next_u64()).collect();
        let bytes = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let (mut p0, mut p1) = (vec![0u64], vec![0u64]);
        for (j, &w) in words.iter().enumerate() {
            p0.push(p0[j].wrapping_add(w));
            p1.push(p1[j].wrapping_add((j as u64).wrapping_mul(w)));
        }
        Pattern { bytes, p0, p1 }
    }

    fn offset(seed: u64) -> usize {
        (seed % (PATTERN_BYTES - MAX_PAYLOAD) as u64) as usize & !7
    }

    /// `bytes(len, seed)`: what `get(len, seed)` returns.
    pub fn slice(&self, len: u32, seed: u64) -> &[u8] {
        let off = Pattern::offset(seed);
        &self.bytes[off..off + len as usize]
    }

    /// [`checksum`] of `slice(len, seed)` from the prefix sums; `len`
    /// must be a multiple of 8.
    pub fn expected_checksum(&self, len: u32, seed: u64) -> u64 {
        debug_assert_eq!(len % 8, 0);
        let a = Pattern::offset(seed) / 8;
        let b = a + len as usize / 8;
        let s0 = self.p0[b].wrapping_sub(self.p0[a]);
        // Σ (i-a+1)·w_i = Σ i·w_i − (a−1)·Σ w_i
        let s1 = self.p1[b]
            .wrapping_sub(self.p1[a])
            .wrapping_sub((a as u64).wrapping_sub(1).wrapping_mul(s0));
        mix(s0, s1)
    }
}

fn mix(s0: u64, s1: u64) -> u64 {
    s1 ^ s0.rotate_left(29)
}

/// Position-weighted word sum: `put`'s reply. Words are little-endian,
/// a short tail is zero-padded.
pub fn checksum(data: &[u8]) -> u64 {
    let (mut s0, mut s1) = (0u64, 0u64);
    for (i, chunk) in data.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        s0 = s0.wrapping_add(w);
        s1 = s1.wrapping_add((i as u64 + 1).wrapping_mul(w));
    }
    mix(s0, s1)
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `echoN(bytes) -> bytes`.
    Echo { method: usize, len: u32, seed: u64 },
    /// `put(bytes) -> checksum`.
    Put { len: u32, seed: u64 },
    /// `get(len, seed) -> bytes`.
    Get { len: u32, seed: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub id: u64,
    pub op: Op,
}

/// One caller's seeded call stream. The engine sees only the calls.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// small_verbs: each echo method's fixed size.
    echo_sizes: [u32; 4],
    id_base: u64,
    seq: u64,
}

impl Generator {
    /// Stream `stream` of the workload at `seed`. The same (seed, stream)
    /// always yields the same calls, ids included.
    pub fn new(workload: Workload, seed: u64, stream: u64) -> Generator {
        // The four sizes are fixed, so every seed has the same mean size;
        // the seed picks which method carries which size.
        let mut echo_sizes = ECHO_SIZES;
        let mut shuffle = Rng::new(seed);
        for i in (1..echo_sizes.len()).rev() {
            echo_sizes.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
        }
        Generator {
            workload,
            rng: Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ 0x5354_5245_414D),
            echo_sizes,
            id_base: stream << 48,
            seq: 0,
        }
    }

    pub fn next_call(&mut self) -> Call {
        self.seq += 1;
        let r = &mut self.rng;
        let op = match self.workload {
            Workload::SmallVerbs => {
                let method = (r.next_u64() % 4) as usize;
                Op::Echo {
                    method,
                    len: self.echo_sizes[method],
                    seed: r.next_u64(),
                }
            }
            Workload::BulkVerbs => {
                let len = r.range(64 * KIB, 2 * MIB) & !7;
                if r.next_u64().is_multiple_of(2) {
                    Op::Put {
                        len,
                        seed: r.next_u64(),
                    }
                } else {
                    Op::Get {
                        len,
                        seed: r.next_u64(),
                    }
                }
            }
            Workload::MixedSocket => match r.next_u64() % 100 {
                0..=89 => Op::Echo {
                    method: (r.next_u64() % 4) as usize,
                    len: r.range(16, 512),
                    seed: r.next_u64(),
                },
                90..=94 => Op::Put {
                    len: r.range(16 * KIB, 256 * KIB) & !7,
                    seed: r.next_u64(),
                },
                _ => Op::Get {
                    len: r.range(16 * KIB, 256 * KIB) & !7,
                    seed: r.next_u64(),
                },
            },
        };
        Call {
            id: self.id_base | self.seq,
            op,
        }
    }
}

/// `[u64 call id][i32 len][len bytes]`: the echo and put request
/// (`RESP = false`) and the echo and get response (`RESP = true`).
#[derive(Default)]
pub struct Blob<'a, const RESP: bool> {
    pub call_id: u64,
    pub data: Cow<'a, [u8]>,
}

impl<const RESP: bool> Blob<'_, RESP> {
    const SER: Kind = if RESP { Kind::RespSer } else { Kind::ReqSer };
    const DESER: Kind = if RESP {
        Kind::RespDeser
    } else {
        Kind::ReqDeser
    };
}

impl<const RESP: bool> Writable for Blob<'_, RESP> {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        let t = trace::start();
        out.write_u64(self.call_id)?;
        out.write_len_bytes(&self.data)?;
        trace::end(Self::SER, t, self.call_id);
        Ok(())
    }

    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        let t = trace::start();
        self.call_id = input.read_u64()?;
        self.data = Cow::Owned(input.read_len_bytes()?);
        trace::end(Self::DESER, t, self.call_id);
        Ok(())
    }
}

/// `get`'s request: `[u64 call id][u32 len][u64 seed]`.
#[derive(Default)]
pub struct GetReq {
    pub call_id: u64,
    pub len: u32,
    pub seed: u64,
}

impl Writable for GetReq {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        let t = trace::start();
        out.write_u64(self.call_id)?;
        out.write_i32(self.len as i32)?;
        out.write_u64(self.seed)?;
        trace::end(Kind::ReqSer, t, self.call_id);
        Ok(())
    }

    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        let t = trace::start();
        self.call_id = input.read_u64()?;
        self.len = u32::try_from(input.read_i32()?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "negative length"))?;
        self.seed = input.read_u64()?;
        trace::end(Kind::ReqDeser, t, self.call_id);
        Ok(())
    }
}

/// `put`'s response: `[u64 call id][u64 checksum]`.
#[derive(Default)]
pub struct SumResp {
    pub call_id: u64,
    pub sum: u64,
}

impl Writable for SumResp {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        let t = trace::start();
        out.write_u64(self.call_id)?;
        out.write_u64(self.sum)?;
        trace::end(Kind::RespSer, t, self.call_id);
        Ok(())
    }

    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        let t = trace::start();
        self.call_id = input.read_u64()?;
        self.sum = input.read_u64()?;
        trace::end(Kind::RespDeser, t, self.call_id);
        Ok(())
    }
}

const BLOB_HEADER: u64 = 8 + 4;

/// Serialized payload bytes of a call, request plus response, excluding
/// the RPC headers.
pub fn payload_bytes(op: Op) -> u64 {
    match op {
        Op::Echo { len, .. } => 2 * (BLOB_HEADER + u64::from(len)),
        Op::Put { len, .. } => BLOB_HEADER + u64::from(len) + 16,
        Op::Get { len, .. } => 20 + BLOB_HEADER + u64::from(len),
    }
}

/// The service: three operations behind six method names.
pub struct BenchService {
    pub pattern: &'static Pattern,
}

impl RpcService for BenchService {
    fn protocol(&self) -> &'static str {
        PROTOCOL
    }

    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let t = trace::start();
        let (call_id, reply): (u64, Box<dyn Writable + Send>) = match method {
            "put" => {
                let mut req = Blob::<false>::default();
                req.read_fields(param).map_err(|e| e.to_string())?;
                let sum = checksum(&req.data);
                (
                    req.call_id,
                    Box::new(SumResp {
                        call_id: req.call_id,
                        sum,
                    }),
                )
            }
            "get" => {
                let mut req = GetReq::default();
                req.read_fields(param).map_err(|e| e.to_string())?;
                if req.len as usize > MAX_PAYLOAD {
                    return Err(format!("get length {} over {MAX_PAYLOAD}", req.len));
                }
                let data = Cow::Borrowed(self.pattern.slice(req.len, req.seed));
                (
                    req.call_id,
                    Box::new(Blob::<true> {
                        call_id: req.call_id,
                        data,
                    }),
                )
            }
            m if ECHO_METHODS.contains(&m) => {
                let mut req = Blob::<false>::default();
                req.read_fields(param).map_err(|e| e.to_string())?;
                (
                    req.call_id,
                    Box::new(Blob::<true> {
                        call_id: req.call_id,
                        data: req.data,
                    }),
                )
            }
            other => return Err(format!("unknown method {other}")),
        };
        trace::end(Kind::Service, t, call_id);
        Ok(reply)
    }
}

/// Why a call counts as failed.
pub enum Failure {
    Rpc(RpcError),
    Wrong(&'static str),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Rpc(e) => write!(f, "rpc error: {e}"),
            Failure::Wrong(what) => write!(f, "wrong response: {what}"),
        }
    }
}

/// Issue one call through `Client::call` and verify the response.
/// Returns the wall-clock call time in ns.
pub fn execute(
    client: &Client,
    server: SimAddr,
    pattern: &Pattern,
    call: Call,
) -> Result<u64, Failure> {
    let id = call.id;
    let timed = |f: &mut dyn FnMut() -> Result<(), Failure>| {
        let t = trace::start();
        let begin = std::time::Instant::now();
        let result = f();
        let ns = begin.elapsed().as_nanos() as u64;
        trace::end(Kind::Call, t, id);
        result.map(|()| ns)
    };
    match call.op {
        Op::Echo { method, len, seed } => {
            let sent = pattern.slice(len, seed);
            let req = Blob::<false> {
                call_id: id,
                data: Cow::Borrowed(sent),
            };
            let mut resp = Blob::<true>::default();
            let ns = timed(&mut || {
                resp = client
                    .call(server, PROTOCOL, ECHO_METHODS[method], &req)
                    .map_err(Failure::Rpc)?;
                Ok(())
            })?;
            check(
                resp.call_id == id && *resp.data == *sent,
                "echo bytes differ",
            )?;
            Ok(ns)
        }
        Op::Put { len, seed } => {
            let req = Blob::<false> {
                call_id: id,
                data: Cow::Borrowed(pattern.slice(len, seed)),
            };
            let mut resp = SumResp::default();
            let ns = timed(&mut || {
                resp = client
                    .call(server, PROTOCOL, "put", &req)
                    .map_err(Failure::Rpc)?;
                Ok(())
            })?;
            check(
                resp.call_id == id && resp.sum == pattern.expected_checksum(len, seed),
                "put checksum differs",
            )?;
            Ok(ns)
        }
        Op::Get { len, seed } => {
            let req = GetReq {
                call_id: id,
                len,
                seed,
            };
            let mut resp = Blob::<true>::default();
            let ns = timed(&mut || {
                resp = client
                    .call(server, PROTOCOL, "get", &req)
                    .map_err(Failure::Rpc)?;
                Ok(())
            })?;
            check(
                resp.call_id == id && *resp.data == *pattern.slice(len, seed),
                "get bytes differ",
            )?;
            Ok(ns)
        }
    }
}

fn check(ok: bool, what: &'static str) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Wrong(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_checksum_matches_forward_pass() {
        let p = Pattern::new(7);
        for (len, seed) in [
            (8, 0),
            (64 * 1024, 12345),
            (2 * MIB, u64::MAX),
            (16 * 1024 + 8, 99),
        ] {
            assert_eq!(p.expected_checksum(len, seed), checksum(p.slice(len, seed)));
        }
    }

    #[test]
    fn generator_is_seeded() {
        let mut a = Generator::new(Workload::MixedSocket, 3, 1);
        let mut b = Generator::new(Workload::MixedSocket, 3, 1);
        for _ in 0..100 {
            let (x, y) = (a.next_call(), b.next_call());
            assert_eq!(x.id, y.id);
            assert_eq!(format!("{:?}", x.op), format!("{:?}", y.op));
        }
    }
}
