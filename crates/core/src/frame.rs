//! Frame layout shared by both transports.
//!
//! Two frame versions exist. **V3** is what every client of this build
//! speaks: the compact header the wire-batching layer rides on, carrying
//! the at-most-once identity (a wrap-safe `i64` sequence number and the
//! retry attempt; the client id travels once, in the connect handshake)
//! so the server's retry cache can recognize a re-sent call. It is
//! *connection-scoped*: the handshake fixes the version for the whole
//! connection, so frames carry no per-frame version marker.
//! Encode/decode state lives in a [`V3Encoder`]/[`V3Decoder`] pair per
//! connection direction:
//!
//! * request: `[vlong seq_field][vlong retry_attempt][vlong deadline_µs]
//!   [vlong method_ref]([Text protocol][Text method])?[param …]`
//! * response: `[vlong seq_field][u8 status][value … | Text error]`
//!
//! `deadline_µs` is the caller's remaining per-attempt deadline budget in
//! microseconds (`0` = none): the admission plane sheds a queued call
//! once that budget has elapsed instead of executing it (see
//! [`STATUS_EXPIRED`]). V1 requests carry no budget and are never shed.
//!
//! In **stateful** mode (stream transports, where a lost byte kills the
//! connection and its codec state with it) `seq_field` is the wrapping
//! delta from the previous frame's seq — almost always the single byte
//! `1` — and `method_ref` names the `<protocol, method>` pair by a small
//! per-connection wire id after its first use. In **self-contained**
//! mode (datagram-like verbs completions, where the fault model can drop
//! a frame without killing the connection) every frame decodes alone:
//! `seq_field` is the absolute seq and the method strings ride inline.
//!
//! **V1** is the stock-Hadoop framing the paper's baseline speaks. The
//! server still *decodes* it: the connect-time magic sniff (see
//! [`crate::handshake`]) lets a pre-handshake peer straight through to
//! this framing layer, and the server answers a V1 request with a V1
//! response. V1 peers have no client identity, so they get no retry
//! caching:
//!
//! * request: `[i32 call_id][Text protocol][Text method][param …]`
//! * response: `[i32 call_id][u8 status][value … | Text error]`
//!
//! On the socket transport each payload is preceded by a 4-byte big-endian
//! length (Hadoop's `out.writeInt(dataLength)`); on the RDMA transport the
//! length travels in the completion, so no prefix is needed.

use std::io::{self, Read};
use std::time::Duration;

use bufpool::{PoolMem, PooledBuf};
use simnet::MemoryRegion;
use wire::{DataInput, DataOutput, Writable};

use crate::intern::{self, MethodKey};

/// Response status byte: success.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the server reports an error string.
pub const STATUS_ERROR: u8 = 1;
/// Response status byte: the server's call queue is full; the call was
/// never executed and is safe to retry (V3 only).
pub const STATUS_BUSY: u8 = 2;
/// Response status byte: the call's propagated deadline budget expired
/// while it was queued, so the server shed it without executing it.
/// Retrying is pointless — the caller's deadline has passed — so clients
/// classify this as a non-retryable deadline failure (V3 only).
pub const STATUS_EXPIRED: u8 = 3;

/// Frame wire version, fixed per connection: the handshake selects V3,
/// and a peer that skips the handshake speaks V1. Frames carry no
/// in-band version marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVersion {
    /// `[i32 call_id]`-headed stock-Hadoop frames.
    V1,
    /// Compact connection-scoped headers (see [`V3Encoder`]).
    V3,
}

/// Parsed request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    pub version: FrameVersion,
    /// Stable per-client identity (0 for V1 peers, which get no caching).
    pub client_id: u64,
    /// Client-assigned sequence number; retries of one logical call
    /// re-send the same value. For V1 frames this is the old `call_id`.
    pub seq: i64,
    /// 0 on the first transmission, incremented per re-send.
    pub retry_attempt: u32,
    /// Interned `<protocol, method>` key: the wire strings resolve to an
    /// id once per frame, and everything downstream carries this `Copy`
    /// handle instead of owned `String`s.
    pub key: MethodKey,
    /// Remaining per-attempt deadline budget propagated by the caller
    /// (V3 only; `None` for V1 peers and for callers with no
    /// deadline). The admission plane sheds the call once this much time
    /// has passed since admission.
    pub deadline_budget: Option<Duration>,
}

impl RequestHeader {
    /// Protocol half of the interned key.
    pub fn protocol(&self) -> &'static str {
        self.key.protocol()
    }

    /// Method half of the interned key.
    pub fn method(&self) -> &'static str {
        self.key.method()
    }
}

/// Serialize a V1 request frame body: what a stock-Hadoop peer sends.
/// The engine's client never writes V1; this keeps the server's V1
/// decode path exercised.
pub fn write_request_v1(
    out: &mut dyn DataOutput,
    call_id: i32,
    protocol: &str,
    method: &str,
    param: &dyn Writable,
) -> io::Result<()> {
    out.write_i32(call_id)?;
    out.write_string(protocol)?;
    out.write_string(method)?;
    param.write(out)
}

/// Stack window for decoding key strings: real `<protocol, method>` names
/// are short, so steady-state decode never touches the heap; a longer name
/// spills to a heap read, staged through this window one chunk at a time.
const KEY_STACK: usize = 192;

/// Read one Hadoop `Text` string into the caller's buffers and hand back a
/// borrowed `&str` (no allocation unless the name overflows `KEY_STACK`).
fn read_key_text<'a>(
    input: &mut dyn DataInput,
    stack: &'a mut [u8; KEY_STACK],
    heap: &'a mut Vec<u8>,
) -> io::Result<&'a str> {
    let len = input.read_vint()?;
    if len < 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "negative string length",
        ));
    }
    let len = len as usize;
    let bytes: &[u8] = if len <= KEY_STACK {
        input.read_bytes(&mut stack[..len])?;
        &stack[..len]
    } else {
        // The length is the peer's claim, not a fact: the heap copy only
        // grows by chunks that actually arrived, so a forged length
        // costs what the peer sent, not what it claimed.
        heap.clear();
        while heap.len() < len {
            let chunk = &mut stack[..(len - heap.len()).min(KEY_STACK)];
            input.read_bytes(chunk)?;
            heap.extend_from_slice(chunk);
        }
        heap
    };
    std::str::from_utf8(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf8: {e}")))
}

/// Decode a retry attempt: vlong on the wire, rejected (like other
/// malformed header fields) when it does not fit the `u32` the engine
/// tracks attempts in.
fn read_retry_attempt(input: &mut dyn DataInput) -> io::Result<u32> {
    let raw = input.read_vlong()?;
    u32::try_from(raw).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("retry_attempt {raw} out of range"),
        )
    })
}

/// Deadline budgets travel as whole microseconds (`0` = no deadline): an
/// RPC deadline is milliseconds-to-seconds scale, so sub-microsecond
/// precision buys nothing and the vlong stays short. Rounding is *up* so
/// a tiny-but-present budget never encodes as "none".
fn encode_deadline_budget(budget: Option<Duration>) -> i64 {
    match budget {
        None => 0,
        Some(d) => {
            let micros = d.as_nanos().div_ceil(1000);
            i64::try_from(micros).unwrap_or(i64::MAX).max(1)
        }
    }
}

/// Decode a deadline budget field; negative values are malformed.
fn read_deadline_budget(input: &mut dyn DataInput) -> io::Result<Option<Duration>> {
    let raw = input.read_vlong()?;
    match raw {
        0 => Ok(None),
        micros if micros > 0 => Ok(Some(Duration::from_micros(micros as u64))),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("negative deadline budget {raw}"),
        )),
    }
}

/// Read the `[Text protocol][Text method]` pair and resolve it to the
/// process-wide interned key — once per frame, lock-free after the pair's
/// first appearance.
fn read_method_key(input: &mut dyn DataInput) -> io::Result<MethodKey> {
    let (mut pstack, mut pheap) = ([0u8; KEY_STACK], Vec::new());
    let (mut mstack, mut mheap) = ([0u8; KEY_STACK], Vec::new());
    let protocol = read_key_text(input, &mut pstack, &mut pheap)?;
    let method = read_key_text(input, &mut mstack, &mut mheap)?;
    Ok(intern::method_key(protocol, method))
}

/// Parse the header of a V1 request frame; the param bytes follow in
/// `input`. (V3 requests decode through the connection's [`V3Decoder`].)
pub fn read_request_header(input: &mut dyn DataInput) -> io::Result<RequestHeader> {
    let lead = input.read_i32()?;
    if lead < 0 {
        // V1 call ids are non-negative; a negative lead is garbage (and
        // would be unanswerable — the V1 response path rejects
        // out-of-range ids).
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid V1 call id {lead}"),
        ));
    }
    Ok(RequestHeader {
        version: FrameVersion::V1,
        client_id: 0,
        seq: lead as i64,
        retry_attempt: 0,
        key: read_method_key(input)?,
        deadline_budget: None,
    })
}

/// Serialize the version-neutral tail of a response:
/// `[u8 status][value … | Text error]`. Every version's response frame is
/// its lead followed by exactly these bytes, which is what lets the
/// handler serialize a result once and the responder/retry-cache replay
/// it under any negotiated version.
pub fn write_response_body(
    out: &mut dyn DataOutput,
    result: Result<&dyn Writable, &str>,
) -> io::Result<()> {
    match result {
        Ok(value) => {
            out.write_u8(STATUS_OK)?;
            value.write(out)
        }
        Err(message) => {
            out.write_u8(STATUS_ERROR)?;
            out.write_string(message)
        }
    }
}

/// The version-neutral body of a busy rejection. V3 clients get the bare
/// `STATUS_BUSY` byte (retryable, never executed); a V1 peer cannot parse
/// status 2, so it gets an ordinary error string.
pub fn busy_body(version: FrameVersion) -> Vec<u8> {
    match version {
        FrameVersion::V1 => {
            let mut out = vec![STATUS_ERROR];
            out.write_string("server too busy: call queue full")
                .expect("vec write");
            out
        }
        FrameVersion::V3 => vec![STATUS_BUSY],
    }
}

/// The version-neutral body of a deadline shed. Only V3 requests carry a
/// budget, so only V3 clients can ever be shed; they parse the bare
/// `STATUS_EXPIRED` byte. A V1 peer can never reach this path (no client
/// identity, no cache entry, no budget); its arm exists for layout
/// symmetry with [`busy_body`].
pub fn expired_body(version: FrameVersion) -> Vec<u8> {
    match version {
        FrameVersion::V1 => {
            let mut out = vec![STATUS_ERROR];
            out.write_string("call deadline expired before execution")
                .expect("vec write");
            out
        }
        FrameVersion::V3 => vec![STATUS_EXPIRED],
    }
}

/// Serialize a full response frame in `version`'s layout (a server
/// answers each request in the version it arrived in). V3 leads need the
/// connection's [`V3Encoder`]; this stateless helper serves V1.
pub fn write_response(
    out: &mut dyn DataOutput,
    version: FrameVersion,
    seq: i64,
    result: Result<&dyn Writable, &str>,
) -> io::Result<()> {
    write_response_lead(out, version, seq)?;
    write_response_body(out, result)
}

/// Serialize a busy-rejection response (stateless V1 form).
pub fn write_busy_response(
    out: &mut dyn DataOutput,
    version: FrameVersion,
    seq: i64,
) -> io::Result<()> {
    write_response_lead(out, version, seq)?;
    out.write_bytes(&busy_body(version))
}

/// The per-version bytes that precede a response's neutral body. V3 is
/// stateful per connection and handled by [`V3Encoder::write_response_lead`].
pub(crate) fn write_response_lead(
    out: &mut dyn DataOutput,
    version: FrameVersion,
    seq: i64,
) -> io::Result<()> {
    match version {
        FrameVersion::V1 => {
            // V1 call ids are non-negative i32s; request decode enforces
            // this, but a silent `as i32` truncation here would corrupt
            // the call id if that invariant ever broke.
            let id = i32::try_from(seq)
                .ok()
                .filter(|id| *id >= 0)
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("seq {seq} does not fit a V1 call id"),
                    )
                })?;
            out.write_i32(id)
        }
        FrameVersion::V3 => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "V3 response leads require the connection's V3Encoder",
        )),
    }
}

/// Response disposition carried by the status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The value follows.
    Ok,
    /// A `Text` error message follows.
    Error,
    /// The server refused admission; nothing follows. Retryable.
    Busy,
    /// The call's deadline budget expired while queued and it was shed
    /// without executing; nothing follows. Not retryable: the caller's
    /// deadline has already passed.
    Expired,
}

/// Parsed response header; the value (or error string) follows in `input`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    pub version: FrameVersion,
    pub seq: i64,
    pub status: ResponseStatus,
}

impl ResponseHeader {
    /// Convenience for the success case.
    pub fn ok(&self) -> bool {
        self.status == ResponseStatus::Ok
    }
}

fn read_status(input: &mut dyn DataInput) -> io::Result<ResponseStatus> {
    match input.read_u8()? {
        STATUS_OK => Ok(ResponseStatus::Ok),
        STATUS_ERROR => Ok(ResponseStatus::Error),
        STATUS_BUSY => Ok(ResponseStatus::Busy),
        STATUS_EXPIRED => Ok(ResponseStatus::Expired),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown response status {other}"),
        )),
    }
}

/// Parse a V1 response frame header (V3 responses decode through the
/// connection's [`V3Decoder`]).
pub fn read_response_header(input: &mut dyn DataInput) -> io::Result<ResponseHeader> {
    let seq = i64::from(input.read_i32()?);
    let status = read_status(input)?;
    Ok(ResponseHeader {
        version: FrameVersion::V1,
        seq,
        status,
    })
}

/// `method_ref` value marking inline `[Text protocol][Text method]`
/// strings with no table interaction (every self-contained frame, and any
/// stateful frame the encoder chooses not to table).
const MREF_INLINE: i64 = -1;

/// Encoder half of the V3 connection codec. One instance per connection
/// direction (client requests, or server responses), fed frames in exact
/// wire order.
///
/// `stateful` selects the compression level. Stream transports set it:
/// deltas and the method-id table assume the peer decodes every frame we
/// encode, in order — true on a reliable stream, where any loss kills the
/// connection (and both codec halves with it). The verbs fault model can
/// drop a completion while the connection lives on, so verbs connections
/// run self-contained: absolute seqs, inline method strings, no
/// inter-frame state at all.
pub struct V3Encoder {
    stateful: bool,
    last_seq: i64,
    /// `<protocol, method>` → per-connection wire id, assigned densely in
    /// first-use order (stateful mode only).
    ids: std::collections::HashMap<MethodKey, i64>,
}

impl V3Encoder {
    pub fn new(stateful: bool) -> Self {
        V3Encoder {
            stateful,
            last_seq: 0,
            ids: std::collections::HashMap::new(),
        }
    }

    fn seq_field(&mut self, seq: i64) -> i64 {
        if self.stateful {
            let delta = seq.wrapping_sub(self.last_seq);
            self.last_seq = seq;
            delta
        } else {
            seq
        }
    }

    /// Serialize a V3 request header; the param bytes follow.
    /// `deadline_budget` is the caller's remaining per-attempt budget
    /// (`None` encodes as `0`: no deadline, never shed).
    pub fn write_request_header(
        &mut self,
        out: &mut dyn DataOutput,
        seq: i64,
        retry_attempt: u32,
        deadline_budget: Option<Duration>,
        key: MethodKey,
    ) -> io::Result<()> {
        out.write_vlong(self.seq_field(seq))?;
        out.write_vlong(i64::from(retry_attempt))?;
        out.write_vlong(encode_deadline_budget(deadline_budget))?;
        if !self.stateful {
            out.write_vlong(MREF_INLINE)?;
            out.write_string(key.protocol())?;
            return out.write_string(key.method());
        }
        if let Some(&wid) = self.ids.get(&key) {
            return out.write_vlong(wid);
        }
        // First use on this connection: announce wire id `len(ids)` (the
        // decoder independently tracks the same dense assignment) and
        // carry the strings inline this one time.
        let wid = self.ids.len() as i64;
        self.ids.insert(key, wid);
        out.write_vlong(-wid - 2)?;
        out.write_string(key.protocol())?;
        out.write_string(key.method())
    }

    /// Serialize a V3 response lead (`[vlong seq_field]`); the neutral
    /// `[status][body]` bytes follow.
    pub fn write_response_lead(&mut self, out: &mut dyn DataOutput, seq: i64) -> io::Result<()> {
        out.write_vlong(self.seq_field(seq))
    }
}

/// Decoder half of the V3 connection codec; mirrors [`V3Encoder`] and
/// fail-stops (`InvalidData`) on any inconsistency — the connection is
/// forfeited rather than risking a misattributed frame.
pub struct V3Decoder {
    stateful: bool,
    last_seq: i64,
    /// Wire id → key, in announcement order (stateful mode only).
    table: Vec<MethodKey>,
}

impl V3Decoder {
    pub fn new(stateful: bool) -> Self {
        V3Decoder {
            stateful,
            last_seq: 0,
            table: Vec::new(),
        }
    }

    fn seq(&mut self, field: i64) -> i64 {
        if self.stateful {
            let seq = self.last_seq.wrapping_add(field);
            self.last_seq = seq;
            seq
        } else {
            field
        }
    }

    fn method_key(&mut self, input: &mut dyn DataInput, mref: i64) -> io::Result<MethodKey> {
        if mref == MREF_INLINE {
            return read_method_key(input);
        }
        if mref >= 0 {
            return usize::try_from(mref)
                .ok()
                .and_then(|idx| self.table.get(idx).copied())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("V3 method ref {mref} not announced on this connection"),
                    )
                });
        }
        // Announcement: wire id (-mref)-2 must be the next dense slot.
        let wid = mref
            .checked_neg()
            .and_then(|v| v.checked_sub(2))
            .filter(|&wid| wid == self.table.len() as i64)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "V3 method announcement {mref} out of order (expected id {})",
                        self.table.len()
                    ),
                )
            })?;
        let key = read_method_key(input)?;
        debug_assert_eq!(wid, self.table.len() as i64);
        self.table.push(key);
        Ok(key)
    }

    /// Parse a V3 request header; `client_id` comes from the handshake
    /// (it is not on the wire per-frame). The param bytes follow.
    pub fn read_request_header(
        &mut self,
        input: &mut dyn DataInput,
        client_id: u64,
    ) -> io::Result<RequestHeader> {
        let seq = self.seq(input.read_vlong()?);
        let retry_attempt = read_retry_attempt(input)?;
        let deadline_budget = read_deadline_budget(input)?;
        let mref = input.read_vlong()?;
        let key = self.method_key(input, mref)?;
        Ok(RequestHeader {
            version: FrameVersion::V3,
            client_id,
            seq,
            retry_attempt,
            key,
            deadline_budget,
        })
    }

    /// Parse a V3 response header; the value/error bytes follow.
    pub fn read_response_header(
        &mut self,
        input: &mut dyn DataInput,
    ) -> io::Result<ResponseHeader> {
        let seq = self.seq(input.read_vlong()?);
        let status = read_status(input)?;
        Ok(ResponseHeader {
            version: FrameVersion::V3,
            seq,
            status,
        })
    }
}

/// A received frame payload: heap bytes on the socket path (Listing 2
/// allocates per call), pooled registered memory on the RPCoIB path (zero
/// extra copies).
pub enum Payload {
    /// Freshly allocated heap buffer (socket baseline).
    Owned(Vec<u8>),
    /// A pooled registered buffer holding `len` valid bytes.
    Pooled {
        buf: PooledBuf<MemoryRegion>,
        len: usize,
    },
}

impl Payload {
    /// Valid byte count.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Pooled { len, .. } => *len,
        }
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A positioned reader over the payload bytes.
    pub fn reader(&self) -> PayloadReader<'_> {
        PayloadReader {
            payload: self,
            pos: 0,
            stage: [0u8; READ_STAGE],
            stage_start: 0,
            stage_len: 0,
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Owned(v) => write!(f, "Payload::Owned({} bytes)", v.len()),
            Payload::Pooled { len, .. } => write!(f, "Payload::Pooled({len} bytes)"),
        }
    }
}

/// Read-side staging size (mirrors the write-combining stage in
/// `RdmaOutputStream`): pooled payloads live behind a lock, so per-field
/// reads fetch through a small local window.
const READ_STAGE: usize = 512;

/// Reader over a [`Payload`]; implements `Read`, hence `DataInput`.
pub struct PayloadReader<'a> {
    payload: &'a Payload,
    pos: usize,
    stage: [u8; READ_STAGE],
    stage_start: usize,
    stage_len: usize,
}

impl PayloadReader<'_> {
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advance the position by `n` bytes (e.g. past an already-parsed
    /// header) without copying.
    pub fn skip(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.payload.len());
    }
}

impl Read for PayloadReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.remaining().min(out.len());
        if n == 0 {
            return Ok(0);
        }
        match self.payload {
            Payload::Owned(v) => {
                out[..n].copy_from_slice(&v[self.pos..self.pos + n]);
                self.pos += n;
            }
            Payload::Pooled { buf, .. } => {
                if n >= READ_STAGE {
                    // Bulk read: bypass the stage.
                    buf.mem().get(self.pos, &mut out[..n]);
                    self.pos += n;
                } else {
                    // Serve from the staged window, refilling as needed.
                    let in_stage = self.pos >= self.stage_start
                        && self.pos < self.stage_start + self.stage_len;
                    if !in_stage {
                        let fill = self.remaining().min(READ_STAGE);
                        buf.mem().get(self.pos, &mut self.stage[..fill]);
                        self.stage_start = self.pos;
                        self.stage_len = fill;
                    }
                    let off = self.pos - self.stage_start;
                    let n = n.min(self.stage_len - off);
                    out[..n].copy_from_slice(&self.stage[off..off + n]);
                    self.pos += n;
                    return Ok(n);
                }
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{IntWritable, Text};

    #[test]
    fn forged_key_length_allocates_only_what_arrived() {
        // A header claiming a ~2 GiB name with 3 bytes behind it must
        // fail on the missing bytes without reserving the claimed size.
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vint(i32::MAX).unwrap();
        buf.extend_from_slice(b"abc");
        let (mut stack, mut heap) = ([0u8; KEY_STACK], Vec::new());
        assert!(read_key_text(&mut buf.as_slice(), &mut stack, &mut heap).is_err());
        assert!(
            heap.capacity() < KEY_STACK,
            "heap grew to {} bytes for 3 received",
            heap.capacity()
        );
        // A genuine long name still decodes through the chunked path.
        let name = "p".repeat(3 * KEY_STACK + 7);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_string(&name).unwrap();
        assert_eq!(
            read_key_text(&mut buf.as_slice(), &mut stack, &mut heap).unwrap(),
            name
        );
    }

    #[test]
    fn v1_request_still_decodes() {
        let mut buf: Vec<u8> = Vec::new();
        write_request_v1(
            &mut buf,
            17,
            "hdfs.ClientProtocol",
            "getFileInfo",
            &Text::from("/a/b"),
        )
        .unwrap();
        let mut input = buf.as_slice();
        let header = read_request_header(&mut input).unwrap();
        assert_eq!(header.version, FrameVersion::V1);
        assert_eq!(header.client_id, 0, "V1 peers have no client identity");
        assert_eq!(header.seq, 17);
        assert_eq!(header.retry_attempt, 0);
        assert_eq!(header.protocol(), "hdfs.ClientProtocol");
        assert_eq!(header.method(), "getFileInfo");
        assert_eq!(
            header.key,
            crate::intern::method_key("hdfs.ClientProtocol", "getFileInfo"),
            "decode resolves to the process-wide interned key"
        );
        let mut param = Text::default();
        param.read_fields(&mut input).unwrap();
        assert_eq!(param.0, "/a/b");
    }

    #[test]
    fn ok_response_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_response(&mut buf, FrameVersion::V1, 5, Ok(&IntWritable(99))).unwrap();
        let mut input = buf.as_slice();
        let header = read_response_header(&mut input).unwrap();
        assert!(header.ok());
        assert_eq!(header.version, FrameVersion::V1);
        assert_eq!(header.seq, 5);
        let mut v = IntWritable::default();
        v.read_fields(&mut input).unwrap();
        assert_eq!(v.0, 99);
    }

    #[test]
    fn v3_response_carries_i64_seq() {
        let seq = (i32::MAX as i64) + 1;
        for stateful in [true, false] {
            let mut buf: Vec<u8> = Vec::new();
            V3Encoder::new(stateful)
                .write_response_lead(&mut buf, seq)
                .unwrap();
            write_response_body(&mut buf, Ok(&IntWritable(1))).unwrap();
            let mut input = buf.as_slice();
            let header = V3Decoder::new(stateful)
                .read_response_header(&mut input)
                .unwrap();
            assert_eq!(header.seq, seq, "stateful={stateful}");
        }
    }

    #[test]
    fn error_response_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_response(&mut buf, FrameVersion::V1, 6, Err("file not found")).unwrap();
        let mut input = buf.as_slice();
        let header = read_response_header(&mut input).unwrap();
        assert_eq!(header.status, ResponseStatus::Error);
        let mut msg = String::new();
        msg.read_fields(&mut input).unwrap();
        assert_eq!(msg, "file not found");
    }

    #[test]
    fn busy_response_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        V3Encoder::new(true)
            .write_response_lead(&mut buf, 9)
            .unwrap();
        buf.extend_from_slice(&busy_body(FrameVersion::V3));
        let mut input = buf.as_slice();
        let header = V3Decoder::new(true)
            .read_response_header(&mut input)
            .unwrap();
        assert_eq!(header.status, ResponseStatus::Busy);
        assert_eq!(header.seq, 9);
        assert_eq!(input.len(), 0, "busy responses carry no body");

        // A V1 peer gets the rejection as an ordinary error string.
        let mut buf: Vec<u8> = Vec::new();
        write_busy_response(&mut buf, FrameVersion::V1, 9).unwrap();
        let mut input = buf.as_slice();
        let header = read_response_header(&mut input).unwrap();
        assert_eq!(header.version, FrameVersion::V1);
        assert_eq!(header.status, ResponseStatus::Error);
    }

    #[test]
    fn negative_v1_call_id_is_invalid_data() {
        let mut buf: Vec<u8> = Vec::new();
        write_request_v1(&mut buf, -1, "p", "m", &IntWritable(0)).unwrap();
        let mut input = buf.as_slice();
        assert!(read_request_header(&mut input).is_err());
    }

    #[test]
    fn v1_response_rejects_out_of_range_seq() {
        for seq in [-1i64, (i32::MAX as i64) + 1] {
            let mut buf: Vec<u8> = Vec::new();
            let err =
                write_response(&mut buf, FrameVersion::V1, seq, Ok(&IntWritable(1))).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "seq {seq}");
        }
    }

    #[test]
    fn bad_status_is_invalid_data() {
        let buf = [0, 0, 0, 1, 9];
        let mut input = buf.as_slice();
        assert!(read_response_header(&mut input).is_err());
    }

    #[test]
    fn retry_attempt_roundtrips_across_the_i32_boundary() {
        // Regression: `retry_attempt as i32` through the signed vint path
        // flipped counts above i32::MAX negative on the wire.
        let key = crate::intern::method_key("p", "m");
        for attempt in [0u32, 1, i32::MAX as u32, (i32::MAX as u32) + 1, u32::MAX] {
            let mut buf: Vec<u8> = Vec::new();
            V3Encoder::new(false)
                .write_request_header(&mut buf, 1, attempt, None, key)
                .unwrap();
            let mut input = buf.as_slice();
            let header = V3Decoder::new(false)
                .read_request_header(&mut input, 7)
                .unwrap();
            assert_eq!(header.retry_attempt, attempt, "attempt {attempt}");
        }
    }

    #[test]
    fn out_of_range_retry_attempt_is_invalid_data() {
        for raw in [-1i64, i64::from(u32::MAX) + 1, i64::MIN] {
            let mut buf: Vec<u8> = Vec::new();
            buf.write_vlong(1).unwrap(); // seq
            buf.write_vlong(raw).unwrap(); // retry attempt
            buf.write_vlong(0).unwrap(); // no deadline
            buf.write_vlong(MREF_INLINE).unwrap();
            buf.write_string("p").unwrap();
            buf.write_string("m").unwrap();
            let mut input = buf.as_slice();
            let err = V3Decoder::new(false)
                .read_request_header(&mut input, 7)
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "raw {raw}");
        }
    }

    #[test]
    fn v3_request_roundtrip_stateful_uses_table_after_first_use() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let key = crate::intern::method_key("v3.Proto", "ping");
        let mut sizes = Vec::new();
        for seq in 1..=3i64 {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 0, None, key)
                .unwrap();
            sizes.push(buf.len());
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 42).unwrap();
            assert_eq!(header.version, FrameVersion::V3);
            assert_eq!(header.client_id, 42, "client id comes from the handshake");
            assert_eq!(header.seq, seq);
            assert_eq!(header.key, key);
            assert!(input.is_empty());
        }
        assert!(
            sizes[1] < sizes[0] && sizes[2] == sizes[1],
            "interned form must drop the inline strings: {sizes:?}"
        );
        assert_eq!(
            sizes[1], 4,
            "delta-seq + retry + deadline + method ref, one byte each"
        );
    }

    #[test]
    fn v3_self_contained_frames_decode_independently() {
        let mut enc = V3Encoder::new(false);
        let key = crate::intern::method_key("v3.Proto", "solo");
        let mut frames = Vec::new();
        for seq in [10i64, 11, 12] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 2, Some(Duration::from_millis(250)), key)
                .unwrap();
            frames.push(buf);
        }
        // Decode out of order with fresh decoders: no inter-frame state.
        for (buf, seq) in frames.iter().zip([10i64, 11, 12]).rev() {
            let mut dec = V3Decoder::new(false);
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 9).unwrap();
            assert_eq!(header.seq, seq);
            assert_eq!(header.retry_attempt, 2);
            assert_eq!(header.key, key);
            assert_eq!(header.deadline_budget, Some(Duration::from_millis(250)));
        }
    }

    #[test]
    fn v3_response_roundtrip_and_busy_body() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        for (seq, body) in [
            (5i64, busy_body(FrameVersion::V3)),
            (6, {
                let mut b = Vec::new();
                write_response_body(&mut b, Ok(&IntWritable(77))).unwrap();
                b
            }),
        ] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_response_lead(&mut buf, seq).unwrap();
            buf.extend_from_slice(&body);
            let mut input = buf.as_slice();
            let header = dec.read_response_header(&mut input).unwrap();
            assert_eq!(header.version, FrameVersion::V3);
            assert_eq!(header.seq, seq);
            if seq == 5 {
                assert_eq!(header.status, ResponseStatus::Busy);
            } else {
                let mut v = IntWritable::default();
                v.read_fields(&mut input).unwrap();
                assert_eq!(v.0, 77);
            }
        }
    }

    #[test]
    fn v3_bad_method_refs_are_invalid_data() {
        let mut dec = V3Decoder::new(true);
        // Reference to a never-announced id.
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap(); // seq delta
        buf.write_vlong(0).unwrap(); // retry
        buf.write_vlong(0).unwrap(); // no deadline
        buf.write_vlong(3).unwrap(); // ref id 3, table empty
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());

        // Out-of-order announcement (id 5 when 0 is expected).
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(-7).unwrap(); // announces wid 5
        buf.write_string("p").unwrap();
        buf.write_string("m").unwrap();
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());

        // i64::MIN must not overflow the announcement arithmetic.
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(0).unwrap();
        buf.write_vlong(i64::MIN).unwrap();
        let mut input = buf.as_slice();
        assert!(dec.read_request_header(&mut input, 1).is_err());
    }

    #[test]
    fn v3_deadline_budget_roundtrips_and_rounds_up() {
        let key = crate::intern::method_key("v3.Proto", "budget");
        for (budget, expect) in [
            (None, None),
            // Sub-microsecond budgets round *up*, never to "none".
            (
                Some(Duration::from_nanos(1)),
                Some(Duration::from_micros(1)),
            ),
            (
                Some(Duration::from_micros(1500)),
                Some(Duration::from_micros(1500)),
            ),
            (Some(Duration::from_secs(30)), Some(Duration::from_secs(30))),
        ] {
            let mut enc = V3Encoder::new(true);
            let mut dec = V3Decoder::new(true);
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, 1, 0, budget, key)
                .unwrap();
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 7).unwrap();
            assert_eq!(header.deadline_budget, expect, "budget {budget:?}");
        }
    }

    #[test]
    fn negative_deadline_budget_is_invalid_data() {
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        buf.write_vlong(1).unwrap(); // seq delta
        buf.write_vlong(0).unwrap(); // retry
        buf.write_vlong(-5).unwrap(); // malformed budget
        let mut input = buf.as_slice();
        let err = dec.read_request_header(&mut input, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn expired_response_roundtrip() {
        // V3 lead + the neutral expired body: what the caller and any
        // parked duplicate receive when the original call is shed.
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let mut buf: Vec<u8> = Vec::new();
        enc.write_response_lead(&mut buf, 5).unwrap();
        buf.extend_from_slice(&expired_body(FrameVersion::V3));
        let mut input = buf.as_slice();
        let header = dec.read_response_header(&mut input).unwrap();
        assert_eq!(header.status, ResponseStatus::Expired);
        assert_eq!(header.seq, 5);
        assert_eq!(input.len(), 0, "expired responses carry no body");

        // A V1 peer would see an ordinary error string.
        let mut buf: Vec<u8> = Vec::new();
        write_response_lead(&mut buf, FrameVersion::V1, 3).unwrap();
        buf.extend_from_slice(&expired_body(FrameVersion::V1));
        let mut input = buf.as_slice();
        let header = read_response_header(&mut input).unwrap();
        assert_eq!(header.status, ResponseStatus::Error);
    }

    #[test]
    fn v3_delta_seq_survives_wrapping() {
        let mut enc = V3Encoder::new(true);
        let mut dec = V3Decoder::new(true);
        let key = crate::intern::method_key("v3.Proto", "wrap");
        for seq in [i64::MAX - 1, i64::MAX, i64::MIN, i64::MIN + 1, 0] {
            let mut buf: Vec<u8> = Vec::new();
            enc.write_request_header(&mut buf, seq, 0, None, key)
                .unwrap();
            let mut input = buf.as_slice();
            let header = dec.read_request_header(&mut input, 1).unwrap();
            assert_eq!(header.seq, seq);
        }
    }

    #[test]
    fn stateless_lead_writer_refuses_v3() {
        let mut buf: Vec<u8> = Vec::new();
        assert!(write_response(&mut buf, FrameVersion::V3, 1, Ok(&IntWritable(1))).is_err());
    }

    #[test]
    fn owned_payload_reader() {
        let payload = Payload::Owned(vec![1, 2, 3, 4, 5]);
        let mut reader = payload.reader();
        let mut buf = [0u8; 2];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2]);
        assert_eq!(reader.remaining(), 3);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, vec![3, 4, 5]);
    }
}
