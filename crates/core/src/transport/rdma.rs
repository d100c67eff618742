//! The RPCoIB transport: native verbs, JVM-bypass buffers, send/recv for
//! small messages and one-sided RDMA writes for large ones.
//!
//! Connection establishment follows Section III-D: the client connects to
//! the server's ordinary socket address and the two sides exchange
//! end-point information (queue-pair endpoint, large-region rkey, region
//! geometry) over that stream; all subsequent communication is native IB.
//! The hello is versioned, length-checked and validated — a malformed or
//! inconsistent peer is rejected with a protocol error, never a panic.
//!
//! Message paths:
//!
//! * **eager** (≤ `rdma_threshold`): serialized directly into a
//!   pooled registered buffer and `post_send`-ed from it; the receiver has
//!   a ring of pre-posted pooled buffers, and deserialization reads
//!   straight out of the one the message landed in. Zero copies beyond
//!   the (simulated) DMA itself.
//! * **bulk**: the peer's large region is divided into a ring of
//!   equal-size slots. A frame claims as many contiguous slots as it
//!   needs from the [`SlotRing`], is RDMA-written into them *gather-style*
//!   from the pooled registered segments the serializer produced (an
//!   8-byte length header, then the payload segments back-to-back; no
//!   staging copy, no jumbo buffer), and is announced with an immediate
//!   carrying the slot offset and the slot count to credit back. The
//!   receiver drains the frame into a pooled buffer and returns credits
//!   in batches — so pipelined large transfers overlap in the region
//!   instead of serializing on a one-deep handshake, while
//!   `large_slots = 1` reproduces the paper's one-deep gate exactly.
//!
//! The eager/bulk switch point is the paper's static, tunable
//! `rdma_threshold` (Section III-D).

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bufpool::{NativePool, PoolMem, PooledBuf, RdmaMemFactory, ShadowPool, SizeClasses};
use parking_lot::{Condvar, Mutex};
use simnet::{
    CompletionKind, Fabric, MemoryRegion, NodeId, QpEndpoint, QueuePair, RdmaDevice, RemoteKey,
    SimStream, VerbsError,
};
use wire::DataOutput;

use crate::config::{RpcConfig, MAX_LARGE_SLOTS};
use crate::error::{RpcError, RpcResult};
use crate::frame::Payload;
use crate::hostcost;
use crate::intern::MethodKey;
use crate::metrics::{MetricsRegistry, Phase, PoolCounters};
use crate::stream::RdmaGatherStream;
use crate::transport::{Conn, RecvProfile, SendProfile};

/// Immediate tag: payload is a complete frame in the posted recv buffer.
const IMM_SMALL: u32 = 1;
/// Immediate tag: a frame was RDMA-written into the receiver's large
/// region. Bits 8..20 carry the starting slot index, bits 20..32 the slot
/// count to credit back (which can exceed the frame's own footprint when
/// the grant wrapped past the end of the ring).
const IMM_LARGE: u32 = 2;
/// Immediate tag: the receiver drained its large region; bits 8.. carry
/// how many slots are being credited back (flow control).
const IMM_CREDIT: u32 = 3;
/// Immediate tag: the posted recv buffer holds several small frames
/// back-to-back, each as `[vlong len][frame]` — the responder's batched
/// sweep merged into one send (RDMAbox-style io-merging).
const IMM_BATCH: u32 = 4;

/// How finely blocked polls slice their waits to notice closure.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Length prefix written ahead of a bulk frame in its first slot.
const HEADER_BYTES: usize = 8;

/// Bootstrap hello framing: magic, version, and fixed length.
const HELLO_MAGIC: u32 = 0x5250_4942; // "RPIB"
const HELLO_VERSION: u8 = 2;
const HELLO_BYTES: usize = 48;

/// No sane peer advertises a terabyte-scale pinned region.
const MAX_SANE_REGION: u64 = 1 << 40;

fn verbs_err(e: VerbsError) -> RpcError {
    match e {
        VerbsError::PeerDown => RpcError::ConnectionClosed,
        other => RpcError::Verbs(other),
    }
}

/// Per-endpoint verbs state: the opened device and the two-level buffer
/// pool (pre-registered at startup). Shared by every connection of one
/// client or server.
#[derive(Clone)]
pub struct IbContext {
    device: RdmaDevice,
    pool: ShadowPool<MemoryRegion>,
}

impl std::fmt::Debug for IbContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IbContext")
            .field("node", &self.device.node())
            .finish()
    }
}

impl IbContext {
    /// Open the HCA on `node` and build the pre-registered pool.
    pub fn new(fabric: &Fabric, node: NodeId, cfg: &RpcConfig) -> RpcResult<IbContext> {
        let device = RdmaDevice::open(fabric, node).map_err(|_| {
            RpcError::Config(format!(
                "RPCoIB requires an RDMA-capable fabric model, got '{}'",
                fabric.model().name
            ))
        })?;
        let factory = RdmaMemFactory::new(device.clone());
        let ladder = SizeClasses::up_to(cfg.large_region_bytes);
        let pool = ShadowPool::new(
            NativePool::new(ladder, move |len| factory.allocate(len)),
            cfg.use_size_history,
        );
        // Pre-register the small classes (the ones per-call traffic uses);
        // jumbo classes are registered lazily on first use — and once
        // registered, the retention policy below caches a few idle ones
        // per class so steady-state large traffic re-uses registrations,
        // while a burst's surplus deregisters in batched sweeps.
        for idx in 0..ladder.count {
            if ladder.capacity(idx) <= cfg.recv_buf_bytes {
                pool.native().prefill_class(idx, cfg.prefill_per_class);
            }
        }
        pool.native().set_jumbo_retention(cfg.recv_buf_bytes, 4, 8);
        // The receive-ring class gets a full ring plus slack up front, so
        // connection bring-up and the first calls never register inline —
        // "pre-allocated and pre-registered when the RPCoIB library
        // loads" (Section III-B).
        if let Some(ring_class) = ladder.class_of(cfg.recv_buf_bytes) {
            pool.native()
                .prefill_class(ring_class, cfg.posted_recvs + 8);
        }
        Ok(IbContext { device, pool })
    }

    /// The shared two-level pool.
    pub fn pool(&self) -> &ShadowPool<MemoryRegion> {
        &self.pool
    }

    /// Pre-register `per_class` extra buffers in every class up to
    /// `max_bytes`, jumbo classes included. `IbContext::new` prefills the
    /// small per-call classes; a workload that knows it will move large
    /// frames can call this to take the one-time registration cost at
    /// load time instead of on the first large call — Section III-B's
    /// "pre-allocated and pre-registered when the RPCoIB library loads",
    /// extended to the large ladder.
    pub fn prewarm(&self, max_bytes: usize, per_class: usize) {
        let ladder = self.pool.native().classes();
        for idx in 0..ladder.count {
            if ladder.capacity(idx) <= max_bytes {
                self.pool.native().prefill_class(idx, per_class);
            }
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &RdmaDevice {
        &self.device
    }

    /// (hits, misses, returns, oversize) of the native pool.
    pub fn pool_stats(&self) -> (u64, u64, u64, u64) {
        self.pool.native().stats().snapshot()
    }

    /// Both pool levels' counters in the shape the unified metrics
    /// snapshot carries: the shadow pool's size-history behaviour plus the
    /// native registered-buffer pool underneath.
    pub fn pool_counters(&self) -> PoolCounters {
        let (history_hits, grows, shrinks, cold) = self.pool.stats().snapshot();
        let (native_hits, native_misses, native_returns, oversize) =
            self.pool.native().stats().snapshot();
        PoolCounters {
            history_hits,
            grows,
            shrinks,
            cold,
            native_hits,
            native_misses,
            native_returns,
            oversize,
        }
    }
}

/// A grant of `consumed` credits whose frame starts at slot `start`. The
/// `ticket` orders the actual RDMA writes: grants must hit the wire in
/// grant order or the receiver's FIFO drain would credit slots a later,
/// still-unwritten frame already owns.
struct Grant {
    start: usize,
    consumed: usize,
    ticket: u64,
}

struct RingState {
    /// Free slots. The free region is always contiguous — allocation
    /// walks the ring in order and the receiver drains frames in arrival
    /// order — so `credits >= k` means the next `k` slots are free.
    credits: usize,
    /// Next slot index to allocate.
    ring_pos: usize,
    /// Next ticket to issue / next ticket allowed to post.
    next_ticket: u64,
    turn: u64,
    closed: bool,
}

/// Multi-slot credit ring over the peer's large region. `slots = 1`
/// degenerates to the paper's one-deep credit gate.
struct SlotRing {
    slots: usize,
    state: Mutex<RingState>,
    cv: Condvar,
}

impl SlotRing {
    fn new(slots: usize) -> SlotRing {
        SlotRing {
            slots,
            state: Mutex::new(RingState {
                credits: slots,
                ring_pos: 0,
                next_ticket: 0,
                turn: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claim `k` contiguous slots, waiting up to `budget` (sliced, so a
    /// concurrent close is noticed promptly). Exhausting the budget is
    /// [`RpcError::CreditStarved`] — the peer is alive but not draining.
    fn acquire(&self, k: usize, budget: Duration) -> RpcResult<Grant> {
        debug_assert!(k >= 1 && k <= self.slots);
        let mut remaining = budget;
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(RpcError::ConnectionClosed);
            }
            let tail = self.slots - st.ring_pos;
            let granted = if k <= tail {
                // Contiguous from the cursor.
                (st.credits >= k).then(|| {
                    let start = st.ring_pos;
                    st.ring_pos = (st.ring_pos + k) % self.slots;
                    st.credits -= k;
                    (start, k)
                })
            } else if tail + k <= self.slots {
                // Wrap: skip the tail stub and start at slot 0. The
                // skipped slots are *consumed* with the grant (and
                // credited back by the receiver via the imm's count) —
                // leaving them nominally free would let their credits pay
                // for slots an earlier in-flight frame still occupies.
                (st.credits >= tail + k).then(|| {
                    st.ring_pos = k % self.slots;
                    st.credits -= tail + k;
                    (0, tail + k)
                })
            } else {
                // The frame is too big to wrap-with-skip (tail + k would
                // exceed the ring). Wait for a full drain: with nothing
                // outstanding the ring is equivalent to a fresh one and
                // the cursor can reset to 0.
                (st.credits == self.slots).then(|| {
                    st.ring_pos = k % self.slots;
                    st.credits -= k;
                    (0, k)
                })
            };
            if let Some((start, consumed)) = granted {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                return Ok(Grant {
                    start,
                    consumed,
                    ticket,
                });
            }
            if remaining.is_zero() {
                return Err(RpcError::CreditStarved);
            }
            let slice = POLL_SLICE.min(remaining);
            self.cv.wait_for(&mut st, slice);
            remaining = remaining.saturating_sub(slice);
        }
    }

    /// Block until `ticket` may post its writes.
    fn await_turn(&self, ticket: u64) -> RpcResult<()> {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(RpcError::ConnectionClosed);
            }
            if st.turn == ticket {
                return Ok(());
            }
            self.cv.wait_for(&mut st, POLL_SLICE);
        }
    }

    /// Pass the turn to the next granted ticket. Must run exactly once
    /// per successful [`SlotRing::acquire`], error paths included.
    fn advance_turn(&self) {
        let mut st = self.state.lock();
        st.turn += 1;
        self.cv.notify_all();
    }

    /// Return `n` drained slots announced by a peer credit message.
    fn release(&self, n: usize) {
        let mut st = self.state.lock();
        st.credits = (st.credits + n).min(self.slots);
        self.cv.notify_all();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

struct SendState {
    /// Tiny dedicated region for credit messages.
    credit_mr: MemoryRegion,
    /// Dedicated region the bulk path writes length headers from. Safe to
    /// reuse per-frame: bulk posting is serialized by the ring turnstile.
    header_mr: MemoryRegion,
}

/// An established RPCoIB connection.
pub struct RdmaConn {
    ctx: IbContext,
    cfg: RpcConfig,
    qp: QueuePair,
    /// Region the *peer* RDMA-writes large frames into.
    my_large: MemoryRegion,
    /// Slot geometry of `my_large` (receiver side of the bulk plane).
    my_slots: usize,
    my_slot_size: usize,
    peer_rkey: RemoteKey,
    /// Slot geometry of the peer's region (sender side of the bulk plane).
    peer_slots: usize,
    peer_slot_size: usize,
    /// Receive buffers currently posted, by work-request id.
    posted: Mutex<HashMap<u64, PooledBuf<MemoryRegion>>>,
    /// Frames unpacked from an [`IMM_BATCH`] completion beyond the first,
    /// served by subsequent `recv_msg` calls before the wire is polled.
    stash: Mutex<std::collections::VecDeque<Vec<u8>>>,
    next_wr: AtomicU64,
    send: Mutex<SendState>,
    /// Credits over the *peer's* region, spent by our bulk sends.
    ring: SlotRing,
    /// Slots of *our* region drained but not yet credited back to the
    /// peer; flushed in batches of `credit_batch` (or when the inbox goes
    /// quiet, so a lone transfer is credited immediately).
    pending_credits: Mutex<usize>,
    credit_batch: usize,
    /// Recycled storage for the gather serializer's segment list, so a
    /// steady-state bulk send allocates nothing.
    seg_scratch: Mutex<Vec<PooledBuf<MemoryRegion>>>,
    closed: AtomicBool,
    peer_desc: String,
    /// When attached, every send feeds the per-`<protocol, method>`
    /// serialize/wire phase histograms.
    metrics: Option<MetricsRegistry>,
    /// Copy of the armed readiness hook, so a local `close()` can deliver
    /// its own wake (the QP only fires for peer-side completions).
    ready_hook: Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
}

fn hello_field<const N: usize>(buf: &[u8], at: usize) -> RpcResult<[u8; N]> {
    buf.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| RpcError::Protocol("truncated bootstrap hello".into()))
}

/// Parse and validate a peer hello. Every field is length-checked and
/// range-checked before use — a garbage peer gets a clean protocol error.
fn parse_hello(buf: &[u8], cfg: &RpcConfig) -> RpcResult<(QpEndpoint, RemoteKey, usize, usize)> {
    let magic = u32::from_be_bytes(hello_field::<4>(buf, 0)?);
    if magic != HELLO_MAGIC {
        return Err(RpcError::Protocol(format!(
            "bad bootstrap magic {magic:#010x}"
        )));
    }
    let version = buf
        .get(4)
        .copied()
        .ok_or_else(|| RpcError::Protocol("truncated bootstrap hello".into()))?;
    if version != HELLO_VERSION {
        return Err(RpcError::Protocol(format!(
            "unsupported bootstrap version {version} (expected {HELLO_VERSION})"
        )));
    }
    let peer_ep = QpEndpoint::from_bytes(hello_field::<12>(buf, 8)?);
    let peer_rkey = RemoteKey::from_bytes(hello_field::<12>(buf, 20)?);
    let large = u64::from_be_bytes(hello_field::<8>(buf, 32)?);
    let slots = u32::from_be_bytes(hello_field::<4>(buf, 40)?) as usize;
    if large == 0 || large > MAX_SANE_REGION {
        return Err(RpcError::Protocol(format!(
            "peer advertises an unusable {large}-byte large region"
        )));
    }
    let large = large as usize;
    if large < cfg.rdma_threshold {
        return Err(RpcError::Protocol(format!(
            "peer's {large}-byte large region is smaller than the {}-byte rdma_threshold: \
             frames between the two would be unsendable",
            cfg.rdma_threshold
        )));
    }
    if slots == 0 || slots > MAX_LARGE_SLOTS {
        return Err(RpcError::Protocol(format!(
            "peer advertises {slots} large-region slots (valid: 1..={MAX_LARGE_SLOTS})"
        )));
    }
    if !large.is_multiple_of(slots) {
        return Err(RpcError::Protocol(format!(
            "peer's {large}-byte large region is not divisible into {slots} slots"
        )));
    }
    Ok((peer_ep, peer_rkey, large, slots))
}

impl RdmaConn {
    /// Run the end-point exchange over an established bootstrap stream and
    /// bring up the verbs connection. Symmetric: both the client and the
    /// server side call this on their end of the stream.
    pub fn bootstrap(stream: &SimStream, ctx: &IbContext, cfg: &RpcConfig) -> RpcResult<RdmaConn> {
        let qp = ctx.device.create_qp();
        let my_large = ctx.device.register(cfg.large_region_bytes);

        // Send our endpoint info: magic + version, QP endpoint, the
        // large-region rkey and its slot geometry.
        let mut hello = [0u8; HELLO_BYTES];
        hello[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
        hello[4] = HELLO_VERSION;
        hello[8..20].copy_from_slice(&qp.endpoint().to_bytes());
        hello[20..32].copy_from_slice(&my_large.remote_key().to_bytes());
        hello[32..40].copy_from_slice(&(cfg.large_region_bytes as u64).to_be_bytes());
        hello[40..44].copy_from_slice(&(cfg.large_slots as u32).to_be_bytes());
        (&*stream)
            .write_all(&hello)
            .map_err(|e| RpcError::Io(e.to_string()))?;

        // Receive and validate theirs.
        let mut peer = [0u8; HELLO_BYTES];
        stream
            .read_exact_at(&mut peer)
            .map_err(|e| RpcError::Io(e.to_string()))?;
        let (peer_ep, peer_rkey, peer_large_size, peer_slots) = parse_hello(&peer, cfg)?;

        qp.connect(peer_ep);

        let conn = RdmaConn {
            ctx: ctx.clone(),
            cfg: cfg.clone(),
            qp,
            my_large,
            my_slots: cfg.large_slots,
            my_slot_size: cfg.large_region_bytes / cfg.large_slots,
            peer_rkey,
            peer_slots,
            peer_slot_size: peer_large_size / peer_slots,
            posted: Mutex::new(HashMap::new()),
            stash: Mutex::new(std::collections::VecDeque::new()),
            next_wr: AtomicU64::new(1),
            send: Mutex::new(SendState {
                credit_mr: ctx.device.register(128),
                header_mr: ctx.device.register(64),
            }),
            ring: SlotRing::new(peer_slots),
            pending_credits: Mutex::new(0),
            credit_batch: (cfg.large_slots / 2).max(1),
            seg_scratch: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            peer_desc: format!("rdma:{}", peer_ep.node),
            metrics: None,
            ready_hook: Mutex::new(None),
        };
        // Pre-post the receive ring before the peer can possibly send.
        for _ in 0..cfg.posted_recvs {
            conn.post_one_recv();
        }
        Ok(conn)
    }

    /// Attach a metrics registry; subsequent sends record their serialize
    /// and wire times into its phase histograms.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn post_one_recv(&self) {
        let wr = self.next_wr.fetch_add(1, Ordering::Relaxed);
        let buf = self.ctx.pool.acquire_size(self.cfg.recv_buf_bytes);
        self.qp.post_recv(wr, buf.mem().clone());
        self.posted.lock().insert(wr, buf);
    }

    /// A completion for a work-request id we never posted means the
    /// connection's accounting is corrupt: count it, tear the connection
    /// down, and surface a protocol error instead of killing the reader.
    fn take_posted(&self, wr_id: u64) -> RpcResult<PooledBuf<MemoryRegion>> {
        match self.posted.lock().remove(&wr_id) {
            Some(buf) => Ok(buf),
            None => {
                Err(self
                    .frame_corruption(format!("completion for unknown work-request id {wr_id}")))
            }
        }
    }

    /// Record an unrecoverable framing-level fault: the connection's wire
    /// state can no longer be trusted, so close it and hand back the
    /// protocol error for the caller to surface.
    fn frame_corruption(&self, msg: String) -> RpcError {
        if let Some(m) = &self.metrics {
            m.inc_frame_errors();
        }
        self.close();
        RpcError::Protocol(msg)
    }

    fn send_credit(&self, count: usize) -> RpcResult<()> {
        let state = self.send.lock();
        state.credit_mr.write_at(0, &[0]).map_err(verbs_err)?;
        self.qp
            .post_send(&state.credit_mr, 0, 1, IMM_CREDIT | ((count as u32) << 8))
            .map_err(verbs_err)
    }

    /// Flush accumulated drain credits when the batch is full or the
    /// inbox has gone quiet (so a lone transfer is credited immediately —
    /// its latency is identical to the one-deep gate's).
    fn maybe_flush_credits(&self) {
        let count = {
            let mut pending = self.pending_credits.lock();
            if *pending == 0 {
                return;
            }
            if *pending < self.credit_batch && self.qp.recv_pending() {
                return;
            }
            std::mem::take(&mut *pending)
        };
        // Best-effort: if the peer has gone away the credits are moot.
        let _ = self.send_credit(count);
    }

    /// Claim slots, wait for the posting turn, and gather-write one bulk
    /// frame into the peer's region.
    fn send_bulk(&self, segs: &[PooledBuf<MemoryRegion>], len: usize) -> RpcResult<()> {
        debug_assert!(len > 0, "zero-length frames always route eager");
        let footprint = len + HEADER_BYTES;
        let k = footprint.div_ceil(self.peer_slot_size);
        if k > self.peer_slots {
            return Err(RpcError::Protocol(format!(
                "frame of {len} bytes needs {k} slots but the peer's region has \
                 {} slots of {} bytes",
                self.peer_slots, self.peer_slot_size
            )));
        }
        let grant = self.ring.acquire(k, self.cfg.call_timeout)?;
        self.ring.await_turn(grant.ticket)?;
        let result = self.post_bulk_writes(&grant, segs, len);
        self.ring.advance_turn();
        if let Err(e) = result {
            // A failed write mid-frame breaks the ring's in-order
            // crediting story (this grant's credits may never return);
            // a verbs-level failure invalidates the connection anyway.
            self.close();
            return Err(e);
        }
        Ok(())
    }

    fn post_bulk_writes(
        &self,
        grant: &Grant,
        segs: &[PooledBuf<MemoryRegion>],
        len: usize,
    ) -> RpcResult<()> {
        let base = grant.start * self.peer_slot_size;
        let imm = IMM_LARGE | ((grant.start as u32) << 8) | ((grant.consumed as u32) << 20);
        let state = self.send.lock();
        state
            .header_mr
            .write_at(0, &(len as u64).to_be_bytes())
            .map_err(verbs_err)?;
        // Header + segments go out as ONE doorbell-batched chain, so the
        // whole frame pays a single propagation latency regardless of
        // how many pooled segments the gather produced. The immediate
        // rides the chain and announces only after its last byte. The
        // chain is described computationally (every sealed segment holds
        // exactly `recv_buf_bytes`, the last holds the remainder) so the
        // send path stays allocation-free.
        let seg_bytes = self.cfg.recv_buf_bytes;
        let chain = std::iter::once((&state.header_mr, 0usize, HEADER_BYTES, base)).chain(
            segs.iter()
                .take(len.div_ceil(seg_bytes))
                .enumerate()
                .map(|(i, seg)| {
                    let n = (len - i * seg_bytes).min(seg_bytes);
                    (seg.mem(), 0usize, n, base + HEADER_BYTES + i * seg_bytes)
                }),
        );
        self.qp
            .rdma_write_vectored(chain, self.peer_rkey, Some(imm))
            .map_err(verbs_err)?;
        Ok(())
    }

    /// Validate an [`IMM_LARGE`] announcement against our region geometry
    /// and read the frame's length header. Violations tear the
    /// connection down — an out-of-contract peer write means the region
    /// contents can't be trusted.
    fn bulk_frame_len(&self, start: usize, consumed: usize) -> RpcResult<usize> {
        if consumed == 0 || start + consumed > self.my_slots {
            return Err(self.frame_corruption(format!(
                "bulk announcement out of range: start={start} consumed={consumed} \
                 with {} slots",
                self.my_slots
            )));
        }
        let base = start * self.my_slot_size;
        let mut hdr = [0u8; HEADER_BYTES];
        self.my_large.read_at(base, &mut hdr).map_err(verbs_err)?;
        let claimed = u64::from_be_bytes(hdr);
        // The length is the peer's claim: converted and bounded with
        // checked arithmetic, so a forged header near 2^64 cannot wrap
        // the bound into a pass.
        let len = usize::try_from(claimed).ok().filter(|&len| {
            base.checked_add(HEADER_BYTES)
                .and_then(|end| end.checked_add(len))
                .is_some_and(|end| end <= self.cfg.large_region_bytes)
        });
        len.ok_or_else(|| {
            self.frame_corruption(format!(
                "bulk frame of {claimed} bytes at slot {start} overruns the \
                 {}-byte region",
                self.cfg.large_region_bytes
            ))
        })
    }

    /// Post the accumulated `[vlong len][frame]…` chunk as one
    /// [`IMM_BATCH`] send from a pooled registered buffer.
    fn flush_batch_chunk(&self, chunk: &mut Vec<u8>, frames_in_chunk: &mut usize) -> RpcResult<()> {
        if *frames_in_chunk == 0 {
            return Ok(());
        }
        let mut buf = self.ctx.pool.acquire_size(chunk.len());
        buf.mem_mut().put(0, chunk);
        let state = self.send.lock();
        self.qp
            .post_send(buf.mem(), 0, chunk.len(), IMM_BATCH)
            .map_err(verbs_err)?;
        drop(state);
        chunk.clear();
        *frames_in_chunk = 0;
        Ok(())
    }
}

impl Conn for RdmaConn {
    fn send_msg(
        &self,
        key: MethodKey,
        write: &mut dyn FnMut(&mut dyn DataOutput) -> io::Result<()>,
    ) -> RpcResult<SendProfile> {
        if self.closed.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }

        // --- Serialization: straight into pooled registered segments. ---
        let ser_start = Instant::now();
        let scratch = self
            .seg_scratch
            .try_lock()
            .map(|mut v| std::mem::take(&mut *v))
            .unwrap_or_default();
        let mut out = RdmaGatherStream::new(&self.ctx.pool, key, self.cfg.recv_buf_bytes, scratch);
        write(&mut out)?;
        let (mut segs, len, grows) = out.finish();
        let serialize_ns = ser_start.elapsed().as_nanos() as u64;

        // --- Transmission. ---
        let send_start = Instant::now();
        // A multi-segment frame cannot go eager; validation keeps
        // `rdma_threshold` within one segment, so the second test is
        // defensive rather than asserted.
        if len <= self.cfg.rdma_threshold && segs.len() == 1 {
            let state = self.send.lock();
            self.qp
                .post_send(segs[0].mem(), 0, len, IMM_SMALL)
                .map_err(verbs_err)?;
            drop(state);
        } else {
            self.send_bulk(&segs, len)?;
        }
        let send_ns = send_start.elapsed().as_nanos() as u64;

        // Segments return to the pool; their Vec storage is recycled.
        segs.clear();
        if let Some(mut slot) = self.seg_scratch.try_lock() {
            if slot.capacity() < segs.capacity() {
                *slot = segs;
            }
        }

        if let Some(m) = &self.metrics {
            let entry = m.entry(key);
            entry.record_phase(Phase::Serialize, serialize_ns);
            entry.record_phase(Phase::Wire, send_ns);
        }

        Ok(SendProfile {
            serialize_ns,
            send_ns,
            adjustments: grows,
            size: len,
        })
    }

    fn send_frames(&self, key: MethodKey, frames: Vec<Vec<u8>>) -> RpcResult<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }
        if let [frame] = frames.as_slice() {
            self.send_msg(key, &mut |out| out.write_bytes(frame))?;
            return Ok(());
        }
        // Merge consecutive small frames into recv-ring-sized chunks (the
        // chunk must land whole in one posted buffer); a frame that won't
        // ride in a chunk flushes what's pending — order is preserved —
        // and takes the ordinary eager/bulk path by itself.
        let cap = self.cfg.recv_buf_bytes;
        let threshold = self.cfg.rdma_threshold;
        let batch_start = Instant::now();
        let mut chunk: Vec<u8> = Vec::new();
        let mut in_chunk = 0usize;
        let mut merged = 0u64;
        for frame in &frames {
            let prefixed = wire::varint::vlong_size(frame.len() as i64) + frame.len();
            if frame.len() > threshold || prefixed > cap {
                self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
                self.send_msg(key, &mut |out| out.write_bytes(frame))?;
                continue;
            }
            if chunk.len() + prefixed > cap {
                self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
            }
            chunk.write_vlong(frame.len() as i64).expect("vec write");
            chunk.extend_from_slice(frame);
            in_chunk += 1;
            merged += 1;
        }
        self.flush_batch_chunk(&mut chunk, &mut in_chunk)?;
        if let Some(m) = &self.metrics {
            // Frames that rode a merged chunk bypass `send_msg` (and its
            // per-send accounting): give each its amortized share here,
            // so phase sample counts still equal frame counts. Oversized
            // frames recorded themselves above.
            if let Some(per_frame) = (batch_start.elapsed().as_nanos() as u64).checked_div(merged) {
                let entry = m.entry(key);
                for _ in 0..merged {
                    entry.record_phase(Phase::Serialize, 0);
                    entry.record_phase(Phase::Wire, per_frame);
                }
            }
        }
        Ok(())
    }

    fn recv_msg(&self, timeout: Duration) -> RpcResult<(Payload, RecvProfile)> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(RpcError::ConnectionClosed);
            }
            if let Some(frame) = self.stash.lock().pop_front() {
                let size = frame.len();
                return Ok((
                    Payload::Owned(frame),
                    RecvProfile {
                        alloc_ns: 0,
                        total_ns: 1,
                        size,
                    },
                ));
            }
            // Idle moments are when batched credits drain: if nothing else
            // is inbound, whatever we owe the peer goes back now.
            self.maybe_flush_credits();
            let now = Instant::now();
            if now >= deadline {
                return Err(RpcError::Timeout);
            }
            let completion = match self.qp.poll_recv(POLL_SLICE.min(deadline - now)) {
                Ok(c) => c,
                Err(VerbsError::Timeout) => continue,
                Err(e) => return Err(verbs_err(e)),
            };
            let total_start = Instant::now();
            match (completion.kind, completion.imm & 0xff) {
                (CompletionKind::Recv, IMM_SMALL) => {
                    let buf = self.take_posted(completion.wr_id)?;
                    // Replenish the ring; with a warm pool this is a
                    // freelist pop — the "allocation" cost RPCoIB removes.
                    let alloc_start = Instant::now();
                    self.post_one_recv();
                    let alloc_ns = alloc_start.elapsed().as_nanos() as u64;
                    let total_ns = total_start.elapsed().as_nanos() as u64 + 1;
                    return Ok((
                        Payload::Pooled {
                            buf,
                            len: completion.len,
                        },
                        RecvProfile {
                            alloc_ns,
                            total_ns,
                            size: completion.len,
                        },
                    ));
                }
                (CompletionKind::Recv, IMM_BATCH) => {
                    let buf = self.take_posted(completion.wr_id)?;
                    let alloc_start = Instant::now();
                    self.post_one_recv();
                    let alloc_ns = alloc_start.elapsed().as_nanos() as u64;
                    // Unpack on the receiving thread: copy the chunk out of
                    // registered memory once, split it, serve the first
                    // frame now and stash the rest for the next calls.
                    let mut bytes = vec![0u8; completion.len];
                    buf.mem().get(0, &mut bytes);
                    drop(buf);
                    let mut frames: Vec<Vec<u8>> = Vec::new();
                    let mut rest: &[u8] = &bytes;
                    while !rest.is_empty() {
                        use wire::DataInput;
                        let flen = rest
                            .read_vlong()
                            .ok()
                            .and_then(|l| usize::try_from(l).ok())
                            .filter(|&l| l <= rest.len())
                            .ok_or_else(|| {
                                RpcError::Protocol("malformed batch sub-frame length".into())
                            })?;
                        frames.push(rest[..flen].to_vec());
                        rest = &rest[flen..];
                    }
                    if frames.is_empty() {
                        return Err(RpcError::Protocol("empty batch completion".into()));
                    }
                    let first = frames.remove(0);
                    if !frames.is_empty() {
                        self.stash.lock().extend(frames);
                    }
                    let size = first.len();
                    let total_ns = total_start.elapsed().as_nanos() as u64 + 1;
                    return Ok((
                        Payload::Owned(first),
                        RecvProfile {
                            alloc_ns,
                            total_ns,
                            size,
                        },
                    ));
                }
                (CompletionKind::Recv, IMM_CREDIT) => {
                    // Flow-control credits: recycle the consumed recv
                    // buffer and wake senders blocked on the slot ring.
                    drop(self.take_posted(completion.wr_id)?);
                    self.post_one_recv();
                    let count = (completion.imm >> 8) as usize;
                    if count == 0 || count > self.peer_slots {
                        return Err(self.frame_corruption(format!(
                            "credit return of {count} slots (ring has {})",
                            self.peer_slots
                        )));
                    }
                    self.ring.release(count);
                    continue;
                }
                (CompletionKind::RecvRdmaWithImm, IMM_LARGE) => {
                    drop(self.take_posted(completion.wr_id)?);
                    self.post_one_recv();
                    let start = ((completion.imm >> 8) & 0xfff) as usize;
                    let consumed = ((completion.imm >> 20) & 0xfff) as usize;
                    let len = self.bulk_frame_len(start, consumed)?;
                    let base = start * self.my_slot_size + HEADER_BYTES;
                    // Drain the region into a pooled buffer so the slots
                    // can be credited back; the copy is charged to our
                    // ledger (the sender side was zero-copy, this is the
                    // one memcpy the design retains).
                    let alloc_start = Instant::now();
                    let mut buf = self.ctx.pool.acquire_size(len);
                    let alloc_ns = alloc_start.elapsed().as_nanos() as u64;
                    self.my_large
                        .with(|region| buf.mem_mut().put(0, &region[base..base + len]));
                    self.ctx
                        .device
                        .fabric()
                        .charge_host_ns(self.ctx.device.node(), hostcost::drain_ns(len));
                    *self.pending_credits.lock() += consumed;
                    self.maybe_flush_credits();
                    let total_ns = total_start.elapsed().as_nanos() as u64 + 1;
                    return Ok((
                        Payload::Pooled { buf, len },
                        RecvProfile {
                            alloc_ns,
                            total_ns,
                            size: len,
                        },
                    ));
                }
                (kind, imm) => {
                    return Err(
                        self.frame_corruption(format!("unexpected completion {kind:?} imm={imm}"))
                    );
                }
            }
        }
    }

    fn poll_ready(&self) -> bool {
        // Closed counts as ready (the next recv_msg surfaces
        // ConnectionClosed). A pending completion may be a credit rather
        // than a message — the shard's bounded recv_msg then consumes the
        // credit and times out, which is still progress.
        self.closed.load(Ordering::Acquire)
            || !self.stash.lock().is_empty()
            || self.qp.recv_pending()
    }

    fn set_ready_hook(&self, hook: std::sync::Arc<dyn Fn() + Send + Sync>) {
        *self.ready_hook.lock() = Some(hook.clone());
        self.qp.set_recv_interest(hook);
    }

    fn buffered_bytes(&self) -> usize {
        // Frames unpacked from a merged IMM_BATCH completion awaiting
        // recv_msg; completions still in the QP's inbox are NIC-side and
        // not yet host memory.
        self.stash.lock().iter().map(Vec::len).sum()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Senders blocked on slot credits must observe the close.
        self.ring.close();
        // Local close is a readiness edge: `poll_ready` is now permanently
        // true, but no completion will arrive to announce it.
        let hook = self.ready_hook.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    fn peer(&self) -> String {
        self.peer_desc.clone()
    }
}

impl std::fmt::Debug for RdmaConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaConn")
            .field("peer", &self.peer_desc)
            .field("peer_slots", &self.peer_slots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{model, SimAddr, SimListener};
    use std::sync::Arc;
    use std::thread;
    use wire::DataInput;

    fn conn_pair(cfg: &RpcConfig) -> (Arc<RdmaConn>, Arc<RdmaConn>) {
        let fabric = Fabric::new(model::IB_QDR_VERBS);
        let server = fabric.add_node();
        let client = fabric.add_node();
        let server_ctx = IbContext::new(&fabric, server, cfg).unwrap();
        let client_ctx = IbContext::new(&fabric, client, cfg).unwrap();
        let addr = SimAddr::new(server, 9000);
        let listener = SimListener::bind(&fabric, addr).unwrap();
        let f2 = fabric.clone();
        let cfg2 = cfg.clone();
        let h = thread::spawn(move || {
            let stream = SimStream::connect(&f2, client, addr).unwrap();
            RdmaConn::bootstrap(&stream, &client_ctx, &cfg2).unwrap()
        });
        let (srv_stream, _) = listener.accept().unwrap();
        let srv_conn = RdmaConn::bootstrap(&srv_stream, &server_ctx, cfg).unwrap();
        let cli_conn = h.join().unwrap();
        (Arc::new(cli_conn), Arc::new(srv_conn))
    }

    /// Keep a client's receive path moving so credits (and echoes) flow,
    /// as the engine's Connection thread does. Stops when the conn closes.
    fn progress_thread(conn: Arc<RdmaConn>) -> thread::JoinHandle<()> {
        thread::spawn(move || loop {
            match conn.recv_msg(Duration::from_millis(100)) {
                Err(RpcError::Timeout) => continue,
                _ => return,
            }
        })
    }

    #[test]
    fn small_message_roundtrip_zero_adjustments_after_warmup() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        for round in 0..3 {
            let profile = cli
                .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                    out.write_string("rpcoib")?;
                    out.write_bytes(&[9u8; 400])
                })
                .unwrap();
            if round > 0 {
                assert_eq!(profile.adjustments, 0, "history must predict after round 0");
            }
            let (payload, recv) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(recv.size, profile.size);
            let mut reader = payload.reader();
            assert_eq!(reader.read_string().unwrap(), "rpcoib");
        }
    }

    #[test]
    fn large_message_goes_through_rdma_write() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let p2 = payload.clone();
        let h = thread::spawn(move || {
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_bytes(&p2)
            })
            .unwrap()
        });
        let (got, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
        let profile = h.join().unwrap();
        assert!(profile.size > cfg.rdma_threshold);
        assert_eq!(got.len(), payload.len());
        let mut reader = got.reader();
        let mut out = vec![0u8; payload.len()];
        std::io::Read::read_exact(&mut reader, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn back_to_back_large_messages_respect_credits() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Credits come back through the client's receive path; in the real
        // engine the Connection thread polls it continuously — emulate it.
        let progress = progress_thread(Arc::clone(&cli));
        let srv2 = Arc::clone(&srv);
        let reader = thread::spawn(move || {
            let mut sizes = Vec::new();
            for _ in 0..4 {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                let mut r = payload.reader();
                let body = r.read_len_bytes().unwrap();
                sizes.push(body.len());
                assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 256) as u8));
            }
            sizes
        });
        for k in 1..=4usize {
            let body: Vec<u8> = (0..k * 50_000).map(|i| (i % 256) as u8).collect();
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_len_bytes(&body)
            })
            .unwrap();
        }
        let sizes = reader.join().unwrap();
        assert_eq!(sizes, vec![50_000, 100_000, 150_000, 200_000]);
        cli.close();
        progress.join().unwrap();
    }

    #[test]
    fn one_deep_ring_behaves_like_the_legacy_gate() {
        // `large_slots = 1` is the paper's configuration: exactly one
        // outstanding large frame, each blocked on the previous drain.
        let cfg = RpcConfig {
            large_slots: 1,
            ..RpcConfig::rpcoib()
        };
        let (cli, srv) = conn_pair(&cfg);
        let progress = progress_thread(Arc::clone(&cli));
        let srv2 = Arc::clone(&srv);
        let reader = thread::spawn(move || {
            for want in 1..=4usize {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                let body = payload.reader().read_len_bytes().unwrap();
                assert_eq!(body.len(), want * 50_000);
            }
        });
        for k in 1..=4usize {
            let body = vec![3u8; k * 50_000];
            cli.send_msg(crate::intern::method_key("p", "big"), &mut |out| {
                out.write_len_bytes(&body)
            })
            .unwrap();
        }
        reader.join().unwrap();
        cli.close();
        progress.join().unwrap();
    }

    #[test]
    fn bidirectional_large_traffic_does_not_deadlock() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let body: Vec<u8> = vec![7u8; 100_000];
        let b2 = body.clone();
        let cli2 = Arc::clone(&cli);
        let srv2 = Arc::clone(&srv);
        let t1 = thread::spawn(move || {
            for _ in 0..3 {
                cli2.send_msg(crate::intern::method_key("p", "up"), &mut |out| {
                    out.write_len_bytes(&b2)
                })
                .unwrap();
                let (payload, _) = cli2.recv_msg(Duration::from_secs(10)).unwrap();
                assert_eq!(payload.reader().read_len_bytes().unwrap().len(), 100_000);
            }
        });
        let b3 = body.clone();
        let t2 = thread::spawn(move || {
            for _ in 0..3 {
                let (payload, _) = srv2.recv_msg(Duration::from_secs(10)).unwrap();
                assert_eq!(payload.reader().read_len_bytes().unwrap().len(), 100_000);
                srv2.send_msg(crate::intern::method_key("p", "down"), &mut |out| {
                    out.write_len_bytes(&b3)
                })
                .unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let cfg = RpcConfig {
            large_region_bytes: 128 * 1024,
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![0u8; 256 * 1024];
        let err = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&body)
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
    }

    #[test]
    fn credit_starvation_is_a_retryable_transport_error() {
        // A peer that never drains: the sender must come back with
        // CreditStarved (retryable, non-invalidating) — not a wall-clock
        // Timeout, and never a deadlock.
        let cfg = RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            posted_recvs: 2,
            prefill_per_class: 1,
            large_region_bytes: 16 * 1024,
            large_slots: 4,
            call_timeout: Duration::from_millis(200),
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![1u8; 10_000]; // 3 of the 4 slots
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&body)
        })
        .unwrap();
        let err = cli
            .send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&body)
            })
            .unwrap_err();
        assert_eq!(err, RpcError::CreditStarved);
        assert!(err.is_retryable());
        assert!(!err.invalidates_connection());
    }

    #[test]
    fn close_unblocks_a_credit_starved_sender() {
        let cfg = RpcConfig {
            rdma_threshold: 2 * 1024,
            recv_buf_bytes: 4 * 1024,
            posted_recvs: 2,
            prefill_per_class: 1,
            large_region_bytes: 16 * 1024,
            large_slots: 4,
            call_timeout: Duration::from_secs(30),
            ..RpcConfig::rpcoib()
        };
        let (cli, _srv) = conn_pair(&cfg);
        let body = vec![1u8; 10_000];
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&body)
        })
        .unwrap();
        let cli2 = Arc::clone(&cli);
        let blocked = thread::spawn(move || {
            cli2.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[1u8; 10_000])
            })
        });
        thread::sleep(Duration::from_millis(50));
        cli.close();
        let err = blocked.join().unwrap().unwrap_err();
        assert_eq!(
            err,
            RpcError::ConnectionClosed,
            "close must beat the 30s budget"
        );
    }

    #[test]
    fn malformed_hellos_are_rejected_cleanly() {
        fn bootstrap_against(hello: Vec<u8>) -> RpcError {
            let cfg = RpcConfig::rpcoib();
            let fabric = Fabric::new(model::IB_QDR_VERBS);
            let server = fabric.add_node();
            let client = fabric.add_node();
            let ctx = IbContext::new(&fabric, server, &cfg).unwrap();
            let addr = SimAddr::new(server, 9100);
            let listener = SimListener::bind(&fabric, addr).unwrap();
            let f2 = fabric.clone();
            let h = thread::spawn(move || {
                let stream = SimStream::connect(&f2, client, addr).unwrap();
                (&stream).write_all(&hello).unwrap();
                // Drain the server's (valid) hello so its write can't jam.
                let mut theirs = [0u8; HELLO_BYTES];
                let _ = stream.read_exact_at(&mut theirs);
            });
            let (srv_stream, _) = listener.accept().unwrap();
            let err = RdmaConn::bootstrap(&srv_stream, &ctx, &cfg).unwrap_err();
            h.join().unwrap();
            err
        }

        fn hello_with(region: u64, slots: u32) -> Vec<u8> {
            let mut h = vec![0u8; HELLO_BYTES];
            h[0..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
            h[4] = HELLO_VERSION;
            h[32..40].copy_from_slice(&region.to_be_bytes());
            h[40..44].copy_from_slice(&slots.to_be_bytes());
            h
        }

        // Garbage magic — the pre-hello panic class this replaces.
        let err = bootstrap_against(vec![0xEEu8; HELLO_BYTES]);
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Zero-size region.
        let err = bootstrap_against(hello_with(0, 4));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Region smaller than the threshold: an unusable large path.
        let err = bootstrap_against(hello_with(1024, 1));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Absurd region size.
        let err = bootstrap_against(hello_with(u64::MAX, 4));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Zero slots.
        let err = bootstrap_against(hello_with(4 << 20, 0));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Region not divisible into slots.
        let err = bootstrap_against(hello_with(4 << 20, 3));
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
    }

    #[test]
    fn unknown_wr_id_completion_tears_down_gracefully() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Corrupt the server's accounting: the next completion will name a
        // work-request id the posted-map no longer knows.
        srv.posted.lock().clear();
        cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
            out.write_bytes(&[1u8; 64])
        })
        .unwrap();
        let err = srv.recv_msg(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        // Torn down, not panicked — and permanently closed.
        assert_eq!(
            srv.recv_msg(Duration::from_millis(10)).unwrap_err(),
            RpcError::ConnectionClosed
        );
    }

    #[test]
    fn forged_bulk_header_length_is_a_counted_teardown() {
        // A peer RDMA-writes a length header of 2^64 - 8 into slot 0 and
        // announces it: `base + HEADER_BYTES + len` wraps to 0, so an
        // unchecked bound would pass the frame on to the pool.
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let metrics = MetricsRegistry::new(false);
        let srv = Arc::new(
            Arc::try_unwrap(srv)
                .expect("sole owner")
                .with_metrics(metrics.clone()),
        );
        {
            let state = cli.send.lock();
            state
                .header_mr
                .write_at(0, &(u64::MAX - 7).to_be_bytes())
                .unwrap();
            let imm = IMM_LARGE | (1 << 20); // slot 0, one slot consumed
            cli.qp
                .rdma_write_vectored(
                    std::iter::once((&state.header_mr, 0usize, HEADER_BYTES, 0usize)),
                    cli.peer_rkey,
                    Some(imm),
                )
                .unwrap();
        }
        let err = srv.recv_msg(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, RpcError::Protocol(_)), "{err}");
        assert_eq!(metrics.counters().frame_errors, 1);
        assert_eq!(
            srv.recv_msg(Duration::from_millis(10)).unwrap_err(),
            RpcError::ConnectionClosed,
            "the forged frame tears the connection down"
        );
    }

    #[test]
    fn recv_timeout_when_idle() {
        let cfg = RpcConfig::rpcoib();
        let (_cli, srv) = conn_pair(&cfg);
        assert_eq!(
            srv.recv_msg(Duration::from_millis(30)).unwrap_err(),
            RpcError::Timeout
        );
    }

    #[test]
    fn ib_context_requires_rdma_fabric() {
        let fabric = Fabric::new(model::IPOIB_QDR);
        let node = fabric.add_node();
        let err = IbContext::new(&fabric, node, &RpcConfig::rpcoib()).unwrap_err();
        assert!(matches!(err, RpcError::Config(_)));
    }

    #[test]
    fn batched_frames_roundtrip_in_order() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 50 + i as usize]).collect();
        cli.send_frames(crate::intern::method_key("p", "m"), frames.clone())
            .unwrap();
        for want in &frames {
            assert!(srv.poll_ready() || want == &frames[0]);
            let (payload, _) = srv.recv_msg(Duration::from_secs(1)).unwrap();
            assert_eq!(payload.len(), want.len());
            let mut got = vec![0u8; want.len()];
            std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
            assert_eq!(&got, want);
        }
        assert!(!srv.poll_ready(), "stash fully drained");
    }

    #[test]
    fn batch_mixed_with_large_frame_keeps_order() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let frames = vec![
            vec![1u8; 64],
            vec![2u8; 100_000], // over rdma_threshold: goes out alone
            vec![3u8; 64],
        ];
        cli.send_frames(crate::intern::method_key("p", "m"), frames.clone())
            .unwrap();
        for want in &frames {
            let (payload, _) = srv.recv_msg(Duration::from_secs(5)).unwrap();
            assert_eq!(payload.len(), want.len());
            let mut got = vec![0u8; want.len()];
            std::io::Read::read_exact(&mut payload.reader(), &mut got).unwrap();
            assert_eq!(&got, want, "ordering drifted around the large frame");
        }
    }

    #[test]
    fn pool_is_prefilled_and_reused() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        // Warm the path.
        for _ in 0..10 {
            cli.send_msg(crate::intern::method_key("p", "m"), &mut |out| {
                out.write_bytes(&[1u8; 200])
            })
            .unwrap();
            let _ = srv.recv_msg(Duration::from_secs(1)).unwrap();
        }
        let (_hits, misses, _ret, _over) = cli.ctx.pool.native().stats().snapshot();
        // After warmup the send path should not allocate fresh regions for
        // every call (some misses during warmup are expected).
        let (hits2, _m2, _r2, _o2) = cli.ctx.pool.native().stats().snapshot();
        assert!(hits2 > 0, "pool must be serving from freelists");
        assert!(misses < 50, "unbounded registration leak");
    }

    #[test]
    fn steady_state_bulk_sends_touch_no_new_registrations() {
        let cfg = RpcConfig::rpcoib();
        let (cli, srv) = conn_pair(&cfg);
        let progress = progress_thread(Arc::clone(&cli));
        let body = vec![9u8; 200_000];
        let roundtrip = |n: usize| {
            for _ in 0..n {
                cli.send_msg(crate::intern::method_key("p", "bulk"), &mut |out| {
                    out.write_bytes(&body)
                })
                .unwrap();
                let _ = srv.recv_msg(Duration::from_secs(5)).unwrap();
            }
        };
        roundtrip(3); // warm: segment + drain classes populate
        let fabric = cli.ctx.device.fabric();
        let (_, _, _, regs_before) = fabric.stats().snapshot();
        let (_, misses_before, _, over_before) = cli.ctx.pool_stats();
        let (_, srv_misses_before, _, srv_over_before) = srv.ctx.pool_stats();
        roundtrip(10);
        let (_, _, _, regs_after) = fabric.stats().snapshot();
        let (_, misses_after, _, over_after) = cli.ctx.pool_stats();
        let (_, srv_misses_after, _, srv_over_after) = srv.ctx.pool_stats();
        assert_eq!(
            regs_after - regs_before,
            0,
            "steady-state bulk sends must re-use cached registrations"
        );
        assert_eq!(misses_after - misses_before, 0, "sender pool misses");
        assert_eq!(over_after - over_before, 0, "sender oversize allocations");
        assert_eq!(
            srv_misses_after - srv_misses_before,
            0,
            "receiver pool misses"
        );
        assert_eq!(
            srv_over_after - srv_over_before,
            0,
            "receiver oversize allocations"
        );
        cli.close();
        progress.join().unwrap();
    }
}
