//! The RPC client: caller threads plus one Connection thread per server
//! (Section III-D keeps Hadoop's two-thread client design).
//!
//! Callers serialize and transmit on their own thread (so per-call
//! serialization cost lands on the caller, as in Hadoop), register the
//! call's sequence number in the pending table, and park until the
//! Connection thread — which owns the receive side — routes the response
//! back.
//!
//! Steady-state calls are allocation-free and lock-light on this side:
//! the `<protocol, method>` pair is resolved once to an interned
//! [`MethodKey`] (a `Copy` pointer), the pending table is sharded by
//! sequence number so concurrent callers rarely contend, the caller
//! parks on a pooled, reusable [`CallSlot`] instead of a fresh one-shot
//! channel, and metrics land as relaxed atomic adds on the key's cached
//! entry.
//!
//! At-most-once plumbing: every client mints a stable random `client_id`
//! at construction and presents it in the connect handshake; every
//! logical call draws one wrap-safe `i64` sequence number, and *all*
//! retry attempts of that call re-send the same `(client_id, seq)` pair
//! (with an incrementing `retry_attempt`), so the server's retry cache
//! can deduplicate re-executions.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use simnet::{Fabric, NodeId, SimAddr, SimStream};
use wire::Writable;

use crate::config::RpcConfig;
use crate::error::{RpcError, RpcResult};
use crate::frame::{Payload, ResponseHeader, ResponseStatus, V3Decoder, V3Encoder};
use crate::handshake;
use crate::intern::{self, MethodKey};
use crate::metrics::{
    CallProfile, MetricsRegistry, MetricsSnapshot, Phase, RecvProfile as MetricsRecv,
};
use crate::transport::rdma::{IbContext, RdmaConn};
use crate::transport::socket::SocketConn;
use crate::transport::Conn;

const IDLE_SLICE: Duration = Duration::from_millis(100);

/// Pending-table shard count (power of two; sequence numbers are dense,
/// so masking the low bits spreads concurrent callers evenly).
const PENDING_SHARDS: usize = 8;

/// Cap on the dropped-connection reconnect-tracking set. Beyond this many
/// *concurrently dropped* distinct servers, further reconnects may be
/// undercounted — a metrics blemish, accepted so the set stays bounded
/// (its predecessor grew by one entry per server, forever).
const RECONNECT_TRACK_CAP: usize = 256;

/// A response as the Connection thread hands it to a parked caller: the
/// lead parsed exactly once (the Connection thread owns the connection's
/// V3 decoder state, so under the compact header it is the only thread
/// that *can* parse it), and the frame bytes with the body starting at
/// `body_offset`.
pub struct RawResponse {
    /// The parsed response lead (sequence number and status).
    pub header: ResponseHeader,
    /// The whole response frame.
    pub payload: Payload,
    /// Offset of the response body within `payload` — skip this many
    /// bytes before deserializing the value / error message.
    pub body_offset: usize,
}

/// A reusable rendezvous cell one parked caller waits on.
///
/// Replaces the per-call one-shot channel (whose construction allocated a
/// channel block and queue node on every call): connections keep a
/// freelist of retired slots, and a generation counter distinguishes the
/// call a result belongs to, so a late response delivered to a recycled
/// slot is recognized and dropped instead of leaking into the next call.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

struct SlotState {
    gen: u64,
    result: Option<RpcResult<RawResponse>>,
}

impl CallSlot {
    fn new() -> Arc<CallSlot> {
        Arc::new(CallSlot {
            state: Mutex::new(SlotState {
                gen: 0,
                result: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// The generation the next `wait` call will accept results for.
    fn generation(&self) -> u64 {
        self.state.lock().gen
    }

    /// Deliver `result` if the slot is still on generation `gen`;
    /// returns `false` (result dropped) when the caller already retired
    /// the slot — the delivery was late.
    fn deliver(&self, gen: u64, result: RpcResult<RawResponse>) -> bool {
        let mut st = self.state.lock();
        if st.gen != gen {
            return false;
        }
        st.result = Some(result);
        self.cv.notify_one();
        true
    }

    /// Park until a generation-`gen` result arrives or `timeout` passes.
    fn wait(&self, timeout: Duration) -> Option<RpcResult<RawResponse>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if let Some(result) = st.result.take() {
                return Some(result);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.cv.wait_until(&mut st, deadline);
        }
    }

    /// Advance the generation (invalidating any in-flight delivery) and
    /// clear a result that raced in; called before the slot returns to
    /// the freelist.
    fn retire(&self) {
        let mut st = self.state.lock();
        st.gen = st.gen.wrapping_add(1);
        st.result = None;
    }
}

struct PendingCall {
    slot: Arc<CallSlot>,
    gen: u64,
    key: MethodKey,
}

/// The in-flight call table, sharded by sequence number so the caller's
/// insert/remove and the Connection thread's response lookup contend
/// only when they touch the same shard.
struct PendingTable {
    shards: [Mutex<HashMap<i64, PendingCall>>; PENDING_SHARDS],
}

impl PendingTable {
    fn new() -> PendingTable {
        PendingTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, seq: i64) -> &Mutex<HashMap<i64, PendingCall>> {
        &self.shards[(seq as u64 as usize) & (PENDING_SHARDS - 1)]
    }

    fn insert(&self, seq: i64, call: PendingCall) {
        self.shard(seq).lock().insert(seq, call);
    }

    fn remove(&self, seq: i64) -> Option<PendingCall> {
        self.shard(seq).lock().remove(&seq)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

struct ClientConnection {
    conn: Arc<dyn Conn>,
    server: SimAddr,
    /// Frame version negotiated in the connect handshake (always V3: the
    /// handshake refuses anything else).
    version: u8,
    /// V3 request-header encoder (delta seq + method table). Its state
    /// advances at the transport's wire-ordering point — `send_msg_ordered`
    /// runs the lead closure under the transport's own ordering lock — so
    /// this mutex only ever guards one encode at a time.
    enc: Mutex<V3Encoder>,
    pending: PendingTable,
    /// Retired call slots awaiting reuse; bounded by this connection's
    /// peak caller concurrency.
    slots: Mutex<Vec<Arc<CallSlot>>>,
    broken: AtomicBool,
}

impl ClientConnection {
    fn acquire_slot(&self) -> Arc<CallSlot> {
        self.slots.lock().pop().unwrap_or_else(CallSlot::new)
    }

    fn release_slot(&self, slot: Arc<CallSlot>) {
        slot.retire();
        self.slots.lock().push(slot);
    }

    fn fail_all(&self, err: RpcError) {
        self.broken.store(true, Ordering::Release);
        for shard in &self.pending.shards {
            for (_, call) in shard.lock().drain() {
                call.slot.deliver(call.gen, Err(err.clone()));
            }
        }
    }
}

struct ClientInner {
    fabric: Fabric,
    node: NodeId,
    cfg: RpcConfig,
    ib: Option<IbContext>,
    /// Stable identity presented in every connect handshake; keys the
    /// server's retry cache together with the per-call sequence number.
    /// Atomic because a client that presents `0` adopts the id the server
    /// assigns in the handshake ack and re-presents it from then on.
    client_id: AtomicU64,
    conns: Mutex<HashMap<SimAddr, Arc<ClientConnection>>>,
    /// Serializes connection establishment: concurrent first callers must
    /// not each bootstrap a connection (an RPCoIB bootstrap registers a
    /// receive ring and a large region on *both* sides — losers of a
    /// connect race would leak all of it as zombies).
    connect_lock: Mutex<()>,
    /// Next call sequence number. `i64` so it cannot realistically wrap
    /// (the old `i32` call id went negative after 2³¹ calls).
    next_seq: AtomicI64,
    metrics: MetricsRegistry,
    stopped: AtomicBool,
    /// Makes retry backoffs interruptible: `shutdown` flips `stopped` and
    /// notifies under this lock, so a caller parked between attempts wakes
    /// immediately instead of sleeping out the full pause.
    stop_lock: Mutex<()>,
    stop_cv: Condvar,
    /// Servers whose connection has been dropped from `conns`: a later
    /// establishment to one of them is a *re*connect (counted, and the
    /// entry removed). Unlike the ever-connected set it replaces, this is
    /// empty in steady state and bounded by [`RECONNECT_TRACK_CAP`].
    reconnectable: Mutex<HashSet<SimAddr>>,
}

impl ClientInner {
    /// Drop `connection` from the cache — but only if it is still the
    /// cached entry. A concurrent caller may already have replaced it
    /// with a fresh, healthy connection that must not be torn down.
    fn forget_connection(&self, connection: &Arc<ClientConnection>) {
        let removed = {
            let mut conns = self.conns.lock();
            match conns.get(&connection.server) {
                Some(current) if Arc::ptr_eq(current, connection) => {
                    conns.remove(&connection.server);
                    true
                }
                _ => false,
            }
        };
        if removed {
            let mut tracked = self.reconnectable.lock();
            if tracked.len() < RECONNECT_TRACK_CAP || tracked.contains(&connection.server) {
                tracked.insert(connection.server);
            }
        }
    }

    /// Mark `connection` unusable and evict it from the cache.
    fn invalidate(&self, connection: &Arc<ClientConnection>) {
        connection.broken.store(true, Ordering::Release);
        self.forget_connection(connection);
    }
}

/// Removes one call's pending-table entry on drop and returns its slot
/// to the connection's freelist, so *every* exit from
/// [`Client::try_call`] — response delivered, timeout, send failure,
/// busy rejection, even a panic while parked — leaves the table clean.
/// The entry removal is a no-op on paths where the Connection thread
/// already removed it (response delivery, `fail_all`); retiring the slot
/// advances its generation so any still-in-flight delivery is dropped as
/// late rather than leaking into the slot's next call.
struct PendingGuard<'a> {
    connection: &'a ClientConnection,
    seq: i64,
    slot: Option<Arc<CallSlot>>,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.connection.pending.remove(self.seq);
        if let Some(slot) = self.slot.take() {
            self.connection.release_slot(slot);
        }
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Last user-held handle gone: close every connection so the
        // per-connection threads exit and release their buffers. The
        // threads only hold `Weak` references, so this does run.
        self.stopped.store(true, Ordering::Release);
        for (_, conn) in self.conns.lock().drain() {
            conn.conn.close();
            conn.fail_all(RpcError::ConnectionClosed);
        }
    }
}

/// An RPC client anchored on one simulated node.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

impl Client {
    /// Create a client on `node`. In RPCoIB mode this opens the HCA and
    /// pre-registers the buffer pool.
    pub fn new(fabric: &Fabric, node: NodeId, cfg: RpcConfig) -> RpcResult<Client> {
        cfg.validate().map_err(RpcError::Config)?;
        let ib = if cfg.ib_enabled {
            Some(IbContext::new(fabric, node, &cfg)?)
        } else {
            None
        };
        let trace = cfg.trace_sizes;
        Ok(Client {
            inner: Arc::new(ClientInner {
                fabric: fabric.clone(),
                node,
                cfg,
                ib,
                client_id: AtomicU64::new(handshake::mint_client_id(u64::from(node.0))),
                conns: Mutex::new(HashMap::new()),
                connect_lock: Mutex::new(()),
                next_seq: AtomicI64::new(1),
                metrics: MetricsRegistry::new(trace),
                stopped: AtomicBool::new(false),
                stop_lock: Mutex::new(()),
                stop_cv: Condvar::new(),
                reconnectable: Mutex::new(HashSet::new()),
            }),
        })
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The stable identity this client presents at every connect
    /// handshake.
    pub fn client_id(&self) -> u64 {
        self.inner.client_id.load(Ordering::Acquire)
    }

    /// Overwrite the client identity (regression-testing the handshake's
    /// assign-on-zero path). Calls made before the next connect keep the
    /// old id; normal code never needs this.
    #[doc(hidden)]
    pub fn force_client_id(&self, id: u64) {
        self.inner.client_id.store(id, Ordering::Release);
    }

    /// Client-side metrics (Table I and Figure 3 read these).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// RPCoIB buffer-pool counters (hits, misses, returns, oversize);
    /// `None` on the socket transport.
    pub fn pool_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.inner.ib.as_ref().map(|ib| ib.pool_stats())
    }

    /// Pre-register `per_class` buffers in every pool class up to
    /// `max_bytes` (see [`IbContext::prewarm`]); no-op on the socket
    /// transport. Callers that know their payload sizes use this to move
    /// jumbo-class registration costs out of the first large call.
    pub fn prewarm_pool(&self, max_bytes: usize, per_class: usize) {
        if let Some(ib) = &self.inner.ib {
            ib.prewarm(max_bytes, per_class);
        }
    }

    /// Unified observability snapshot: per-method aggregates, per-phase
    /// latency histograms, engine counters, and (in RPCoIB mode) the
    /// buffer pool's shadow + native counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .full_snapshot(self.inner.ib.as_ref().map(|ib| ib.pool_counters()))
    }

    /// Number of cached (possibly broken) server connections.
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Calls currently awaiting a response, summed over every cached
    /// connection. Regression hook for the pending-table lifecycle: once
    /// no calls are in flight this must be 0 — any other value is a leaked
    /// entry whose caller has already given up.
    pub fn pending_calls(&self) -> usize {
        self.inner
            .conns
            .lock()
            .values()
            .map(|c| c.pending.len())
            .sum()
    }

    /// Servers currently tracked as dropped-and-reconnectable.
    /// Regression hook for the tracking set's boundedness: it must
    /// return to 0 once every dropped server has been reconnected to
    /// (or never exceed [`RECONNECT_TRACK_CAP`] regardless of churn).
    #[doc(hidden)]
    pub fn reconnect_tracking_len(&self) -> usize {
        self.inner.reconnectable.lock().len()
    }

    /// Jump the sequence counter (regression-testing wraparound paths).
    #[doc(hidden)]
    pub fn force_next_seq(&self, seq: i64) {
        self.inner.next_seq.store(seq, Ordering::Relaxed);
    }

    /// Frame version the cached connection to `server` negotiated, or
    /// `None` when no connection is cached (negotiation-matrix tests).
    #[doc(hidden)]
    pub fn negotiated_version(&self, server: SimAddr) -> Option<u8> {
        self.inner.conns.lock().get(&server).map(|c| c.version)
    }

    /// Invoke `protocol.method(request)` on the server at `server` and
    /// deserialize the response into `Resp`.
    pub fn call<Req, Resp>(
        &self,
        server: SimAddr,
        protocol: &str,
        method: &str,
        request: &Req,
    ) -> RpcResult<Resp>
    where
        Req: Writable,
        Resp: Writable + Default,
    {
        let key = intern::method_key(protocol, method);
        let resp = self.call_raw_keyed(server, key, request)?;
        let deser_start = Instant::now();
        let result = (|| {
            let mut reader = resp.payload.reader();
            // The Connection thread already parsed the lead (it owns the
            // V3 decoder state); jump straight to the body.
            reader.skip(resp.body_offset);
            match resp.header.status {
                ResponseStatus::Ok => {
                    let mut resp = Resp::default();
                    resp.read_fields(&mut reader)
                        .map_err(|e| RpcError::Protocol(e.to_string()))?;
                    Ok(resp)
                }
                ResponseStatus::Error => {
                    let mut message = String::new();
                    message
                        .read_fields(&mut reader)
                        .map_err(|e| RpcError::Protocol(e.to_string()))?;
                    Err(RpcError::Remote(message))
                }
                // try_call surfaces busy and expired rejections as errors
                // before the payload ever reaches here; kept for
                // raw-payload safety.
                ResponseStatus::Busy => Err(RpcError::ServerBusy),
                ResponseStatus::Expired => Err(RpcError::DeadlineExpired),
            }
        })();
        self.inner
            .metrics
            .entry(key)
            .record_phase(Phase::Deserialize, deser_start.elapsed().as_nanos() as u64);
        if result.is_err() {
            // A remote exception (or unparseable response) is as
            // definitive a failure as exhausted retries: count it.
            self.inner.metrics.inc_failed_calls();
        }
        result
    }

    /// Like [`Client::call`] but returns the raw response — the parsed
    /// lead plus the frame bytes — for callers that deserialize response
    /// bodies themselves. (Before V3 this handed back unparsed frame
    /// bytes; with the compact header only the Connection thread holds
    /// the decoder state, so the lead comes pre-parsed.)
    ///
    /// Drives the configured [`crate::RetryPolicy`]: each attempt gets at
    /// most `call_timeout` (capped by the remaining overall deadline, if
    /// one is set); retryable failures re-attempt after a jittered
    /// backoff, re-establishing the connection when the previous attempt
    /// broke it. Every attempt re-sends the *same* sequence number (with
    /// an incremented `retry_attempt`), so the server can recognize and
    /// deduplicate the retry. Non-retryable errors, exhausted attempts,
    /// and an exhausted deadline fail the call (counted in
    /// [`MetricsRegistry::counters`]).
    pub fn call_raw<Req>(
        &self,
        server: SimAddr,
        protocol: &str,
        method: &str,
        request: &Req,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        self.call_raw_keyed(server, intern::method_key(protocol, method), request)
    }

    fn call_raw_keyed<Req>(
        &self,
        server: SimAddr,
        key: MethodKey,
        request: &Req,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        let policy = self.inner.cfg.retry.clone();
        let start = Instant::now();
        // One sequence number for the whole logical call, retries
        // included — this is what at-most-once keys on.
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        // Decorrelates this call's backoff jitter from concurrent calls'.
        let entropy = seq as u64;
        let mut attempt = 0u32;
        let err = loop {
            attempt += 1;
            let mut attempt_timeout = self.inner.cfg.call_timeout;
            if let Some(deadline) = policy.deadline {
                let remaining = deadline.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    break RpcError::Timeout;
                }
                attempt_timeout = attempt_timeout.min(remaining);
            }
            match self.try_call(server, key, request, attempt_timeout, seq, attempt - 1) {
                Ok(payload) => return Ok(payload),
                Err(e) => {
                    let exhausted = attempt >= policy.max_attempts
                        || self.inner.stopped.load(Ordering::Acquire);
                    if !e.is_retryable() || exhausted {
                        break e;
                    }
                    let mut pause = policy.backoff(attempt, entropy);
                    if let Some(deadline) = policy.deadline {
                        let remaining = deadline.saturating_sub(start.elapsed());
                        if remaining.is_zero() {
                            break e;
                        }
                        // A busy backoff that would sleep out the whole
                        // remaining budget cannot buy another attempt —
                        // fail fast instead of burning the deadline's tail
                        // parked in the backoff wait.
                        if matches!(e, RpcError::ServerBusy) && pause >= remaining {
                            break e;
                        }
                        pause = pause.min(remaining);
                    }
                    self.inner.metrics.inc_retries();
                    if !pause.is_zero() {
                        // Interruptible backoff: `shutdown` notifies the
                        // condvar, so a stopped client abandons the pause
                        // (and the call) immediately instead of sleeping
                        // it out and burning further attempts.
                        let mut guard = self.inner.stop_lock.lock();
                        if !self.inner.stopped.load(Ordering::Acquire) {
                            self.inner.stop_cv.wait_for(&mut guard, pause);
                        }
                    }
                    if self.inner.stopped.load(Ordering::Acquire) {
                        break RpcError::ConnectionClosed;
                    }
                }
            }
        };
        self.inner.metrics.inc_failed_calls();
        Err(err)
    }

    fn try_call<Req>(
        &self,
        server: SimAddr,
        key: MethodKey,
        request: &Req,
        attempt_timeout: Duration,
        seq: i64,
        retry_attempt: u32,
    ) -> RpcResult<RawResponse>
    where
        Req: Writable,
    {
        if self.inner.stopped.load(Ordering::Acquire) {
            return Err(RpcError::ConnectionClosed);
        }
        let connection = self.get_connection(server)?;
        let slot = connection.acquire_slot();
        let gen = slot.generation();
        connection.pending.insert(
            seq,
            PendingCall {
                slot: Arc::clone(&slot),
                gen,
                key,
            },
        );
        // From here on the guard owns cleanup: no exit path below needs
        // (or is trusted) to remove the entry or recycle the slot by hand.
        let _pending = PendingGuard {
            connection: &connection,
            seq,
            slot: Some(Arc::clone(&slot)),
        };

        // V3 splits the frame: the compact header is encoded by the
        // connection's stateful encoder at the transport's wire-ordering
        // point (so delta-seq/method-table state advances in exactly the
        // order frames hit the wire), while the body serializes on this
        // caller thread. The header carries the attempt's remaining
        // budget, so the server can shed the call once it expires instead
        // of executing work this client has already timed out on.
        let sent = connection.conn.send_msg_ordered(
            key,
            &mut |out| {
                connection.enc.lock().write_request_header(
                    out,
                    seq,
                    retry_attempt,
                    Some(attempt_timeout),
                    key,
                )
            },
            &mut |out| request.write(out),
        );
        let profile = match sent {
            Ok(p) => p,
            Err(e) => {
                if e.invalidates_connection() {
                    self.inner.invalidate(&connection);
                    connection.fail_all(e.clone());
                }
                return Err(e);
            }
        };
        self.inner.metrics.entry(key).record_call(CallProfile {
            serialize_ns: profile.serialize_ns,
            send_ns: profile.send_ns,
            adjustments: profile.adjustments,
            size: profile.size,
        });

        match slot.wait(attempt_timeout) {
            Some(Ok(resp)) => {
                // A busy rejection means the server refused admission and
                // the call never executed — surface it as a retryable
                // error so the retry loop backs off. (The lead was parsed
                // by the Connection thread; no re-parse here.)
                if resp.header.status == ResponseStatus::Busy {
                    return Err(RpcError::ServerBusy);
                }
                // An expired rejection means the server shed the call
                // before execution because its propagated deadline passed.
                // Non-retryable by construction: a retry's budget would
                // already be spent too.
                if resp.header.status == ResponseStatus::Expired {
                    return Err(RpcError::DeadlineExpired);
                }
                Ok(resp)
            }
            Some(Err(e)) => {
                // Delivered by the Connection thread's fail_all: the
                // connection itself is gone; make sure it is also evicted
                // before a retry reconnects.
                if e.invalidates_connection() {
                    self.inner.invalidate(&connection);
                }
                Err(e)
            }
            None => {
                // No response in time. The connection may be fine (slow
                // server), so it stays cached; only this call gives up
                // (the guard unregisters it and retires the slot, so a
                // response that still arrives is dropped as late).
                Err(RpcError::Timeout)
            }
        }
    }

    fn get_connection(&self, server: SimAddr) -> RpcResult<Arc<ClientConnection>> {
        {
            let conns = self.inner.conns.lock();
            if let Some(conn) = conns.get(&server) {
                if !conn.broken.load(Ordering::Acquire) {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        // Establish under the connect lock; a caller that raced in behind
        // the winner finds the fresh connection on the re-check and never
        // bootstraps a duplicate.
        let _guard = self.inner.connect_lock.lock();
        {
            let conns = self.inner.conns.lock();
            if let Some(conn) = conns.get(&server) {
                if !conn.broken.load(Ordering::Acquire) {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        let stream = SimStream::connect(&self.inner.fabric, self.inner.node, server)?;
        // Identity/version handshake precedes everything else on the
        // stream (including the RPCoIB endpoint exchange). Adopt the id
        // the server confirmed: for a client that presented 0 this is the
        // server-assigned identity it must re-present from now on.
        let (version, confirmed) =
            handshake::client_hello(&stream, self.inner.client_id.load(Ordering::Acquire))?;
        self.inner.client_id.store(confirmed, Ordering::Release);
        let conn: Arc<dyn Conn> = match &self.inner.ib {
            Some(ctx) => Arc::new(
                RdmaConn::bootstrap(&stream, ctx, &self.inner.cfg)?
                    .with_metrics(self.inner.metrics.clone()),
            ),
            None => Arc::new(
                SocketConn::new(stream, wire::buffer::INITIAL_CAPACITY)
                    .with_metrics(self.inner.metrics.clone()),
            ),
        };
        let connection = Arc::new(ClientConnection {
            conn,
            server,
            version,
            // Verbs drops frames silently (they are charged and vanish),
            // so V3 there is self-contained per frame; the socket path is
            // reliable-ordered and uses the stateful delta encoding.
            enc: Mutex::new(V3Encoder::new(!self.inner.cfg.ib_enabled)),
            pending: PendingTable::new(),
            slots: Mutex::new(Vec::new()),
            broken: AtomicBool::new(false),
        });
        // A reconnect is an establishment to a server whose previous
        // connection was dropped: either it is still cached (broken, and
        // replaced by the insert below) or its eviction recorded the
        // server in the reconnectable set.
        let replaced = self
            .inner
            .conns
            .lock()
            .insert(server, Arc::clone(&connection))
            .is_some();
        let was_dropped = self.inner.reconnectable.lock().remove(&server);
        if replaced || was_dropped {
            self.inner.metrics.inc_reconnects();
        }

        // The Connection thread: owns the receive side for this server.
        // It holds only a Weak reference to the client, so dropping the
        // last Client handle tears the thread (and the connection's
        // buffers) down.
        let inner = Arc::downgrade(&self.inner);
        let connection2 = Arc::clone(&connection);
        std::thread::Builder::new()
            .name(format!("rpc-connection-{server}"))
            .spawn(move || connection_loop(inner, connection2))
            .expect("spawn connection thread");
        Ok(connection)
    }

    /// Close all connections; subsequent calls fail. Callers parked in a
    /// retry backoff are woken and fail with `ConnectionClosed` promptly
    /// rather than sleeping out their pause.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            // Taking the lock orders this notify after any in-progress
            // stopped-check inside the backoff, so no sleeper misses it.
            let _guard = self.inner.stop_lock.lock();
            self.inner.stop_cv.notify_all();
        }
        for (_, conn) in self.inner.conns.lock().drain() {
            conn.conn.close();
            conn.fail_all(RpcError::ConnectionClosed);
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("node", &self.inner.node)
            .field("ib", &self.inner.ib.is_some())
            .finish()
    }
}

fn connection_loop(inner: std::sync::Weak<ClientInner>, connection: Arc<ClientConnection>) {
    // The response-side V3 decoder lives on this thread (never shared):
    // this loop is the only reader, so lead parsing needs no lock.
    let mut dec = {
        let Some(strong) = inner.upgrade() else {
            connection.fail_all(RpcError::ConnectionClosed);
            return;
        };
        V3Decoder::new(!strong.cfg.ib_enabled)
    };
    loop {
        // Upgrade per iteration: if every user-facing Client handle is
        // gone, stop polling and let the connection (and its registered
        // buffers) drop.
        let Some(inner) = inner.upgrade() else {
            connection.fail_all(RpcError::ConnectionClosed);
            return;
        };
        if inner.stopped.load(Ordering::Acquire) || connection.broken.load(Ordering::Acquire) {
            inner.forget_connection(&connection);
            connection.fail_all(RpcError::ConnectionClosed);
            return;
        }
        let (payload, recv) = match connection.conn.recv_msg(IDLE_SLICE) {
            Ok(v) => v,
            Err(RpcError::Timeout) => continue,
            Err(e) => {
                // Evict before failing the waiters, so a retrying caller
                // that wakes on fail_all finds the cache already clean
                // and reconnects instead of reusing this dead entry.
                inner.invalidate(&connection);
                connection.fail_all(e);
                return;
            }
        };
        let (header, body_offset) = {
            let mut reader = payload.reader();
            match dec.read_response_header(&mut reader) {
                Ok(h) => (h, reader.position()),
                Err(_) => {
                    inner.invalidate(&connection);
                    connection.conn.close();
                    connection.fail_all(RpcError::Protocol("corrupt response frame".into()));
                    return;
                }
            }
        };
        if let Some(call) = connection.pending.remove(header.seq) {
            inner.metrics.entry(call.key).record_recv(MetricsRecv {
                alloc_ns: recv.alloc_ns,
                total_ns: recv.total_ns,
                size: recv.size,
            });
            let resp = RawResponse {
                header,
                payload,
                body_offset,
            };
            if !call.slot.deliver(call.gen, Ok(resp)) {
                // The caller retired the slot between our pending-table
                // removal and the delivery: it gave up; same outcome as
                // not finding the entry at all.
                inner.metrics.inc_late_responses();
            }
        } else {
            // The caller timed out and went away (or a parked duplicate's
            // answer raced the original's). The response is dropped, the
            // connection stays healthy — but the event is visible.
            inner.metrics.inc_late_responses();
        }
    }
}
