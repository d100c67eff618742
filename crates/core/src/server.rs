//! The RPC server: the paper's Section III-D pipeline, with both ends
//! sharded.
//!
//! Hadoop's 0.20.x architecture — reproduced faithfully up to PR 3 —
//! dedicates one **Reader** thread to every connection and funnels every
//! transmission through a *single* **Responder** thread. That is exactly
//! right for the paper's 8–16 node runs and exactly wrong at scale:
//! thread explosion on the read side, a serialization point on the write
//! side. Following the Ibdxnet design (dedicated, sharded send/recv
//! threads with explicit per-connection ordering), the pipeline is now:
//!
//! * a **Listener** thread accepts connections, assigns each a
//!   monotonically increasing connection id, and hands the stream to a
//!   transient setup thread (handshake and, in RPCoIB mode, the blocking
//!   end-point exchange) which registers the finished connection with
//!   its reader shard. The accept path is *bounded*: at most
//!   `RpcConfig::accept_backlog` setups run concurrently (further
//!   connects wait in the listener queue), and once
//!   `RpcConfig::max_connections` connections are live (or being set
//!   up), further connects are answered with a retryable busy rejection
//!   instead of growing the conn table without limit;
//! * **N reader shards** (`RpcConfig::reader_shards`; connections hashed
//!   by `conn_id % N` at accept time), each blocking on its
//!   [`ReadyQueue`] of woken connections (see [`crate::readiness`] for
//!   the wake-list contract): transports enqueue a generation-stamped
//!   conn token when input becomes observable, the shard pops it,
//!   re-checks [`Conn::poll_ready`], receives a bounded burst of frames,
//!   and re-arms the token if input remains — so idle connections cost
//!   nothing per scheduling round, which is what makes a 50k-connection
//!   front door affordable (ROADMAP item 1). Each admitted frame
//!   consults the [`RetryCache`] for at-most-once admission and is
//!   pushed onto the bounded call queue — *without blocking*: an
//!   overflowing queue answers with a retryable busy rejection instead
//!   of stalling every other call on the shard;
//! * `RpcConfig::handlers` **Handler** workers pop calls, dispatch into
//!   the registered services, serialize the response once, and hand the
//!   bytes (to the caller *and* any parked duplicate attempts) to the
//!   responder shards. The workers drive the M:N runtime
//!   ([`crate::sched`]): a popped call is polled on the worker that
//!   popped it, and only a call that suspends becomes a queued task, so
//!   a parked call holds no worker;
//! * **M responder shards** (`RpcConfig::responder_shards`) transmit
//!   responses. A response is routed to shard `conn_id % M`, so all
//!   responses of one connection flow through one shard in enqueue
//!   order — per-connection ordering is preserved no matter how many
//!   shards exist, and a parked duplicate on a *different* connection is
//!   delivered by *its* connection's shard. Each sweep drains everything
//!   already queued (up to a cap) and sends each connection's ready
//!   responses as one gathered wire operation; the shard also owns its
//!   connections' V3 response-lead encoders, since sweep order *is* wire
//!   order.
//!
//! With `reader_shards = 1, responder_shards = 1` this degenerates to
//! "one Reader event loop + the paper's single Responder"; the `0`/auto
//! defaults keep the single-responder behaviour while giving the read
//! side a small fixed shard pool.
//!
//! Shutdown comes in two flavors: [`Server::stop`] (abrupt — close
//! everything now) and [`Server::drain`] (graceful — stop accepting,
//! quiesce the reader shards, finish queued calls, flush responses, then
//! join).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use simnet::{Fabric, NodeId, SimAddr, SimListener};
use wire::Writable;

use crate::admission::{AdmissionQueue, AdmitError, CallClass, CallMeta};
use crate::config::RpcConfig;
use crate::error::{RpcError, RpcResult};
use crate::frame::{
    busy_body, expired_body, read_request_header, write_response_body, write_response_lead,
    FrameVersion, Payload, RequestHeader, V3Decoder, V3Encoder,
};
use crate::handshake;
use crate::intern::MethodKey;
use crate::metrics::{
    MetricsRegistry, MetricsSnapshot, Phase, RecvProfile as MetricsRecv, ShardRole, ShardStats,
};
use crate::readiness::{token, token_gen, token_slot, Pop, ReadyQueue, WakeState, TOKEN_REGISTER};
use crate::retry_cache::{Admission, CallKey, RetryCache};
use crate::sched::{CallPoll, HandlerCx, ParkRequest, Sched, Step, TaskCx};
use crate::service::ServiceRegistry;
use crate::transport::rdma::{IbContext, RdmaConn};
use crate::transport::socket::SocketConn;
use crate::transport::Conn;

/// How long blocking queue pops wait before re-checking for shutdown.
const IDLE_SLICE: Duration = Duration::from_millis(100);

/// Cadence of the reader's liveness sweep — the fallback probe pass that
/// catches the one readiness transition no hook can deliver: a peer node
/// dying without closing its connections. See [`reader_shard_loop`].
const LIVENESS_SWEEP: Duration = Duration::from_secs(1);

/// Bound on one `recv_msg` once a connection has signalled readiness. A
/// ready socket connection returns instantly; on the verbs path the
/// pending completion may be a flow-control credit rather than a
/// message, in which case the credit is consumed and the shard waits at
/// most this long for a message riding behind it.
const READ_SLICE: Duration = Duration::from_millis(1);

/// Poll interval of [`Server::drain`]'s quiescence checks.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// Frames one readiness pop may decode from a single connection before
/// its token re-arms at the back of the queue (non-QoS mode; QoS mode
/// budgets by tenant weight instead). A gathered V3 batch arrives as one
/// wire op carrying many frames: draining them in one pop turns
/// batch-of-32 service from 32 queue round-trips into one, while the
/// bound keeps one chatty peer from starving its shard.
const READ_BURST: usize = 32;

/// Pop timeout of a reader shard with `reader_steal` on: short, so an
/// idle shard visits its siblings' queues instead of blocking a full
/// [`IDLE_SLICE`] while another shard runs hot.
const STEAL_POLL: Duration = Duration::from_millis(1);

struct RawCall {
    conn_id: u64,
    conn: Arc<dyn Conn>,
    header: RequestHeader,
    payload: Payload,
    /// Offset of the parameter bytes within the payload.
    body_offset: usize,
    /// When the Reader admitted the call — the handler's pop time minus
    /// this is the `server_queue` phase of the latency histogram.
    admitted_at: Instant,
}

/// Where one serialized response must be delivered. The retry cache parks
/// these for duplicate attempts; completion fans the same bytes out to
/// every route. `conn_id` picks the responder shard, so every response of
/// a connection flows through the same shard in order.
struct RespRoute {
    conn_id: u64,
    conn: Arc<dyn Conn>,
    /// The request's interned key; the responder derives the response's
    /// buffer-history key from it (`key.response_key()`).
    key: MethodKey,
    /// The version *this route's request* arrived in: the responder
    /// composes the lead per route (V1 statelessly, V3 through the
    /// per-connection lead encoders the responder shard owns).
    version: FrameVersion,
    /// Tenant identity of the route's caller; the responder's
    /// weighted-fair sweep budgets transmissions by it.
    client_id: u64,
    seq: i64,
}

struct OutboundResponse {
    route: RespRoute,
    /// The serialized *version-neutral* response body (`[status][value]`),
    /// shared when a completed call also releases parked duplicates; each
    /// route's responder shard prepends the per-version lead.
    bytes: Arc<Vec<u8>>,
}

/// A connection handed from the accept path to its reader shard.
struct ShardConn {
    conn_id: u64,
    conn: Arc<dyn Conn>,
    /// Frame version negotiated at the handshake (1 for legacy peers).
    version: u8,
    /// Identity from the handshake; V3 frames no longer carry it.
    client_id: u64,
    /// Request-header decoder for V3 connections. Owned by the one reader
    /// shard the connection is hashed onto, so decoding needs no lock.
    dec: V3Decoder,
}

/// One responder shard's queue and counters. The receiving end is also
/// held here (not moved into the thread) so `Server::start` can spawn the
/// shard thread after `ServerInner` is built.
struct RespShard {
    tx: Sender<OutboundResponse>,
    rx: Receiver<OutboundResponse>,
    stats: Arc<ShardStats>,
}

struct ServerInner {
    cfg: RpcConfig,
    registry: ServiceRegistry,
    addr: SimAddr,
    stop: AtomicBool,
    /// Graceful-shutdown mode: stop accepting and reading, but let queued
    /// calls finish and their responses flush (see [`Server::drain`]).
    draining: AtomicBool,
    /// Set by the Listener on its way out; `drain` waits on it before
    /// trusting the reader count (no new setup threads spawn after this).
    listener_done: AtomicBool,
    /// Read-side threads that can still admit calls: every reader shard
    /// for the server's lifetime, plus each in-flight connection-setup
    /// thread (incremented by the Listener *before* the spawn, so `drain`
    /// never sees a gap).
    live_readers: AtomicUsize,
    /// Admitted calls whose responses have not yet been transmitted.
    /// Incremented by a reader shard before enqueueing a call (and for
    /// each standalone response it enqueues), decremented by a responder
    /// shard after the send attempt — so "no open work" really means no
    /// call or response is anywhere in the pipeline.
    open_work: AtomicUsize,
    metrics: MetricsRegistry,
    /// Present in RPCoIB mode; kept here so metrics snapshots can read
    /// the registered buffer pool's counters.
    ib: Option<IbContext>,
    retry_cache: RetryCache<RespRoute>,
    /// Source of server-assigned client ids for peers that present 0 at
    /// the handshake.
    next_client_id: AtomicU64,
    /// The reader→handler admission plane: the seed's bounded FIFO
    /// channel, now with per-tenant quotas, weighted-fair pop, and
    /// deadline shedding (all off by default — see [`crate::admission`]).
    admission: AdmissionQueue<RawCall>,
    /// Base of the admission plane's monotonic `now_ns` timeline.
    started: Instant,
    /// Registration channels into the reader shards, indexed by
    /// `conn_id % reader_shards`.
    reader_regs: Vec<Sender<ShardConn>>,
    /// The reader shards' wake lists, indexed like `reader_regs`. The
    /// accept path pushes [`TOKEN_REGISTER`] after a registration so a
    /// blocked shard adopts promptly; `drain`/`stop` close them so
    /// blocked pops exit without waiting out a timeout.
    reader_ready: Vec<Arc<ReadyQueue>>,
    /// Each reader shard's slot table, indexed like `reader_regs`.
    /// Shared (rather than thread-local as before PR 10) so an idle
    /// sibling can steal a ready token and service the connection under
    /// the owner's table lock — which is also what keeps per-connection
    /// frame order: whoever holds the lock is the only thread reading
    /// that shard's connections. With `reader_steal` off only the owner
    /// ever takes it, uncontended.
    reader_state: Vec<Mutex<ReaderState>>,
    /// Per reader-shard counters, indexed like `reader_regs`; a thief
    /// books the stolen connection's lifecycle (conn gauge) against its
    /// *owner* shard while counting the work on itself.
    reader_stats: Vec<Arc<ShardStats>>,
    /// The handler runtime the workers drive.
    sched: Sched,
    /// Protocols of the control/heartbeat admission class
    /// (`cfg.priority_protocols`); empty = single class.
    priority: HashSet<String>,
    /// Connection setups currently in flight (accepted, handshake or
    /// verbs bootstrap unfinished). Together with the conn table this
    /// bounds the accept path: at `accept_backlog` the Listener pauses
    /// accepting until a setup finishes; past `max_connections` it
    /// answers busy instead of spawning.
    setups_inflight: AtomicUsize,
    /// Responder shards, indexed by `conn_id % responder_shards`.
    responders: Vec<RespShard>,
    /// Live connections, keyed by accept order. Entries are removed by
    /// the owning reader shard when a connection is forfeited, so
    /// connection churn does not accumulate dead `Arc<dyn Conn>`s (and,
    /// in RPCoIB mode, their registered buffers) for the life of the
    /// server.
    conns: Mutex<HashMap<u64, Arc<dyn Conn>>>,
    next_conn_id: AtomicU64,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Connection-setup thread handles awaiting reaping. Finished ones
    /// are joined by the Listener on every accept-loop pass; the rest at
    /// `stop()`.
    setup_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServerInner {
    /// Monotonic nanoseconds since server start — the explicit clock the
    /// admission queue runs on. (The `qos` benchmark drives the same
    /// queue type with virtual time for deterministic shed decisions.)
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn assign_client_id(&self) -> u64 {
        // The counter is seeded randomly per server; skip an (unlikely)
        // wrap through 0, which the handshake reserves for "assign me".
        loop {
            let id = self.next_client_id.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    fn responder_for(&self, conn_id: u64) -> &RespShard {
        &self.responders[(conn_id % self.responders.len() as u64) as usize]
    }

    /// Enqueue a response without blocking (reader-side replay and busy
    /// paths). Dropping on a full queue is safe: the client retries, and
    /// for replays the cache still holds the bytes.
    fn try_enqueue_response(&self, route: RespRoute, bytes: Arc<Vec<u8>>) {
        self.open_work.fetch_add(1, Ordering::AcqRel);
        let shard = self.responder_for(route.conn_id);
        // Depth is bumped before the item is visible to the shard thread,
        // so the matching dequeue can never race ahead of it.
        shard.stats.enqueued();
        if shard
            .tx
            .try_send(OutboundResponse { route, bytes })
            .is_err()
        {
            shard.stats.dequeued();
            self.open_work.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Enqueue a response, blocking if the responder shard is behind
    /// (Handler side — a computed response must not be dropped).
    fn enqueue_response(&self, route: RespRoute, bytes: Arc<Vec<u8>>) {
        self.open_work.fetch_add(1, Ordering::AcqRel);
        let shard = self.responder_for(route.conn_id);
        shard.stats.enqueued();
        if shard.tx.send(OutboundResponse { route, bytes }).is_err() {
            shard.stats.dequeued();
            self.open_work.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Decrements a counter on drop, so read-side thread exits (normal,
/// panic, early return) all release their slot.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running RPC server.
pub struct Server {
    inner: Arc<ServerInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind and start a server on `(node, port)` of `fabric`, hosting the
    /// services in `registry`. Transport is chosen by `cfg.ib_enabled`.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        port: u16,
        cfg: RpcConfig,
        registry: ServiceRegistry,
    ) -> RpcResult<Server> {
        cfg.validate().map_err(RpcError::Config)?;
        let addr = SimAddr::new(node, port);
        let listener = SimListener::bind(fabric, addr)?;
        let ib = if cfg.ib_enabled {
            Some(IbContext::new(fabric, node, &cfg)?)
        } else {
            None
        };

        let n_readers = cfg.effective_reader_shards();
        let n_responders = cfg.effective_responder_shards();
        let admission =
            AdmissionQueue::new(cfg.call_queue_len, cfg.tenant_quota, &cfg.tenant_weights);
        let metrics = MetricsRegistry::new(false);
        let retry_cache = RetryCache::new(
            cfg.retry_cache_ttl,
            cfg.retry_cache_capacity,
            metrics.clone(),
        );

        let mut reader_regs = Vec::with_capacity(n_readers);
        let mut reader_rxs = Vec::with_capacity(n_readers);
        let mut reader_stats = Vec::with_capacity(n_readers);
        let mut reader_ready = Vec::with_capacity(n_readers);
        let mut reader_state = Vec::with_capacity(n_readers);
        for i in 0..n_readers {
            let (tx, rx) = unbounded();
            reader_regs.push(tx);
            reader_rxs.push(rx);
            let stats = metrics.register_shard(ShardRole::Reader, i);
            // The shard's wake list feeds its queue-depth gauge.
            reader_ready.push(Arc::new(ReadyQueue::new(Some(Arc::clone(&stats)))));
            reader_stats.push(stats);
            reader_state.push(Mutex::new(ReaderState::default()));
        }
        let worker_stats: Vec<_> = (0..cfg.handlers)
            .map(|i| metrics.register_shard(ShardRole::Worker, i))
            .collect();
        let sched = Sched::new(cfg.handlers, worker_stats);
        let mut responders = Vec::with_capacity(n_responders);
        for i in 0..n_responders {
            let (tx, rx) = bounded(cfg.call_queue_len);
            responders.push(RespShard {
                tx,
                rx,
                stats: metrics.register_shard(ShardRole::Responder, i),
            });
        }

        let id_seed = handshake::mint_client_id((u64::from(node.0) << 16) ^ u64::from(port));
        let priority: HashSet<String> = cfg.priority_protocols.iter().cloned().collect();
        let inner = Arc::new(ServerInner {
            cfg,
            registry,
            addr,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            listener_done: AtomicBool::new(false),
            live_readers: AtomicUsize::new(0),
            open_work: AtomicUsize::new(0),
            metrics,
            ib,
            retry_cache,
            next_client_id: AtomicU64::new(id_seed),
            admission,
            started: Instant::now(),
            reader_regs,
            reader_ready,
            reader_state,
            reader_stats: reader_stats.clone(),
            sched,
            priority,
            setups_inflight: AtomicUsize::new(0),
            responders,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            setup_threads: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();

        // Listener thread.
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-listener-{addr}"))
                    .spawn(move || listener_loop(inner, listener))
                    .expect("spawn listener"),
            );
        }
        // Reader shards (counted in live_readers for their whole life;
        // `drain` waits for them to observe the draining flag and exit).
        for (i, reg_rx) in reader_rxs.into_iter().enumerate() {
            inner.live_readers.fetch_add(1, Ordering::AcqRel);
            let ready = Arc::clone(&inner.reader_ready[i]);
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-reader-{i}"))
                    .spawn(move || {
                        let _slot = CountGuard(&inner.live_readers);
                        reader_shard_loop(&inner, i, reg_rx, ready);
                    })
                    .expect("spawn reader shard"),
            );
        }
        // Handler workers.
        for w in 0..inner.cfg.handlers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-handler-{w}"))
                    .spawn(move || worker_loop(inner, w))
                    .expect("spawn handler worker"),
            );
        }
        // Responder shards.
        for i in 0..n_responders {
            let inner2 = Arc::clone(&inner);
            let rx = inner.responders[i].rx.clone();
            let stats = Arc::clone(&inner.responders[i].stats);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-responder-{i}"))
                    .spawn(move || responder_loop(inner2, rx, stats))
                    .expect("spawn responder"),
            );
        }

        Ok(Server {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SimAddr {
        self.inner.addr
    }

    /// Server-side metrics (receive profiles feed the Figure 1 harness).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Full observability snapshot: engine counters, per-method stats,
    /// per-`<protocol, method>` phase histograms, per-shard pipeline
    /// counters, and (in RPCoIB mode) the registered buffer pool's
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self
            .inner
            .metrics
            .full_snapshot(self.inner.ib.as_ref().map(|ib| ib.pool_counters()));
        // Per-connection memory accounting, read live from the conn
        // table (per-shard ready-queue depth already rides in `shards`).
        let conns = self.inner.conns.lock();
        snap.connections = conns.len();
        snap.conn_buffered_bytes = conns.values().map(|c| c.buffered_bytes()).sum();
        snap
    }

    /// Number of connections currently alive (accepted and not yet torn
    /// down). Under churn this returns to zero once departed clients'
    /// reader shards notice the close.
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Number of connections accepted over this server's lifetime.
    pub fn lifetime_connection_count(&self) -> u64 {
        self.inner.accepted.load(Ordering::Relaxed)
    }

    /// Live entries in the at-most-once retry cache (for tests and
    /// observability).
    pub fn retry_cache_len(&self) -> usize {
        self.inner.retry_cache.len()
    }

    /// Graceful shutdown: stop accepting connections and reading new
    /// calls, let every already-admitted call execute and its response
    /// flush, then stop all threads. Returns `true` if the server fully
    /// quiesced within `timeout`; on `false` the deadline passed and the
    /// remaining work was cut off by an abrupt [`Server::stop`].
    pub fn drain(&self, timeout: Duration) -> bool {
        if self.inner.stop.load(Ordering::Acquire) {
            return true;
        }
        self.inner.draining.store(true, Ordering::Release);
        // Wake every reader shard blocked on its ready queue *now*: the
        // draining flag alone would only be observed after a pop timeout.
        for ready in &self.inner.reader_ready {
            ready.close();
        }
        let deadline = Instant::now() + timeout;

        // Phase 1: the Listener exits — no new setup threads after this.
        while !self.inner.listener_done.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        // Phase 2: the read side quiesces — every reader shard observes
        // the draining flag and exits, and in-flight connection setups
        // finish. No new calls enter the pipeline after this.
        while self.inner.live_readers.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        // Phase 3: the pipeline empties. `open_work` covers a call from
        // reader admission until its response transmission, so zero means
        // nothing is queued, executing, or awaiting send.
        while self.inner.open_work.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                self.shutdown(false);
                return false;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        self.stop();
        true
    }

    /// Stop all threads and close all connections. Idempotent.
    pub fn stop(&self) {
        self.shutdown(true);
    }

    /// `wait = false` is the expired-drain path: the threads may be stuck
    /// in a long handler dispatch, and a drain whose deadline has passed
    /// must return *now* — the joins happen on a detached reaper thread.
    fn shutdown(&self, wait: bool) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Refuse further admissions; anything still queued stays
        // poppable, but workers exit on the stop flag.
        self.inner.admission.close();
        // Wake the workers idling on the runtime.
        self.inner.sched.close();
        // And the reader shards blocked on their wake lists.
        for ready in &self.inner.reader_ready {
            ready.close();
        }
        // Clear every shard's slot table. The slots hold the *other*
        // `Arc<dyn Conn>` clones (the conn table below holds the first),
        // and stale-connection fast-fail depends on the server-side
        // transport state being released at stop — a `ReaderSlot`
        // surviving in `ServerInner` would keep an RPCoIB queue pair
        // registered and turn a restarted peer's fast reconnect into a
        // full call timeout. (Before PR 10 these were reader-thread
        // locals and died with the thread.)
        for state in &self.inner.reader_state {
            let mut state = state.lock();
            for slot in state.slots.iter().flatten() {
                slot.sc.conn.close();
            }
            state.slots.clear();
            state.gens.clear();
            state.free.clear();
        }
        {
            // Close *and drop* every connection. Releasing the `Arc`s here
            // (rather than when the `Server` value itself is dropped)
            // deregisters server-side transport state — RPCoIB queue pairs
            // in particular — so a client holding a stale connection sees
            // its next send fail fast and reconnects, instead of writing
            // into a zombie queue pair and timing out.
            let mut conns = self.inner.conns.lock();
            for conn in conns.values() {
                conn.close();
            }
            conns.clear();
        }
        let mut threads: Vec<_> = self.threads.lock().drain(..).collect();
        threads.extend(self.inner.setup_threads.lock().drain(..));
        if wait {
            for t in threads {
                let _ = t.join();
            }
        } else {
            std::thread::Builder::new()
                .name("rpc-stop-reaper".into())
                .spawn(move || {
                    for t in threads {
                        let _ = t.join();
                    }
                })
                .expect("spawn stop reaper");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.inner.addr)
            .field("protocols", &self.inner.registry.protocols())
            .finish()
    }
}

fn listener_loop(inner: Arc<ServerInner>, listener: SimListener) {
    while !inner.stop.load(Ordering::Acquire) && !inner.draining.load(Ordering::Acquire) {
        // Reap setup threads whose connections have finished (or failed)
        // bootstrap. Without this, a server that lives through N transient
        // clients holds N parked JoinHandles (and their stacks) forever.
        {
            let mut threads = inner.setup_threads.lock();
            if threads.iter().any(|t| t.is_finished()) {
                let mut live = Vec::with_capacity(threads.len());
                for t in threads.drain(..) {
                    if t.is_finished() {
                        let _ = t.join();
                    } else {
                        live.push(t);
                    }
                }
                *threads = live;
            }
        }
        // Backlog backpressure: with `accept_backlog` setups already in
        // flight, stop accepting until one finishes. Pending connects
        // queue in the listener (bounded latency, like a TCP SYN queue),
        // so a legitimate burst is absorbed rather than refused.
        if inner.setups_inflight.load(Ordering::Acquire) >= inner.cfg.accept_backlog {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        match listener.try_accept() {
            Ok(Some((stream, _peer))) => {
                // Hard admission cap, *before* any resource is
                // committed: past `max_connections` (live + in setup),
                // answer with the 9-byte busy ack (version byte 0) and
                // drop the stream. A modern client maps it to the
                // retryable `ServerBusy`; a legacy peer just sees its
                // connection die, which its reconnect logic already
                // handles.
                let setups = inner.setups_inflight.load(Ordering::Acquire);
                let over_cap = inner.cfg.max_connections != 0
                    && inner.conns.lock().len() + setups >= inner.cfg.max_connections;
                if over_cap {
                    inner.metrics.inc_accept_rejections();
                    use std::io::Write;
                    let _ = (&stream).write_all(&[0u8; 9]);
                    continue;
                }
                inner.accepted.fetch_add(1, Ordering::Relaxed);
                // The id decides the connection's reader and responder
                // shards; assigned here, in accept order, so shard
                // placement does not depend on setup-thread scheduling.
                let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
                // Counted before the spawn so `drain` can never observe
                // "listener done, read side quiesced" while a setup is in
                // flight; same for the backpressure gauge.
                inner.live_readers.fetch_add(1, Ordering::AcqRel);
                inner.setups_inflight.fetch_add(1, Ordering::AcqRel);
                let inner2 = Arc::clone(&inner);
                // Connection setup (handshake, and in RPCoIB mode the
                // blocking endpoint exchange) runs on its own transient
                // thread, keeping the accept loop responsive; the
                // finished connection is handed to its reader shard.
                let handle = std::thread::Builder::new()
                    .name("rpc-conn-setup".into())
                    .spawn(move || {
                        let _slot = CountGuard(&inner2.live_readers);
                        let _setup = CountGuard(&inner2.setups_inflight);
                        // Identity/version handshake first, on the raw
                        // stream. A peer that opens with anything but the
                        // magic is a pre-handshake (V1) peer: the sniffed
                        // bytes are pushed back and the connection runs
                        // the previous release's protocol — no identity,
                        // no retry caching, V1 frames answered in V1. A
                        // garbage peer takes the same path and is weeded
                        // out when its bytes fail to parse as a frame.
                        let (version, client_id) =
                            match handshake::server_accept(&stream, || inner2.assign_client_id()) {
                                Ok(handshake::ServerHello::Modern { version, client_id }) => {
                                    (version, client_id)
                                }
                                Ok(handshake::ServerHello::Legacy) => (1, 0),
                                Err(RpcError::Protocol(_)) => {
                                    // Spoke the magic but an unsupportable
                                    // version: refuse and count it.
                                    inner2.metrics.inc_frame_errors();
                                    return;
                                }
                                Err(_) => return, // peer vanished mid-handshake
                            };
                        let conn: Arc<dyn Conn> = match &inner2.ib {
                            Some(ctx) => {
                                match RdmaConn::bootstrap(&stream, ctx, &inner2.cfg) {
                                    Ok(c) => Arc::new(c.with_metrics(inner2.metrics.clone())),
                                    Err(RpcError::Protocol(_)) => {
                                        // A malformed or inconsistent RPIB
                                        // hello (magic, version, region
                                        // geometry): refuse and count it.
                                        inner2.metrics.inc_frame_errors();
                                        return;
                                    }
                                    Err(_) => return, // peer vanished mid-exchange
                                }
                            }
                            None => Arc::new(
                                SocketConn::new(stream, inner2.cfg.server_buffer_init)
                                    .with_metrics(inner2.metrics.clone()),
                            ),
                        };
                        inner2.conns.lock().insert(conn_id, Arc::clone(&conn));
                        let shard = (conn_id % inner2.reader_regs.len() as u64) as usize;
                        if inner2.reader_regs[shard]
                            .send(ShardConn {
                                conn_id,
                                conn,
                                version,
                                client_id,
                                dec: V3Decoder::new(!inner2.cfg.ib_enabled),
                            })
                            .is_ok()
                        {
                            // Nudge a shard blocked on its wake list to
                            // adopt the registration now.
                            inner2.reader_ready[shard].push(TOKEN_REGISTER);
                        }
                        // On send error the shard is gone (server
                        // stopping): the table entry is closed by
                        // `stop()`.
                    })
                    .expect("spawn conn setup");
                inner.setup_threads.lock().push(handle);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => break, // listener evicted (node killed)
        }
    }
    inner.listener_done.store(true, Ordering::Release);
}

/// What one bounded receive attempt on a ready connection produced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadOutcome {
    /// A frame was consumed (admitted, replayed, or rejected busy).
    Frame,
    /// Nothing usable within [`READ_SLICE`] (e.g. only a flow-control
    /// credit was pending); the connection stays assigned.
    Idle,
    /// The connection is forfeit (peer gone, corrupt frame): close it and
    /// free its table entry.
    Forfeit,
    /// The server is going away (call queue disconnected); the shard
    /// should exit.
    Shutdown,
}

/// A reader shard's slot for one assigned connection: the connection
/// itself plus its wake bookkeeping. Slots are recycled through a free
/// list; the matching entry in the shard's `gens` vector counts reuses so
/// stale wake tokens are detectable.
struct ReaderSlot {
    sc: ShardConn,
    wake: Arc<WakeState>,
}

/// One reader shard's connection table: slots, their reuse generations,
/// and the free list. Held in [`ServerInner::reader_state`] behind a
/// mutex so a stealing sibling can service this shard's connections; see
/// the field's docs for the locking discipline.
#[derive(Default)]
struct ReaderState {
    slots: Vec<Option<ReaderSlot>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

/// Adopt every connection waiting on the registration channel: assign a
/// slot, arm the transport's readiness hook, and deliver the no-lost-wake
/// guarantee (probe `poll_ready` once *after* arming, catching input that
/// arrived before the hook existed).
fn adopt_registrations(
    reg_rx: &Receiver<ShardConn>,
    ready: &Arc<ReadyQueue>,
    state: &mut ReaderState,
    stats: &ShardStats,
) {
    while let Ok(sc) = reg_rx.try_recv() {
        stats.conn_added();
        let idx = match state.free.pop() {
            Some(idx) => idx,
            None => {
                state.slots.push(None);
                state.gens.push(0);
                state.slots.len() - 1
            }
        };
        let wake = Arc::new(WakeState::new(
            token(idx, state.gens[idx]),
            Arc::clone(ready),
        ));
        let hook_state = Arc::clone(&wake);
        sc.conn.set_ready_hook(Arc::new(move || hook_state.wake()));
        let slot = ReaderSlot { sc, wake };
        if slot.sc.conn.poll_ready() {
            slot.wake.wake();
        }
        state.slots[idx] = Some(slot);
    }
}

/// Service one popped (or stolen) wake token against shard `owner`'s
/// connection table. The caller may be the owner or a stealing sibling;
/// the table lock is held for the whole burst, which is what serializes
/// reads per connection (and per shard) no matter who services it.
///
/// `actor_stats` books the work (frames processed, busy rejections) on
/// whichever shard actually did it; connection lifecycle (the conn
/// gauge) always lands on the *owner*, which adopted the connection.
fn service_token(
    inner: &Arc<ServerInner>,
    owner: usize,
    tok: u64,
    actor_stats: &ShardStats,
) -> ReadOutcome {
    let fair = inner.admission.fair();
    let mut state = inner.reader_state[owner].lock();
    let idx = token_slot(tok);
    if idx >= state.slots.len() || state.gens[idx] != token_gen(tok) || state.slots[idx].is_none() {
        // Stale token: its connection was torn down (and possibly the
        // slot recycled) after the token was queued. The generation
        // stamp makes it inert.
        return ReadOutcome::Idle;
    }
    let outcome = {
        let slot = state.slots[idx].as_mut().expect("checked above");
        // Clear the dedup flag *before* reading, so an edge firing
        // mid-burst re-enqueues instead of being lost.
        slot.wake.begin_poll();
        // Burst budget: QoS mode reads up to the tenant's weight per
        // wake (a light tenant's at least one); otherwise up to
        // `READ_BURST` frames, so a gathered V3 batch decodes in one
        // pop instead of one queue round-trip per frame. Per-connection
        // order holds either way — it is one connection drained
        // sequentially under the table lock.
        let budget = if fair {
            inner.admission.weight(slot.sc.client_id).max(1) as usize
        } else {
            READ_BURST
        };
        let mut outcome = ReadOutcome::Idle;
        for _ in 0..budget {
            if !slot.sc.conn.poll_ready() {
                break;
            }
            outcome = read_one(inner, &mut slot.sc, actor_stats);
            match outcome {
                ReadOutcome::Frame => {}
                ReadOutcome::Idle | ReadOutcome::Forfeit | ReadOutcome::Shutdown => break,
            }
        }
        outcome
    };
    match outcome {
        ReadOutcome::Forfeit => {
            let slot = state.slots[idx].take().expect("checked above");
            slot.sc.conn.close();
            inner.conns.lock().remove(&slot.sc.conn_id);
            inner.reader_stats[owner].conn_removed();
            // Reap the wake token: bump the generation first, so the
            // token the `close()` above just (re-)queued — and any
            // other stale one — can never index this slot's next
            // tenant.
            state.gens[idx] = state.gens[idx].wrapping_add(1);
            state.free.push(idx);
        }
        ReadOutcome::Shutdown => {}
        ReadOutcome::Frame | ReadOutcome::Idle => {
            // Level-trigger re-arm: if input remains (a burst larger
            // than the budget, a stashed verbs frame, sticky EOF),
            // requeue at the back of the wake list.
            let slot = state.slots[idx].as_ref().expect("checked above");
            if slot.sc.conn.poll_ready() {
                slot.wake.wake();
            }
        }
    }
    outcome
}

/// The event loop of one reader shard: block on the shard's wake list,
/// re-check readiness on every pop (wakes are hints — see
/// [`crate::readiness`]), receive a bounded burst of frames, and re-arm
/// connections that still have input. One chatty peer cannot starve the
/// shard: its burst is bounded and its re-armed token goes to the *back*
/// of the queue, giving round-robin service among ready connections while
/// idle ones cost nothing at all.
///
/// With `reader_steal` on, a shard that finds its own queue empty visits
/// its siblings' queues and steals the *newest* ready token from the
/// first non-empty one, servicing the stolen connection under its
/// owner's table lock — so a hot shard's backlog drains at the speed of
/// every idle shard, not just its own.
fn reader_shard_loop(
    inner: &Arc<ServerInner>,
    shard: usize,
    reg_rx: Receiver<ShardConn>,
    ready: Arc<ReadyQueue>,
) {
    let stats = Arc::clone(&inner.reader_stats[shard]);
    let steal = inner.cfg.reader_steal && inner.reader_ready.len() > 1;
    let pop_slice = if steal { STEAL_POLL } else { IDLE_SLICE };
    let mut last_sweep = Instant::now();
    while !inner.stop.load(Ordering::Acquire) && !inner.draining.load(Ordering::Acquire) {
        // Low-frequency liveness sweep: a peer that dies without closing
        // its stream (node failure) makes its conns readable without any
        // edge ever firing — the one readiness transition a wake hook
        // cannot deliver. Walk the slab once a second and `wake()` any
        // ready conn; the dedup flag makes this a no-op for conns whose
        // token is already queued, so steady-state traffic never pays
        // for it and a truly idle shard pays one charge-free probe per
        // conn per sweep (versus every `IDLE_SLICE` under the old
        // sweep-only reader).
        if last_sweep.elapsed() >= LIVENESS_SWEEP {
            last_sweep = Instant::now();
            let state = inner.reader_state[shard].lock();
            for slot in state.slots.iter().flatten() {
                if slot.sc.conn.poll_ready() {
                    slot.wake.wake();
                }
            }
        }
        // The timeout is only a belt-and-suspenders re-check of the stop
        // flags; `drain`/`stop` close the queue, which wakes this pop
        // immediately.
        let tok = match ready.pop(pop_slice) {
            Pop::Token(tok) => tok,
            Pop::TimedOut => {
                if steal {
                    // Own queue idle: take the newest token off the
                    // first hot sibling and service it in their stead.
                    let n = inner.reader_ready.len();
                    for off in 1..n {
                        let victim = (shard + off) % n;
                        if let Some(tok) = inner.reader_ready[victim].steal() {
                            stats.inc_steal();
                            if service_token(inner, victim, tok, &stats) == ReadOutcome::Shutdown {
                                return;
                            }
                            break;
                        }
                    }
                }
                continue;
            }
            Pop::Closed => break,
        };
        if tok == TOKEN_REGISTER {
            let mut state = inner.reader_state[shard].lock();
            adopt_registrations(&reg_rx, &ready, &mut state, &stats);
            continue;
        }
        if service_token(inner, shard, tok, &stats) == ReadOutcome::Shutdown {
            break;
        }
    }
    // On stop or drain the assigned connections stay open and in the
    // table — a draining server still owes them responses, and `stop()`
    // closes the whole table itself.
}

/// Receive and admit one frame from a ready connection. This is the body
/// the per-connection Reader thread used to run, minus the blocking idle
/// wait (the shard only calls it after `poll_ready`).
fn read_one(inner: &Arc<ServerInner>, sc: &mut ShardConn, stats: &ShardStats) -> ReadOutcome {
    let conn = &sc.conn;
    let (payload, recv) = match conn.recv_msg(READ_SLICE) {
        Ok(v) => v,
        Err(RpcError::Timeout) => return ReadOutcome::Idle,
        Err(RpcError::Protocol(_)) => {
            // Unframeable bytes (e.g. a garbage peer that passed the
            // legacy handshake sniff): count it like any corrupt frame
            // before forfeiting the connection.
            inner.metrics.inc_frame_errors();
            return ReadOutcome::Forfeit;
        }
        Err(_) => return ReadOutcome::Forfeit,
    };
    let mut reader = payload.reader();
    let parsed = if sc.version >= 3 {
        // The compact header: the negotiated version selects the codec,
        // no per-frame marker exists to mis-sniff.
        sc.dec.read_request_header(&mut reader, sc.client_id)
    } else {
        read_request_header(&mut reader)
    };
    let header = match parsed {
        Ok(h) => h,
        Err(_) => {
            // Corrupt frame: past this point the stream cannot be
            // re-synchronized, so the whole connection is forfeit.
            // Counted for observability.
            inner.metrics.inc_frame_errors();
            return ReadOutcome::Forfeit;
        }
    };
    stats.inc_processed();
    let body_offset = reader.position();
    inner.metrics.entry(header.key).record_recv(MetricsRecv {
        alloc_ns: recv.alloc_ns,
        total_ns: recv.total_ns,
        size: recv.size,
    });
    // At-most-once admission. V1 peers (no client identity) skip the
    // cache but still get the non-blocking queue admission below. The
    // cache stores *neutral* bodies; each route's lead is composed by its
    // own connection's responder shard.
    let cache_key: Option<CallKey> = if header.version != FrameVersion::V1 && header.client_id != 0
    {
        Some((header.client_id, header.seq))
    } else {
        None
    };
    if let Some(key) = cache_key {
        match inner.retry_cache.begin(key, || RespRoute {
            conn_id: sc.conn_id,
            conn: Arc::clone(conn),
            key: header.key,
            version: header.version,
            client_id: header.client_id,
            seq: header.seq,
        }) {
            Admission::Execute => {}
            Admission::Parked => return ReadOutcome::Frame,
            Admission::Replay(bytes) => {
                // Completed earlier: answer from the cache, never
                // touching a handler.
                let route = RespRoute {
                    conn_id: sc.conn_id,
                    conn: Arc::clone(conn),
                    key: header.key,
                    version: header.version,
                    client_id: header.client_id,
                    seq: header.seq,
                };
                inner.try_enqueue_response(route, bytes);
                return ReadOutcome::Frame;
            }
        }
    }
    let route = RespRoute {
        conn_id: sc.conn_id,
        conn: Arc::clone(conn),
        key: header.key,
        version: header.version,
        client_id: header.client_id,
        seq: header.seq,
    };
    let call = RawCall {
        conn_id: sc.conn_id,
        conn: Arc::clone(conn),
        header,
        payload,
        body_offset,
        admitted_at: Instant::now(),
    };
    // The shedding deadline in the server's own clock. Only V3 peers
    // carry a budget.
    let expires_at_ns = header
        .deadline_budget
        .map(|budget| inner.now_ns().saturating_add(budget.as_nanos() as u64));
    // Protocol-priority class: calls to a listed control protocol jump
    // their tenant's bulk backlog inside the admission queue. The
    // default empty set marks everything Bulk — ordering identical to
    // the classless queue.
    let class = if !inner.priority.is_empty() && inner.priority.contains(header.protocol()) {
        CallClass::Control
    } else {
        CallClass::Bulk
    };
    let meta = CallMeta {
        tenant: header.client_id,
        expires_at_ns,
        class,
    };
    inner.open_work.fetch_add(1, Ordering::AcqRel);
    match inner.admission.try_push(meta, call) {
        Ok(()) => inner.sched.notify(),
        Err((AdmitError::QueueFull | AdmitError::TenantOverQuota, _call)) => {
            // Overload (shared queue full, or this tenant over its
            // quota): reject instead of blocking the shard (which would
            // stall every connection assigned to it). The call never
            // executed, so the rejection is retryable.
            inner.open_work.fetch_sub(1, Ordering::AcqRel);
            inner.metrics.inc_busy_rejections_for(header.client_id);
            stats.inc_busy();
            let mut routes = vec![route];
            if let Some(key) = cache_key {
                // Duplicates that parked in the begin/try_push window
                // (another connection of the same client) get the same
                // busy answer; the entry is gone so a retry can execute.
                routes.extend(inner.retry_cache.abort(key));
            }
            for r in routes {
                // Per route, not shared: a V1 route needs the error-string
                // body where modern routes get the bare busy status.
                let bytes = Arc::new(busy_body(r.version));
                inner.try_enqueue_response(r, bytes);
            }
        }
        Err((AdmitError::Closed, _call)) => {
            inner.open_work.fetch_sub(1, Ordering::AcqRel);
            if let Some(key) = cache_key {
                inner.retry_cache.abort(key);
            }
            return ReadOutcome::Shutdown; // the server is going away
        }
    }
    ReadOutcome::Frame
}

/// One handler worker's loop: fire due timers, pop the next call from the
/// admission queue (DRR order) and poll it in place, then run one queued
/// task — own queue first, then the injector, then stealing. Running
/// both steps per pass means neither a stream of new arrivals nor a
/// yield-spinning task can starve the other; the in-flight cap
/// (`cfg.max_inflight_calls`) pauses admission — backpressure into the
/// bounded queue, not rejection — while parked tasks pile up.
fn worker_loop(inner: Arc<ServerInner>, worker: usize) {
    let sched = &inner.sched;
    let cap = inner.cfg.max_inflight_calls;
    loop {
        let now = inner.now_ns();
        // No live task means nothing is queued, parked or timed: the
        // worker of a call that never suspends skips the timer heap and
        // the run-queue scan. A task spawned after this read notifies,
        // and the notify sticks until this worker's next idle wait.
        let tasks = sched.inflight() > 0;
        if tasks {
            sched.fire_timers(now);
        }
        let mut popped_any = false;
        if cap == 0 || sched.inflight() < cap {
            let popped = inner.admission.try_pop(now);
            popped_any = !popped.is_empty();
            // Expired heads are answered without execution — that is the
            // whole point of deadline propagation: the client already
            // gave up on these, so running them is pure wasted work.
            for (meta, call) in popped.shed {
                shed_call(&inner, meta, call);
            }
            if let Some((meta, call)) = popped.run {
                run_call(&inner, worker, meta, call, now);
            }
        }
        let next = if tasks { sched.next_task(worker) } else { None };
        if let Some(task) = next {
            sched.run(worker, task, inner.now_ns());
            continue;
        }
        if popped_any {
            continue;
        }
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        // Nothing runnable and nothing admitted: sleep until the next
        // timer deadline (a parked `park_until` must not oversleep), a
        // notify (new call, external wake), or the idle slice.
        let timeout = match sched.next_timer_ns() {
            Some(at) => {
                Duration::from_nanos(at.saturating_sub(inner.now_ns()).max(1)).min(IDLE_SLICE)
            }
            None => IDLE_SLICE,
        };
        sched.idle_wait(timeout);
    }
}

/// Give one admitted call its first poll on `worker`, as a task of the
/// runtime. The task's frame *is* this closure's captures — the
/// `RawCall`, the service's stash, and the accumulated handler time — a
/// few hundred bytes on the heap; it only outlives this call if the
/// service suspends.
fn run_call(inner: &Arc<ServerInner>, worker: usize, meta: CallMeta, call: RawCall, now_ns: u64) {
    let task_inner = Arc::clone(inner);
    let mut call = Some(call);
    let mut stash: Option<Box<dyn std::any::Any + Send>> = None;
    // Handler-phase time is the sum of this task's *running* slices;
    // parked time is charged to nobody — that is the point.
    let mut handler_ns: u64 = 0;
    let task = move |cx: &mut TaskCx| {
        let inner = &task_inner;
        let c = call.as_mut().expect("task polled after completion");
        let entry = inner.metrics.entry(c.header.key);
        if cx.polls() == 0 {
            entry.record_phase(
                Phase::ServerQueue,
                c.admitted_at.elapsed().as_nanos() as u64,
            );
        }
        let poll_start = Instant::now();
        let mut reader = c.payload.reader();
        reader.skip(c.body_offset);
        let mut hcx = HandlerCx::new(cx, &mut stash);
        let dispatched = inner.registry.dispatch(
            c.header.protocol(),
            c.header.method(),
            &mut reader,
            &mut hcx,
        );
        let request = hcx.request();
        let result: RpcResult<Box<dyn Writable + Send>> = match dispatched {
            Ok(CallPoll::Pending) => {
                handler_ns += poll_start.elapsed().as_nanos() as u64;
                return match request {
                    ParkRequest::Yield => Step::Yield,
                    ParkRequest::Handle => Step::Park,
                    ParkRequest::Until(at_ns) => {
                        cx.park_until_ns(at_ns);
                        Step::Park
                    }
                };
            }
            Ok(CallPoll::Ready(Ok(value))) => Ok(value),
            Ok(CallPoll::Ready(Err(msg))) => Err(RpcError::Remote(msg)),
            Err(e) => Err(e),
        };
        // Serialize once, on the worker; the responder shard (and any
        // parked duplicate) just transmits bytes.
        let error_text;
        let result_ref: Result<&dyn Writable, &str> = match &result {
            Ok(value) => Ok(value.as_ref()),
            Err(e) => {
                // Application errors travel as their bare message;
                // engine errors keep their category prefix.
                error_text = match e {
                    RpcError::Remote(m) => m.clone(),
                    other => other.to_string(),
                };
                Err(&error_text)
            }
        };
        // The body is serialized *version-neutral* (`[status][value]`):
        // the responder shard prepends each route's own lead, so a
        // replay or parked duplicate arriving in a different frame
        // version still shares these bytes.
        let mut body = Vec::new();
        write_response_body(&mut body, result_ref).expect("serializing to Vec cannot fail");
        handler_ns += poll_start.elapsed().as_nanos() as u64;
        entry.record_phase(Phase::Handler, handler_ns);
        respond(inner, call.take().expect("taken once"), Arc::new(body));
        inner.admission.release(meta.tenant);
        Step::Done
    };
    inner.sched.run_now(worker, task, now_ns);
}

/// Answer a deadline-expired call with `STATUS_EXPIRED` without executing
/// it. The retry cache is *completed* (not aborted) with the expired body,
/// so any duplicate attempt — parked or future — replays the same verdict
/// instead of re-executing a call the client already gave up on. The
/// queue already returned the tenant's quota slot when it shed the call.
fn shed_call(inner: &Arc<ServerInner>, meta: CallMeta, call: RawCall) {
    inner.metrics.inc_deadline_sheds_for(meta.tenant);
    let bytes = Arc::new(expired_body(call.header.version));
    respond(inner, call, bytes);
}

/// The completion tail of every popped call, executed or shed: complete
/// the retry cache with `bytes`, enqueue them for the caller's route and
/// every parked duplicate, and transfer the call's `open_work` slot to
/// those responses.
fn respond(inner: &ServerInner, call: RawCall, bytes: Arc<Vec<u8>>) {
    let header = &call.header;
    let mut routes = vec![RespRoute {
        conn_id: call.conn_id,
        conn: call.conn,
        key: header.key,
        version: header.version,
        client_id: header.client_id,
        seq: header.seq,
    }];
    if header.version != FrameVersion::V1 && header.client_id != 0 {
        let key = (header.client_id, header.seq);
        routes.extend(inner.retry_cache.complete(key, Arc::clone(&bytes)));
    }
    for route in routes {
        inner.enqueue_response(route, Arc::clone(&bytes));
    }
    // Released only now, so `drain` never sees a gap between "popped"
    // and "response queued".
    inner.open_work.fetch_sub(1, Ordering::AcqRel);
}

/// Most responses one responder sweep drains before sending. Bounds the
/// latency a response can pick up behind its batch; one sweep's worth of
/// frames per connection goes out as a single gathered wire operation.
const RESPONDER_SWEEP: usize = 64;

/// Responses one weight unit buys a tenant per responder sweep (QoS mode
/// only). A flooder past `weight × quantum` has its excess carried to the
/// next sweep so light tenants' responses are not queued behind it.
const RESPONDER_FAIR_QUANTUM: u32 = 8;

fn responder_loop(inner: Arc<ServerInner>, rx: Receiver<OutboundResponse>, stats: Arc<ShardStats>) {
    // Per-connection V3 response-lead encoders. They live here — all of a
    // connection's responses flow through its one responder shard in
    // enqueue order, which is exactly the wire order the client's decoder
    // replays. Socket connections are stateful (reliable stream); verbs
    // connections run the self-contained encoding.
    let mut encs: HashMap<u64, V3Encoder> = HashMap::new();
    let stateful = !inner.cfg.ib_enabled;
    let fair = inner.admission.fair();
    let mut batch: Vec<OutboundResponse> = Vec::new();
    // Responses deferred by the fair partition below, in pop order; the
    // next sweep leads with them so nothing is reordered within a tenant.
    let mut carry: Vec<OutboundResponse> = Vec::new();
    let mut sweep_used: HashMap<u64, u32> = HashMap::new();
    loop {
        if carry.is_empty() {
            match rx.recv_timeout(IDLE_SLICE) {
                Ok(out) => {
                    stats.dequeued();
                    batch.push(out);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if inner.stop.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        } else {
            std::mem::swap(&mut batch, &mut carry);
        }
        // Opportunistic drain: everything already queued behind the
        // blocking pop rides in this sweep (up to the cap).
        while batch.len() < RESPONDER_SWEEP {
            match rx.try_recv() {
                Ok(more) => {
                    stats.dequeued();
                    batch.push(more);
                }
                Err(_) => break,
            }
        }
        // Weighted-fair partition (QoS mode only): each tenant sends up
        // to weight × quantum responses this sweep; the excess is carried
        // — still in order — so a flooder's burst cannot head-of-line
        // block light tenants' responses through the shared shard.
        let send = if fair {
            sweep_used.clear();
            let mut send = Vec::new();
            for out in batch.drain(..) {
                let tenant = out.route.client_id;
                let budget = inner
                    .admission
                    .weight(tenant)
                    .saturating_mul(RESPONDER_FAIR_QUANTUM);
                let used = sweep_used.entry(tenant).or_insert(0);
                if *used >= budget {
                    carry.push(out);
                } else {
                    *used += 1;
                    send.push(out);
                }
            }
            send
        } else {
            std::mem::take(&mut batch)
        };
        {
            // Group by connection, preserving pop order within and
            // across groups (pop order == enqueue order == the order
            // per-connection state was advanced in).
            let mut groups: Vec<(u64, Vec<OutboundResponse>)> = Vec::new();
            let mut index: HashMap<u64, usize> = HashMap::new();
            for out in send {
                match index.get(&out.route.conn_id) {
                    Some(&i) => groups[i].1.push(out),
                    None => {
                        index.insert(out.route.conn_id, groups.len());
                        groups.push((out.route.conn_id, vec![out]));
                    }
                }
            }
            for (conn_id, group) in groups {
                let conn = Arc::clone(&group[0].route.conn);
                // The response's buffer-size history is keyed
                // separately from the request's; one key per batch is
                // enough — the gathered frames share a wire op anyway.
                let resp_key = group[0].route.key.response_key();
                let n = group.len();
                let mut frames: Vec<Vec<u8>> = Vec::with_capacity(n);
                for out in &group {
                    let mut frame = Vec::with_capacity(out.bytes.len() + 16);
                    let lead = match out.route.version {
                        FrameVersion::V3 => encs
                            .entry(conn_id)
                            .or_insert_with(|| V3Encoder::new(stateful))
                            .write_response_lead(&mut frame, out.route.seq),
                        v => write_response_lead(&mut frame, v, out.route.seq),
                    };
                    if lead.is_err() {
                        // Unrepresentable lead (a V1 seq outside i32):
                        // drop this one response, keep the connection.
                        inner.metrics.inc_frame_errors();
                        continue;
                    }
                    frame.extend_from_slice(&out.bytes);
                    frames.push(frame);
                }
                // A failed send only affects that one connection — but
                // it does mean the connection is broken: close it so
                // its reader shard stops pulling requests whose
                // responses could never be delivered, and count it.
                let send_result = if frames.is_empty() {
                    Ok(())
                } else {
                    conn.send_frames(resp_key, frames)
                };
                if send_result.is_err() {
                    inner.metrics.inc_broken_sends();
                    conn.close();
                    encs.remove(&conn_id);
                }
                for _ in 0..n {
                    stats.inc_processed();
                    inner.open_work.fetch_sub(1, Ordering::AcqRel);
                }
            }
            // Bound the encoder map under connection churn: dead
            // connections never announce themselves to this shard, so
            // prune against the live table once the map gets large.
            if encs.len() >= 1024 {
                let live = inner.conns.lock();
                encs.retain(|id, _| live.contains_key(id));
            }
        }
    }
}
