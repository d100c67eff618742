//! Steady-state allocation regression harness (tier 2: run with
//! `cargo test --release --test alloc_regression -- --ignored`).
//!
//! A counting global allocator tallies heap allocations made by the
//! *caller thread* while a flag is set; allocations inside
//! `simnet::hw_scope` — staging copies that model NIC/DMA work, not
//! host-side malloc traffic — are excluded, as are all frees. After a
//! warmup phase fills the buffer pools, the call-slot freelist, and the
//! pending-table shard capacity, the RPCoIB (verbs) hot path must make
//! **zero** allocations per call, and the sockets baseline must stay
//! under its small historical bound — and above zero, which proves the
//! counter actually sees the allocations it is meant to catch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric};
use wire::{DataInput, IntWritable, Writable};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`, not `with`: the allocator runs during TLS setup and
    // teardown, where touching a destroyed key would abort.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() && !simnet::in_hw_scope() {
            let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled on this thread; returns the
/// number of counted allocations alongside `f`'s result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    let result = f();
    COUNTING.with(|counting| counting.set(false));
    (ALLOCS.with(|allocs| allocs.get()), result)
}

struct EchoService;

impl RpcService for EchoService {
    fn protocol(&self) -> &'static str {
        "test.AllocProtocol"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        let mut value = IntWritable::default();
        value.read_fields(param).map_err(|e| e.to_string())?;
        match method {
            "echo" => Ok(Box::new(value)),
            other => Err(format!("no such method {other}")),
        }
    }
}

const WARMUP_CALLS: usize = 50;
const MEASURED_CALLS: u64 = 20;

/// Boots a server + client pair, warms the pools, then measures the
/// caller-thread allocation count across `MEASURED_CALLS` echo calls.
fn measure_per_call(fabric: &Fabric, cfg: RpcConfig) -> u64 {
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(EchoService));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    let client = Client::new(fabric, fabric.add_node(), cfg).unwrap();
    let addr = server.addr();
    let echo = |i: i32| -> IntWritable {
        client
            .call(addr, "test.AllocProtocol", "echo", &IntWritable(i))
            .unwrap()
    };
    for i in 0..WARMUP_CALLS {
        assert_eq!(echo(i as i32).0, i as i32);
    }
    let (allocs, ()) = counted(|| {
        for i in 0..MEASURED_CALLS {
            assert_eq!(echo(i as i32).0, i as i32);
        }
    });
    client.shutdown();
    server.stop();
    allocs / MEASURED_CALLS
}

/// The tentpole claim: the steady-state RPCoIB call path is
/// allocation-free on the caller thread. Interned method keys, pooled
/// call slots, cached metrics entries, pooled registered buffers, and
/// the vectored send leave nothing to malloc per call.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn rdma_steady_state_call_is_allocation_free() {
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let per_call = measure_per_call(&fabric, RpcConfig::rpcoib());
    assert_eq!(
        per_call, 0,
        "verbs steady-state call must not allocate (got {per_call}/call)"
    );
}

/// The bulk-plane claim: once pools, registration cache, and the gather
/// serializer's scratch are warm, a *large* call's send path is also
/// allocation-free on the caller thread — and registers no new memory.
/// The frame is serialized into pooled registered segments (no staging
/// buffer, no jumbo allocation) and RDMA-written straight out of them.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn rdma_steady_state_large_call_is_allocation_and_registration_free() {
    use rpcoib::intern::method_key;
    use rpcoib::transport::rdma::RdmaConn;
    use rpcoib::transport::Conn;
    use rpcoib::{IbContext, RpcError};
    use simnet::{SimAddr, SimListener, SimStream};
    use std::time::Duration;

    const WARMUP: usize = 12;

    let cfg = RpcConfig::rpcoib();
    let fabric = Fabric::new(model::IB_QDR_VERBS);
    let server_node = fabric.add_node();
    let client_node = fabric.add_node();
    let cli_ctx = IbContext::new(&fabric, client_node, &cfg).unwrap();
    let srv_ctx = IbContext::new(&fabric, server_node, &cfg).unwrap();
    let addr = SimAddr::new(server_node, 8700);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let h = std::thread::spawn(move || {
        let stream = SimStream::connect(&f2, client_node, addr).unwrap();
        RdmaConn::bootstrap(&stream, &cli_ctx, &cfg2).unwrap()
    });
    let (srv_stream, _) = listener.accept().unwrap();
    let srv = Arc::new(RdmaConn::bootstrap(&srv_stream, &srv_ctx, &cfg).unwrap());
    let cli = Arc::new(h.join().unwrap());

    // Credits return through the client's receive path.
    let cli2 = Arc::clone(&cli);
    let progress = std::thread::spawn(move || loop {
        match cli2.recv_msg(Duration::from_millis(100)) {
            Err(RpcError::Timeout) => continue,
            _ => return,
        }
    });
    let srv2 = Arc::clone(&srv);
    let drain = std::thread::spawn(move || {
        for _ in 0..WARMUP + MEASURED_CALLS as usize {
            srv2.recv_msg(Duration::from_secs(30)).unwrap();
        }
    });

    let key = method_key("test.AllocProtocol", "bulk");
    let body = vec![7u8; 200_000]; // well past rdma_threshold
    for _ in 0..WARMUP {
        cli.send_msg(key, &mut |out| out.write_bytes(&body))
            .unwrap();
    }
    let (_, _, _, regs_before) = fabric.stats().snapshot();
    let (allocs, ()) = counted(|| {
        for _ in 0..MEASURED_CALLS {
            cli.send_msg(key, &mut |out| out.write_bytes(&body))
                .unwrap();
        }
    });
    drain.join().unwrap();
    let (_, _, _, regs_after) = fabric.stats().snapshot();
    cli.close();
    progress.join().unwrap();

    assert_eq!(
        allocs / MEASURED_CALLS,
        0,
        "steady-state large call must not allocate (got {allocs} across {MEASURED_CALLS})"
    );
    assert_eq!(
        regs_after - regs_before,
        0,
        "steady-state large calls must not register new memory"
    );
}

/// The sockets baseline keeps its per-send staging buffer (a deliberate
/// pathology of the IPoIB path the paper measures against), but must
/// stay within a small fixed bound per call.
#[test]
#[ignore = "tier-2: allocator-sensitive, run with --ignored"]
fn socket_steady_state_call_allocates_within_bound() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let per_call = measure_per_call(&fabric, RpcConfig::socket());
    assert!(
        per_call > 0,
        "socket baseline is expected to allocate its staging buffer"
    );
    assert!(
        per_call <= 8,
        "socket steady-state call regressed past its bound (got {per_call}/call)"
    );
}
