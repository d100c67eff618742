//! The version-negotiation matrix, over the wire: on both transports a
//! hello offering a version below V3 is refused and counted, while a
//! client lands on V3 and completes real calls under it — and a
//! pre-handshake (V1) peer, interleaved with or arriving *mid-stream*
//! beside modern connections, must be served without perturbing them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpcoib::{Client, RpcConfig, RpcService, Server, ServiceRegistry};
use simnet::{model, Fabric};
use wire::{DataInput, LongWritable, Writable};

struct CountingEcho {
    calls: Arc<AtomicU64>,
}

impl RpcService for CountingEcho {
    fn protocol(&self) -> &'static str {
        "nego.Echo"
    }
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String> {
        match method {
            "echo" => {
                self.calls.fetch_add(1, Ordering::AcqRel);
                let mut v = LongWritable::default();
                v.read_fields(param).map_err(|e| e.to_string())?;
                Ok(Box::new(v))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

fn start(fabric: &Fabric, cfg: &RpcConfig) -> (Server, Arc<AtomicU64>) {
    let calls = Arc::new(AtomicU64::new(0));
    let mut registry = ServiceRegistry::new();
    registry.register(Arc::new(CountingEcho {
        calls: Arc::clone(&calls),
    }));
    let server = Server::start(fabric, fabric.add_node(), 8020, cfg.clone(), registry).unwrap();
    (server, calls)
}

fn echo(client: &Client, server: &Server, v: i64) -> i64 {
    client
        .call::<_, LongWritable>(server.addr(), "nego.Echo", "echo", &LongWritable(v))
        .unwrap()
        .0
}

/// One V1 request from a raw, pre-handshake peer: write the
/// length-prefixed frame, read the length-prefixed V1 answer, and return
/// the echoed value after checking the header.
fn v1_echo(stream: &simnet::SimStream, call_id: i32, v: i64) -> i64 {
    use rpcoib::frame::{self, FrameVersion, ResponseStatus};
    use std::io::Write;

    let mut body: Vec<u8> = Vec::new();
    frame::write_request_v1(&mut body, call_id, "nego.Echo", "echo", &LongWritable(v)).unwrap();
    let mut framed = (body.len() as i32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body);
    (&*stream).write_all(&framed).unwrap();
    let mut len = [0u8; 4];
    stream.read_exact_at(&mut len).unwrap();
    let mut resp = vec![0u8; i32::from_be_bytes(len) as usize];
    stream.read_exact_at(&mut resp).unwrap();
    let mut input = resp.as_slice();
    let header = frame::read_response_header(&mut input).unwrap();
    assert_eq!(header.version, FrameVersion::V1);
    assert_eq!(
        header.seq,
        i64::from(call_id),
        "V1 response echoes the call id"
    );
    assert_eq!(header.status, ResponseStatus::Ok);
    let mut value = LongWritable::default();
    value.read_fields(&mut input).unwrap();
    value.0
}

/// Both transports: a hello offering version 2 is refused — no ack,
/// connection dropped — and counted in `frame_errors`; a client then
/// negotiates V3 and calls round-trip under it.
#[test]
fn version_matrix_negotiates_and_serves() {
    use rpcoib::handshake::MAGIC;
    use std::io::Write;

    for ib in [false, true] {
        let fabric = Fabric::new(if ib {
            model::IB_QDR_VERBS
        } else {
            model::IPOIB_QDR
        });
        let base = if ib {
            RpcConfig::rpcoib()
        } else {
            RpcConfig::socket()
        };
        let (server, calls) = start(&fabric, &base);

        let v2 = simnet::SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
        let mut hello = [0u8; 13];
        hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hello[4] = 2;
        hello[5..].copy_from_slice(&0xfeedu64.to_be_bytes());
        (&v2).write_all(&hello).unwrap();
        let mut ack = [0u8; 9];
        assert!(
            v2.read_exact_at(&mut ack).is_err(),
            "ib={ib}: a V2 hello must get no ack"
        );
        assert_eq!(
            server.metrics().counters().frame_errors,
            1,
            "ib={ib}: the refused hello is counted"
        );

        let client = Client::new(&fabric, fabric.add_node(), base.clone()).unwrap();
        for i in 0..8 {
            assert_eq!(echo(&client, &server, i), i, "ib={ib}");
        }
        assert_eq!(client.negotiated_version(server.addr()), Some(3), "ib={ib}");
        client.shutdown();
        assert_eq!(calls.load(Ordering::Acquire), 8);
        server.stop();
    }
}

/// A raw V1 peer and a V3 client of the *same* server, interleaved: each
/// connection frames in its own version and neither corrupts the other's
/// state (the server keeps per-connection codecs).
#[test]
fn mixed_version_clients_interleave() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let base = RpcConfig::socket();
    let (server, calls) = start(&fabric, &base);

    let v3 = Client::new(&fabric, fabric.add_node(), base.clone()).unwrap();
    let v1 = simnet::SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();

    for i in 0..20 {
        if i % 2 == 0 {
            assert_eq!(echo(&v3, &server, i), i);
            assert_eq!(v1_echo(&v1, i as i32, 100 + i), 100 + i);
        } else {
            assert_eq!(v1_echo(&v1, i as i32, 100 + i), 100 + i);
            assert_eq!(echo(&v3, &server, i), i);
        }
    }
    assert_eq!(v3.negotiated_version(server.addr()), Some(3));
    assert_eq!(calls.load(Ordering::Acquire), 40);
    assert_eq!(server.metrics().counters().frame_errors, 0);
    v3.shutdown();
    drop(v1);
    server.stop();
}

/// A pre-handshake V1 peer speaking raw length-prefixed frames shows up
/// while a V3 client is mid-conversation. The legacy exchange completes
/// in V1 framing, and the V3 connection — whose compact header carries
/// delta/table state across frames — continues unperturbed afterwards.
#[test]
fn legacy_peer_mid_stream_leaves_v3_connections_intact() {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let base = RpcConfig::socket();
    let (server, _calls) = start(&fabric, &base);

    let v3 = Client::new(&fabric, fabric.add_node(), base.clone()).unwrap();
    for i in 0..5 {
        assert_eq!(echo(&v3, &server, i), i);
    }
    assert_eq!(v3.negotiated_version(server.addr()), Some(3));

    // Mid-stream: the legacy peer, straight to V1 frames.
    let stream = simnet::SimStream::connect(&fabric, fabric.add_node(), server.addr()).unwrap();
    assert_eq!(v1_echo(&stream, 42, 7), 7);

    // The V3 connection's stateful codec picks up exactly where it was.
    for i in 5..10 {
        assert_eq!(echo(&v3, &server, i), i);
    }
    assert_eq!(
        server.metrics_snapshot().counters.frame_errors,
        0,
        "no connection saw a codec inconsistency"
    );
    drop(stream);
    v3.shutdown();
    server.drain(Duration::from_secs(5));
}
