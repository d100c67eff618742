//! Property tests for the connect-time magic sniff: whatever bytes a
//! peer opens with, `server_accept` must classify them exactly — modern
//! handshake (with the version negotiated down to our maximum), legacy
//! (pre-handshake) peer, unsupported version, or a vanished peer —
//! without ever panicking, and a legacy peer's sniffed bytes must be
//! replayed onto the stream byte-for-byte so the old framing path sees
//! the connection exactly as the previous release did.

use std::io::Write;
use std::thread;

use proptest::prelude::*;
use rpcoib::handshake::{server_accept, ServerHello, MAGIC};
use rpcoib::RpcError;
use simnet::{model, Fabric, SimAddr, SimListener, SimStream};

fn stream_pair() -> (SimStream, SimStream) {
    let fabric = Fabric::new(model::IPOIB_QDR);
    let server = fabric.add_node();
    let client = fabric.add_node();
    let addr = SimAddr::new(server, 9100);
    let listener = SimListener::bind(&fabric, addr).unwrap();
    let f2 = fabric.clone();
    let h = thread::spawn(move || SimStream::connect(&f2, client, addr).unwrap());
    let (srv, _) = listener.accept().unwrap();
    (h.join().unwrap(), srv)
}

const ASSIGNED: u64 = 0xA551;

/// The specification of the sniff, written independently of the
/// implementation: what `server_accept` must return for a peer whose
/// entire output is `data` followed by EOF.
enum Expect {
    /// Peer vanished mid-handshake (too few bytes).
    Io,
    /// First four bytes are not the magic: pre-handshake peer.
    Legacy,
    /// Magic with a version byte below V3.
    BadVersion,
    /// Well-formed hello; the connection speaks this negotiated version
    /// under this id.
    Modern(u8, u64),
}

fn oracle(data: &[u8]) -> Expect {
    if data.len() < 4 {
        return Expect::Io;
    }
    if u32::from_be_bytes(data[..4].try_into().unwrap()) != MAGIC {
        return Expect::Legacy;
    }
    if data.len() < 13 {
        return Expect::Io;
    }
    // V3 is the only version the handshake negotiates: lower offers are
    // refused, higher ones are capped.
    if data[4] < 3 {
        return Expect::BadVersion;
    }
    let presented = u64::from_be_bytes(data[5..13].try_into().unwrap());
    Expect::Modern(3, if presented == 0 { ASSIGNED } else { presented })
}

/// Run `server_accept` against a peer that writes `data` and then shuts
/// down its write half, and check the outcome against the oracle. For
/// legacy peers, also drain the stream and prove the sniffed bytes were
/// replayed in order, in front of everything else the peer sent.
fn check(data: &[u8]) {
    let (cli, srv) = stream_pair();
    (&cli).write_all(data).unwrap();
    cli.shutdown_write();

    let out = server_accept(&srv, || ASSIGNED);
    match oracle(data) {
        Expect::Io => prop_assert!(
            matches!(out, Err(RpcError::Io(_))),
            "{} bytes must read as a vanished peer, got {out:?}",
            data.len()
        ),
        Expect::BadVersion => prop_assert!(
            matches!(out, Err(RpcError::Protocol(_))),
            "version {} must be rejected, got {out:?}",
            data[4]
        ),
        Expect::Modern(version, id) => {
            prop_assert_eq!(
                out.unwrap(),
                ServerHello::Modern {
                    version,
                    client_id: id
                },
                "hello bytes {:?}",
                data
            );
            // The ack must confirm the negotiated version and identity.
            let mut ack = [0u8; 9];
            cli.read_exact_at(&mut ack).unwrap();
            prop_assert_eq!(ack[0], version);
            prop_assert_eq!(u64::from_be_bytes(ack[1..9].try_into().unwrap()), id);
        }
        Expect::Legacy => {
            prop_assert_eq!(out.unwrap(), ServerHello::Legacy, "lead {:?}", &data[..4]);
            // Every byte the peer wrote — sniffed lead included — must
            // still be readable, in order, as if never touched.
            let mut replay = vec![0u8; data.len()];
            srv.read_exact_at(&mut replay).unwrap();
            prop_assert_eq!(&replay[..], data);
            let mut one = [0u8; 1];
            prop_assert!(
                srv.read_exact_at(&mut one).is_err(),
                "stream must be at EOF"
            );
        }
    }
}

proptest! {
    /// Arbitrary opening bytes: overwhelmingly legacy or vanished peers.
    #[test]
    fn arbitrary_prefix_never_panics(data in proptest::collection::vec(any::<u8>(), 0..40)) {
        check(&data);
    }

    /// Magic-led opening bytes: exercises truncated hellos, bad
    /// versions, zero ids (assignment), and complete handshakes.
    #[test]
    fn magic_prefix_classifies_exactly(tail in proptest::collection::vec(any::<u8>(), 0..20)) {
        let mut data = MAGIC.to_be_bytes().to_vec();
        data.extend_from_slice(&tail);
        check(&data);
    }

    /// Well-formed 13-byte hellos over the full version × id space.
    #[test]
    fn full_hello_roundtrip(version in any::<u8>(), id in any::<u64>()) {
        let mut data = MAGIC.to_be_bytes().to_vec();
        data.push(version);
        data.extend_from_slice(&id.to_be_bytes());
        check(&data);
    }
}
