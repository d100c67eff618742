//! Connect-time handshake: version negotiation and client identity.
//!
//! Before any RPC frame (and, in RPCoIB mode, before the verbs end-point
//! exchange) the client sends a 13-byte hello over the freshly connected
//! stream — magic, the highest frame version it speaks, and its
//! `client_id` — and the server answers with a 9-byte ack carrying the
//! *negotiated* version (`min(peer, MAX_VERSION)`) and the identity the
//! connection will speak under. Both sides then frame every message on
//! that connection in the negotiated version, which is how the V3
//! compact header gets turned on without any per-frame marker. V3 is the
//! only version the handshake negotiates: a hello offering less is
//! refused as a protocol error.
//!
//! The `client_id` keys the server's retry cache, so it must be stable
//! across reconnects of one client and unique among all clients a server
//! ever sees. A client normally mints its own random id at construction
//! and presents it on every connect; a client that presents `0` is handed
//! a server-assigned id in the ack ("handed out at connect handshake"),
//! which it adopts and re-presents on subsequent connects.
//!
//! **Legacy (pre-handshake) peers.** A stock-Hadoop peer speaks V1 and
//! sends no hello, so the server *sniffs* rather than demands one: it
//! peeks at the connection's first four bytes, and anything but the magic
//! is pushed back onto the stream and the connection proceeds straight to
//! the V1 frame (socket) or verbs endpoint exchange (RPCoIB), with no
//! client identity and therefore no retry caching. The reverse direction
//! (this client, a V1-only server) is not supported, because such a
//! server would read the hello as frame bytes. A truly garbage peer
//! passes the sniff as "legacy" and is then rejected one layer down, when
//! its bytes fail to parse as a frame.
//! (The sniff is ambiguous only if a legacy frame's length prefix equals
//! the magic — a 1.3 GB frame, far beyond any real call.)

use std::io::Write;

use simnet::SimStream;

use crate::error::{RpcError, RpcResult};

/// `b"RPCB"` — first bytes on every connection.
pub const MAGIC: u32 = 0x5250_4342;

/// Lowest version the handshake can negotiate; V1 peers send no hello
/// and take the Legacy sniff path.
pub const MIN_VERSION: u8 = 3;

/// Highest frame/wire version this build speaks (see [`crate::frame`]).
pub const MAX_VERSION: u8 = 3;

/// Client side: offer versions up to [`MAX_VERSION`] and present
/// `client_id` (0 = please assign one). Returns the negotiated version
/// and the id the server confirmed or assigned.
pub fn client_hello(stream: &SimStream, client_id: u64) -> RpcResult<(u8, u64)> {
    let mut hello = [0u8; 13];
    hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
    hello[4] = MAX_VERSION;
    hello[5..].copy_from_slice(&client_id.to_be_bytes());
    (&*stream)
        .write_all(&hello)
        .map_err(|e| RpcError::Io(e.to_string()))?;

    let mut ack = [0u8; 9];
    stream
        .read_exact_at(&mut ack)
        .map_err(|e| RpcError::Io(e.to_string()))?;
    let version = ack[0];
    if version == 0 {
        // Accept-path backpressure: the server is at `max_connections`
        // (or its accept backlog) and refused this connection before any
        // setup. Retryable — the client backs off and reconnects.
        return Err(RpcError::ServerBusy);
    }
    if !(MIN_VERSION..=MAX_VERSION).contains(&version) {
        return Err(RpcError::Protocol(format!(
            "server negotiated frame version {version}, this client speaks \
             {MIN_VERSION}..={MAX_VERSION}"
        )));
    }
    let confirmed = u64::from_be_bytes(ack[1..9].try_into().unwrap());
    if confirmed == 0 {
        return Err(RpcError::Protocol("server confirmed client_id 0".into()));
    }
    Ok((version, confirmed))
}

/// What the server learned from a freshly accepted connection's opening
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHello {
    /// The peer spoke the handshake; the connection operates under the
    /// negotiated frame version and this client id.
    Modern { version: u8, client_id: u64 },
    /// The peer's first bytes were not the magic: a pre-handshake (V1)
    /// peer. The sniffed bytes were pushed back onto the stream, which is
    /// positioned exactly as the previous release expects — no ack was
    /// sent, no identity exists, and the retry cache stays out of play.
    Legacy,
}

/// Server side: sniff the connection's first four bytes. On the magic,
/// finish the handshake (assigning an id via `assign` if the client
/// presented 0), ack the negotiated version, and return it with the
/// connection's client id; on anything else, push the bytes back and
/// report a legacy peer.
///
/// `Protocol` errors mean the peer spoke the magic but an unsupportable
/// version (count it); `Io` means the peer vanished mid-handshake
/// (routine churn).
pub fn server_accept(stream: &SimStream, assign: impl FnOnce() -> u64) -> RpcResult<ServerHello> {
    let mut lead = [0u8; 4];
    stream
        .read_exact_at(&mut lead)
        .map_err(|e| RpcError::Io(e.to_string()))?;
    if u32::from_be_bytes(lead) != MAGIC {
        stream.unread(&lead);
        return Ok(ServerHello::Legacy);
    }
    let mut rest = [0u8; 9];
    stream
        .read_exact_at(&mut rest)
        .map_err(|e| RpcError::Io(e.to_string()))?;
    let peer_version = rest[0];
    if peer_version < MIN_VERSION {
        // A peer that sends the hello must speak at least V3; V1 peers
        // send none and take the Legacy path.
        return Err(RpcError::Protocol(format!(
            "unsupported peer frame version {peer_version}"
        )));
    }
    let version = peer_version.min(MAX_VERSION);
    let presented = u64::from_be_bytes(rest[1..9].try_into().unwrap());
    let client_id = if presented == 0 { assign() } else { presented };

    let mut ack = [0u8; 9];
    ack[0] = version;
    ack[1..].copy_from_slice(&client_id.to_be_bytes());
    (&*stream)
        .write_all(&ack)
        .map_err(|e| RpcError::Io(e.to_string()))?;
    Ok(ServerHello::Modern { version, client_id })
}

/// Mint a random, non-zero client id. Mixes wall-clock entropy, the
/// caller-supplied salt (e.g. an address), and a process-wide counter
/// through splitmix64, so two clients created in the same nanosecond on
/// different nodes still diverge.
pub fn mint_client_id(salt: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed);
    let raw = nanos ^ salt.rotate_left(17) ^ COUNTER.fetch_add(0x9e37_79b9, Ordering::Relaxed);
    let mut z = raw.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{model, Fabric, SimAddr, SimListener};
    use std::thread;

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

    #[test]
    fn presented_id_is_confirmed_at_max_version() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0xfeed).unwrap());
        let seen = server_accept(&srv, || panic!("must not assign")).unwrap();
        assert_eq!(
            seen,
            ServerHello::Modern {
                version: MAX_VERSION,
                client_id: 0xfeed
            }
        );
        assert_eq!(h.join().unwrap(), (MAX_VERSION, 0xfeed));
    }

    #[test]
    fn future_peer_is_capped_at_our_max() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || {
            use std::io::Write;
            let mut hello = [0u8; 13];
            hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
            hello[4] = MAX_VERSION + 5; // a build from the future
            hello[5..].copy_from_slice(&0xbeefu64.to_be_bytes());
            (&cli).write_all(&hello).unwrap();
            let mut ack = [0u8; 9];
            cli.read_exact_at(&mut ack).unwrap();
            ack[0]
        });
        let seen = server_accept(&srv, || 1).unwrap();
        assert_eq!(
            seen,
            ServerHello::Modern {
                version: MAX_VERSION,
                client_id: 0xbeef
            }
        );
        assert_eq!(h.join().unwrap(), MAX_VERSION);
    }

    #[test]
    fn zero_id_gets_assigned() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0).unwrap());
        let seen = server_accept(&srv, || 777).unwrap();
        assert_eq!(
            seen,
            ServerHello::Modern {
                version: MAX_VERSION,
                client_id: 777
            }
        );
        assert_eq!(
            h.join().unwrap(),
            (MAX_VERSION, 777),
            "assigned id travels back"
        );
    }

    #[test]
    fn non_magic_peer_is_legacy_with_bytes_preserved() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || {
            use std::io::Write;
            // A pre-handshake peer's first bytes: a frame length prefix.
            (&cli).write_all(&[0, 0, 0, 64, 0xab, 0xcd]).unwrap();
        });
        let seen = server_accept(&srv, || panic!("must not assign")).unwrap();
        assert_eq!(seen, ServerHello::Legacy);
        // The sniffed bytes were pushed back: the stream reads from the
        // very beginning, as the legacy framing layer expects.
        let mut first = [0u8; 6];
        srv.read_exact_at(&mut first).unwrap();
        assert_eq!(first, [0, 0, 0, 64, 0xab, 0xcd]);
        h.join().unwrap();
    }

    #[test]
    fn busy_ack_maps_to_retryable_server_busy() {
        let (cli, srv) = stream_pair();
        let h = thread::spawn(move || client_hello(&cli, 0xfeed));
        // The listener's refusal: the 9-byte ack with version byte 0,
        // written without reading the hello.
        (&srv).write_all(&[0u8; 9]).unwrap();
        let err = h.join().unwrap().unwrap_err();
        drop(srv);
        assert!(matches!(err, RpcError::ServerBusy), "{err}");
        assert!(err.is_retryable(), "accept rejection must be retryable");
    }

    #[test]
    fn magic_with_unsupported_version_is_a_protocol_error() {
        // Both sit below the only version the handshake negotiates.
        for offered in [1u8, 2] {
            let (cli, srv) = stream_pair();
            let h = thread::spawn(move || {
                use std::io::Write;
                let mut hello = [0u8; 13];
                hello[..4].copy_from_slice(&MAGIC.to_be_bytes());
                hello[4] = offered;
                (&cli).write_all(&hello).unwrap();
            });
            let err = server_accept(&srv, || 1).unwrap_err();
            assert!(matches!(err, RpcError::Protocol(_)), "{offered}: {err}");
            h.join().unwrap();
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let id = mint_client_id(i % 3);
            assert_ne!(id, 0);
            assert!(seen.insert(id), "collision at iteration {i}");
        }
    }
}
