//! The real network transport: persistent per-peer `TcpStream`s.
//!
//! ## Rendezvous
//!
//! A typed [`WorldSpec`](crate::transport::rendezvous::WorldSpec) names the
//! master address and each rank's bind host (the torchrun-style `A2SGD_*`
//! env vars are how a launcher hands that spec to a rank process). Rank 0
//! listens on the master address. Every rank binds an ephemeral data-plane
//! listener on
//! its own bind host — so groups can span machines — registers `rank addr`
//! with the master over a short-lived control connection, and receives the
//! full `world`-entry address table back once everyone has checked in. The mesh
//! is then built deterministically: rank `r` dials every rank below it
//! (identifying itself with a 4-byte handshake) and accepts one connection
//! from every rank above it, yielding exactly one persistent, bidirectional
//! stream per peer pair. Every blocking step gives up at one deadline
//! (`A2SGD_RENDEZVOUS_TIMEOUT_SECS`, default 30 s) with an `Err` naming the
//! ranks that never registered or never dialled.
//!
//! ## Framing
//!
//! Frames are the [`wire`](crate::transport::wire) format: a 16-byte
//! little-endian header (magic, payload kind + byte count, tag) followed by
//! the typed payload's raw bytes — dense f32 lanes, packed u64 words, or an
//! opaque compressed byte stream. `TCP_NODELAY` is set on every stream —
//! the collectives are latency-bound request/response patterns, exactly
//! what Nagle hurts.
//!
//! A frame is copied once on each side of the socket. The sender encodes
//! the header and the payload's little-endian lanes into the link's one
//! 64 KiB buffer ([`wire::LINK_BUF_BYTES`]) and hands each full buffer to
//! the socket in one write: a dense gradient bucket costs one write per
//! 64 KiB, and a frame that fits — the A2SGD packet, 24 bytes on the wire
//! — is one write. The receiver allocates the typed payload once, at the
//! size its checked header names, and decodes into it through a fixed
//! 32 KiB chunk ([`wire::read_frame`]).
//!
//! ## Progress
//!
//! Each peer connection has a dedicated reader thread draining frames into
//! that link's [`Inbox`]. That makes blocking sends deadlock-free: the
//! collectives post symmetric send-then-recv patterns, and without the
//! drain two ranks writing frames larger than the kernel socket buffers
//! at each other would block forever. With it, the receiving side always
//! consumes bytes, so every write of a frame completes. A send returns
//! once its last byte is in the kernel; nothing is left buffered in user
//! space between frames, so there is nothing to flush.
//!
//! Unlike the in-process backend nothing is priced: bytes are counted as
//! they hit the socket and time is whatever the wall clock says.

use crate::transport::inbox::{self, Inbox};
use crate::transport::wire::{self, PayloadRef};
use crate::transport::{RecvResult, Transport, TransportError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable carrying this process's rank.
pub const ENV_RANK: &str = "A2SGD_RANK";
/// Environment variable carrying the world size.
pub const ENV_WORLD: &str = "A2SGD_WORLD";
/// Environment variable carrying the rank-0 rendezvous address
/// (`host:port`).
pub const ENV_MASTER_ADDR: &str = "A2SGD_MASTER_ADDR";
/// Optional override (seconds) for the rendezvous deadline.
pub const ENV_RENDEZVOUS_TIMEOUT: &str = "A2SGD_RENDEZVOUS_TIMEOUT_SECS";
/// Optional comma list of per-rank data-plane bind hosts (empty entry =
/// master's host) — the multi-host half of the typed
/// [`rendezvous::WorldSpec`](crate::transport::rendezvous::WorldSpec)
/// lowered into the environment.
pub const ENV_BIND_HOSTS: &str = "A2SGD_BIND_HOSTS";
/// Optional comma list of per-rank topology group ids.
pub const ENV_GROUPS: &str = "A2SGD_GROUPS";

const DEFAULT_RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

/// How this endpoint reaches the rendezvous master.
pub(crate) enum MasterEndpoint {
    /// Rank 0 with a pre-bound listener (used by the in-process thread
    /// launcher to avoid bind races on ephemeral ports).
    Listener(TcpListener),
    /// Any rank dialing `host:port` (rank 0 binds it first).
    Addr(String),
}

struct Peer {
    stream: TcpStream,
    /// The link buffer every frame to this peer is encoded through
    /// ([`wire::LINK_BUF_BYTES`]).
    link: Box<[u8]>,
    inbox: Arc<Inbox>,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn reader_loop(stream: TcpStream, inbox: Arc<Inbox>) {
    let mut r = BufReader::new(stream);
    loop {
        match wire::read_frame(&mut r) {
            Ok((tag, frame)) => inbox.push(tag, frame),
            // EOF on clean peer shutdown, or reset/desync: the link is
            // done; a receive still waiting on it is an `Err` with the cause.
            Err(e) => return inbox.close(e.to_string()),
        }
    }
}

/// One rank's endpoint of the TCP mesh.
pub struct Tcp {
    rank: usize,
    world: usize,
    /// Ranks of the world on this rank's host (see
    /// [`WorldSpec::ranks_on_host`](crate::transport::rendezvous::WorldSpec::ranks_on_host)).
    ranks_on_host: usize,
    /// `peers[r]` is `None` only for `r == rank`.
    peers: Vec<Option<Peer>>,
}

/// Goodbye control frame: a survivor announcing an orderly census entry
/// (see [`Transport::classify_survivors`]). Lives in the elastic tag
/// namespace so `tag_space` keeps it out of all traffic accounting.
const GOODBYE_TAG: u64 = crate::transport::group::ELASTIC_TAG | 1;

/// The instant every blocking step of a rendezvous starting now gives up at.
pub(crate) fn rendezvous_deadline() -> Instant {
    let secs = std::env::var(ENV_RENDEZVOUS_TIMEOUT)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
        .unwrap_or(DEFAULT_RENDEZVOUS_TIMEOUT);
    Instant::now() + secs
}

fn connect_retry(addr: &str, deadline: Instant) -> Result<TcpStream, String> {
    loop {
        let refused = match TcpStream::connect(addr) {
            // Dialing a loopback port nobody listens on *yet* can succeed
            // as a TCP simultaneous open with itself when the kernel picks
            // that very port as the ephemeral source (seen in the elastic
            // soak as `ESTAB 127.0.0.1:45324 → 127.0.0.1:45324`, the dialer
            // then reading back its own registration forever). That is not
            // the master: drop it and retry like a refused connection.
            Ok(s) if s.local_addr().ok() == s.peer_addr().ok() => "connected to itself".into(),
            Ok(s) => return Ok(s),
            Err(e) => e.to_string(),
        };
        if Instant::now() >= deadline {
            return Err(format!("could not reach rendezvous master at {addr}: {refused}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// What is left of `deadline`, as a socket read timeout (which must be
/// nonzero: a spent deadline still gets one short, failing wait).
fn time_left(deadline: Instant) -> Option<Duration> {
    Some(deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1)))
}

/// `accept()` that gives up at `deadline`. std has no accept timeout, so the
/// listener is polled: back to back for the first 200 µs (a peer that is
/// about to dial is noticed at once — a sleep, however short, costs ~50 µs
/// of timer slack per miss), then at an eighth of the time waited so far,
/// 5 ms at most (a rank that never comes costs no CPU). The accepted
/// stream's reads time out at the deadline too, for the caller's
/// registration / handshake read.
fn accept_by(l: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    use std::io::{Error, ErrorKind};
    l.set_nonblocking(true)?;
    let began = Instant::now();
    loop {
        match l.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(time_left(deadline))?;
                return Ok(s);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(Error::new(ErrorKind::TimedOut, "rendezvous deadline passed"));
                }
                let waited = began.elapsed();
                if waited < Duration::from_micros(200) {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep((waited / 8).min(Duration::from_millis(5)));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl Tcp {
    /// Establishes the mesh for `rank` of a typed [`WorldSpec`]: rank 0
    /// binds the master address; every rank binds its data listener on its
    /// spec'd host (master's host when unset) and advertises it through
    /// the registration table, so ranks on different machines find each
    /// other.
    ///
    /// [`WorldSpec`]: crate::transport::rendezvous::WorldSpec
    pub fn connect_spec(
        rank: usize,
        spec: &crate::transport::rendezvous::WorldSpec,
    ) -> Result<Tcp, String> {
        assert!(rank < spec.world(), "rank {rank} out of range for world {}", spec.world());
        let master = if rank == 0 {
            let l = TcpListener::bind(&spec.master_addr)
                .map_err(|e| format!("rank 0 could not bind {}: {e}", spec.master_addr))?;
            MasterEndpoint::Listener(l)
        } else {
            MasterEndpoint::Addr(spec.master_addr.clone())
        };
        let mut tcp = Self::connect_parts(
            rank,
            spec.world(),
            master,
            spec.ranks[rank].bind_host.as_deref(),
            rendezvous_deadline(),
        )?;
        tcp.ranks_on_host = spec.ranks_on_host(rank);
        Ok(tcp)
    }

    pub(crate) fn connect_parts(
        rank: usize,
        world: usize,
        master: MasterEndpoint,
        bind_host: Option<&str>,
        deadline: Instant,
    ) -> Result<Tcp, String> {
        assert!(world >= 1 && rank < world);
        if world == 1 {
            return Ok(Tcp { rank, world, ranks_on_host: world, peers: vec![None] });
        }
        let err = |e: std::io::Error, what: &str| format!("rank {rank}: {what}: {e}");

        // Data-plane listener host: this rank's spec'd bind host when
        // given (the multi-host path — peers route to the advertised
        // address), otherwise derived from the master (the single-host
        // default, where everything shares one interface).
        let host = match bind_host {
            Some(h) => h.to_string(),
            None => match &master {
                MasterEndpoint::Listener(l) => {
                    l.local_addr().map_err(|e| err(e, "master addr"))?.ip().to_string()
                }
                MasterEndpoint::Addr(a) => {
                    let h = a.rsplit_once(':').map(|(h, _)| h).unwrap_or(a.as_str());
                    // IPv6 literals arrive bracketed ("[::1]:29500"); bind
                    // wants the bare address.
                    h.trim_start_matches('[').trim_end_matches(']').to_string()
                }
            },
        };
        let data_listener =
            TcpListener::bind((host.as_str(), 0)).map_err(|e| err(e, "bind data listener"))?;
        let my_addr =
            data_listener.local_addr().map_err(|e| err(e, "data listener addr"))?.to_string();

        // Address-table exchange through the master.
        let table: Vec<String> = match master {
            MasterEndpoint::Listener(l) => {
                let mut table = vec![String::new(); world];
                table[0] = my_addr;
                let mut regs = Vec::with_capacity(world - 1);
                for _ in 1..world {
                    let conn = accept_by(&l, deadline).map_err(|e| {
                        let absent: Vec<_> = (1..world).filter(|&r| table[r].is_empty()).collect();
                        err(e, &format!("accept registration (ranks {absent:?} never registered)"))
                    })?;
                    let mut r = BufReader::new(conn);
                    let mut line = String::new();
                    r.read_line(&mut line).map_err(|e| err(e, "read registration"))?;
                    let (peer, addr) = line
                        .trim()
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed registration {line:?}"))?;
                    let peer: usize =
                        peer.parse().map_err(|_| format!("bad rank in registration {line:?}"))?;
                    if peer == 0 || peer >= world || !table[peer].is_empty() {
                        return Err(format!("duplicate/out-of-range registration from {peer}"));
                    }
                    table[peer] = addr.to_string();
                    regs.push(r);
                }
                let reply = table.iter().map(|a| a.as_str()).collect::<Vec<_>>().join("\n") + "\n";
                for r in regs {
                    let mut w = r.into_inner();
                    w.write_all(reply.as_bytes()).map_err(|e| err(e, "send table"))?;
                }
                table
            }
            MasterEndpoint::Addr(addr) => {
                let conn = connect_retry(&addr, deadline)?;
                conn.set_read_timeout(time_left(deadline)).map_err(|e| err(e, "read timeout"))?;
                let mut r = BufReader::new(conn);
                r.get_mut()
                    .write_all(format!("{rank} {my_addr}\n").as_bytes())
                    .map_err(|e| err(e, "register"))?;
                let mut table = Vec::with_capacity(world);
                for _ in 0..world {
                    let mut line = String::new();
                    r.read_line(&mut line).map_err(|e| err(e, "read table"))?;
                    table.push(line.trim().to_string());
                }
                table
            }
        };

        // Mesh: dial every lower rank (their listeners are bound — the
        // master only replied after all registrations — so the connect
        // lands in the backlog even if they have not called accept yet),
        // then accept one connection from every higher rank.
        let mut peers: Vec<Option<Peer>> = (0..world).map(|_| None).collect();
        let mk_peer = |s: TcpStream, peer: usize| -> Result<Peer, String> {
            s.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
            // The rendezvous deadline bounded the reads so far; the data
            // plane's reader blocks for as long as the link lives.
            s.set_read_timeout(None).map_err(|e| format!("clear read timeout: {e}"))?;
            let rs = s.try_clone().map_err(|e| format!("clone stream: {e}"))?;
            let inbox = Arc::new(Inbox::default());
            let inbox2 = inbox.clone();
            let reader = std::thread::Builder::new()
                .name(format!("a2sgd-tcp-rx-{rank}-from-{peer}"))
                .spawn(move || reader_loop(rs, inbox2))
                .map_err(|e| format!("spawn reader thread: {e}"))?;
            let link = vec![0u8; wire::LINK_BUF_BYTES].into_boxed_slice();
            Ok(Peer { stream: s, link, inbox, reader: Some(reader) })
        };
        for lower in 0..rank {
            let mut s = connect_retry(&table[lower], deadline)?;
            s.write_all(&(rank as u32).to_le_bytes()).map_err(|e| err(e, "handshake"))?;
            peers[lower] = Some(mk_peer(s, lower)?);
        }
        for _ in rank + 1..world {
            let mut s = accept_by(&data_listener, deadline).map_err(|e| {
                let absent: Vec<_> = (rank + 1..world).filter(|&r| peers[r].is_none()).collect();
                err(e, &format!("accept peer (ranks {absent:?} never dialled)"))
            })?;
            let mut hs = [0u8; 4];
            s.read_exact(&mut hs).map_err(|e| err(e, "read handshake"))?;
            let peer = u32::from_le_bytes(hs) as usize;
            if peer <= rank || peer >= world || peers[peer].is_some() {
                return Err(format!("rank {rank}: unexpected handshake from {peer}"));
            }
            peers[peer] = Some(mk_peer(s, peer)?);
        }
        // Thread-rank launchers come through here without a spec: one
        // process, so every rank shares this host.
        Ok(Tcp { rank, world, ranks_on_host: world, peers })
    }

    fn peer(&mut self, r: usize) -> &mut Peer {
        self.peers[r].as_mut().unwrap_or_else(|| panic!("no link rank {} -> {r}", self.rank))
    }
}

impl Transport for Tcp {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn backend_name(&self) -> &'static str {
        "tcp"
    }

    fn ranks_on_host(&self) -> usize {
        self.ranks_on_host
    }

    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        let t0 = a2sgd_trace::now_ns();
        let rank = self.rank;
        let failed =
            |e: std::io::Error| TransportError::SendFailed { rank, peer: to, cause: e.to_string() };
        let p = self.peer(to);
        let n = wire::write_frame(&mut p.stream, &mut p.link, tag, payload).map_err(failed)?;
        crate::transport::wire_span(true, payload.kind(), t0, (rank, to, tag), n, 0);
        Ok(n)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult {
        let rank = self.rank;
        inbox::recv(&self.peer(from).inbox, (rank, from, tag), block, wire::frame_wire_bytes, 0)
    }

    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        // Census protocol, run by every survivor after a TransportError:
        //
        //   1. send a goodbye frame to every peer (best effort),
        //   2. half-close the write side — after the goodbye, so TCP's
        //      in-order delivery guarantees a peer sees goodbye-then-EOF,
        //   3. drain every link until either a goodbye arrives (the peer
        //      reached its own census: alive) or the link ends without one
        //      (killed mid-run: dead).
        //
        // Every survivor eventually enters the census — a dead rank's EOF
        // propagates to whoever talks to it, and survivors' half-closes
        // unblock anyone still waiting on *them* — so all survivors drain
        // all links and agree on the same classification.
        let mut alive = vec![false; self.world];
        alive[self.rank] = true;
        for p in self.peers.iter_mut().flatten() {
            let _ =
                wire::write_frame(&mut p.stream, &mut p.link, GOODBYE_TAG, PayloadRef::Bytes(&[]));
            let _ = p.stream.shutdown(Shutdown::Write);
        }
        for (r, p) in self.peers.iter().enumerate() {
            if let Some(p) = p {
                // `Err`: the link ended without a goodbye — the peer died.
                alive[r] = p.inbox.take(GOODBYE_TAG, true).is_ok();
            }
        }
        Some(alive)
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        // Shut the sockets down (a syscall on the fd, so it reaches the
        // reader threads' clones too), then reap the readers — their
        // blocked reads return immediately once the fd is dead.
        for p in self.peers.iter().flatten() {
            let _ = p.stream.shutdown(Shutdown::Both);
        }
        for p in self.peers.iter_mut().flatten() {
            if let Some(h) = p.reader.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::wire::Payload;

    #[test]
    fn two_rank_mesh_exchanges_frames() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    0,
                    2,
                    MasterEndpoint::Listener(master),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                let wire_bytes =
                    t.send_bytes(1, 42, Payload::F32Dense(vec![1.0, 2.0]).as_ref()).unwrap();
                assert_eq!(wire_bytes, wire::frame_wire_bytes(8));
                let wire_bytes =
                    t.send_bytes(1, 44, Payload::Bytes(vec![7, 8, 9]).as_ref()).unwrap();
                assert_eq!(wire_bytes, wire::frame_wire_bytes(3));
                t.recv_bytes(1, 43, true).unwrap().unwrap().expect_u64()
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    1,
                    2,
                    MasterEndpoint::Addr(addr),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                let got = t.recv_bytes(0, 42, true).unwrap().unwrap().expect_f32();
                assert_eq!(got, vec![1.0, 2.0]);
                assert_eq!(
                    t.recv_bytes(0, 44, true).unwrap().unwrap().expect_bytes(),
                    vec![7, 8, 9]
                );
                t.send_bytes(0, 43, Payload::PackedU64(vec![3]).as_ref()).unwrap();
                got
            });
            assert_eq!(j0.join().unwrap(), vec![3]);
            j1.join().unwrap();
        });
    }

    /// A rank that never shows up fails the rendezvous at its deadline, by
    /// name, instead of leaving the others in `accept()` forever — the
    /// master waiting for registrations and a peer waiting to be dialled.
    #[test]
    fn absent_rank_fails_the_rendezvous_at_the_deadline() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached: without the deadline this thread never returns.
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(300);
            let out = Tcp::connect_parts(0, 2, MasterEndpoint::Listener(master), None, deadline);
            let _ = tx.send(out.map(|_| ()));
        });
        let e = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("rank 0 is still waiting for rank 1 long past its 300 ms deadline")
            .unwrap_err();
        assert!(e.contains("[1] never registered"), "error does not name the absent rank: {e}");
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    0,
                    2,
                    MasterEndpoint::Listener(master),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                t.send_bytes(1, 1, Payload::F32Dense(vec![1.0]).as_ref()).unwrap();
                t.send_bytes(1, 2, Payload::F32Dense(vec![2.0]).as_ref()).unwrap();
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    1,
                    2,
                    MasterEndpoint::Addr(addr),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                // Request the second frame first: the first must be parked
                // in the pending queue, not lost.
                assert_eq!(t.recv_bytes(0, 2, true).unwrap().unwrap().expect_f32(), vec![2.0]);
                assert_eq!(t.recv_bytes(0, 1, true).unwrap().unwrap().expect_f32(), vec![1.0]);
            });
            j0.join().unwrap();
            j1.join().unwrap();
        });
    }

    /// A dead peer surfaces as a typed [`TransportError::PeerClosed`]
    /// naming rank, peer, tag and cause — from both the blocking receive
    /// and the nonblocking probe — instead of hanging forever.
    #[test]
    fn dead_peer_is_a_typed_error() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    0,
                    2,
                    MasterEndpoint::Listener(master),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                // Rank 1 exits without sending: the blocking receive must
                // observe the EOF and fail with the peer's identity.
                let err = t.recv_bytes(1, 0x42, true).unwrap_err();
                match &err {
                    TransportError::PeerClosed { rank, peer, tag, .. } => {
                        assert_eq!((*rank, *peer, *tag), (0, 1, Some(0x42)));
                    }
                    other => panic!("expected PeerClosed, got {other:?}"),
                }
                assert!(err.to_string().contains("rank 0"), "{err}");
                // The probe agrees once the link is known dead.
                assert!(t.recv_bytes(1, 0x43, false).is_err());
            });
            let j1 = s.spawn(move || {
                let t = Tcp::connect_parts(
                    1,
                    2,
                    MasterEndpoint::Addr(addr),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                drop(t); // shutdown both directions; rank 0 sees EOF
            });
            j1.join().unwrap();
            j0.join().unwrap();
        });
    }

    /// The census protocol: after rank 2 dies abruptly (drop without
    /// goodbye), both survivors classify the world identically — goodbye
    /// frames mark each other alive, the goodbye-less EOF marks 2 dead.
    #[test]
    fn survivors_classify_a_dead_rank_consistently() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr0 = master.local_addr().unwrap().to_string();
        let addr1 = addr0.clone();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    0,
                    3,
                    MasterEndpoint::Listener(master),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                t.recv_bytes(2, 1, true).unwrap_err(); // observe the death
                t.classify_survivors()
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(
                    1,
                    3,
                    MasterEndpoint::Addr(addr0),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                t.recv_bytes(2, 1, true).unwrap_err();
                t.classify_survivors()
            });
            let j2 = s.spawn(move || {
                let t = Tcp::connect_parts(
                    2,
                    3,
                    MasterEndpoint::Addr(addr1),
                    None,
                    rendezvous_deadline(),
                )
                .unwrap();
                drop(t); // abrupt death: EOF on every link, no goodbye
            });
            j2.join().unwrap();
            let expect = Some(vec![true, true, false]);
            assert_eq!(j0.join().unwrap(), expect);
            assert_eq!(j1.join().unwrap(), expect);
        });
    }
}
