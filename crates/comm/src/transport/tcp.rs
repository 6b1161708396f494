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
//! stream per peer pair.
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
//! ## Progress
//!
//! Each peer connection has a dedicated reader thread draining frames into
//! an in-memory inbox. That makes blocking sends deadlock-free: the
//! collectives post symmetric send-then-recv patterns, and without the
//! drain two ranks flushing frames larger than the kernel socket buffers
//! at each other would block forever. With it, the receiving side always
//! consumes bytes, so a `write_all` of any frame size completes.
//!
//! Unlike the in-process backend nothing is priced: bytes are counted as
//! they hit the socket and time is whatever the wall clock says.

use crate::transport::wire::{self, Payload, PayloadRef};
use crate::transport::{Transport, TransportError};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// TCP backend configuration, usually read from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// This process's rank in `0..world`.
    pub rank: usize,
    /// Number of ranks.
    pub world: usize,
    /// Rank-0 rendezvous address, `host:port`.
    pub master_addr: String,
}

impl TcpConfig {
    /// Reads `A2SGD_RANK`, `A2SGD_WORLD` and `A2SGD_MASTER_ADDR` (torchrun
    /// dialect). Errors name the missing/invalid variable.
    pub fn from_env() -> Result<Self, String> {
        let get = |k: &str| std::env::var(k).map_err(|_| format!("{k} is not set"));
        let rank: usize =
            get(ENV_RANK)?.parse().map_err(|e| format!("{ENV_RANK} not a number: {e}"))?;
        let world: usize =
            get(ENV_WORLD)?.parse().map_err(|e| format!("{ENV_WORLD} not a number: {e}"))?;
        let master_addr = get(ENV_MASTER_ADDR)?;
        if world == 0 || rank >= world {
            return Err(format!("rank {rank} out of range for world {world}"));
        }
        Ok(TcpConfig { rank, world, master_addr })
    }
}

/// How this endpoint reaches the rendezvous master.
pub(crate) enum MasterEndpoint {
    /// Rank 0 with a pre-bound listener (used by the in-process thread
    /// launcher to avoid bind races on ephemeral ports).
    Listener(TcpListener),
    /// Any rank dialing `host:port` (rank 0 binds it first).
    Addr(String),
}

struct InboxState {
    frames: VecDeque<(u64, Payload)>,
    /// Set by the reader thread when the connection ends: how it ended
    /// (clean EOF vs reset vs protocol desync), surfaced in the panic of
    /// any receive still waiting on this peer.
    closed: Option<String>,
}

/// Frames the peer's reader thread has drained off the socket, keyed for
/// tag-matched receives.
struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

struct Peer {
    writer: BufWriter<TcpStream>,
    inbox: Arc<Inbox>,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn reader_loop(stream: TcpStream, inbox: Arc<Inbox>) {
    let mut r = BufReader::new(stream);
    loop {
        match wire::read_frame(&mut r) {
            Ok(frame) => {
                inbox.state.lock().frames.push_back(frame);
                inbox.cv.notify_all();
            }
            Err(e) => {
                // EOF on clean peer shutdown, or reset/desync: the link is
                // done; pending receives observe `closed` with the cause.
                inbox.state.lock().closed = Some(e.to_string());
                inbox.cv.notify_all();
                return;
            }
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
    barrier_seq: u64,
}

/// Tags with the top bit set are reserved for transport-internal traffic
/// (the dissemination barrier); `CommHandle` never generates them.
const INTERNAL_TAG: u64 = 1 << 63;

/// Goodbye control frame: a survivor announcing an orderly census entry
/// (see [`Transport::classify_survivors`]). Lives in the elastic tag
/// namespace so `tag_space` keeps it out of all traffic accounting.
const GOODBYE_TAG: u64 = crate::transport::group::ELASTIC_TAG | 1;

fn rendezvous_deadline() -> Instant {
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

impl Tcp {
    /// Establishes the full mesh for `cfg`. Rank 0 binds the master
    /// address; everyone else dials it (with retries until the rendezvous
    /// deadline, so start order does not matter).
    pub fn connect(cfg: &TcpConfig) -> Result<Tcp, String> {
        let spec = crate::transport::rendezvous::WorldSpec::single_host(
            cfg.master_addr.clone(),
            cfg.world,
        );
        Self::connect_spec(cfg.rank, &spec)
    }

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
        let mut tcp =
            Self::connect_parts(rank, spec.world(), master, spec.ranks[rank].bind_host.as_deref())?;
        tcp.ranks_on_host = spec.ranks_on_host(rank);
        Ok(tcp)
    }

    pub(crate) fn connect_parts(
        rank: usize,
        world: usize,
        master: MasterEndpoint,
        bind_host: Option<&str>,
    ) -> Result<Tcp, String> {
        assert!(world >= 1 && rank < world);
        if world == 1 {
            return Ok(Tcp {
                rank,
                world,
                ranks_on_host: world,
                peers: vec![None],
                barrier_seq: 0,
            });
        }
        let deadline = rendezvous_deadline();
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
                    let (conn, _) = l.accept().map_err(|e| err(e, "accept registration"))?;
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
            let rs = s.try_clone().map_err(|e| format!("clone stream: {e}"))?;
            let inbox = Arc::new(Inbox {
                state: Mutex::new(InboxState { frames: VecDeque::new(), closed: None }),
                cv: Condvar::new(),
            });
            let inbox2 = inbox.clone();
            let reader = std::thread::Builder::new()
                .name(format!("a2sgd-tcp-rx-{rank}-from-{peer}"))
                .spawn(move || reader_loop(rs, inbox2))
                .map_err(|e| format!("spawn reader thread: {e}"))?;
            Ok(Peer { writer: BufWriter::new(s), inbox, reader: Some(reader) })
        };
        for lower in 0..rank {
            let mut s = connect_retry(&table[lower], deadline)?;
            s.write_all(&(rank as u32).to_le_bytes()).map_err(|e| err(e, "handshake"))?;
            peers[lower] = Some(mk_peer(s, lower)?);
        }
        for _ in rank + 1..world {
            let (mut s, _) = data_listener.accept().map_err(|e| err(e, "accept peer"))?;
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
        Ok(Tcp { rank, world, ranks_on_host: world, peers, barrier_seq: 0 })
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
        let w = &mut self.peer(to).writer;
        let n = wire::write_frame(w, tag, payload).map_err(failed)?;
        w.flush().map_err(failed)?;
        if a2sgd_trace::enabled() {
            a2sgd_trace::closed_span_flow(
                crate::transport::send_span_name(payload.kind()),
                t0,
                a2sgd_trace::Args::Wire { from: rank, to, tag, bytes: n },
                a2sgd_trace::flow_id(((rank as u64) << 32) | to as u64, tag, 0),
                true,
            );
        }
        Ok(n)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64) -> Result<Payload, TransportError> {
        let t0 = a2sgd_trace::now_ns();
        let me = self.rank;
        let inbox = &self.peers[from]
            .as_ref()
            .unwrap_or_else(|| panic!("no link rank {me} -> {from}"))
            .inbox;
        let mut st = inbox.state.lock();
        loop {
            if let Some(pos) = st.frames.iter().position(|(t, _)| *t == tag) {
                let data = st.frames.remove(pos).unwrap().1;
                drop(st);
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span_flow(
                        crate::transport::recv_span_name(data.kind()),
                        t0,
                        a2sgd_trace::Args::Wire {
                            from,
                            to: me,
                            tag,
                            bytes: wire::frame_wire_bytes(data.byte_len()),
                        },
                        a2sgd_trace::flow_id(((from as u64) << 32) | me as u64, tag, 0),
                        false,
                    );
                }
                return Ok(data);
            }
            if let Some(cause) = &st.closed {
                return Err(TransportError::PeerClosed {
                    rank: me,
                    peer: from,
                    tag: Some(tag),
                    cause: cause.clone(),
                });
            }
            inbox.cv.wait(&mut st);
        }
    }

    fn try_recv_bytes(&mut self, from: usize, tag: u64) -> Result<Option<Payload>, TransportError> {
        let t0 = a2sgd_trace::now_ns();
        let me = self.rank;
        let inbox = &self.peers[from]
            .as_ref()
            .unwrap_or_else(|| panic!("no link rank {me} -> {from}"))
            .inbox;
        let mut st = inbox.state.lock();
        if let Some(pos) = st.frames.iter().position(|(t, _)| *t == tag) {
            let data = st.frames.remove(pos).unwrap().1;
            drop(st);
            // Only hits are traced — recording every poll miss would bury
            // the timeline in progress-probe noise.
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span_flow(
                    crate::transport::recv_span_name(data.kind()),
                    t0,
                    a2sgd_trace::Args::Wire {
                        from,
                        to: me,
                        tag,
                        bytes: wire::frame_wire_bytes(data.byte_len()),
                    },
                    a2sgd_trace::flow_id(((from as u64) << 32) | me as u64, tag, 0),
                    false,
                );
            }
            return Ok(Some(data));
        }
        // Drained and dead ⇒ the frame can never arrive: fail now rather
        // than letting a later blocking wait discover it.
        if let Some(cause) = &st.closed {
            return Err(TransportError::PeerClosed {
                rank: me,
                peer: from,
                tag: Some(tag),
                cause: cause.clone(),
            });
        }
        Ok(None)
    }

    fn barrier(&mut self) -> Result<(u64, u64), TransportError> {
        // Dissemination barrier: ⌈log₂ world⌉ rounds of empty frames, each
        // round doubling the hop distance. Tags live in the reserved
        // internal namespace so they never collide with collective traffic.
        // Peer loss mid-barrier surfaces as a typed error like any other
        // collective failure: the world cannot rendezvous without the dead
        // rank, but the survivors can classify, shrink and re-form.
        self.barrier_seq += 1;
        let base = INTERNAL_TAG | (self.barrier_seq << 8);
        let mut hop = 1usize;
        let mut round = 0u64;
        let (mut frames, mut wire_bytes) = (0u64, 0u64);
        while hop < self.world {
            let to = (self.rank + hop) % self.world;
            let from = (self.rank + self.world - hop) % self.world;
            wire_bytes += self.send_bytes(to, base | round, PayloadRef::Bytes(&[]))?;
            frames += 1;
            let _ = self.recv_bytes(from, base | round)?;
            hop <<= 1;
            round += 1;
        }
        Ok((frames, wire_bytes))
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
            let _ = wire::write_frame(&mut p.writer, GOODBYE_TAG, PayloadRef::Bytes(&[]))
                .and_then(|_| p.writer.flush());
            let _ = p.writer.get_ref().shutdown(Shutdown::Write);
        }
        for (r, p) in self.peers.iter().enumerate() {
            let Some(p) = p else { continue };
            let mut st = p.inbox.state.lock();
            loop {
                if st.frames.iter().any(|(t, _)| *t == GOODBYE_TAG) {
                    alive[r] = true;
                    break;
                }
                if st.closed.is_some() {
                    break; // EOF without a goodbye: the peer died
                }
                p.inbox.cv.wait(&mut st);
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
            let _ = p.writer.get_ref().shutdown(Shutdown::Both);
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

    #[test]
    fn from_env_reports_missing_vars() {
        // Only meaningful outside a launched child (no rendezvous env set).
        if std::env::var(ENV_RANK).is_err() {
            let e = TcpConfig::from_env().unwrap_err();
            assert!(e.contains("A2SGD_"), "unhelpful error: {e}");
        }
    }

    #[test]
    fn two_rank_mesh_exchanges_frames() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t =
                    Tcp::connect_parts(0, 2, MasterEndpoint::Listener(master), None).unwrap();
                let wire_bytes =
                    t.send_bytes(1, 42, Payload::F32Dense(vec![1.0, 2.0]).as_ref()).unwrap();
                assert_eq!(wire_bytes, wire::frame_wire_bytes(8));
                let wire_bytes =
                    t.send_bytes(1, 44, Payload::Bytes(vec![7, 8, 9]).as_ref()).unwrap();
                assert_eq!(wire_bytes, wire::frame_wire_bytes(3));
                t.barrier().unwrap();
                t.recv_bytes(1, 43).unwrap().expect_u64()
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(1, 2, MasterEndpoint::Addr(addr), None).unwrap();
                let got = t.recv_bytes(0, 42).unwrap().expect_f32();
                assert_eq!(got, vec![1.0, 2.0]);
                assert_eq!(t.recv_bytes(0, 44).unwrap().expect_bytes(), vec![7, 8, 9]);
                t.barrier().unwrap();
                t.send_bytes(0, 43, Payload::PackedU64(vec![3]).as_ref()).unwrap();
                got
            });
            assert_eq!(j0.join().unwrap(), vec![3]);
            j1.join().unwrap();
        });
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t =
                    Tcp::connect_parts(0, 2, MasterEndpoint::Listener(master), None).unwrap();
                t.send_bytes(1, 1, Payload::F32Dense(vec![1.0]).as_ref()).unwrap();
                t.send_bytes(1, 2, Payload::F32Dense(vec![2.0]).as_ref()).unwrap();
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(1, 2, MasterEndpoint::Addr(addr), None).unwrap();
                // Request the second frame first: the first must be parked
                // in the pending queue, not lost.
                assert_eq!(t.recv_bytes(0, 2).unwrap().expect_f32(), vec![2.0]);
                assert_eq!(t.recv_bytes(0, 1).unwrap().expect_f32(), vec![1.0]);
            });
            j0.join().unwrap();
            j1.join().unwrap();
        });
    }

    /// The elastic-handling first slice: a dead peer surfaces as a typed
    /// [`TransportError::PeerClosed`] naming rank, peer, tag and cause —
    /// from both the blocking receive and the nonblocking probe — instead
    /// of hanging forever or panicking in a reader thread.
    #[test]
    fn dead_peer_is_a_typed_error() {
        let master = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let j0 = s.spawn(move || {
                let mut t =
                    Tcp::connect_parts(0, 2, MasterEndpoint::Listener(master), None).unwrap();
                // Rank 1 exits without sending: the blocking receive must
                // observe the EOF and fail with the peer's identity.
                let err = t.recv_bytes(1, 0x42).unwrap_err();
                match &err {
                    TransportError::PeerClosed { rank, peer, tag, .. } => {
                        assert_eq!((*rank, *peer, *tag), (0, 1, Some(0x42)));
                    }
                    other => panic!("expected PeerClosed, got {other:?}"),
                }
                assert!(err.to_string().contains("rank 0"), "{err}");
                // The probe agrees once the link is known dead.
                assert!(t.try_recv_bytes(1, 0x43).is_err());
            });
            let j1 = s.spawn(move || {
                let t = Tcp::connect_parts(1, 2, MasterEndpoint::Addr(addr), None).unwrap();
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
                let mut t =
                    Tcp::connect_parts(0, 3, MasterEndpoint::Listener(master), None).unwrap();
                t.recv_bytes(2, 1).unwrap_err(); // observe the death
                t.classify_survivors()
            });
            let j1 = s.spawn(move || {
                let mut t = Tcp::connect_parts(1, 3, MasterEndpoint::Addr(addr0), None).unwrap();
                t.recv_bytes(2, 1).unwrap_err();
                t.classify_survivors()
            });
            let j2 = s.spawn(move || {
                let t = Tcp::connect_parts(2, 3, MasterEndpoint::Addr(addr1), None).unwrap();
                drop(t); // abrupt death: EOF on every link, no goodbye
            });
            j2.join().unwrap();
            let expect = Some(vec![true, true, false]);
            assert_eq!(j0.join().unwrap(), expect);
            assert_eq!(j1.join().unwrap(), expect);
        });
    }
}
