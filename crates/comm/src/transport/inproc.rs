//! The in-process transport: per-rank shared-memory mailboxes.
//!
//! Every rank is a thread of one process; a send pushes a message into the
//! destination's mailbox under a mutex, a receive blocks on the mailbox
//! condvar. This is the seed repo's original data plane, now behind the
//! [`Transport`] trait. It moves bytes and nothing else: the Hockney price
//! of a collective is added above it, by the communicator.

use crate::transport::wire::{Payload, PayloadRef};
use crate::transport::{Transport, TransportError};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocator for [`InProcShared::trace_salt`] values.
static NEXT_TRACE_SALT: AtomicU64 = AtomicU64::new(1);

struct Msg {
    tag: u64,
    from: usize,
    data: Payload,
}

#[derive(Default)]
struct Mailbox {
    q: Mutex<Vec<Msg>>,
    cv: Condvar,
}

/// Sense-reversing centralized barrier (see "Rust Atomics and Locks" ch. 4/9
/// for the pattern). Spin-waits with `yield_now` — rank counts here are ≤ 32.
struct SenseBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    total: usize,
}

impl SenseBarrier {
    fn new(total: usize) -> Self {
        SenseBarrier { count: AtomicUsize::new(0), sense: AtomicBool::new(false), total }
    }

    /// Waits until all `total` ranks arrived, or returns the rank whose
    /// `departed` flag shows it never will.
    fn wait(&self, local_sense: &mut bool, departed: &[AtomicBool]) -> Result<(), usize> {
        let my_sense = !*local_sense;
        *local_sense = my_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            return Ok(());
        }
        let released = || self.sense.load(Ordering::Acquire) == my_sense;
        while !released() {
            if let Some(peer) = departed.iter().position(|d| d.load(Ordering::Acquire)) {
                // A rank that left after passing this barrier set its flag
                // (release) after it saw the sense flip, so the flip is
                // visible by now; an unflipped sense means it never arrived.
                return if released() { Ok(()) } else { Err(peer) };
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// State shared by all ranks of one in-process cluster: mailboxes and the
/// rendezvous barrier.
pub struct InProcShared {
    world: usize,
    mailboxes: Vec<Mailbox>,
    barrier: SenseBarrier,
    /// Per-rank departure flags: set when a rank's endpoint is dropped, so
    /// survivors blocked on its traffic or in the barrier get
    /// [`TransportError::PeerClosed`]
    /// instead of waiting forever — the shared-memory analogue of a TCP
    /// EOF.
    departed: Vec<AtomicBool>,
    /// Distinguishes concurrent mailbox worlds in trace flow ids: the
    /// mixed-backend hierarchy runs one in-process world per group, whose
    /// `(from, to, tag)` triples would otherwise collide in a merged trace.
    trace_salt: u64,
}

impl InProcShared {
    /// Allocates the shared state for `world` ranks.
    pub fn new(world: usize) -> Arc<Self> {
        assert!(world >= 1, "world must be ≥ 1");
        Arc::new(InProcShared {
            world,
            mailboxes: (0..world).map(|_| Mailbox::default()).collect(),
            barrier: SenseBarrier::new(world),
            departed: (0..world).map(|_| AtomicBool::new(false)).collect(),
            trace_salt: NEXT_TRACE_SALT.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The per-rank endpoint. Each rank must be taken exactly once and
    /// moved to its thread.
    pub fn endpoint(self: &Arc<Self>, rank: usize) -> InProc {
        assert!(rank < self.world);
        InProc { rank, shared: self.clone(), local_sense: false }
    }
}

/// One rank's endpoint of the in-process mailbox transport.
pub struct InProc {
    rank: usize,
    shared: Arc<InProcShared>,
    local_sense: bool,
}

impl InProc {
    fn flow(&self, from: usize, to: usize, tag: u64) -> u64 {
        a2sgd_trace::flow_id(((from as u64) << 32) | to as u64, tag, self.shared.trace_salt)
    }

    /// Frames already mailed before the sender departed stay receivable;
    /// only a *missing* frame from a departed rank is an error.
    fn peer_departed(&self, from: usize, tag: u64) -> Option<TransportError> {
        self.shared.departed[from].load(Ordering::Acquire).then(|| self.closed(from, Some(tag)))
    }

    fn closed(&self, peer: usize, tag: Option<u64>) -> TransportError {
        TransportError::PeerClosed { rank: self.rank, peer, tag, cause: "endpoint dropped".into() }
    }
}

impl Drop for InProc {
    fn drop(&mut self) {
        self.shared.departed[self.rank].store(true, Ordering::Release);
        // Wake every blocked receiver so it can re-check departure flags.
        // Lock-then-notify: a receiver between its flag check and its
        // cv.wait holds the queue lock, so the notify can't slip past it.
        for mb in &self.shared.mailboxes {
            let _q = mb.q.lock();
            mb.cv.notify_all();
        }
    }
}

impl Transport for InProc {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.shared.world
    }

    fn backend_name(&self) -> &'static str {
        "inproc"
    }

    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        let t0 = a2sgd_trace::now_ns();
        let mb = &self.shared.mailboxes[to];
        let mut q = mb.q.lock();
        q.push(Msg { tag, from: self.rank, data: payload.to_owned() });
        mb.cv.notify_all();
        drop(q);
        let bytes = payload.byte_len() as u64;
        if a2sgd_trace::enabled() {
            a2sgd_trace::closed_span_flow(
                crate::transport::send_span_name(payload.kind()),
                t0,
                a2sgd_trace::Args::Wire { from: self.rank, to, tag, bytes },
                self.flow(self.rank, to, tag),
                true,
            );
        }
        // A memcpy has no framing: wire bytes == payload bytes. Shared
        // memory has no peer loss either — sends are infallible.
        Ok(bytes)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64) -> Result<Payload, TransportError> {
        let t0 = a2sgd_trace::now_ns();
        let mb = &self.shared.mailboxes[self.rank];
        let mut q = mb.q.lock();
        loop {
            if let Some(pos) = q.iter().position(|m| m.tag == tag && m.from == from) {
                let data = q.swap_remove(pos).data;
                drop(q);
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span_flow(
                        crate::transport::recv_span_name(data.kind()),
                        t0,
                        a2sgd_trace::Args::Wire {
                            from,
                            to: self.rank,
                            tag,
                            bytes: data.byte_len() as u64,
                        },
                        self.flow(from, self.rank, tag),
                        false,
                    );
                }
                return Ok(data);
            }
            if let Some(e) = self.peer_departed(from, tag) {
                return Err(e);
            }
            mb.cv.wait(&mut q);
        }
    }

    fn try_recv_bytes(&mut self, from: usize, tag: u64) -> Result<Option<Payload>, TransportError> {
        // Mailbox polling: one lock, one scan, no wait — the nonblocking
        // collectives' progress probe. Only hits are traced; recording
        // every miss would bury the timeline in poll noise.
        let t0 = a2sgd_trace::now_ns();
        let mb = &self.shared.mailboxes[self.rank];
        let mut q = mb.q.lock();
        let got = q
            .iter()
            .position(|m| m.tag == tag && m.from == from)
            .map(|pos| q.swap_remove(pos).data);
        drop(q);
        if got.is_none() {
            if let Some(e) = self.peer_departed(from, tag) {
                return Err(e);
            }
        }
        if let Some(data) = &got {
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span_flow(
                    crate::transport::recv_span_name(data.kind()),
                    t0,
                    a2sgd_trace::Args::Wire {
                        from,
                        to: self.rank,
                        tag,
                        bytes: data.byte_len() as u64,
                    },
                    self.flow(from, self.rank, tag),
                    false,
                );
            }
        }
        Ok(got)
    }

    fn barrier(&mut self) -> Result<(u64, u64), TransportError> {
        match self.shared.barrier.wait(&mut self.local_sense, &self.shared.departed) {
            Ok(()) => Ok((0, 0)), // shared-memory rendezvous: nothing on any wire
            Err(peer) => Err(self.closed(peer, None)),
        }
    }

    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        // Departure flags are the census: a dropped endpoint *is* a dead
        // rank in the shared-memory world. No goodbye protocol is needed —
        // the flag store is release-ordered against the drop.
        Some(
            (0..self.shared.world)
                .map(|r| r == self.rank || !self.shared.departed[r].load(Ordering::Acquire))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_matches_tag_and_source() {
        let shared = InProcShared::new(3);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        let mut e2 = shared.endpoint(2);
        e1.send_bytes(0, 7, Payload::F32Dense(vec![1.0]).as_ref()).unwrap();
        e2.send_bytes(0, 7, Payload::F32Dense(vec![2.0]).as_ref()).unwrap();
        // Same tag, different sources: recv must disambiguate by rank.
        assert_eq!(e0.recv_bytes(2, 7).unwrap().expect_f32(), vec![2.0]);
        assert_eq!(e0.recv_bytes(1, 7).unwrap().expect_f32(), vec![1.0]);
    }

    #[test]
    fn payload_kind_survives_the_mailbox() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        let sent = e1.send_bytes(0, 1, Payload::PackedU64(vec![0xA2_5D]).as_ref()).unwrap();
        assert_eq!(sent, 8, "memcpy wire bytes == payload bytes");
        assert_eq!(e0.recv_bytes(1, 1).unwrap().expect_u64(), vec![0xA2_5D]);
        e1.send_bytes(0, 2, Payload::Bytes(vec![9, 8, 7]).as_ref()).unwrap();
        assert_eq!(e0.recv_bytes(1, 2).unwrap().expect_bytes(), vec![9, 8, 7]);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        assert!(e0.try_recv_bytes(1, 9).unwrap().is_none(), "nothing sent yet");
        e1.send_bytes(0, 9, Payload::Bytes(vec![3]).as_ref()).unwrap();
        let got = e0.try_recv_bytes(1, 9).unwrap().expect("frame arrived");
        assert_eq!(got.expect_bytes(), vec![3]);
        assert!(e0.try_recv_bytes(1, 9).unwrap().is_none(), "frame consumed");
    }

    #[test]
    fn dropped_endpoint_is_a_typed_error() {
        // The in-proc mirror of TCP's `dead_peer_is_a_typed_error`: a
        // receive posted against a dropped mailbox must be PeerClosed,
        // not a hang — for both the blocking and the polling receive.
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        drop(shared.endpoint(1));
        match e0.recv_bytes(1, 42) {
            Err(TransportError::PeerClosed { rank, peer, tag, .. }) => {
                assert_eq!((rank, peer, tag), (0, 1, Some(42)));
            }
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        assert!(matches!(e0.try_recv_bytes(1, 42), Err(TransportError::PeerClosed { .. })));
    }

    #[test]
    fn barrier_with_a_departed_peer_is_a_typed_error() {
        // The barrier half of the same contract: a rank that can never
        // arrive fails the wait instead of spinning it forever, and a rank
        // that leaves *after* a barrier released does not fail that barrier.
        let shared = InProcShared::new(2);
        let (mut e0, mut e1) = (shared.endpoint(0), shared.endpoint(1));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let first = e0.barrier();
            tx.send((first, e0.barrier())).unwrap();
        });
        e1.barrier().unwrap();
        drop(e1);
        let (first, second) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("barrier against a dropped endpoint hung");
        assert_eq!(first, Ok((0, 0)));
        match second {
            Err(TransportError::PeerClosed { rank, peer, tag, .. }) => {
                assert_eq!((rank, peer, tag), (0, 1, None));
            }
            other => panic!("expected PeerClosed, got {other:?}"),
        }
    }

    #[test]
    fn frames_sent_before_drop_stay_receivable() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        e1.send_bytes(0, 5, Payload::Bytes(vec![1, 2]).as_ref()).unwrap();
        drop(e1);
        // The mailed frame outlives its sender; only the *next* one errs.
        assert_eq!(e0.recv_bytes(1, 5).unwrap().expect_bytes(), vec![1, 2]);
        assert!(matches!(e0.recv_bytes(1, 5), Err(TransportError::PeerClosed { .. })));
    }

    #[test]
    fn blocked_receiver_is_woken_by_peer_drop() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let e1 = shared.endpoint(1);
        std::thread::scope(|s| {
            let j = s.spawn(move || e0.recv_bytes(1, 9));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(e1);
            assert!(matches!(j.join().unwrap(), Err(TransportError::PeerClosed { .. })));
        });
    }

    #[test]
    fn classify_survivors_reports_departed_ranks() {
        let shared = InProcShared::new(3);
        let mut e0 = shared.endpoint(0);
        let _e1 = shared.endpoint(1);
        drop(shared.endpoint(2));
        assert_eq!(e0.classify_survivors(), Some(vec![true, true, false]));
    }
}
