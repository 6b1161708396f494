//! The in-process transport: per-link shared-memory inboxes.
//!
//! Every rank is a thread of one process; a send pushes a copy of the frame
//! into the destination's [`Inbox`] for this sender, a receive takes it out
//! (blocking on that link's condvar when it has not arrived). It moves bytes
//! and nothing else: the Hockney price of a collective is added above it,
//! by the communicator.

use crate::transport::inbox::{self, Inbox};
use crate::transport::wire::PayloadRef;
use crate::transport::{RecvResult, Transport, TransportError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocator for [`InProcShared::trace_salt`] values.
static NEXT_TRACE_SALT: AtomicU64 = AtomicU64::new(1);

/// State shared by all ranks of one in-process cluster: one inbox per
/// directed link.
pub struct InProcShared {
    world: usize,
    /// `links[to · world + from]` holds what `from` sent `to`. A dropped
    /// endpoint closes the links it sends on — the shared-memory analogue
    /// of a TCP EOF — so a survivor blocked on its traffic gets
    /// [`TransportError::PeerClosed`] instead of waiting forever.
    links: Vec<Inbox>,
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
            links: (0..world * world).map(|_| Inbox::default()).collect(),
            trace_salt: NEXT_TRACE_SALT.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The per-rank endpoint. Each rank must be taken exactly once and
    /// moved to its thread.
    pub fn endpoint(self: &Arc<Self>, rank: usize) -> InProc {
        assert!(rank < self.world);
        InProc { rank, shared: self.clone() }
    }

    fn link(&self, from: usize, to: usize) -> &Inbox {
        &self.links[to * self.world + from]
    }
}

/// One rank's endpoint of the in-process mailbox transport.
pub struct InProc {
    rank: usize,
    shared: Arc<InProcShared>,
}

impl Drop for InProc {
    fn drop(&mut self) {
        for to in 0..self.shared.world {
            self.shared.link(self.rank, to).close("endpoint dropped");
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
        self.shared.link(self.rank, to).push(tag, payload.to_owned());
        // A memcpy has no framing: wire bytes == payload bytes. Shared
        // memory has no peer loss either — sends are infallible.
        let bytes = payload.byte_len() as u64;
        let salt = self.shared.trace_salt;
        crate::transport::wire_span(true, payload.kind(), t0, (self.rank, to, tag), bytes, salt);
        Ok(bytes)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult {
        // A memcpy has no framing: wire bytes == payload bytes.
        let link = self.shared.link(from, self.rank);
        inbox::recv(link, (self.rank, from, tag), block, |n| n as u64, self.shared.trace_salt)
    }

    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        // A closed incoming link is the census: a dropped endpoint *is* a
        // dead rank in the shared-memory world. No goodbye protocol is
        // needed.
        let alive = |r: usize| r == self.rank || !self.shared.link(r, self.rank).is_closed();
        Some((0..self.shared.world).map(alive).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::wire::Payload;

    #[test]
    fn send_recv_matches_tag_and_source() {
        let shared = InProcShared::new(3);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        let mut e2 = shared.endpoint(2);
        e1.send_bytes(0, 7, Payload::F32Dense(vec![1.0]).as_ref()).unwrap();
        e2.send_bytes(0, 7, Payload::F32Dense(vec![2.0]).as_ref()).unwrap();
        // Same tag, different sources: recv must disambiguate by rank.
        assert_eq!(e0.recv_bytes(2, 7, true).unwrap().unwrap().expect_f32(), vec![2.0]);
        assert_eq!(e0.recv_bytes(1, 7, true).unwrap().unwrap().expect_f32(), vec![1.0]);
    }

    #[test]
    fn payload_kind_survives_the_mailbox() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        let sent = e1.send_bytes(0, 1, Payload::PackedU64(vec![0xA2_5D]).as_ref()).unwrap();
        assert_eq!(sent, 8, "memcpy wire bytes == payload bytes");
        assert_eq!(e0.recv_bytes(1, 1, true).unwrap().unwrap().expect_u64(), vec![0xA2_5D]);
        e1.send_bytes(0, 2, Payload::Bytes(vec![9, 8, 7]).as_ref()).unwrap();
        assert_eq!(e0.recv_bytes(1, 2, true).unwrap().unwrap().expect_bytes(), vec![9, 8, 7]);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        assert!(e0.recv_bytes(1, 9, false).unwrap().is_none(), "nothing sent yet");
        e1.send_bytes(0, 9, Payload::Bytes(vec![3]).as_ref()).unwrap();
        let got = e0.recv_bytes(1, 9, false).unwrap().expect("frame arrived");
        assert_eq!(got.expect_bytes(), vec![3]);
        assert!(e0.recv_bytes(1, 9, false).unwrap().is_none(), "frame consumed");
    }

    #[test]
    fn dropped_endpoint_is_a_typed_error() {
        // The in-proc mirror of TCP's `dead_peer_is_a_typed_error`: a
        // receive posted against a dropped mailbox must be PeerClosed,
        // not a hang — for both the blocking and the polling receive.
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        drop(shared.endpoint(1));
        match e0.recv_bytes(1, 42, true) {
            Err(TransportError::PeerClosed { rank, peer, tag, .. }) => {
                assert_eq!((rank, peer, tag), (0, 1, Some(42)));
            }
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        assert!(matches!(e0.recv_bytes(1, 42, false), Err(TransportError::PeerClosed { .. })));
    }

    #[test]
    fn frames_sent_before_drop_stay_receivable() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let mut e1 = shared.endpoint(1);
        e1.send_bytes(0, 5, Payload::Bytes(vec![1, 2]).as_ref()).unwrap();
        drop(e1);
        // The mailed frame outlives its sender; only the *next* one errs.
        assert_eq!(e0.recv_bytes(1, 5, true).unwrap().unwrap().expect_bytes(), vec![1, 2]);
        assert!(matches!(e0.recv_bytes(1, 5, true), Err(TransportError::PeerClosed { .. })));
    }

    #[test]
    fn blocked_receiver_is_woken_by_peer_drop() {
        let shared = InProcShared::new(2);
        let mut e0 = shared.endpoint(0);
        let e1 = shared.endpoint(1);
        std::thread::scope(|s| {
            let j = s.spawn(move || e0.recv_bytes(1, 9, true));
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
