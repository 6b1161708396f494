//! Sub-communicator data plane: a rank-remapping view over a shared root
//! transport.
//!
//! [`crate::CommHandle::split`] carves a communicator into groups. Each
//! group member gets a [`GroupTransport`]: the same underlying endpoint
//! (wrapped in `Arc<Mutex<…>>` so parent and children on one rank share
//! it), plus
//!
//! * a **member map** translating group sub-ranks to root-absolute ranks,
//! * a **tag space** injected into bits 48..63 of every collective tag, so
//!   concurrent parent/child collectives on the same socket/mailbox can
//!   never match each other's frames.
//!
//! That is all a sub-communicator is: every collective above it, the
//! barrier included, is the same code that runs on a world.
//!
//! The mutex is never contended: a rank's parent handle and all its
//! sub-handles live on the same thread (the SPMD contract makes their use
//! strictly sequential), and cross-rank delivery goes through the
//! *destination's* mailbox or socket reader, never through this endpoint
//! object. Blocking a receive while holding the lock is therefore safe.

use crate::transport::wire::PayloadRef;
use crate::transport::{RecvResult, Transport, TransportError};
use parking_lot::Mutex;
use std::sync::Arc;

/// A root endpoint shared between one rank's parent handle and all the
/// sub-communicator handles split from it.
pub type SharedTransport = Arc<Mutex<Box<dyn Transport>>>;

/// Bit position where a sub-communicator's tag space is injected.
pub(crate) const SPACE_SHIFT: u32 = 48;
/// Tag spaces must leave bit 63 (elastic control traffic) clear.
pub(crate) const MAX_SPACE: u64 = 1 << 15;
/// Children of one parent draw spaces `parent·32 + 1 ..= parent·32 + 31`.
pub(crate) const SPACE_FANOUT: u64 = 32;

/// Elastic control-plane tags: bit 63 + bit 60. Heartbeats, goodbye
/// frames and any other membership traffic put on the raw transport, below
/// [`CommHandle`](crate::CommHandle), live here — disjoint from every
/// collective tag (bit 63 clear).
pub const ELASTIC_TAG: u64 = (1 << 63) | (1 << 60);

/// Classifies a wire tag into the tag space (communicator) whose
/// [`TrafficStats`](crate::TrafficStats) account the frame lands in, or
/// `None` for frames that are deliberately *not* accounted — the elastic
/// control plane's. This is the single place the tag bit layout is
/// interpreted for auditing: span-derived per-space wire bytes grouped by
/// this function must equal each communicator's `wire_bytes` exactly.
pub fn tag_space(tag: u64) -> Option<u64> {
    if tag >> 63 == 0 {
        // Collective tags: the space sits in bits 48..63.
        Some(tag >> SPACE_SHIFT)
    } else {
        // Elastic membership control frames ride the raw transport below
        // CommHandle and never hit TrafficStats — unaccounted by design,
        // so strict span-vs-stats audits hold.
        None
    }
}

/// One rank's endpoint of a split sub-communicator (see module docs).
pub struct GroupTransport {
    inner: SharedTransport,
    /// Sub-rank → root-absolute rank, sorted by the split's `(key, rank)`.
    members: Vec<usize>,
    sub_rank: usize,
    /// 0 is the parent's own view after its first split: every rank, tags
    /// passed through unchanged.
    space: u64,
    backend: &'static str,
}

impl GroupTransport {
    /// The parent's identity view over its own freshly-shared endpoint.
    pub(crate) fn identity(inner: SharedTransport) -> Self {
        let (world, rank, backend) = {
            let t = inner.lock();
            (t.world(), t.rank(), t.backend_name())
        };
        GroupTransport { inner, members: (0..world).collect(), sub_rank: rank, space: 0, backend }
    }

    /// A proper sub-communicator endpoint: `members[sub_rank]` must be the
    /// root rank owning `inner`.
    pub(crate) fn group(
        inner: SharedTransport,
        members: Vec<usize>,
        sub_rank: usize,
        space: u64,
    ) -> Self {
        assert!(space > 0 && space < MAX_SPACE, "tag space {space} out of range");
        assert!(sub_rank < members.len());
        debug_assert_eq!(members[sub_rank], inner.lock().rank());
        let backend = inner.lock().backend_name();
        GroupTransport { inner, members, sub_rank, space, backend }
    }

    /// The sub-rank → root-rank member map.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    fn spaced(&self, tag: u64) -> u64 {
        debug_assert!(
            tag >> SPACE_SHIFT == 0,
            "collective tag {tag:#x} overflows into the group tag space"
        );
        tag | (self.space << SPACE_SHIFT)
    }
}

impl Transport for GroupTransport {
    fn rank(&self) -> usize {
        self.sub_rank
    }

    fn world(&self) -> usize {
        self.members.len()
    }

    fn backend_name(&self) -> &'static str {
        self.backend
    }

    fn ranks_on_host(&self) -> usize {
        // A property of the machine, not of the group: ask the endpoint.
        self.inner.lock().ranks_on_host()
    }

    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        let tag = self.spaced(tag);
        self.inner.lock().send_bytes(self.members[to], tag, payload)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult {
        let tag = self.spaced(tag);
        self.inner.lock().recv_bytes(self.members[from], tag, block)
    }

    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        // Only the identity view (the parent's whole-world handle) can run
        // the census — a proper subgroup doesn't own the endpoint's
        // world-wide links and would misclassify non-members.
        if self.space == 0 {
            self.inner.lock().classify_survivors()
        } else {
            None
        }
    }
}

/// Placeholder installed while a handle's real endpoint is being moved into
/// the shared root; any use is a bug in the split plumbing.
pub(crate) struct Detached;

impl Transport for Detached {
    fn rank(&self) -> usize {
        unreachable!("detached transport")
    }

    fn world(&self) -> usize {
        unreachable!("detached transport")
    }

    fn backend_name(&self) -> &'static str {
        "detached"
    }

    fn send_bytes(
        &mut self,
        _to: usize,
        _tag: u64,
        _payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        unreachable!("detached transport")
    }

    fn recv_bytes(&mut self, _from: usize, _tag: u64, _block: bool) -> RecvResult {
        unreachable!("detached transport")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::inproc::InProcShared;
    use crate::transport::wire::Payload;

    fn shared_endpoint(world: usize, rank: usize, all: &Arc<InProcShared>) -> SharedTransport {
        let _ = world;
        Arc::new(Mutex::new(Box::new(all.endpoint(rank)) as Box<dyn Transport>))
    }

    #[test]
    fn group_remaps_ranks_and_spaces_tags() {
        // Root world 4; group {1, 3} as sub-ranks {0, 1} in space 5.
        let all = InProcShared::new(4);
        let e1 = shared_endpoint(4, 1, &all);
        let e3 = shared_endpoint(4, 3, &all);
        let mut g1 = GroupTransport::group(e1, vec![1, 3], 0, 5);
        let mut g3 = GroupTransport::group(e3.clone(), vec![1, 3], 1, 5);
        assert_eq!((g1.rank(), g1.world()), (0, 2));
        assert_eq!((g3.rank(), g3.world()), (1, 2));
        g1.send_bytes(1, 7, Payload::F32Dense(vec![2.5]).as_ref()).unwrap();
        // The frame sits in absolute rank 3's mailbox under the *spaced*
        // tag: invisible to an unspaced probe, visible to the group view.
        assert!(e3.lock().recv_bytes(1, 7, false).unwrap().is_none());
        let got = g3.recv_bytes(0, 7, true).unwrap().unwrap();
        assert_eq!(got.expect_f32(), vec![2.5]);
    }

    #[test]
    fn sibling_groups_share_a_space_without_crosstalk() {
        // Split {0,1} and {2,3} both in space 1: member pairs are disjoint,
        // so identical (tag, sub-rank) pairs cannot collide at the root.
        let all = InProcShared::new(4);
        let mk = |rank: usize, members: Vec<usize>, sub: usize| {
            GroupTransport::group(shared_endpoint(4, rank, &all), members, sub, 1)
        };
        let mut a0 = mk(0, vec![0, 1], 0);
        let mut a1 = mk(1, vec![0, 1], 1);
        let mut b0 = mk(2, vec![2, 3], 0);
        let mut b1 = mk(3, vec![2, 3], 1);
        a0.send_bytes(1, 9, Payload::PackedU64(vec![10]).as_ref()).unwrap();
        b0.send_bytes(1, 9, Payload::PackedU64(vec![20]).as_ref()).unwrap();
        assert_eq!(a1.recv_bytes(0, 9, true).unwrap().unwrap().expect_u64(), vec![10]);
        assert_eq!(b1.recv_bytes(0, 9, true).unwrap().unwrap().expect_u64(), vec![20]);
    }
}
