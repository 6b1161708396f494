//! Heartbeat/liveness tracking over the existing tag space.
//!
//! Every rank periodically sends a monotone sequence number to every peer
//! on [`HEARTBEAT_TAG`] — a tag inside the reserved
//! [`cluster_comm::ELASTIC_TAG`] namespace, which collective tag matching
//! never touches and `tag_space` accounting deliberately ignores — and
//! drains whatever heartbeats its peers have sent. A peer whose link
//! returns a [`TransportError`] on either path is marked dead and never
//! resurrects (within one membership generation; recovery builds a fresh
//! [`Membership`] for the shrunken world).
//!
//! Heartbeats are advisory: in a synchronous training loop the collective
//! itself is the authoritative failure detector (it cannot complete
//! without every rank), but the heartbeat plane notices deaths *between*
//! collectives — e.g. a rank that dies while everyone computes. The
//! elastic policy hands such a death to its recovery like a failed step's,
//! which records the `elastic/peer_dead` instant for both.

use cluster_comm::transport::wire::{Payload, PayloadRef};
use cluster_comm::{Transport, ELASTIC_TAG};

/// The heartbeat control tag: inside the elastic namespace, distinct from
/// every goodbye/census tag the transports use internally.
pub const HEARTBEAT_TAG: u64 = ELASTIC_TAG | (1 << 8);

/// Per-world liveness state for one rank.
#[derive(Debug, Clone)]
pub struct Membership {
    rank: usize,
    world: usize,
    seq: u64,
    /// Highest heartbeat sequence seen from each peer.
    last_seen: Vec<u64>,
    dead: Vec<bool>,
}

impl Membership {
    /// Fresh tracker for `rank` of `world` — everyone presumed alive.
    pub fn new(rank: usize, world: usize) -> Self {
        assert!(rank < world);
        Membership { rank, world, seq: 0, last_seen: vec![0; world], dead: vec![false; world] }
    }

    /// One heartbeat round on `t`: send `seq` to every live peer, drain
    /// every arrived heartbeat, and mark peers whose link errored. Returns
    /// the ranks that died *this* round.
    pub fn beat(&mut self, t: &mut dyn Transport) -> Vec<usize> {
        self.seq += 1;
        let mut newly_dead = Vec::new();
        for peer in 0..self.world {
            if peer == self.rank || self.dead[peer] {
                continue;
            }
            let mut lost =
                t.send_bytes(peer, HEARTBEAT_TAG, PayloadRef::PackedU64(&[self.seq])).is_err();
            while !lost {
                match t.recv_bytes(peer, HEARTBEAT_TAG, false) {
                    Ok(Some(Payload::PackedU64(seq))) => {
                        if let Some(&s) = seq.first() {
                            self.last_seen[peer] = self.last_seen[peer].max(s);
                        }
                    }
                    Ok(Some(_)) => {} // not a beat
                    Ok(None) => break,
                    Err(_) => lost = true,
                }
            }
            if lost {
                self.dead[peer] = true;
                newly_dead.push(peer);
            }
        }
        newly_dead
    }

    /// Liveness view, indexed by rank (self is always alive).
    pub fn alive(&self) -> Vec<bool> {
        (0..self.world).map(|r| r == self.rank || !self.dead[r]).collect()
    }

    /// True when `r` has not been declared dead.
    pub fn is_alive(&self, r: usize) -> bool {
        r == self.rank || !self.dead[r]
    }

    /// Highest sequence number received from `r`.
    pub fn last_seen(&self, r: usize) -> u64 {
        self.last_seen[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::transport::InProcShared;

    #[test]
    fn heartbeats_exchange_sequence_numbers() {
        let shared = InProcShared::new(2);
        let mut a = shared.endpoint(0);
        let mut b = shared.endpoint(1);
        let mut ma = Membership::new(0, 2);
        let mut mb = Membership::new(1, 2);
        assert!(ma.beat(&mut a).is_empty());
        assert!(mb.beat(&mut b).is_empty()); // b now saw a's seq 1
        assert!(ma.beat(&mut a).is_empty()); // a now saw b's seq 1
        assert_eq!(mb.last_seen(0), 1);
        assert_eq!(ma.last_seen(1), 1);
        assert!(ma.is_alive(1) && mb.is_alive(0));
    }

    #[test]
    fn a_frame_that_is_not_a_sequence_number_is_not_a_beat() {
        let shared = InProcShared::new(2);
        let mut a = shared.endpoint(0);
        let mut b = shared.endpoint(1);
        let mut ma = Membership::new(0, 2);
        b.send_bytes(0, HEARTBEAT_TAG, PayloadRef::Bytes(&[9; 8])).unwrap();
        assert!(ma.beat(&mut a).is_empty());
        assert_eq!(ma.last_seen(1), 0);
        assert!(ma.is_alive(1));
    }

    #[test]
    fn a_dropped_peer_is_detected_and_stays_dead() {
        let shared = InProcShared::new(3);
        let mut a = shared.endpoint(0);
        let b = shared.endpoint(1);
        let mut c = shared.endpoint(2);
        let mut ma = Membership::new(0, 3);
        assert!(ma.beat(&mut a).is_empty());
        drop(b);
        assert_eq!(ma.beat(&mut a), vec![1]);
        assert_eq!(ma.alive(), vec![true, false, true]);
        // Already-dead peers are skipped, not re-reported.
        assert!(ma.beat(&mut a).is_empty());
        // The third rank is unaffected.
        let mut mc = Membership::new(2, 3);
        let dead = mc.beat(&mut c);
        assert_eq!(dead, vec![1]);
        assert!(mc.is_alive(0));
    }
}
