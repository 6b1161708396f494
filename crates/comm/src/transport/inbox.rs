//! The receive half of a directed link, shared by both backends.
//!
//! One [`Inbox`] holds the frames one peer has sent this rank and that no
//! receive has claimed yet. The in-process sender pushes into it directly;
//! a TCP link's reader thread pushes what it drains off the socket. Closing
//! it — the sender's endpoint dropped, the socket hit EOF or desynced —
//! turns a receive of a frame that never arrived into the close cause,
//! while frames parked before the close stay receivable. [`recv`] is the
//! one place that cause becomes [`TransportError::PeerClosed`] and the one
//! place a receive is traced.

use crate::transport::wire::Payload;
use crate::transport::{RecvResult, TransportError};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

#[derive(Default)]
struct State {
    frames: VecDeque<(u64, Payload)>,
    /// Why the link ended; the first cause wins.
    closed: Option<String>,
}

/// Tag-matched frames parked on one directed link (see module docs).
#[derive(Default)]
pub(crate) struct Inbox {
    state: Mutex<State>,
    cv: Condvar,
}

impl Inbox {
    /// Parks a frame and wakes the link's receiver.
    pub(crate) fn push(&self, tag: u64, frame: Payload) {
        self.state.lock().frames.push_back((tag, frame));
        self.cv.notify_all();
    }

    /// Marks the link ended: no further frame will arrive. Lock-then-notify,
    /// so a receiver between its check and its wait cannot miss the wake.
    pub(crate) fn close(&self, cause: impl Into<String>) {
        self.state.lock().closed.get_or_insert_with(|| cause.into());
        self.cv.notify_all();
    }

    /// Whether the sending side has ended the link.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().closed.is_some()
    }

    /// Removes and returns the frame carrying `tag`. When it has not
    /// arrived: waits for it if `block`, else returns `Ok(None)`. `Err` is
    /// the close cause of a link that ended without delivering it.
    pub(crate) fn take(&self, tag: u64, block: bool) -> Result<Option<Payload>, String> {
        let mut st = self.state.lock();
        loop {
            if let Some(pos) = st.frames.iter().position(|(t, _)| *t == tag) {
                return Ok(st.frames.remove(pos).map(|(_, frame)| frame));
            }
            if let Some(cause) = &st.closed {
                return Err(cause.clone());
            }
            if !block {
                return Ok(None);
            }
            self.cv.wait(&mut st);
        }
    }
}

/// A backend's receive: takes the frame `from` sent `rank` under `tag` out
/// of that link's `inbox`. `wire_bytes` maps a payload length to what the
/// backend put on the wire for it and `salt` is its trace flow namespace —
/// the only two things the backends' receives differ in. Only hits are
/// traced; recording every poll miss would bury the timeline in noise.
pub(crate) fn recv(
    inbox: &Inbox,
    (rank, from, tag): (usize, usize, u64),
    block: bool,
    wire_bytes: fn(usize) -> u64,
    salt: u64,
) -> RecvResult {
    let t0 = a2sgd_trace::now_ns();
    let got = inbox.take(tag, block).map_err(|cause| TransportError::PeerClosed {
        rank,
        peer: from,
        tag: Some(tag),
        cause,
    })?;
    if let Some(frame) = &got {
        let bytes = wire_bytes(frame.byte_len());
        crate::transport::wire_span(false, frame.kind(), t0, (from, rank, tag), bytes, salt);
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(got: Result<Option<Payload>, String>) -> Result<Option<Vec<u8>>, String> {
        got.map(|frame| frame.map(Payload::expect_bytes))
    }

    #[test]
    fn close_keeps_the_first_cause() {
        let inbox = Inbox::default();
        inbox.close("connection reset");
        inbox.close("endpoint dropped");
        assert!(inbox.is_closed());
        assert_eq!(bytes(inbox.take(1, true)), Err("connection reset".to_string()));
    }

    #[test]
    fn blocking_take_ignores_other_tags_without_losing_them() {
        // Tag A is parked before the receive of tag B starts: only B's own
        // frame completes it (whether it arrives before or after the
        // receiver sleeps), and A is still there for its own receive.
        let inbox = Inbox::default();
        inbox.push(0xA, Payload::Bytes(vec![1]));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| inbox.take(0xB, true));
            inbox.push(0xB, Payload::Bytes(vec![2]));
            assert_eq!(bytes(waiter.join().unwrap()), Ok(Some(vec![2])));
        });
        assert_eq!(bytes(inbox.take(0xA, false)), Ok(Some(vec![1])));
        assert_eq!(bytes(inbox.take(0xA, false)), Ok(None));
    }
}
