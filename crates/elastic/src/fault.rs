//! Deterministic fault injection.
//!
//! Elastic behavior is only testable if failures are *reproducible*: a
//! soak test that relies on racing threads to die at interesting moments
//! flakes, and a flake in a recovery test is indistinguishable from a
//! recovery bug. So faults here are data, not chance: a [`FaultPlan`]
//! scripts exactly what goes wrong and when, every schedule is derived
//! from a seed via SplitMix64, and the same seed replays the same
//! failure. The plan's two halves act at different layers:
//!
//! * `kill_at_iter` is consumed by the elastic recovery policy
//!   ([`crate::train::train_elastic`]): its pre-step hook ends the
//!   designated rank's run in the trainer's loop *before* that step, and
//!   the rank drops its transport cold — no goodbye, exactly like a
//!   SIGKILLed process from its peers' point of view.
//! * [`WireFault`]s are applied by [`FaultInjector`], a transparent
//!   [`Transport`] wrapper that counts sends and drops or delays the
//!   scripted ones. The code under test holds an ordinary `dyn Transport`
//!   and cannot tell it is being sabotaged.

use cluster_comm::transport::wire::PayloadRef;
use cluster_comm::{RecvResult, Transport, TransportError};

/// SplitMix64 — the tiny, high-quality mixer the fault schedules derive
/// from (same generator family the synthetic datasets use).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted wire-level fault, keyed by the 0-based ordinal of the
/// send call it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Silently discard the `nth` send: the caller sees success, the
    /// frame never leaves. Models a lost datagram / switch drop.
    DropSend {
        /// 0-based ordinal of the victim send.
        nth: u64,
    },
    /// Stall the `nth` send by `millis` before letting it through.
    /// Models transient congestion.
    DelaySend {
        /// 0-based ordinal of the victim send.
        nth: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// A per-rank failure script. Deterministic: two runs with the same plan
/// fail identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Die (drop the endpoint without a goodbye) immediately *before*
    /// computing this 0-based training iteration.
    pub kill_at_iter: Option<u64>,
    /// Scripted send-path faults, applied by [`FaultInjector`].
    pub wire: Vec<WireFault>,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Kill this rank right before iteration `iter`.
    pub fn kill_at(iter: u64) -> Self {
        FaultPlan { kill_at_iter: Some(iter), wire: Vec::new() }
    }

    /// Kill at a seed-chosen iteration in `lo..hi` — the soak tests'
    /// "random but replayable" death schedule.
    pub fn random_kill(seed: u64, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "empty kill window {lo}..{hi}");
        Self::kill_at(lo + splitmix64(seed ^ 0xFA17) % (hi - lo))
    }

    /// Adds a wire fault (builder-style).
    pub fn with_wire(mut self, f: WireFault) -> Self {
        self.wire.push(f);
        self
    }
}

/// A [`Transport`] wrapper that applies a [`FaultPlan`]'s wire faults.
/// Everything else — receives, census — passes straight through, so
/// wrapping is behavior-preserving under the empty plan.
pub struct FaultInjector {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    sends: u64,
}

impl FaultInjector {
    /// Wraps `inner`, sabotaging it per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        FaultInjector { inner, plan, sends: 0 }
    }

    /// Send calls observed so far (faulted or not).
    pub fn sends(&self) -> u64 {
        self.sends
    }
}

impl Transport for FaultInjector {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn ranks_on_host(&self) -> usize {
        self.inner.ranks_on_host()
    }

    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        let nth = self.sends;
        self.sends += 1;
        for f in &self.plan.wire {
            match *f {
                WireFault::DropSend { nth: n } if n == nth => {
                    if a2sgd_trace::enabled() {
                        a2sgd_trace::instant("fault/drop_send", a2sgd_trace::Args::Value(n as f64));
                    }
                    // The caller sees a successful zero-byte send.
                    return Ok(0);
                }
                WireFault::DelaySend { nth: n, millis } if n == nth => {
                    if a2sgd_trace::enabled() {
                        a2sgd_trace::instant(
                            "fault/delay_send",
                            a2sgd_trace::Args::Value(millis as f64),
                        );
                    }
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        self.inner.send_bytes(to, tag, payload)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult {
        self.inner.recv_bytes(from, tag, block)
    }

    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        self.inner.classify_survivors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::sim::run_cluster;

    #[test]
    fn random_kill_is_deterministic_and_in_window() {
        let a = FaultPlan::random_kill(7, 5, 15);
        let b = FaultPlan::random_kill(7, 5, 15);
        assert_eq!(a, b);
        let k = a.kill_at_iter.unwrap();
        assert!((5..15).contains(&k), "kill iter {k} outside window");
        // A different seed eventually lands elsewhere.
        assert!((0..64).any(|s| FaultPlan::random_kill(s, 5, 15) != a));
    }

    #[test]
    fn empty_plan_is_transparent() {
        // A collective through the injector behaves exactly like one
        // without it.
        let out = run_cluster(2, cluster_comm::NetworkProfile::infiniband_100g(), |h| {
            let mut v = vec![h.rank() as f32 + 1.0];
            h.allreduce_sum(&mut v);
            v[0]
        });
        assert_eq!(out, vec![3.0, 3.0]);
    }

    #[test]
    fn drop_send_swallows_exactly_the_scripted_frame() {
        use cluster_comm::transport::InProcShared;
        let shared = InProcShared::new(2);
        let a = shared.endpoint(0);
        let b = shared.endpoint(1);
        let mut inj = FaultInjector::new(
            Box::new(a),
            FaultPlan::none().with_wire(WireFault::DropSend { nth: 1 }),
        );
        let mut b: Box<dyn Transport> = Box::new(b);
        inj.send_bytes(1, 7, PayloadRef::PackedU64(&[10])).unwrap();
        inj.send_bytes(1, 8, PayloadRef::PackedU64(&[11])).unwrap(); // dropped
        inj.send_bytes(1, 9, PayloadRef::PackedU64(&[12])).unwrap();
        assert!(b.recv_bytes(0, 7, false).unwrap().is_some());
        assert!(b.recv_bytes(0, 8, false).unwrap().is_none(), "dropped frame arrived");
        assert!(b.recv_bytes(0, 9, false).unwrap().is_some());
        assert_eq!(inj.sends(), 3);
    }

    #[test]
    fn delay_send_stalls_but_delivers() {
        use cluster_comm::transport::InProcShared;
        let shared = InProcShared::new(2);
        let a = shared.endpoint(0);
        let mut b = shared.endpoint(1);
        let mut inj = FaultInjector::new(
            Box::new(a),
            FaultPlan::none().with_wire(WireFault::DelaySend { nth: 0, millis: 30 }),
        );
        let t0 = std::time::Instant::now();
        inj.send_bytes(1, 1, PayloadRef::PackedU64(&[1])).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        assert!(b.recv_bytes(0, 1, false).unwrap().is_some());
    }
}
