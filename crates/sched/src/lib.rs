//! # a2sgd-sched — sync schedules: *when* to communicate
//!
//! The paper cuts communication in **space** — A2SGD's 64-bit two-means
//! packet per synchronization. An orthogonal line cuts it in **time**: run
//! `H` local optimizer steps between averaging rounds (local / parallel
//! restarted SGD — Spiridonoff et al., "From Local SGD to One-Shot
//! Averaging"; Yu et al., "Parallel Restarted SGD"), optionally warming up
//! with dense every-step sync first (post-local SGD) or adapting `H` to the
//! observed inter-worker variance (Jiang & Agrawal, "Adaptive Periodic
//! Averaging"). This crate is that second axis as a standalone, dependency-
//! free value: a [`Schedule`] decides per step whether to synchronize or
//! stay local, and the trainer composes the decision with whatever
//! `GradientSynchronizer`/topology is configured — so period × compressor
//! multiply into a corner (e.g. one 64-bit packet every H steps) neither
//! axis reaches alone.
//!
//! ## Window semantics
//!
//! A **window** is a maximal run of consecutive steps ending in a `Sync`
//! decision: a period of `h` produces windows of exactly `h` steps —
//! `h − 1` `Local` steps followed by one `Sync`. Every [`SchedKind`] is
//! that one window counter: [`SchedKind::EveryStep`] is the `h = 1`
//! window, [`SchedKind::PostLocal`] adds an every-step warm-up, and only
//! [`SchedKind::Adaptive`] moves `h`. The trainer's contract (documented
//! at its integration point) is:
//!
//! * a `Sync` step closing a **degenerate** window (zero preceding local
//!   steps, i.e. `state().local_in_window == 0`) takes the classic
//!   gradient-averaging path — for `h = 1` this makes the schedule
//!   bit-identical to the unscheduled trainer, since gradient averaging
//!   and parameter averaging coincide there;
//! * a `Sync` step closing a window with ≥ 1 local steps applies the local
//!   optimizer step first and then averages **parameters**, expressed as
//!   the pseudo-gradient `Δ = w_anchor − w` pushed through the very same
//!   synchronizer (exact averaging under dense; the O(1) two-means packet
//!   with a local residual under A2SGD).
//!
//! ## Determinism
//!
//! Collectives deadlock unless every rank makes the same decision at the
//! same step, so `decide` must be a pure function of schedule state that
//! evolves identically on all ranks. The schedule guarantees this by
//! construction: its state advances only through [`Schedule::record`]
//! (deterministic) and [`Schedule::observe_sync`] fed with a dispersion
//! the caller derives from *globally agreed* statistics (an allgathered
//! drift norm, or the A2SGD means every rank already holds — never
//! rank-local values).

/// The per-step verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDecision {
    /// Run the configured synchronizer this step (gradient path for a
    /// degenerate window, parameter averaging otherwise).
    Sync,
    /// Skip communication entirely: apply the local optimizer step and
    /// move on — 0 wire bits.
    Local,
}

/// Checkpointable schedule state: everything needed to re-enter a period
/// at the exact phase it was captured at (bit-exact resume mid-window).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedState {
    /// Local steps taken since the last sync (the phase within the window).
    pub local_in_window: u64,
    /// The period currently in force (fixed schedules: the configured `h`;
    /// adaptive: the controller's latest choice).
    pub current_h: u64,
    /// The adaptive controller's reference dispersion — the first
    /// observation, against which later ones are ratioed. `0.0` means "not
    /// yet observed" (real observations are clamped strictly positive).
    pub ref_dispersion: f64,
}

/// Floor for recorded dispersions: keeps the reference strictly positive
/// so `0.0` can mean "not yet observed" in [`SchedState`].
const MIN_DISPERSION: f64 = 1e-12;

/// Copyable schedule selector — the `TrainConfig` field and CLI spelling,
/// mirroring the algorithm registry's `AlgoKind` shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Sync every step (the classic trainer, unchanged): the `h = 1`
    /// window.
    #[default]
    EveryStep,
    /// Local SGD / parallel restarted SGD: windows of exactly `h` steps.
    Fixed(u32),
    /// Post-local SGD: dense every-step sync for the first `warmup` steps
    /// (large-batch stability), then windows of `h`.
    PostLocal {
        /// Every-step warmup length in steps.
        warmup: u32,
        /// Period after the warmup.
        h: u32,
    },
    /// Adaptive periodic averaging (Jiang & Agrawal-style) seeded with
    /// base period `h0`: the first sync's dispersion becomes the reference
    /// `v₀`; thereafter the period tracks
    /// `h = clamp(round(h₀ · √(v₀ / v)), 1, max(8·h₀, 64))` — high
    /// inter-worker variance (early training) keeps syncs frequent, and as
    /// replicas settle the period stretches toward the ceiling. All
    /// arithmetic is deterministic f64 over globally-agreed observations,
    /// so every rank adapts in lockstep.
    Adaptive(u32),
}

impl SchedKind {
    /// Display label as figures/CLI print it: `every`, `fixed8`,
    /// `postlocal16+8`, `adaptive4`.
    pub fn label(&self) -> String {
        match *self {
            SchedKind::EveryStep => "every".into(),
            SchedKind::Fixed(h) => format!("fixed{h}"),
            SchedKind::PostLocal { warmup, h } => format!("postlocal{warmup}+{h}"),
            SchedKind::Adaptive(h0) => format!("adaptive{h0}"),
        }
    }

    /// Parses the [`label`](Self::label) spellings back (case-insensitive).
    /// Periods must be ≥ 1; `fixed1` is accepted (and bit-identical to
    /// `every` by the trainer's degenerate-window contract).
    pub fn parse(s: &str) -> Option<SchedKind> {
        let l = s.trim().to_ascii_lowercase();
        if l == "every" {
            return Some(SchedKind::EveryStep);
        }
        if let Some(rest) = l.strip_prefix("fixed") {
            let h: u32 = rest.parse().ok()?;
            return (h >= 1).then_some(SchedKind::Fixed(h));
        }
        if let Some(rest) = l.strip_prefix("postlocal") {
            let (w, h) = rest.split_once('+')?;
            let (warmup, h) = (w.parse().ok()?, h.parse().ok()?);
            return (h >= 1).then_some(SchedKind::PostLocal { warmup, h });
        }
        if let Some(rest) = l.strip_prefix("adaptive") {
            let h0: u32 = rest.parse().ok()?;
            return (h0 >= 1).then_some(SchedKind::Adaptive(h0));
        }
        None
    }

    /// True for [`SchedKind::EveryStep`] — callers use this to keep the
    /// unscheduled fast path.
    pub fn is_every_step(&self) -> bool {
        matches!(self, SchedKind::EveryStep)
    }

    /// The configured period (`h₀` for the adaptive controller), clamped
    /// to ≥ 1.
    fn base_h(&self) -> u64 {
        match *self {
            SchedKind::EveryStep => 1,
            SchedKind::Fixed(h) | SchedKind::PostLocal { h, .. } | SchedKind::Adaptive(h) => {
                u64::from(h.max(1))
            }
        }
    }
}

/// A sync schedule: one window counter driven by its [`SchedKind`].
///
/// The flow per step is `decide` → (trainer acts on it) → `record`; after
/// a `Sync` the trainer additionally calls `observe_sync` when
/// [`wants_dispersion`](Self::wants_dispersion) asked for the statistic.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    kind: SchedKind,
    state: SchedState,
}

impl Schedule {
    /// A fresh schedule: phase 0, period `h` (`h₀` when adaptive).
    pub fn new(kind: SchedKind) -> Self {
        let state = SchedState { current_h: kind.base_h(), ..SchedState::default() };
        Schedule { kind, state }
    }

    /// The verdict for (0-based) global step `step`. Read-only: calling it
    /// twice without an intervening `record` returns the same answer.
    pub fn decide(&self, step: u64) -> SyncDecision {
        let warming =
            matches!(self.kind, SchedKind::PostLocal { warmup, .. } if step < u64::from(warmup));
        if warming || self.state.local_in_window + 1 >= self.state.current_h {
            SyncDecision::Sync
        } else {
            SyncDecision::Local
        }
    }

    /// Advances the window phase after the trainer acted on `decision`.
    pub fn record(&mut self, decision: SyncDecision) {
        match decision {
            SyncDecision::Local => self.state.local_in_window += 1,
            SyncDecision::Sync => self.state.local_in_window = 0,
        }
    }

    /// True when the schedule adapts to the dispersion statistic, telling
    /// the trainer it is worth producing (it may cost an extra 128-bit
    /// allgather when no free one is available).
    pub fn wants_dispersion(&self) -> bool {
        matches!(self.kind, SchedKind::Adaptive(_))
    }

    /// Feedback after a sync completed: the normalized inter-worker
    /// dispersion of the synchronized quantity (identical on every rank —
    /// see the crate docs). Only the adaptive controller reads it;
    /// non-finite values are ignored.
    pub fn observe_sync(&mut self, dispersion: f64) {
        if !self.wants_dispersion() || !dispersion.is_finite() {
            return;
        }
        let v = dispersion.max(MIN_DISPERSION);
        if self.state.ref_dispersion <= 0.0 {
            self.state.ref_dispersion = v;
        }
        let target = self.kind.base_h() as f64 * (self.state.ref_dispersion / v).sqrt();
        self.state.current_h = (target.round() as u64).clamp(1, self.h_max());
    }

    /// The adaptive controller's ceiling on the period: `max(8·h₀, 64)`.
    fn h_max(&self) -> u64 {
        (8 * self.kind.base_h()).max(64)
    }

    /// Snapshot for checkpointing.
    pub fn state(&self) -> SchedState {
        self.state
    }

    /// Restores a [`state`](Self::state) snapshot (resume / elastic
    /// catch-up). Only the adaptive controller adopts a stored period and
    /// reference; out-of-range values are clamped, never panicked on.
    pub fn load_state(&mut self, s: SchedState) {
        if self.wants_dispersion() {
            self.state.current_h = s.current_h.clamp(1, self.h_max());
            self.state.ref_dispersion =
                if s.ref_dispersion.is_finite() { s.ref_dispersion.max(0.0) } else { 0.0 };
        }
        self.state.local_in_window = s.local_in_window.min(self.state.current_h - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a schedule for `steps` steps, returning the decision string
    /// (`S`/`L` per step).
    fn drive(sched: &mut Schedule, steps: u64) -> String {
        (0..steps)
            .map(|t| {
                let d = sched.decide(t);
                sched.record(d);
                match d {
                    SyncDecision::Sync => 'S',
                    SyncDecision::Local => 'L',
                }
            })
            .collect()
    }

    #[test]
    fn every_step_always_syncs() {
        let mut s = Schedule::new(SchedKind::EveryStep);
        assert_eq!(drive(&mut s, 6), "SSSSSS");
        assert!(SchedKind::EveryStep.is_every_step());
    }

    #[test]
    fn fixed_period_windows_are_exactly_h() {
        let mut s = Schedule::new(SchedKind::Fixed(4));
        assert_eq!(drive(&mut s, 12), "LLLSLLLSLLLS");
        let mut s = Schedule::new(SchedKind::Fixed(1));
        assert_eq!(drive(&mut s, 5), "SSSSS");
        assert_eq!(s.state().local_in_window, 0);
    }

    #[test]
    fn post_local_warms_up_dense_then_goes_periodic() {
        let mut s = Schedule::new(SchedKind::PostLocal { warmup: 3, h: 4 });
        // 3 every-step syncs, then 4-step windows.
        assert_eq!(drive(&mut s, 11), "SSSLLLSLLLS");
    }

    #[test]
    fn adaptive_lengthens_as_dispersion_decays() {
        let mut s = Schedule::new(SchedKind::Adaptive(4));
        let h = |s: &Schedule| s.state().current_h;
        assert_eq!(h(&s), 4);
        // First observation sets the reference: h stays at h0.
        s.observe_sync(1.0);
        assert_eq!(h(&s), 4);
        // Dispersion fell 4× → h doubles (√4 = 2).
        s.observe_sync(0.25);
        assert_eq!(h(&s), 8);
        // Dispersion spiked 4× above the reference → h halves.
        s.observe_sync(4.0);
        assert_eq!(h(&s), 2);
        // Non-finite observations are ignored.
        s.observe_sync(f64::NAN);
        assert_eq!(h(&s), 2);
        // The ceiling binds no matter how far dispersion collapses.
        s.observe_sync(1e-30);
        assert_eq!(h(&s), 64);
    }

    #[test]
    fn state_round_trips_mid_window() {
        let mut a = Schedule::new(SchedKind::Adaptive(4));
        a.observe_sync(0.5);
        a.record(SyncDecision::Sync);
        a.record(SyncDecision::Local);
        a.record(SyncDecision::Local);
        let snap = a.state();
        assert_eq!(snap.local_in_window, 2);

        let mut b = Schedule::new(SchedKind::Adaptive(4));
        b.load_state(snap);
        // Both continue identically from the captured phase.
        for t in 0..16 {
            assert_eq!(a.decide(t), b.decide(t), "step {t}");
            let d = a.decide(t);
            a.record(d);
            b.record(d);
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn load_state_clamps_out_of_range_phase() {
        let mut s = Schedule::new(SchedKind::Fixed(4));
        s.load_state(SchedState { local_in_window: 99, current_h: 99, ref_dispersion: 0.5 });
        // Clamped into the window: the very next decision syncs.
        assert_eq!(s.decide(0), SyncDecision::Sync);
        // Only the adaptive controller adopts a stored period and reference.
        assert_eq!(s.state(), SchedState { local_in_window: 3, current_h: 4, ref_dispersion: 0.0 });
        let mut a = Schedule::new(SchedKind::Adaptive(2));
        a.load_state(SchedState { local_in_window: 99, current_h: 99, ref_dispersion: f64::NAN });
        assert_eq!(
            a.state(),
            SchedState { local_in_window: 63, current_h: 64, ref_dispersion: 0.0 }
        );
    }

    #[test]
    fn kind_labels_parse_round_trip() {
        for kind in [
            SchedKind::EveryStep,
            SchedKind::Fixed(1),
            SchedKind::Fixed(8),
            SchedKind::PostLocal { warmup: 16, h: 8 },
            SchedKind::Adaptive(4),
        ] {
            assert_eq!(SchedKind::parse(&kind.label()), Some(kind), "{}", kind.label());
        }
        assert_eq!(SchedKind::parse("fixed0"), None);
        assert_eq!(SchedKind::parse("postlocal16"), None);
        assert_eq!(SchedKind::parse("nope"), None);
        assert_eq!(SchedKind::parse("FIXED8"), Some(SchedKind::Fixed(8)));
    }

    #[test]
    fn decide_is_pure_between_records() {
        let mut s = Schedule::new(SchedKind::Fixed(3));
        assert_eq!(s.decide(0), s.decide(0));
        s.record(SyncDecision::Local);
        assert_eq!(s.decide(1), SyncDecision::Local);
        s.record(SyncDecision::Local);
        assert_eq!(s.decide(2), SyncDecision::Sync);
    }

    /// Drives `kind` for 30 steps, feeding each sync the next dispersion of
    /// a fixed cycle; returns the decision string and `state()` after every
    /// step as `local_in_window/current_h/ref_dispersion`.
    fn table(kind: SchedKind) -> (String, String) {
        let dispersions = [1.0, 0.25, 4.0, 1e-30, f64::NAN, 0.5];
        let mut s = Schedule::new(kind);
        let (mut syncs, mut states) = (0, Vec::new());
        let decisions = (0..30)
            .map(|t| {
                let d = s.decide(t);
                s.record(d);
                if d == SyncDecision::Sync {
                    s.observe_sync(dispersions[syncs % dispersions.len()]);
                    syncs += 1;
                }
                let st = s.state();
                states
                    .push(format!("{}/{}/{}", st.local_in_window, st.current_h, st.ref_dispersion));
                if d == SyncDecision::Sync {
                    'S'
                } else {
                    'L'
                }
            })
            .collect();
        (decisions, states.join(" "))
    }

    /// Every kind through the one state machine, pinned to a recorded
    /// table of decisions and states.
    #[test]
    fn every_kind_reproduces_the_pinned_window_table() {
        let every = (
            "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSS",
            "0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 \
             0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 0/1/0 \
             0/1/0 0/1/0 0/1/0 0/1/0",
        );
        let cases = [
            (SchedKind::EveryStep, every),
            (SchedKind::Fixed(1), every),
            (
                SchedKind::Fixed(4),
                (
                    "LLLSLLLSLLLSLLLSLLLSLLLSLLLSLL",
                    "1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 \
                     1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 \
                     1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0",
                ),
            ),
            (
                SchedKind::PostLocal { warmup: 3, h: 4 },
                (
                    "SSSLLLSLLLSLLLSLLLSLLLSLLLSLLL",
                    "0/4/0 0/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 \
                     2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0 0/4/0 1/4/0 \
                     2/4/0 3/4/0 0/4/0 1/4/0 2/4/0 3/4/0",
                ),
            ),
            (
                SchedKind::Adaptive(4),
                (
                    "LLLSLLLSLLLLLLLSLSLLLLLLLLLLLL",
                    "1/4/0 2/4/0 3/4/0 0/4/1 1/4/1 2/4/1 3/4/1 0/8/1 1/8/1 2/8/1 3/8/1 4/8/1 \
                     5/8/1 6/8/1 7/8/1 0/2/1 1/2/1 0/64/1 1/64/1 2/64/1 3/64/1 4/64/1 5/64/1 \
                     6/64/1 7/64/1 8/64/1 9/64/1 10/64/1 11/64/1 12/64/1",
                ),
            ),
        ];
        for (kind, (decisions, states)) in cases {
            let (d, s) = table(kind);
            assert_eq!(d, decisions, "{kind:?} decisions");
            assert_eq!(s, states, "{kind:?} states");
        }
        // `fixed1` is the every-step window on both counts.
        assert_eq!(table(SchedKind::EveryStep), table(SchedKind::Fixed(1)));
    }
}
