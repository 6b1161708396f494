//! Unified algorithm registry: baselines + the A2SGD family — each kind's
//! name, Table-2 complexity and closed-form wire bits, and its builder.

use crate::algorithm::{A2sgd, A2sgdCarry};
use gradcomp::sparse::{k_of, PAIR_BITS};
use gradcomp::{
    DenseSgd, GaussianK, GradientSynchronizer, Qsgd, QsgdImpl, RandK, SignSgdEf, TernGrad, TopK,
};

/// Density ratio the paper uses for Top-K/Gaussian-K ("0.001" — appendix).
pub const PAPER_DENSITY: f32 = 0.001;

/// Quantization level the paper uses for QSGD (appendix: level 4).
pub const PAPER_QSGD_LEVELS: u8 = 4;

/// Every synchronization algorithm the workspace can run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgoKind {
    /// Dense SGD baseline.
    Dense,
    /// Top-K sparsification (density ratio).
    TopK(f32),
    /// Gaussian-K sparsification (density ratio).
    GaussianK(f32),
    /// QSGD quantization (levels).
    Qsgd(u8),
    /// The paper's contribution.
    A2sgd,
    /// Carried-error ablation.
    A2sgdCarry,
    /// Rand-K extension.
    RandK(f32),
    /// TernGrad extension.
    TernGrad,
    /// EF-SignSGD extension.
    SignSgd,
}

impl AlgoKind {
    /// The five algorithms in the paper's figures, in legend order.
    pub fn paper_five() -> [AlgoKind; 5] {
        [
            AlgoKind::Dense,
            AlgoKind::TopK(PAPER_DENSITY),
            AlgoKind::Qsgd(PAPER_QSGD_LEVELS),
            AlgoKind::GaussianK(PAPER_DENSITY),
            AlgoKind::A2sgd,
        ]
    }

    /// Every kind the registry can build, with the three sparsifiers at
    /// `density` (tests turn it up from [`PAPER_DENSITY`] so small models
    /// still select non-trivial frames).
    pub fn all(density: f32) -> Vec<AlgoKind> {
        vec![
            AlgoKind::Dense,
            AlgoKind::TopK(density),
            AlgoKind::GaussianK(density),
            AlgoKind::Qsgd(PAPER_QSGD_LEVELS),
            AlgoKind::A2sgd,
            AlgoKind::A2sgdCarry,
            AlgoKind::RandK(density),
            AlgoKind::TernGrad,
            AlgoKind::SignSgd,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::Dense => "Dense",
            AlgoKind::TopK(_) => "TopK",
            AlgoKind::GaussianK(_) => "GaussianK",
            AlgoKind::Qsgd(_) => "QSGD",
            AlgoKind::A2sgd => "A2SGD",
            AlgoKind::A2sgdCarry => "A2SGD-carry",
            AlgoKind::RandK(_) => "RandK",
            AlgoKind::TernGrad => "TernGrad",
            AlgoKind::SignSgd => "SignSGD-EF",
        }
    }

    /// Asymptotic computation complexity label (Table 2 column 2).
    pub fn complexity(&self) -> &'static str {
        match self {
            AlgoKind::Dense => "O(1)",
            AlgoKind::TopK(_) => "O(n + k·log n)",
            AlgoKind::RandK(_) => "O(k)",
            AlgoKind::Qsgd(_) => "O(n²)",
            AlgoKind::GaussianK(_)
            | AlgoKind::A2sgd
            | AlgoKind::A2sgdCarry
            | AlgoKind::TernGrad
            | AlgoKind::SignSgd => "O(n)",
        }
    }

    /// Closed-form wire bits per worker for an `n`-parameter model — the
    /// size of the encoded payload under whole-model exchange (Table 2
    /// column 3, with the index and scale overheads the encoding carries,
    /// sub-byte packs padded to whole bytes). For deterministic encodings
    /// this is the measured single-bucket `SyncStats::wire_bits`; for the
    /// threshold rule (≈ k records) and entropy-coded QSGD it is the
    /// target and the published expectation (2.8n + 32, Alistarh et al.).
    pub fn wire_bits(&self, n: usize) -> u64 {
        let n64 = n as u64;
        match *self {
            AlgoKind::Dense => 32 * n64,
            AlgoKind::TopK(r) | AlgoKind::GaussianK(r) | AlgoKind::RandK(r) => {
                PAIR_BITS * k_of(n, r) as u64
            }
            AlgoKind::Qsgd(_) => (2.8 * n as f64).round() as u64 + 32,
            AlgoKind::A2sgd | AlgoKind::A2sgdCarry => A2sgd::WIRE_BITS,
            AlgoKind::TernGrad => 8 * (2 * n64).div_ceil(8) + 32,
            AlgoKind::SignSgd => 8 * n64.div_ceil(8) + 32,
        }
    }

    /// Instantiates the synchronizer for an `n`-parameter model; `seed`
    /// feeds the stochastic algorithms, `rank` decorrelates their
    /// worker-local streams.
    pub fn build(&self, n: usize, seed: u64, rank: usize) -> Box<dyn GradientSynchronizer> {
        let stream = seed ^ rank as u64;
        match *self {
            AlgoKind::Dense => Box::new(DenseSgd::new()),
            AlgoKind::TopK(r) => Box::new(TopK::new(n, r)),
            AlgoKind::GaussianK(r) => Box::new(GaussianK::new(n, r)),
            AlgoKind::Qsgd(s) => Box::new(Qsgd::new(s, QsgdImpl::Fast, stream)),
            AlgoKind::A2sgd => Box::new(A2sgd::new()),
            AlgoKind::A2sgdCarry => Box::new(A2sgdCarry::new(n)),
            AlgoKind::RandK(r) => Box::new(RandK::new(n, r, stream)),
            AlgoKind::TernGrad => Box::new(TernGrad::new(stream)),
            AlgoKind::SignSgd => Box::new(SignSgdEf::new(n)),
        }
    }

    /// Parses a full synchronization spec: either a bare algorithm name
    /// (schedule = every step) or `sched(<schedule>, <algo>)` composing a
    /// sync schedule with the inner algorithm — e.g. `sched(fixed8, a2sgd)`
    /// is one 64-bit packet every 8 steps. Schedule spellings are
    /// [`a2sgd_sched::SchedKind::parse`]'s (`every`, `fixed<H>`,
    /// `postlocal<W>+<H>`, `adaptive<H0>`).
    pub fn parse_spec(s: &str) -> Option<(a2sgd_sched::SchedKind, AlgoKind)> {
        let t = s.trim();
        if let Some(rest) = t.strip_prefix("sched(").and_then(|r| r.strip_suffix(')')) {
            let (sched, algo) = rest.split_once(',')?;
            return Some((a2sgd_sched::SchedKind::parse(sched)?, AlgoKind::parse(algo.trim())?));
        }
        Some((a2sgd_sched::SchedKind::EveryStep, AlgoKind::parse(t)?))
    }

    /// Parses a CLI name (`a2sgd`, `topk`, `qsgd`, …) or any [`name`],
    /// case-insensitively; sparsifiers and QSGD at the paper's density and
    /// levels.
    ///
    /// [`name`]: AlgoKind::name
    pub fn parse(s: &str) -> Option<AlgoKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "dense" => AlgoKind::Dense,
            "topk" => AlgoKind::TopK(PAPER_DENSITY),
            "gaussiank" | "gaussian-k" => AlgoKind::GaussianK(PAPER_DENSITY),
            "qsgd" => AlgoKind::Qsgd(PAPER_QSGD_LEVELS),
            "a2sgd" => AlgoKind::A2sgd,
            "a2sgd-carry" => AlgoKind::A2sgdCarry,
            "randk" => AlgoKind::RandK(PAPER_DENSITY),
            "terngrad" => AlgoKind::TernGrad,
            "signsgd" | "signsgd-ef" => AlgoKind::SignSgd,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_five_build_and_report_wire_bits() {
        let n = 100_000;
        for kind in AlgoKind::paper_five() {
            let _ = kind.build(n, 1, 0);
            let bits = kind.wire_bits(n);
            match kind {
                AlgoKind::Dense => assert_eq!(bits, 32 * n as u64),
                // Sparse frames carry (u32 idx, f32 val) records: 64 bits
                // per kept coordinate — the size that crosses the socket.
                AlgoKind::TopK(_) | AlgoKind::GaussianK(_) => assert_eq!(bits, 64 * 100),
                AlgoKind::Qsgd(_) => assert_eq!(bits, (2.8 * n as f64) as u64 + 32),
                AlgoKind::A2sgd => assert_eq!(bits, 64),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for (s, expect) in [
            ("dense", AlgoKind::Dense),
            ("topk", AlgoKind::TopK(PAPER_DENSITY)),
            ("gaussiank", AlgoKind::GaussianK(PAPER_DENSITY)),
            ("QSGD", AlgoKind::Qsgd(4)),
            ("a2sgd", AlgoKind::A2sgd),
            ("a2sgd-carry", AlgoKind::A2sgdCarry),
            ("terngrad", AlgoKind::TernGrad),
            ("signsgd", AlgoKind::SignSgd),
        ] {
            assert_eq!(AlgoKind::parse(s), Some(expect), "{s}");
        }
        assert_eq!(AlgoKind::parse("nope"), None);
    }

    #[test]
    fn every_name_parses_back_to_its_kind() {
        // What `fig3_convergence --backend tcp` hands its rank children.
        for kind in AlgoKind::all(PAPER_DENSITY) {
            assert_eq!(AlgoKind::parse(kind.name()), Some(kind), "{}", kind.name());
        }
    }

    #[test]
    fn parse_spec_composes_schedules_with_algorithms() {
        use a2sgd_sched::SchedKind;
        assert_eq!(
            AlgoKind::parse_spec("sched(fixed8, a2sgd)"),
            Some((SchedKind::Fixed(8), AlgoKind::A2sgd))
        );
        assert_eq!(
            AlgoKind::parse_spec("sched(postlocal16+8, dense)"),
            Some((SchedKind::PostLocal { warmup: 16, h: 8 }, AlgoKind::Dense))
        );
        assert_eq!(
            AlgoKind::parse_spec("sched(adaptive4,qsgd)"),
            Some((SchedKind::Adaptive(4), AlgoKind::Qsgd(PAPER_QSGD_LEVELS)))
        );
        // Bare names keep the every-step degenerate schedule.
        assert_eq!(AlgoKind::parse_spec("a2sgd"), Some((SchedKind::EveryStep, AlgoKind::A2sgd)));
        assert_eq!(AlgoKind::parse_spec("sched(fixed8)"), None);
        assert_eq!(AlgoKind::parse_spec("sched(nope, a2sgd)"), None);
    }

    #[test]
    fn a2sgd_is_the_only_o1_comm_algorithm() {
        // The paper's headline claim, checked mechanically: at paper-scale
        // n, only the A2SGD family has size-independent wire bits (the
        // sparsifiers' k follows n through the density ratio).
        for kind in AlgoKind::all(PAPER_DENSITY) {
            let (small, large) = (kind.wire_bits(199_210), kind.wire_bits(66_034_000));
            match kind {
                AlgoKind::A2sgd | AlgoKind::A2sgdCarry => assert_eq!((small, large), (64, 64)),
                _ => assert!(small < large, "{} should scale with n", kind.name()),
            }
        }
    }
}
