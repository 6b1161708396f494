//! Cache-blocked, register-tiled, packing GEMM — the matmul hot path.
//!
//! One descriptor, [`Gemm`], names all four transpose variants of
//! `C[m,n] = op(A)[m,k] · op(B)[k,n]`. The kernel follows the classic
//! BLIS/GotoBLAS decomposition:
//!
//! * **Packing.** `op(A)` is repacked into MR-row micro-panels and `op(B)`
//!   into NR-column micro-panels ([`PackedA`]/[`PackedB`]), k-blocked in
//!   [`KC`]-deep slabs. Inside a panel the layout is k-major and contiguous,
//!   so the microkernel streams both operands linearly regardless of where
//!   the operand came from. The panel loop is written once and a panel's
//!   source is a *filler* ([`Gemm::pack_a_with`]/[`Gemm::pack_b_with`]): a
//!   stored slice is one filler — transposition is absorbed there and costs
//!   O(mk + kn) against the O(mkn) multiply — and an operand that exists
//!   only as a coordinate map over other data (convolution's patch matrix)
//!   is another, so it is never materialised. Panels are handed out zeroed:
//!   edge panels stay zero-padded to full MR/NR width, and the padded lanes
//!   are computed and then discarded by the masked store, so non-finite
//!   inputs never leak (`0·inf = NaN` can only appear in lanes that are
//!   thrown away).
//! * **Microkernel.** An [`MR`]×[`NR`] register tile of accumulators is
//!   updated once per k-step ([`microkernel`]); the i/j loops are over
//!   fixed-size arrays, which LLVM fully unrolls and vectorises.
//! * **Blocking.** Loop order per output stripe is `jc (NC columns) → pc
//!   (KC depth) → jr (NR panel) → ir (MR panel)`: a B micro-panel stays in
//!   L1 across the stripe's row panels, the stripe's packed-A slab
//!   ([`MC`]×[`KC`] ≈ 48 KiB) stays in L2, and a `jc` column block keeps the
//!   active packed-B working set ([`KC`]×[`NC`] = 256 KiB) cache-resident.
//! * **Parallelism.** The output is split into [`MC`]-row stripes and
//!   distributed with the safe [`par::par_chunks_mut`] (disjoint `&mut`
//!   chunks — no raw-pointer `SendPtr`). Each C element is owned by exactly
//!   one stripe and accumulated in a fixed order (`pc` ascending, then `kk`
//!   ascending), so results are **bit-identical for every thread count**:
//!   pool widths 1/2/4/8/... all produce the same bytes. The
//!   determinism tests in `tests/gemm_parity.rs` pin this contract.
//!
//! Weight-stationary callers amortise packing: convolution packs the filter
//! matrix once per batch ([`Gemm::pack_a`]) and the LSTM packs its recurrent
//! weights once per sequence ([`Gemm::pack_b`]), reusing the panels across
//! every item/timestep via [`Gemm::run_packed`].

use crate::par;
use crate::tensor::Tensor;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C per register tile). With the
/// AVX2/FMA microkernel this is two 8-lane vectors per row: 6×2 = 12
/// accumulator registers, leaving ymm headroom for the B loads and the
/// A broadcast — the classic 6×16 f32 kernel shape.
pub const NR: usize = 16;
/// Row-stripe height: rows of C per parallel task and per packed-A slab
/// kept hot in L2. Must be a multiple of [`MR`].
pub const MC: usize = 48;
/// Depth of one packed k-slab (shared dimension blocking).
pub const KC: usize = 256;
/// Column-block width: columns of C whose packed-B panels are kept
/// cache-resident at once. Must be a multiple of [`NR`].
pub const NC: usize = 256;

/// Above this many fused multiply-adds (`m·k·n`), [`Gemm::run`] fans the
/// output stripes across the rayon pool. At the threshold a product is ~8 µs
/// (`gemm_st/packed/128` in `BENCH_kernels.json`: 2^21 FMAs in 0.06 ms)
/// against a ~2 µs fork/join (`fork_join/noop_x2@2`), and a second lane
/// first pays off near 2^21, so the ledger supports nothing lower.
pub const PAR_FLOPS: usize = 1 << 18;

/// Descriptor for one matrix product `C[m,n] = op(A) · op(B)`, where
/// `op(X) = Xᵀ` when the corresponding `trans_*` flag is set.
///
/// `m`, `k`, `n` are the *logical* dimensions after transposition: `op(A)`
/// is `m×k` and `op(B)` is `k×n`, so a `trans_a` operand is stored `k×m`
/// row-major and a `trans_b` operand `n×k`. `run` overwrites `c` entirely
/// (β = 0 in BLAS terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Treat the stored `A` as transposed (stored `k×m`).
    pub trans_a: bool,
    /// Treat the stored `B` as transposed (stored `n×k`).
    pub trans_b: bool,
    /// Rows of `op(A)` and of `C`.
    pub m: usize,
    /// Shared dimension: columns of `op(A)`, rows of `op(B)`.
    pub k: usize,
    /// Columns of `op(B)` and of `C`.
    pub n: usize,
}

/// `op(A)` repacked into MR-row micro-panels (see module docs). Produced by
/// [`Gemm::pack_a`]; reusable across products with the same `A` operand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedA {
    buf: Vec<f32>,
    m: usize,
    k: usize,
}

/// `op(B)` repacked into NR-column micro-panels. Produced by
/// [`Gemm::pack_b`]; reusable across products with the same `B` operand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
}

/// One KC-deep slab of the shared dimension: `(depth, a_off, b_off)` —
/// the slab's length and its base offsets into the packed buffers.
type KcBlock = (usize, usize, usize);

impl Gemm {
    /// `C = A·B` (no transposition).
    pub fn nn(m: usize, k: usize, n: usize) -> Self {
        Gemm { trans_a: false, trans_b: false, m, k, n }
    }

    /// `C = A·Bᵀ` (B stored `n×k`).
    pub fn nt(m: usize, k: usize, n: usize) -> Self {
        Gemm { trans_a: false, trans_b: true, m, k, n }
    }

    /// `C = Aᵀ·B` (A stored `k×m`).
    pub fn tn(m: usize, k: usize, n: usize) -> Self {
        Gemm { trans_a: true, trans_b: false, m, k, n }
    }

    /// `C = Aᵀ·Bᵀ` (A stored `k×m`, B stored `n×k`).
    pub fn tt(m: usize, k: usize, n: usize) -> Self {
        Gemm { trans_a: true, trans_b: true, m, k, n }
    }

    /// Element count of the stored `A` slice.
    pub fn a_len(&self) -> usize {
        self.m * self.k
    }

    /// Element count of the stored `B` slice.
    pub fn b_len(&self) -> usize {
        self.k * self.n
    }

    /// Element count of the output slice.
    pub fn c_len(&self) -> usize {
        self.m * self.n
    }

    #[inline(always)]
    fn a_at(&self, a: &[f32], i: usize, p: usize) -> f32 {
        if self.trans_a {
            a[p * self.m + i]
        } else {
            a[i * self.k + p]
        }
    }

    #[inline(always)]
    fn b_at(&self, b: &[f32], p: usize, j: usize) -> f32 {
        if self.trans_b {
            b[j * self.k + p]
        } else {
            b[p * self.n + j]
        }
    }

    /// Packs `op(A)` from wherever `fill` reads it. `fill(p0, i0, rows,
    /// panel)` writes one zeroed `kc×MR` k-major micro-panel: element
    /// `(i0 + i, p0 + kk)` of `op(A)` goes to `panel[kk * MR + i]` for
    /// `i < rows`; what it leaves untouched stays zero.
    pub fn pack_a_with(&self, pa: &mut PackedA, fill: impl FnMut(usize, usize, usize, &mut [f32])) {
        (pa.m, pa.k) = (self.m, self.k);
        pack_panels::<MR>(&mut pa.buf, self.k, self.m, fill);
    }

    /// Packs `op(A)` from its stored slice, reusing `pa`'s allocation.
    pub fn pack_a_into(&self, a: &[f32], pa: &mut PackedA) {
        assert_eq!(a.len(), self.a_len(), "pack_a: A length vs {}×{} descriptor", self.m, self.k);
        self.pack_a_with(pa, |p0, i0, rows, panel| {
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                for (i, d) in dst[..rows].iter_mut().enumerate() {
                    *d = self.a_at(a, i0 + i, p0 + kk);
                }
            }
        });
    }

    /// Packs `op(A)` into a fresh [`PackedA`].
    pub fn pack_a(&self, a: &[f32]) -> PackedA {
        let mut pa = PackedA::default();
        self.pack_a_into(a, &mut pa);
        pa
    }

    /// Packs `op(B)` from wherever `fill` reads it. `fill(p0, j0, cols,
    /// panel)` writes one zeroed `kc×NR` k-major micro-panel: element
    /// `(p0 + kk, j0 + j)` of `op(B)` goes to `panel[kk * NR + j]` for
    /// `j < cols`; what it leaves untouched stays zero.
    pub fn pack_b_with(&self, pb: &mut PackedB, fill: impl FnMut(usize, usize, usize, &mut [f32])) {
        (pb.k, pb.n) = (self.k, self.n);
        pack_panels::<NR>(&mut pb.buf, self.k, self.n, fill);
    }

    /// Packs `op(B)` from its stored slice, reusing `pb`'s allocation.
    pub fn pack_b_into(&self, b: &[f32], pb: &mut PackedB) {
        assert_eq!(b.len(), self.b_len(), "pack_b: B length vs {}×{} descriptor", self.k, self.n);
        let n = self.n;
        self.pack_b_with(pb, |p0, j0, cols, panel| {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                if self.trans_b {
                    for (j, d) in dst[..cols].iter_mut().enumerate() {
                        *d = self.b_at(b, p0 + kk, j0 + j);
                    }
                } else {
                    // op(B) rows are contiguous in storage: copy row slices.
                    dst[..cols].copy_from_slice(&b[(p0 + kk) * n + j0..][..cols]);
                }
            }
        });
    }

    /// Packs `op(B)` into a fresh [`PackedB`].
    pub fn pack_b(&self, b: &[f32]) -> PackedB {
        let mut pb = PackedB::default();
        self.pack_b_into(b, &mut pb);
        pb
    }

    /// KC-slab table shared by every stripe: depth and packed-buffer base
    /// offsets per slab, in the fixed ascending order the reduction uses.
    fn kc_blocks(&self) -> Vec<KcBlock> {
        let mpanels = self.m.div_ceil(MR);
        let npanels = self.n.div_ceil(NR);
        let mut blocks = Vec::with_capacity(self.k.div_ceil(KC).max(1));
        let (mut a_off, mut b_off) = (0usize, 0usize);
        for p0 in (0..self.k).step_by(KC) {
            let kc = KC.min(self.k - p0);
            blocks.push((kc, a_off, b_off));
            a_off += mpanels * MR * kc;
            b_off += npanels * NR * kc;
        }
        blocks
    }

    /// Macro-kernel over one MC-row stripe of `C` (`cstripe` = rows
    /// `[row0, row0 + cstripe.len()/n)`). Loop order `jc → pc → jr → ir`;
    /// the first slab overwrites the tile, later slabs accumulate, giving
    /// β=0 semantics without a separate zeroing pass.
    fn stripe(
        &self,
        cstripe: &mut [f32],
        row0: usize,
        blocks: &[KcBlock],
        pa: &PackedA,
        pb: &PackedB,
    ) {
        let n = self.n;
        let rows = cstripe.len() / n;
        let panel0 = row0 / MR; // row0 is MC-aligned and MC % MR == 0
        let panels = rows.div_ceil(MR);
        let npanels = n.div_ceil(NR);
        let jc_panels = NC / NR;
        for jc in (0..npanels).step_by(jc_panels) {
            let jc_end = (jc + jc_panels).min(npanels);
            for (pc_idx, &(kc, a_off, b_off)) in blocks.iter().enumerate() {
                let first = pc_idx == 0;
                for jr in jc..jc_end {
                    let bp = &pb.buf[b_off + jr * kc * NR..b_off + (jr + 1) * kc * NR];
                    for ip in 0..panels {
                        let ir = panel0 + ip;
                        let ap = &pa.buf[a_off + ir * kc * MR..a_off + (ir + 1) * kc * MR];
                        let acc = microkernel(ap, bp);
                        store_tile(cstripe, n, ip * MR, jr * NR, rows, &acc, first);
                    }
                }
            }
        }
    }

    /// Computes `C = op(A)·op(B)` from pre-packed operands. `parallel`
    /// distributes MC-row stripes across the rayon pool; sequential and
    /// parallel runs are bit-identical (each C element is reduced in the
    /// same fixed order by exactly one task).
    pub fn run_packed(&self, pa: &PackedA, pb: &PackedB, c: &mut [f32], parallel: bool) {
        assert_eq!((pa.m, pa.k), (self.m, self.k), "run_packed: PackedA vs descriptor");
        assert_eq!((pb.k, pb.n), (self.k, self.n), "run_packed: PackedB vs descriptor");
        assert_eq!(
            c.len(),
            self.c_len(),
            "run_packed: C length vs {}×{} descriptor",
            self.m,
            self.n
        );
        if self.m == 0 || self.n == 0 {
            return;
        }
        if self.k == 0 {
            c.fill(0.0);
            return;
        }
        let blocks = self.kc_blocks();
        let stripe_len = MC * self.n;
        if parallel && self.m > MC {
            par::par_chunks_mut(c, stripe_len, |s, cs| {
                self.stripe(cs, s * MC, &blocks, pa, pb);
            });
        } else {
            for (s, cs) in c.chunks_mut(stripe_len).enumerate() {
                self.stripe(cs, s * MC, &blocks, pa, pb);
            }
        }
    }

    /// Packs both operands and runs, parallelising when the product is
    /// large enough ([`PAR_FLOPS`]) to amortise fork/join.
    pub fn run(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let pa = self.pack_a(a);
        let pb = self.pack_b(b);
        let parallel = self.m.saturating_mul(self.k).saturating_mul(self.n) >= PAR_FLOPS;
        self.run_packed(&pa, &pb, c, parallel);
    }

    /// Single-threaded [`Gemm::run`] — the bench baseline and the inner
    /// kernel for callers that already parallelise at a coarser grain
    /// (e.g. conv over batch images).
    pub fn run_st(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let pa = self.pack_a(a);
        let pb = self.pack_b(b);
        self.run_packed(&pa, &pb, c, false);
    }

    /// Tensor-level convenience: checks both operands against the
    /// descriptor (including transposition) and returns a fresh `[m, n]`
    /// output tensor.
    pub fn run_tensor(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let want_a: &[usize] = &if self.trans_a { [self.k, self.m] } else { [self.m, self.k] };
        let want_b: &[usize] = &if self.trans_b { [self.n, self.k] } else { [self.k, self.n] };
        assert_eq!(a.shape().dims(), want_a, "Gemm::run_tensor: A shape vs descriptor {self:?}");
        assert_eq!(b.shape().dims(), want_b, "Gemm::run_tensor: B shape vs descriptor {self:?}");
        let mut c = Tensor::zeros([self.m, self.n]);
        self.run(a.as_slice(), b.as_slice(), c.as_mut_slice());
        c
    }
}

/// The panel loop, written once for both operand sides: lays an operand of
/// `extent` lanes (rows of `op(A)`, columns of `op(B)`) by `k` deep out as
/// `LANES`-wide micro-panels in [`KC`]-deep slabs — slab-major, then panel,
/// k-major inside — zero-filled, and hands each panel to
/// `fill(p0, l0, lanes, panel)` with its slab start, first lane and live
/// lane count (`< LANES` only on the edge panel, whose other lanes stay at
/// the zero fill).
fn pack_panels<const LANES: usize>(
    buf: &mut Vec<f32>,
    k: usize,
    extent: usize,
    mut fill: impl FnMut(usize, usize, usize, &mut [f32]),
) {
    buf.clear();
    buf.resize(extent.div_ceil(LANES) * LANES * k, 0.0);
    let mut off = 0usize;
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for l0 in (0..extent).step_by(LANES) {
            fill(p0, l0, LANES.min(extent - l0), &mut buf[off..off + kc * LANES]);
            off += kc * LANES;
        }
    }
}

/// The register tile: one MR×NR block of C accumulated over a full packed
/// panel pair (`ap`: `depth×MR` k-major, `bp`: `depth×NR` k-major). The
/// fixed-size accumulator array lives in vector registers; the k-loop is
/// the only sequential dependency and runs in ascending order.
///
/// On x86-64 with AVX2+FMA available at runtime the fused-multiply-add
/// variant is used (one rounding per multiply-add instead of two — still a
/// fixed reduction order, so thread-count determinism is unaffected; only
/// the machine-level instruction set changes which of the two fixed
/// functions runs). Everything else gets the portable scalar loop, which
/// LLVM vectorises for the baseline target.
#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma_available() {
            // SAFETY: the CPU supports avx2+fma (checked above); `ap`/`bp`
            // are full packed panels, so the pointer arithmetic inside
            // stays in bounds.
            return unsafe { microkernel_fma(ap, bp) };
        }
    }
    microkernel_generic(ap, bp)
}

#[inline(always)]
fn microkernel_generic(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    acc
}

/// Caches the one-time CPUID probe (std's detection macro already caches
/// internally; the relaxed atomic here keeps the hot path to a single
/// load).
#[cfg(target_arch = "x86_64")]
fn avx2_fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = no, 2 = yes
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// AVX2/FMA register tile: 12 ymm accumulators (6 rows × 2 vectors), one
/// broadcast ymm for A and two loads for B per k-step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    let depth = ap.len() / MR;
    debug_assert_eq!(bp.len() / NR, depth);
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    let mut ap_ptr = ap.as_ptr();
    let mut bp_ptr = bp.as_ptr();
    for _ in 0..depth {
        let b0 = _mm256_loadu_ps(bp_ptr);
        let b1 = _mm256_loadu_ps(bp_ptr.add(8));
        for i in 0..MR {
            let ai = _mm256_broadcast_ss(&*ap_ptr.add(i));
            acc[2 * i] = _mm256_fmadd_ps(ai, b0, acc[2 * i]);
            acc[2 * i + 1] = _mm256_fmadd_ps(ai, b1, acc[2 * i + 1]);
        }
        ap_ptr = ap_ptr.add(MR);
        bp_ptr = bp_ptr.add(NR);
    }
    let mut out = [[0.0f32; NR]; MR];
    for (i, row) in out.iter_mut().enumerate() {
        _mm256_storeu_ps(row.as_mut_ptr(), acc[2 * i]);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), acc[2 * i + 1]);
    }
    out
}

/// Writes the valid region of a register tile into `C` (row-major, leading
/// dimension `ldc`), overwriting on the first k-slab and accumulating on
/// the rest. Padded lanes (`r0+i ≥ nrows`, `c0+j ≥ ldc` columns) are
/// discarded here, which is what keeps edge-panel zero-padding inert.
#[inline(always)]
fn store_tile(
    c: &mut [f32],
    ldc: usize,
    r0: usize,
    c0: usize,
    nrows: usize,
    acc: &[[f32; NR]; MR],
    overwrite: bool,
) {
    let mr = MR.min(nrows - r0);
    let nr = NR.min(ldc - c0);
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let row = &mut c[(r0 + i) * ldc + c0..(r0 + i) * ldc + c0 + nr];
        if overwrite {
            for (d, v) in row.iter_mut().zip(acc_row) {
                *d = *v;
            }
        } else {
            for (d, v) in row.iter_mut().zip(acc_row) {
                *d += *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    /// Reference triple loop in the same reduction order (k ascending).
    fn naive(g: &Gemm, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; g.c_len()];
        for i in 0..g.m {
            for j in 0..g.n {
                let mut acc = 0.0f32;
                for p in 0..g.k {
                    acc += g.a_at(a, i, p) * g.b_at(b, p, j);
                }
                c[i * g.n + j] = acc;
            }
        }
        c
    }

    fn check(g: Gemm, seed: u64) {
        let mut rng = SeedRng::new(seed);
        let a = rng.randn_tensor(&[g.a_len().max(1)], 1.0);
        let b = rng.randn_tensor(&[g.b_len().max(1)], 1.0);
        let (a, b) = (&a.as_slice()[..g.a_len()], &b.as_slice()[..g.b_len()]);
        let mut c = vec![f32::NAN; g.c_len()];
        g.run(a, b, &mut c);
        let want = naive(&g, a, b);
        for (idx, (x, y)) in c.iter().zip(&want).enumerate() {
            let tol = 1e-4 * (1.0 + y.abs());
            assert!((x - y).abs() < tol, "{g:?} C[{idx}]: {x} vs {y}");
        }
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        for (i, (m, k, n)) in
            [(1, 1, 1), (5, 3, 7), (13, 300, 9), (MR, KC, NR), (50, 17, 70), (97, 64, 33)]
                .into_iter()
                .enumerate()
        {
            check(Gemm::nn(m, k, n), 100 + i as u64);
            check(Gemm::nt(m, k, n), 200 + i as u64);
            check(Gemm::tn(m, k, n), 300 + i as u64);
            check(Gemm::tt(m, k, n), 400 + i as u64);
        }
    }

    #[test]
    fn zero_dims_are_handled() {
        // k = 0: C must be overwritten with zeros, not left as garbage.
        let g = Gemm::nn(3, 0, 4);
        let mut c = vec![f32::NAN; 12];
        g.run(&[], &[], &mut c);
        assert!(c.iter().all(|v| *v == 0.0));
        // m·n = 0: no output, no panic.
        Gemm::nn(0, 5, 4).run(&[0.0; 0], &[0.0; 20], &mut []);
        Gemm::nn(4, 5, 0).run(&[0.0; 20], &[], &mut []);
    }

    #[test]
    fn packed_operand_reuse_matches_fresh_run() {
        let mut rng = SeedRng::new(9);
        let g = Gemm::nt(20, 33, 14);
        let w = rng.randn_tensor(&[g.b_len()], 1.0);
        let pb = g.pack_b(w.as_slice());
        for round in 0..3 {
            let a = rng.randn_tensor(&[g.a_len()], 1.0);
            let pa = g.pack_a(a.as_slice());
            let mut c1 = vec![0.0f32; g.c_len()];
            g.run_packed(&pa, &pb, &mut c1, false);
            let mut c2 = vec![0.0f32; g.c_len()];
            g.run(a.as_slice(), w.as_slice(), &mut c2);
            assert_eq!(c1, c2, "round {round}");
        }
    }

    #[test]
    fn parallel_and_sequential_runs_are_bit_identical() {
        let mut rng = SeedRng::new(10);
        // m > MC so the parallel path really splits into several stripes.
        let g = Gemm::nn(3 * MC + 5, 70, 19);
        let a = rng.randn_tensor(&[g.a_len()], 1.0);
        let b = rng.randn_tensor(&[g.b_len()], 1.0);
        let (pa, pb) = (g.pack_a(a.as_slice()), g.pack_b(b.as_slice()));
        let mut cs = vec![0.0f32; g.c_len()];
        g.run_packed(&pa, &pb, &mut cs, false);
        let mut cp = vec![0.0f32; g.c_len()];
        g.run_packed(&pa, &pb, &mut cp, true);
        assert_eq!(cs, cp);
    }

    #[test]
    fn run_tensor_checks_shapes_and_multiplies() {
        let mut rng = SeedRng::new(11);
        let a = rng.randn_tensor(&[4, 6], 1.0);
        let b = rng.randn_tensor(&[5, 6], 1.0);
        let c = Gemm::nt(4, 6, 5).run_tensor(&a, &b);
        assert_eq!(c.shape().dims(), &[4, 5]);
        let want = naive(&Gemm::nt(4, 6, 5), a.as_slice(), b.as_slice());
        for (x, y) in c.as_slice().iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
