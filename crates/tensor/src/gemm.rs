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
//!   only as a map over other data is another (convolution's flipped
//!   backward-data weights, the LSTM's step operands). Panels are handed
//!   out zeroed: edge panels stay zero-padded to full MR/NR width.
//! * **Offset-addressed B.** A B operand whose every row is a window of
//!   one stored slice is not packed at all ([`Gemm::run_offsets`]): a
//!   k-step reads NR lanes at `src + off[p]`. Convolution's forward and dx
//!   are the users: in a zero-padded (polyphase) copy of an image every tap
//!   is such a window over output positions numbered on a padded-width
//!   [`Grid`]. A is always packed.
//! * **Microkernel.** An [`MR`]×[`NR`] register tile of accumulators is
//!   updated once per k-step ([`tile`]) from the packed A panel and a B
//!   row; the i/j loops are over fixed-size arrays, which LLVM fully
//!   unrolls and vectorises. There is one AVX2/FMA body and one portable
//!   body, each monomorphised over how a k-step finds its B row (packed,
//!   or through offsets), so every kind of product runs the same
//!   instructions.
//! * **Stores.** A tile's lanes land in `C` through a [`Grid`]: a stored
//!   matrix keeps every lane, an offset-B product discards the lanes past
//!   each output row. Lanes and rows past the edge are computed and then
//!   discarded by the store, so non-finite inputs never leak (`0·inf = NaN`
//!   can only appear in lanes that are thrown away).
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
//! matrix once per batch ([`Gemm::pack_a`]) and reuses it across images via
//! [`Gemm::run_offsets`], and the LSTM packs its recurrent weights once per
//! sequence ([`Gemm::pack_b`]), reusing the panels across timesteps via
//! [`Gemm::run_packed`].

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

/// Where the columns of a product land in `C`. The product's `n` columns
/// are lanes on a grid of rows `pitch` lanes long: lane `y·pitch + x` is
/// kept when `x < width` and stored in row `i` of `C` at
/// `i·ldc + origin + y·row_step + x·col_step`; the other lanes are computed
/// and discarded. A stored matrix is [`Grid::dense`]: one row, every lane
/// kept, contiguous. Convolution's offset-addressed products
/// ([`Gemm::run_offsets`]) run on a grid as wide as their padded source,
/// whose lanes past the output width are the ones discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    /// Lanes per grid row.
    pub(crate) pitch: usize,
    /// Kept lanes at the start of each grid row.
    pub(crate) width: usize,
    /// Distance between rows of `C`.
    pub(crate) ldc: usize,
    /// Where lane 0 of a row lands.
    pub(crate) origin: usize,
    /// Distance between consecutive grid rows in `C`.
    pub(crate) row_step: usize,
    /// Distance between consecutive kept lanes in `C`.
    pub(crate) col_step: usize,
}

impl Grid {
    /// A row-major `m×n` matrix: lane `j` is column `j`.
    fn dense(n: usize) -> Self {
        Grid { pitch: n, width: n, ldc: n, origin: 0, row_step: 0, col_step: 1 }
    }
}

/// How the kernel reads op(B): the rows `p0..p0 + kc` of the NR-lane
/// panel whose first column is `jr·NR`, one pointer per k-step, each to
/// [`NR`] readable floats.
trait BRows: Sync {
    fn rows(&self, p0: usize, kc: usize, jr: usize) -> impl Iterator<Item = *const f32>;
}

/// A packed panel's rows are consecutive: row `kk` is `bp + kk·NR`.
impl BRows for PackedB {
    fn rows(&self, p0: usize, kc: usize, jr: usize) -> impl Iterator<Item = *const f32> {
        let base = (self.n.div_ceil(NR) * p0 + jr * kc) * NR;
        let panel = self.buf[base..base + kc * NR].as_ptr();
        (0..kc).map(move |kk| panel.wrapping_add(kk * NR))
    }
}

/// An operand that is a window over one stored slice: row `p` of op(B)
/// is `src[off[p]..]`, so row `kk` of panel `jr` is `src + off[kk] + jr·NR`.
/// [`Gemm::run_offsets`] checks the windows' reach once per call.
struct Offsets<'a> {
    src: &'a [f32],
    off: &'a [usize],
}

impl BRows for Offsets<'_> {
    fn rows(&self, p0: usize, kc: usize, jr: usize) -> impl Iterator<Item = *const f32> {
        let base = self.src.as_ptr().wrapping_add(jr * NR);
        self.off[p0..p0 + kc].iter().map(move |&o| base.wrapping_add(o))
    }
}

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

    /// Packs `op(A)` from its stored slice into a fresh [`PackedA`].
    pub fn pack_a(&self, a: &[f32]) -> PackedA {
        assert_eq!(a.len(), self.a_len(), "pack_a: A length vs {}×{} descriptor", self.m, self.k);
        let mut pa = PackedA::default();
        self.pack_a_with(&mut pa, |p0, i0, rows, panel| {
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                for (i, d) in dst[..rows].iter_mut().enumerate() {
                    *d = self.a_at(a, i0 + i, p0 + kk);
                }
            }
        });
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

    /// Macro-kernel over one MC-row stripe of `C` (`cs` = rows
    /// `[row0, row0 + cs.len()/ldc)`). Loop order `jc → pc → jr → ir`;
    /// the first slab overwrites the tile, later slabs accumulate, giving
    /// β=0 semantics without a separate zeroing pass (a product with
    /// `k = 0` runs one empty slab, which stores zeros).
    fn stripe(&self, cs: &mut [f32], row0: usize, pa: &PackedA, b: &impl BRows, grid: &Grid) {
        let rows = cs.len() / grid.ldc;
        let panel0 = row0 / MR; // row0 is MC-aligned and MC % MR == 0
        let panels = rows.div_ceil(MR);
        let (mpanels, npanels) = (self.m.div_ceil(MR), self.n.div_ceil(NR));
        let jc_panels = NC / NR;
        for jc in (0..npanels).step_by(jc_panels) {
            let jc_end = (jc + jc_panels).min(npanels);
            for p0 in (0..self.k.max(1)).step_by(KC) {
                let kc = KC.min(self.k - p0);
                let a_off = mpanels * MR * p0;
                let mut yx = (jc * NR / grid.pitch, jc * NR % grid.pitch);
                for jr in jc..jc_end {
                    let lanes = NR.min(self.n - jr * NR);
                    for ip in 0..panels {
                        let ap = pa.buf[a_off + (panel0 + ip) * kc * MR..][..kc * MR].as_ptr();
                        // SAFETY: `ap` is a kc-step panel and `b` yields kc
                        // rows of NR readable floats — a packed panel by
                        // construction, an offset window by `run_offsets`'
                        // reach assert.
                        let acc = unsafe { tile(ap, b.rows(p0, kc, jr)) };
                        let tile_rows = (ip * MR, MR.min(rows - ip * MR));
                        store_tile(cs, grid, tile_rows, yx, lanes, &acc, p0 == 0);
                    }
                    yx.1 += NR;
                    while yx.1 >= grid.pitch {
                        yx = (yx.0 + 1, yx.1 - grid.pitch);
                    }
                }
            }
        }
    }

    /// The one macro loop under every entry point: `C` through `grid`, in
    /// MC-row stripes — across the rayon pool when `parallel`, which
    /// changes no bit (each C element is reduced in the same fixed order by
    /// exactly one task).
    fn run_on(&self, pa: &PackedA, b: &impl BRows, c: &mut [f32], grid: &Grid, parallel: bool) {
        assert_eq!(c.len(), self.m * grid.ldc, "Gemm: C length vs {} rows of {}", self.m, grid.ldc);
        if self.m == 0 || self.n == 0 {
            return;
        }
        let stripe_len = MC * grid.ldc;
        if parallel && self.m > MC {
            par::par_chunks_mut(c, stripe_len, |s, cs| self.stripe(cs, s * MC, pa, b, grid));
        } else {
            for (s, cs) in c.chunks_mut(stripe_len).enumerate() {
                self.stripe(cs, s * MC, pa, b, grid);
            }
        }
    }

    /// Computes `C = op(A)·op(B)` from pre-packed operands. `parallel`
    /// distributes MC-row stripes across the rayon pool; sequential and
    /// parallel runs are bit-identical.
    pub fn run_packed(&self, pa: &PackedA, pb: &PackedB, c: &mut [f32], parallel: bool) {
        let dims = (pa.m, pa.k, pb.k, pb.n);
        assert_eq!(dims, (self.m, self.k, self.k, self.n), "run_packed: operands vs descriptor");
        self.run_on(pa, pb, c, &Grid::dense(self.n), parallel);
    }

    /// Computes `C = A·B` where `B` is never packed: row `p` of `B` is the
    /// window `src[off[p]..]`, so `B[p, q] = src[off[p] + q]`, and the `n`
    /// columns are stored through `grid`. Convolution's forward and dx are
    /// the callers: `src` is one image's zero-padded copy, `off[p]` where
    /// tap `p` starts in it, and the columns are output positions on the
    /// padded-width grid. Each C element is reduced over the same KC slabs
    /// in the same order as [`Gemm::run_packed`] over the packed `B`: the
    /// same product, bit for bit. Sequential: callers parallelise over
    /// images.
    pub(crate) fn run_offsets(
        &self,
        pa: &PackedA,
        src: &[f32],
        off: &[usize],
        c: &mut [f32],
        grid: &Grid,
    ) {
        assert_eq!((pa.m, pa.k), (self.m, self.k), "run_offsets: PackedA vs descriptor");
        assert_eq!(off.len(), self.k, "run_offsets: one offset per row of B");
        assert!(grid.width <= grid.pitch, "run_offsets: {grid:?} keeps more lanes than a row has");
        // The kernel reads lanes `0..panels·NR` of every window unchecked.
        let reach = off.iter().max().map_or(0, |o| o + self.n.div_ceil(NR) * NR);
        assert!(reach <= src.len(), "run_offsets: windows reach {reach} of {}", src.len());
        self.run_on(pa, &Offsets { src, off }, c, grid, false);
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

/// The register tile: one MR×NR block of C accumulated over the k-steps
/// of the packed A panel `ap` (MR values a step) and the B rows `rows`
/// yields. The fixed-size accumulator array lives in vector registers; the
/// k-loop is the only sequential dependency and runs in ascending order.
/// Where a B row comes from — a packed panel, or a window of a stored
/// slice — is the iterator's business: both bodies below are monomorphised
/// over it, so packed and offset-addressed products run the same
/// instructions on the same values.
///
/// On x86-64 with AVX2+FMA available at runtime the fused-multiply-add
/// body is used (one rounding per multiply-add instead of two — still a
/// fixed reduction order, so thread-count determinism is unaffected; only
/// the machine-level instruction set changes which of the two fixed
/// functions runs). Everything else gets the portable scalar loop, which
/// LLVM vectorises for the baseline target.
///
/// # Safety
///
/// `ap` must be valid for reads of [`MR`] floats per row `rows` yields,
/// and every such row for reads of [`NR`] floats.
#[inline(always)]
unsafe fn tile(ap: *const f32, rows: impl Iterator<Item = *const f32>) -> [[f32; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the CPU supports avx2+fma (checked above); the operands
        // are the caller's to guarantee.
        return microkernel_fma(ap, rows);
    }
    microkernel_generic(ap, rows)
}

/// The body [`tile`] runs on this host, `"avx2+fma"` or `"portable"` (they
/// round differently), read from the dispatch's own cached probe.
pub fn microkernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        return "avx2+fma";
    }
    "portable"
}

/// The portable body. Safety as [`tile`].
#[inline(always)]
unsafe fn microkernel_generic(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, b) in rows.enumerate() {
        let (a, b) = (&*ap.add(kk * MR).cast::<[f32; MR]>(), &*b.cast::<[f32; NR]>());
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
/// load). The one probe: conv's dW body and `a2sgd::mean2`'s class sums
/// dispatch on it too, so [`microkernel`] names what every kernel ran.
#[cfg(target_arch = "x86_64")]
pub fn avx2_fma_available() -> bool {
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

/// The AVX2/FMA body: 12 ymm accumulators (6 rows × 2 vectors), one
/// broadcast ymm for A and two loads for B per k-step. Safety as
/// [`tile`], on a CPU with avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    for (kk, b) in rows.enumerate() {
        let (a, b0, b1) = (ap.add(kk * MR), _mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
        for i in 0..MR {
            let ai = _mm256_broadcast_ss(&*a.add(i));
            acc[2 * i] = _mm256_fmadd_ps(ai, b0, acc[2 * i]);
            acc[2 * i + 1] = _mm256_fmadd_ps(ai, b1, acc[2 * i + 1]);
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (i, row) in out.iter_mut().enumerate() {
        _mm256_storeu_ps(row.as_mut_ptr(), acc[2 * i]);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), acc[2 * i + 1]);
    }
    out
}

/// Writes the kept part of a register tile into `C` (see [`Grid`]),
/// overwriting on the first k-slab and accumulating on the rest. Tile row
/// `i < mr` is row `r0 + i` of the stripe `c` (the rest are discarded);
/// tile lane `j < lanes` is grid lane `(y, x + j)`, wrapping
/// at the grid's pitch. Discarding lanes here is what keeps edge-panel
/// padding, and the lanes an offset product reads past its output width,
/// inert: `0·inf = NaN` can only appear in a lane that is thrown away.
#[inline(always)]
fn store_tile(
    c: &mut [f32],
    grid: &Grid,
    (r0, mr): (usize, usize),
    (mut y, mut x): (usize, usize),
    lanes: usize,
    acc: &[[f32; NR]; MR],
    overwrite: bool,
) {
    // A tile inside one kept run — every tile of a stored matrix — is one
    // contiguous store per row (measured: 2.6 % of an `lstm_qsgd` step).
    if grid.col_step == 1 && x + lanes <= grid.width {
        let at = grid.origin + y * grid.row_step + x;
        for (i, acc_row) in acc.iter().enumerate().take(mr) {
            put(c[(r0 + i) * grid.ldc + at..][..lanes].iter_mut(), &acc_row[..lanes], overwrite);
        }
        return;
    }
    let mut j = 0;
    while j < lanes {
        let run = grid.width.saturating_sub(x).min(lanes - j);
        if run > 0 {
            let at = grid.origin + y * grid.row_step + x * grid.col_step;
            for (i, acc_row) in acc.iter().enumerate().take(mr) {
                let (row, vals) = (&mut c[(r0 + i) * grid.ldc + at..], &acc_row[j..j + run]);
                if grid.col_step == 1 {
                    put(row[..run].iter_mut(), vals, overwrite);
                } else {
                    put(row.iter_mut().step_by(grid.col_step), vals, overwrite);
                }
            }
        }
        (j, y, x) = (j + grid.pitch - x, y + 1, 0);
    }
}

#[inline(always)]
fn put<'a>(dst: impl Iterator<Item = &'a mut f32>, vals: &[f32], overwrite: bool) {
    if overwrite {
        for (d, v) in dst.zip(vals) {
            *d = *v;
        }
    } else {
        for (d, v) in dst.zip(vals) {
            *d += *v;
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

    /// An offset-addressed product is the packed product over the `B` its
    /// windows spell, bit for bit — across a KC split, a ragged last panel
    /// and a grid that discards lanes and strides its stores — and leaves
    /// every position the grid does not keep as it was; `k = 0` stores
    /// zeros.
    #[test]
    fn offset_windows_match_the_packed_operand() {
        let mut rng = SeedRng::new(12);
        let (rows, pitch, width) = (3, 11, 8);
        let n = rows * pitch;
        let grid = Grid {
            pitch,
            width,
            ldc: 4 * rows * width + 1,
            origin: 1,
            row_step: 4 * width,
            col_step: 2,
        };
        for (m, k) in [(7, KC + 9), (13, 5), (2, 0)] {
            let src = rng.randn_tensor(&[3 * k + n.div_ceil(NR) * NR + 1], 1.0);
            let src = src.as_slice();
            let off: Vec<usize> = (0..k).map(|p| p * 7 % (3 * k)).collect();
            let g = Gemm::nn(m, k, n);
            let pa = g.pack_a(rng.randn_tensor(&[m * k], 1.0).as_slice());
            let b: Vec<f32> = (0..k * n).map(|i| src[off[i / n] + i % n]).collect();
            let mut want = vec![f32::NAN; m * n];
            g.run_packed(&pa, &g.pack_b(&b), &mut want, false);
            let mut c = vec![f32::NAN; m * grid.ldc];
            g.run_offsets(&pa, src, &off, &mut c, &grid);
            for (i, crow) in c.chunks_exact(grid.ldc).enumerate() {
                let mut kept = vec![f32::NAN; grid.ldc];
                for (q, v) in want[i * n..(i + 1) * n].iter().enumerate() {
                    let (y, x) = (q / pitch, q % pitch);
                    if x < width {
                        kept[grid.origin + y * grid.row_step + x * grid.col_step] = *v;
                    }
                }
                let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(crow), bits(&kept), "m {m} k {k} row {i}");
            }
        }
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
