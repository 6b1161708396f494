//! Cache-blocked, register-tiled, packing GEMM — the matmul hot path.
//!
//! One descriptor, [`Gemm`], names all four transpose variants of
//! `C[m,n] = op(A)[m,k] · op(B)[k,n]`. The kernel follows the classic
//! BLIS/GotoBLAS decomposition:
//!
//! * **Packing.** `op(A)` is repacked into row micro-panels and `op(B)`
//!   into NR-column micro-panels ([`PackedA`]/[`PackedB`]), k-blocked in
//!   [`KC`]-deep slabs. Inside a panel the layout is k-major and
//!   contiguous, so the microkernel streams both operands linearly
//!   regardless of where the operand came from. A row panel is [`MR`] = 6
//!   or [`MR_SHORT`] = 4 rows tall, by one plan ([`stripe_panels`]): a
//!   full MC stripe is 6-row panels, and a product's tail stripe is covered
//!   by the fewest rows of 6-row then 4-row panels, an odd tail rounded up
//!   to even (m = 4 → [4], 8 → [4, 4], 16 → [6, 6, 4]), so a narrow
//!   product computes no 6-row tile to keep 4 of its rows. A
//!   panel whose first row is `row0` sits at `row0·kc` in its slab. The
//!   panel loop is written once and a panel's source is a *filler*
//!   ([`Gemm::pack_a_with`]/[`Gemm::pack_b_with`]), which is handed its
//!   panel's height: a stored slice is one filler — transposition is
//!   absorbed there and costs O(mk + kn) against the O(mkn) multiply — and
//!   an operand that exists only as a map over other data is another
//!   (convolution's flipped backward-data weights, the LSTM's step
//!   operands). A transposed stored B — every `x·Wᵀ` on a stored weight —
//!   is filled in blocks of 8 columns × 8 k-steps: 8 contiguous rows
//!   loaded, one in-register transposition and 8 panel-row stores
//!   ([`fill_transposed`]; ragged edges go element by element). A stored A
//!   is laid out from its panel's row slices, a transposed one by one
//!   panel-height copy per k-step. The stored-slice packers write every
//!   lane, an edge panel's lanes past the edge as explicit zeros, so they
//!   pack over whatever a reused buffer holds; only the `*_with` fillers,
//!   which may skip entries, get their panels zeroed first.
//! * **Offset-addressed B.** A B operand whose every row is a window of
//!   one stored slice is not packed at all ([`Gemm::run_offsets`]): a
//!   k-step reads NR lanes at `src + off[p]`. Convolution's forward and dx
//!   are the users: in a zero-padded (polyphase) copy of an image every tap
//!   is such a window over output positions numbered on a padded-width
//!   [`Grid`]. A is always packed.
//! * **Microkernel.** An H×[`NR`] register tile of accumulators, H the
//!   panel's height, is updated once per k-step ([`tile`]) from the packed
//!   A panel and a B row; the i/j loops are over fixed-size arrays, which
//!   LLVM fully unrolls and vectorises. There is one AVX2/FMA body and one
//!   portable body, each const-generic over H — 6×16 (12 ymm accumulators)
//!   and 4×16 (8) — and monomorphised over how a k-step finds its B row
//!   (packed, or through offsets), so every kind of product runs the same
//!   instructions. Each element of C is one chain over k whatever the
//!   panel's height, so the plan moves no bit.
//! * **Stores.** A tile's lanes land in `C` through a [`Grid`]: a stored
//!   matrix keeps every lane, an offset-B product discards the lanes past
//!   each output row. A tile that is whole for its own panel's height —
//!   all H rows live and NR lanes inside one kept run of `C`, as every
//!   full tile of a stored matrix and every tile of an m = 4 or 8 product
//!   are — is stored (or added, `c + acc`) by the microkernel straight
//!   from its accumulators; an edge tile, or one that wraps a grid row,
//!   goes through an H×NR array and [`store_tile`].
//!   Lanes and rows past the edge are computed and then discarded by that
//!   store, so non-finite inputs never leak (`0·inf = NaN` can only appear
//!   in lanes that are thrown away).
//! * **Blocking.** Loop order per output stripe is `jc (NC columns) → pc
//!   (KC depth) → jr (NR panel) → ir (row panel)`: a B micro-panel stays in
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
use std::mem::MaybeUninit;

/// Height of a full row panel (rows of C per register tile); every panel
/// of a full [`MC`] stripe is this tall.
pub const MR: usize = 6;
/// Height of the short row panel that closes a tail stripe (see
/// [`stripe_panels`]): 8 ymm accumulators on the AVX2/FMA path.
const MR_SHORT: usize = 4;
/// Microkernel tile width (columns of C per register tile). With the
/// AVX2/FMA microkernel this is two 8-lane vectors per row: 6×2 = 12
/// accumulator registers, leaving ymm headroom for the B loads and the
/// A broadcast — the classic 6×16 f32 kernel shape.
pub const NR: usize = 16;
/// Row-stripe height: rows of C per parallel task and per packed-A slab
/// kept hot in L2. Must be a multiple of [`MR`] (so a full stripe is
/// whole 6-row panels and the planned tail of any stripe fits in it).
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
/// (β = 0 in BLAS terms); `run_add` adds the product to it (β = 1).
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

/// `op(A)` repacked into planned row micro-panels (see module docs). Produced by
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

    /// Packs `op(A)` from wherever `fill` reads it. `fill(p0, i0, rows, mr,
    /// panel)` writes one zeroed `kc×mr` k-major micro-panel, `mr` being
    /// the panel's planned height ([`stripe_panels`]: [`MR`] or [`MR_SHORT`]):
    /// element `(i0 + i, p0 + kk)` of `op(A)` goes to `panel[kk * mr + i]`
    /// for `i < rows`; what it leaves untouched stays zero. The height is
    /// the filler's to read, never to assume.
    pub fn pack_a_with(
        &self,
        pa: &mut PackedA,
        fill: impl FnMut(usize, usize, usize, usize, &mut [f32]),
    ) {
        (pa.m, pa.k) = (self.m, self.k);
        pack_panels(&mut pa.buf, self.k, self.m, a_panels(self.m), true, fill);
    }

    /// Packs `op(A)` from its stored slice, reusing `pa`'s allocation. A
    /// stored A gives a panel its rows as slices; a transposed A is stored
    /// `k×m`, so each k-step of a panel is its height in contiguous floats.
    pub fn pack_a_into(&self, a: &[f32], pa: &mut PackedA) {
        let (m, k) = (self.m, self.k);
        assert_eq!(a.len(), m * k, "pack_a: A length vs {m}×{k} descriptor");
        (pa.m, pa.k) = (m, k);
        pack_panels(&mut pa.buf, k, m, a_panels(m), false, |p0, i0, rows, mr, panel| {
            if self.trans_a {
                let src = &a[p0 * m + i0..];
                if mr == MR {
                    copy_runs::<MR>(panel, src, m, rows);
                } else {
                    copy_runs::<MR_SHORT>(panel, src, m, rows);
                }
            } else {
                let kc = panel.len() / mr;
                for (i, row) in a[i0 * k..].chunks_exact(k).take(rows).enumerate() {
                    for (dst, &v) in panel.chunks_exact_mut(mr).zip(&row[p0..p0 + kc]) {
                        dst[i] = v;
                    }
                }
                if rows < mr {
                    panel.chunks_exact_mut(mr).for_each(|dst| dst[rows..].fill(0.0));
                }
            }
        });
    }

    /// Packs `op(A)` from its stored slice into a fresh [`PackedA`].
    pub fn pack_a(&self, a: &[f32]) -> PackedA {
        let mut pa = PackedA::default();
        self.pack_a_into(a, &mut pa);
        pa
    }

    /// Packs `op(B)` from wherever `fill` reads it. `fill(p0, j0, cols,
    /// panel)` writes one zeroed `kc×NR` k-major micro-panel: element
    /// `(p0 + kk, j0 + j)` of `op(B)` goes to `panel[kk * NR + j]` for
    /// `j < cols`; what it leaves untouched stays zero.
    pub fn pack_b_with(
        &self,
        pb: &mut PackedB,
        mut fill: impl FnMut(usize, usize, usize, &mut [f32]),
    ) {
        (pb.k, pb.n) = (self.k, self.n);
        let panels = b_panels(self.n);
        pack_panels(&mut pb.buf, self.k, self.n, panels, true, |p0, j0, cols, _, panel| {
            fill(p0, j0, cols, panel)
        });
    }

    /// Packs `op(B)` from its stored slice, reusing `pb`'s allocation. A
    /// transposed B is stored `n×k`, so a panel's columns are stored rows:
    /// [`fill_transposed`] turns them in 8×8 blocks.
    pub fn pack_b_into(&self, b: &[f32], pb: &mut PackedB) {
        let (k, n) = (self.k, self.n);
        // The one check behind `fill_transposed`'s unchecked loads.
        assert!(b.len() == k * n, "pack_b: B length {} vs {k}×{n} descriptor", b.len());
        (pb.k, pb.n) = (k, n);
        pack_panels(&mut pb.buf, k, n, b_panels(n), false, |p0, j0, cols, _, panel| {
            if self.trans_b {
                // SAFETY: stored rows `j0..j0 + cols` are k floats from
                // `j·k`, and `p0 + kc ≤ k`: all inside `b` by the assert.
                unsafe { fill_transposed(b.as_ptr().add(j0 * k + p0), k, cols, panel) };
            } else {
                // op(B) rows are contiguous in storage: copy row slices.
                copy_runs::<NR>(panel, &b[p0 * n + j0..], n, cols);
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
    /// `k = 0` runs one empty slab, which stores zeros). With `ADD` the
    /// first slab accumulates too: β = 1.
    fn stripe<const ADD: bool>(
        &self,
        cs: &mut [f32],
        row0: usize,
        pa: &PackedA,
        b: &impl BRows,
        grid: &Grid,
    ) {
        let rows = cs.len() / grid.ldc;
        let (padded, plan) = (padded_rows(self.m), stripe_panels(rows));
        let npanels = self.n.div_ceil(NR);
        let jc_panels = NC / NR;
        for jc in (0..npanels).step_by(jc_panels) {
            let jc_end = (jc + jc_panels).min(npanels);
            for p0 in (0..self.k.max(1)).step_by(KC) {
                let kc = KC.min(self.k - p0);
                let a_slab = padded * p0;
                let overwrite = !ADD && p0 == 0;
                let mut yx = (jc * NR / grid.pitch, jc * NR % grid.pitch);
                for jr in jc..jc_end {
                    let lanes = NR.min(self.n - jr * NR);
                    let whole = lanes == NR && grid.col_step == 1 && yx.1 + NR <= grid.width;
                    for (r0, h) in plan.clone() {
                        let ap = pa.buf[a_slab + (row0 + r0) * kc..][..kc * h].as_ptr();
                        let out = Out { grid, rows: (r0, h.min(rows - r0)), yx, lanes, whole };
                        let b_rows = b.rows(p0, kc, jr);
                        // SAFETY: `ap` is a kc-step panel of h rows, and
                        // `b` yields kc rows of NR readable floats — a
                        // packed panel by construction, an offset window by
                        // `run_offsets`' reach assert.
                        unsafe {
                            if h == MR {
                                panel_tile::<MR>(cs, &out, ap, b_rows, overwrite);
                            } else {
                                panel_tile::<MR_SHORT>(cs, &out, ap, b_rows, overwrite);
                            }
                        }
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
    /// exactly one task). `ADD` adds the product to `C` instead of storing
    /// it; it is a const so the storing callers compile to no extra test.
    fn run_on<const ADD: bool>(
        &self,
        pa: &PackedA,
        b: &impl BRows,
        c: &mut [f32],
        grid: &Grid,
        parallel: bool,
    ) {
        assert_eq!(c.len(), self.m * grid.ldc, "Gemm: C length vs {} rows of {}", self.m, grid.ldc);
        if self.m == 0 || self.n == 0 {
            return;
        }
        let stripe_len = MC * grid.ldc;
        if parallel && self.m > MC {
            par::par_chunks_mut(c, stripe_len, |s, cs| self.stripe::<ADD>(cs, s * MC, pa, b, grid));
        } else {
            for (s, cs) in c.chunks_mut(stripe_len).enumerate() {
                self.stripe::<ADD>(cs, s * MC, pa, b, grid);
            }
        }
    }

    /// Computes `C = op(A)·op(B)` from pre-packed operands. `parallel`
    /// distributes MC-row stripes across the rayon pool; sequential and
    /// parallel runs are bit-identical.
    pub fn run_packed(&self, pa: &PackedA, pb: &PackedB, c: &mut [f32], parallel: bool) {
        let dims = (pa.m, pa.k, pb.k, pb.n);
        assert_eq!(dims, (self.m, self.k, self.k, self.n), "run_packed: operands vs descriptor");
        self.run_on::<false>(pa, pb, c, &Grid::dense(self.n), parallel);
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
        self.run_on::<false>(pa, &Offsets { src, off }, c, grid, false);
    }

    /// Packs both operands and runs, overwriting `c` (β = 0), parallelising
    /// when the product is large enough ([`PAR_FLOPS`]) to amortise
    /// fork/join.
    pub fn run(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.pack_and_run::<false>(a, b, c);
    }

    /// [`Gemm::run`] that adds the product to `c`: `C += op(A)·op(B)`. Each
    /// element is `C`'s value plus the slabs in [`Gemm::run`]'s order, so
    /// at `k ≤ KC` (one slab) it is bit for bit `c + product`, and so it is
    /// at any `k` from a `C` of `+0.0` (a zeroed gradient): a sum of f32s
    /// is `−0.0` only when every addend is, and `+0.0` absorbs that sign
    /// either way. A layer's weight gradient lands in place.
    pub fn run_add(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.pack_and_run::<true>(a, b, c);
    }

    /// Packs both operands into fresh panels and runs. (Panels kept per
    /// thread between calls were measured: they raised a training
    /// process's peak resident set by what they held, up to fc1's 652 KB
    /// B panel, and the step did not get faster.)
    fn pack_and_run<const ADD: bool>(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let (pa, pb) = (self.pack_a(a), self.pack_b(b));
        let parallel = self.m.saturating_mul(self.k).saturating_mul(self.n) >= PAR_FLOPS;
        self.run_on::<ADD>(&pa, &pb, c, &Grid::dense(self.n), parallel);
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

/// The row panels of one stripe of `rows ≤ MC` rows of `C`, as `(first
/// row, height)`: the fewest rows of [`MR`]-row panels then
/// [`MR_SHORT`]-row ones that cover `rows` rounded up to even (and to at
/// least [`MR_SHORT`]), with as many 6-row panels as that allows. A full
/// stripe is `MC / MR` 6-row panels; 4 rows are [4], 8 are [4, 4], 16 are
/// [6, 6, 4] and 32 are [6, 6, 6, 6, 4, 4]. Only a product's last stripe
/// can be short, so every panel but those of the tail is 6 rows.
fn stripe_panels(rows: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    let cover = cover(rows);
    // The 4-row panels fill `cover − 6·six`, a multiple of 4: one 6-row
    // panel fewer than `cover / 6` when `cover mod 6` is 2.
    let six = cover / MR - usize::from(cover % MR % MR_SHORT != 0);
    let four = (cover - six * MR) / MR_SHORT;
    let tall = (0..six).map(|i| (i * MR, MR));
    tall.chain((0..four).map(move |i| (six * MR + i * MR_SHORT, MR_SHORT)))
}

/// The row panels of an `m`-row product, stripe after stripe (see
/// [`stripe_panels`]), as `(first row, height)`.
fn a_panels(m: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    (0..m)
        .step_by(MC)
        .flat_map(move |s0| stripe_panels((m - s0).min(MC)).map(move |(r0, h)| (s0 + r0, h)))
}

/// Rows the panels of a stripe of `rows` rows cover: `rows` rounded up to
/// even and to at least [`MR_SHORT`].
fn cover(rows: usize) -> usize {
    rows.max(MR_SHORT).next_multiple_of(2)
}

/// Rows the panels of an `m`-row product cover: a slab of its [`PackedA`]
/// is this many rows of k-steps.
fn padded_rows(m: usize) -> usize {
    let tail = m % MC;
    m - tail + if tail == 0 { 0 } else { cover(tail) }
}

/// The column panels of an `n`-column `op(B)`: [`NR`] lanes each.
fn b_panels(n: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    (0..n).step_by(NR).map(|j0| (j0, NR))
}

/// The panel loop, written once for both operand sides: lays an operand of
/// `extent` lanes (rows of `op(A)`, columns of `op(B)`) by `k` deep out as
/// the micro-panels `panels` plans — `(first lane, width)`, tiling the
/// padded extent in order — in [`KC`]-deep slabs: slab-major, a panel at
/// `first lane · kc` in its slab, k-major inside. Each panel goes to
/// `fill(p0, l0, lanes, width, panel)` with its slab start, first lane,
/// live lane count (`< width` only at the edge) and width. With `zeroed`
/// the buffer is zero-filled first, for a filler that leaves entries
/// untouched; without it `fill` must write every lane of its panel, the
/// ones past `lanes` as zeros.
fn pack_panels(
    buf: &mut Vec<f32>,
    k: usize,
    extent: usize,
    panels: impl Iterator<Item = (usize, usize)> + Clone,
    zeroed: bool,
    mut fill: impl FnMut(usize, usize, usize, usize, &mut [f32]),
) {
    let padded = panels.clone().last().map_or(0, |(l0, width)| l0 + width);
    if zeroed {
        buf.clear();
    }
    buf.resize(padded * k, 0.0);
    for p0 in (0..k).step_by(KC) {
        let (kc, slab) = (KC.min(k - p0), padded * p0);
        for (l0, width) in panels.clone() {
            let panel = &mut buf[slab + l0 * kc..][..kc * width];
            fill(p0, l0, width.min(extent - l0), width, panel);
        }
    }
}

/// Fills a `kc×LANES` panel whose k-steps are stored runs `ld` floats
/// apart: `panel[kk·LANES + l] = src[kk·ld + l]` for `l < lanes`, and the
/// lanes past them with zeros. A whole panel's runs are copies of a
/// constant length.
#[inline(always)]
fn copy_runs<const LANES: usize>(panel: &mut [f32], src: &[f32], ld: usize, lanes: usize) {
    for (kk, dst) in panel.chunks_exact_mut(LANES).enumerate() {
        let run = &src[kk * ld..];
        if lanes == LANES {
            dst.copy_from_slice(&run[..LANES]);
        } else {
            dst[..lanes].copy_from_slice(&run[..lanes]);
            dst[lanes..].fill(0.0);
        }
    }
}

/// Fills one `kc×NR` panel (`kc = panel.len() / NR`) with the transpose
/// of `cols ≤ NR` stored rows `ld` floats apart:
/// `panel[kk·NR + j] = src[j·ld + kk]`, and lanes `j ≥ cols` with zeros.
/// Each block of 8 columns × 8 k-steps is 8 contiguous rows loaded, one
/// in-register transposition and 8 panel-row stores, on the AVX2 body
/// when the one CPUID probe finds it; the ragged edges (`cols mod 8`
/// columns, `kc mod 8` steps) go element by element. Every body moves
/// bits, so the panel is the gather's.
///
/// # Safety
///
/// `src + j·ld + kk` must be readable for every `j < cols`, `kk < kc`.
unsafe fn fill_transposed(src: *const f32, ld: usize, cols: usize, panel: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the CPU supports avx2+fma; the reach is the caller's.
        return fill_transposed_avx2(src, ld, cols, panel);
    }
    fill_transposed_body::<false>(src, ld, cols, panel)
}

/// [`fill_transposed`]'s one body; `AVX2` picks the block transposition.
/// Safety as [`fill_transposed`] (and, with `AVX2`, a CPU with avx2).
#[inline(always)]
unsafe fn fill_transposed_body<const AVX2: bool>(
    src: *const f32,
    ld: usize,
    cols: usize,
    panel: &mut [f32],
) {
    let kc = panel.len() / NR;
    let (cb, kb) = (cols / 8 * 8, kc / 8 * 8);
    let dst = panel.as_mut_ptr();
    for j in (0..cb).step_by(8) {
        for kk in (0..kb).step_by(8) {
            let (s, d) = (src.add(j * ld + kk), dst.add(kk * NR + j));
            if AVX2 {
                #[cfg(target_arch = "x86_64")]
                transpose8_avx2(s, ld, d);
            } else {
                transpose8(s, ld, d);
            }
        }
    }
    for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
        let from = if kk < kb { cb } else { 0 };
        for (j, d) in row[..cols].iter_mut().enumerate().skip(from) {
            *d = *src.add(j * ld + kk);
        }
        row[cols..].fill(0.0);
    }
}

/// [`fill_transposed_body`] compiled for avx2. Safety as
/// [`fill_transposed`], on a CPU with avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fill_transposed_avx2(src: *const f32, ld: usize, cols: usize, panel: &mut [f32]) {
    fill_transposed_body::<true>(src, ld, cols, panel)
}

/// The portable block: rows `src + r·ld` (8 floats each) become panel rows
/// `dst + t·NR`, `dst[t·NR + r] = src[r·ld + t]`. Safety: those reads and
/// writes are in bounds.
#[inline(always)]
unsafe fn transpose8(src: *const f32, ld: usize, dst: *mut f32) {
    let rows: [[f32; 8]; 8] =
        std::array::from_fn(|r| src.add(r * ld).cast::<[f32; 8]>().read_unaligned());
    let cols: [[f32; 8]; 8] = std::array::from_fn(|t| rows.map(|row| row[t]));
    for (t, col) in cols.into_iter().enumerate() {
        dst.add(t * NR).cast::<[f32; 8]>().write_unaligned(col);
    }
}

/// [`transpose8`] in eight ymm registers: each register holds half a row
/// and the same half of the row four below, so the 4×4 transposes inside
/// the 128-bit lanes finish the block. Safety as [`transpose8`], on a CPU
/// with avx2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn transpose8_avx2(src: *const f32, ld: usize, dst: *mut f32) {
    use std::arch::x86_64::*;
    for h in 0..2 {
        // q[i] = (row i, columns 4h..4h + 4 | row i + 4, the same columns).
        let mut q = [_mm256_setzero_ps(); 4];
        for (i, v) in q.iter_mut().enumerate() {
            let lo = _mm256_castps128_ps256(_mm_loadu_ps(src.add(i * ld + 4 * h)));
            *v = _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(src.add((i + 4) * ld + 4 * h)));
        }
        let (t0, t1) = (_mm256_unpacklo_ps(q[0], q[1]), _mm256_unpackhi_ps(q[0], q[1]));
        let (t2, t3) = (_mm256_unpacklo_ps(q[2], q[3]), _mm256_unpackhi_ps(q[2], q[3]));
        let d = dst.add(4 * h * NR);
        _mm256_storeu_ps(d, _mm256_shuffle_ps::<0x44>(t0, t2));
        _mm256_storeu_ps(d.add(NR), _mm256_shuffle_ps::<0xEE>(t0, t2));
        _mm256_storeu_ps(d.add(2 * NR), _mm256_shuffle_ps::<0x44>(t1, t3));
        _mm256_storeu_ps(d.add(3 * NR), _mm256_shuffle_ps::<0xEE>(t1, t3));
    }
}

/// Where one tile of a stripe lands: the stripe rows `r0..r0 + mr` of the
/// tile's H (`rows`), grid lane `yx` on `grid` and `lanes` live lanes from
/// there; `whole` when all NR lanes lie in one kept run of `C`.
struct Out<'g> {
    grid: &'g Grid,
    rows: (usize, usize),
    yx: (usize, usize),
    lanes: usize,
    whole: bool,
}

/// One tile of an H-row panel into the stripe `cs`, overwriting on the
/// first k-slab (`overwrite`) and adding on the rest. A tile that is whole
/// for its own panel's height — H live rows and a `whole` lane run — is
/// written by the kernel straight from its registers; any other goes
/// through an H×NR array and [`store_tile`]. The array is not zeroed
/// first: the kernel is not inlined here, so that fill would be 2·H more
/// ymm stores per tile.
///
/// # Safety
///
/// `ap` must hold H floats for each k-step, and every row `b_rows` yields
/// [`NR`] readable floats.
#[inline(always)]
unsafe fn panel_tile<const H: usize>(
    cs: &mut [f32],
    out: &Out,
    ap: *const f32,
    b_rows: impl Iterator<Item = *const f32>,
    overwrite: bool,
) {
    let (grid, (r0, mr), (y, x)) = (out.grid, out.rows, out.yx);
    if out.whole && mr == H {
        let at = r0 * grid.ldc + grid.origin + y * grid.row_step + x;
        let dst = cs[at..][..(H - 1) * grid.ldc + NR].as_mut_ptr();
        tile::<H>(ap, b_rows, dst, grid.ldc, !overwrite);
    } else {
        let mut acc = MaybeUninit::<[[f32; NR]; H]>::uninit();
        tile::<H>(ap, b_rows, acc.as_mut_ptr().cast(), NR, false);
        store_tile(cs, grid, out.rows, out.yx, out.lanes, acc.assume_init_ref(), overwrite);
    }
}

/// The register tile: one H×NR block of C accumulated over the k-steps
/// of the packed A panel `ap` (H values a step) and the B rows `rows`
/// yields, then written from the accumulators to the H rows `dst + i·ld`
/// (NR floats each): stored, or with `add` added to what they hold (`c +
/// acc`, [`store_tile`]'s add). The fixed-size accumulator array lives in
/// vector registers; the k-loop is the only sequential dependency and runs
/// in ascending order. Where a B row comes from — a packed panel, or a
/// window of a stored slice — is the iterator's business: both bodies
/// below are monomorphised over it, so packed and offset-addressed
/// products run the same instructions on the same values.
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
/// `ap` must be valid for reads of H floats per row `rows` yields, every
/// such row for reads of [`NR`] floats, and `dst + i·ld` for writes (and,
/// with `add`, reads) of [`NR`] floats for every `i < H`.
#[inline(always)]
unsafe fn tile<const H: usize>(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
    dst: *mut f32,
    ld: usize,
    add: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the CPU supports avx2+fma (checked above); the operands
        // are the caller's to guarantee.
        return microkernel_fma::<H>(ap, rows, dst, ld, add);
    }
    microkernel_generic::<H>(ap, rows, dst, ld, add)
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
unsafe fn microkernel_generic<const H: usize>(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
    dst: *mut f32,
    ld: usize,
    add: bool,
) {
    let mut acc = [[0.0f32; NR]; H];
    for (kk, b) in rows.enumerate() {
        let (a, b) = (&*ap.add(kk * H).cast::<[f32; H]>(), &*b.cast::<[f32; NR]>());
        for i in 0..H {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let row = &mut *dst.add(i * ld).cast::<[f32; NR]>();
        for (d, v) in row.iter_mut().zip(acc_row) {
            *d = if add { *d + v } else { *v };
        }
    }
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

/// The AVX2/FMA body: 2·H ymm accumulators (H rows × 2 vectors: 12 for a
/// 6-row panel, 8 for a 4-row one), one broadcast ymm for A and two loads
/// for B per k-step, and each row stored (or loaded, added and stored) as
/// two ymm. Safety as [`tile`], on a CPU with avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma<const H: usize>(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
    dst: *mut f32,
    ld: usize,
    add: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; H];
    for (kk, b) in rows.enumerate() {
        let (a, b0, b1) = (ap.add(kk * H), _mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm256_broadcast_ss(&*a.add(i));
            row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
            row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
        }
    }
    for (i, half) in acc.iter().enumerate() {
        let d = dst.add(i * ld);
        let (mut lo, mut hi) = (half[0], half[1]);
        if add {
            lo = _mm256_add_ps(_mm256_loadu_ps(d), lo);
            hi = _mm256_add_ps(_mm256_loadu_ps(d.add(8)), hi);
        }
        _mm256_storeu_ps(d, lo);
        _mm256_storeu_ps(d.add(8), hi);
    }
}

/// Writes the kept part of a tile, computed into `acc` (its panel's H
/// rows), into `C` (see [`Grid`]), overwriting on the first k-slab and
/// accumulating on the rest: the path of the tiles the microkernel cannot
/// store itself. Tile row `i < mr` is row `r0 + i` of the stripe `c` (the
/// rest are discarded); tile lane `j < lanes` is grid
/// lane `(y, x + j)`, wrapping at the grid's pitch. Discarding lanes here
/// is what keeps edge-panel padding, and the lanes an offset product reads
/// past its output width, inert: `0·inf = NaN` can only appear in a lane
/// that is thrown away.
#[inline(always)]
fn store_tile(
    c: &mut [f32],
    grid: &Grid,
    (r0, mr): (usize, usize),
    (mut y, mut x): (usize, usize),
    lanes: usize,
    acc: &[[f32; NR]],
    overwrite: bool,
) {
    // An edge tile inside one kept run is one contiguous store per row.
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

    /// Element `(i, p)` of `op(A)`, read from its stored slice.
    fn a_at(g: &Gemm, a: &[f32], i: usize, p: usize) -> f32 {
        if g.trans_a {
            a[p * g.m + i]
        } else {
            a[i * g.k + p]
        }
    }

    /// Element `(p, j)` of `op(B)`, read from its stored slice.
    fn b_at(g: &Gemm, b: &[f32], p: usize, j: usize) -> f32 {
        if g.trans_b {
            b[j * g.k + p]
        } else {
            b[p * g.n + j]
        }
    }

    /// Reference triple loop in the same reduction order (k ascending).
    fn naive(g: &Gemm, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; g.c_len()];
        for i in 0..g.m {
            for j in 0..g.n {
                let mut acc = 0.0f32;
                for p in 0..g.k {
                    acc += a_at(g, a, i, p) * b_at(g, b, p, j);
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
    /// windows spell, bit for bit — across a KC split, a ragged last panel,
    /// a grid that discards lanes and strides its stores, and one whose
    /// kept runs hold whole tiles (stored from the registers) beside tiles
    /// that wrap a row — and leaves every position the grid does not keep
    /// as it was; `k = 0` stores zeros.
    #[test]
    fn offset_windows_match_the_packed_operand() {
        let mut rng = SeedRng::new(12);
        let rows = 3;
        let strided = Grid { pitch: 11, width: 8, ldc: 97, origin: 1, row_step: 32, col_step: 2 };
        let runs = Grid { pitch: 40, width: 35, ldc: 107, origin: 2, row_step: 35, col_step: 1 };
        for ((m, k), grid) in
            [(7, KC + 9), (13, 5), (2, 0)].into_iter().flat_map(|mk| [(mk, strided), (mk, runs)])
        {
            let (pitch, width, n) = (grid.pitch, grid.width, rows * grid.pitch);
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
                assert_eq!(bits(crow), bits(&kept), "m {m} k {k} pitch {pitch} row {i}");
            }
        }
    }

    /// The panels of `op(A)` gathered one element at a time into zeroed
    /// panels: the packing oracle.
    fn gathered_a(g: &Gemm, a: &[f32]) -> PackedA {
        let mut pa = PackedA::default();
        g.pack_a_with(&mut pa, |p0, i0, rows, mr, panel| {
            for (kk, dst) in panel.chunks_exact_mut(mr).enumerate() {
                for (i, d) in dst[..rows].iter_mut().enumerate() {
                    *d = a_at(g, a, i0 + i, p0 + kk);
                }
            }
        });
        pa
    }

    /// The panels of `op(B)` gathered one element at a time: the packing
    /// oracle.
    fn gathered(g: &Gemm, b: &[f32]) -> PackedB {
        let mut pb = PackedB::default();
        g.pack_b_with(&mut pb, |p0, j0, cols, panel| {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (j, d) in dst[..cols].iter_mut().enumerate() {
                    *d = b_at(g, b, p0 + kk, j0 + j);
                }
            }
        });
        pb
    }

    /// Asserts that `got` holds `want`'s bit patterns, naming the first
    /// element that differs.
    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            let (g, w) = (got[i].to_bits(), want[i].to_bits());
            panic!("{what}: element {i} is {g:#010x}, want {w:#010x}");
        }
    }

    /// Normals with every 5th value one of ±0, subnormals, ±∞ and NaNs
    /// (quiet and signalling, with payloads) — bit patterns a packer must
    /// move untouched.
    fn payload(len: usize, seed: u64) -> Vec<f32> {
        let special = [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x807f_ffff, 0x7f80_0000]
            .into_iter()
            .chain([0xff80_0000, 0x7fc0_1234, 0xffa0_0001, 0x7f80_0001])
            .map(f32::from_bits)
            .collect::<Vec<_>>();
        let mut v = SeedRng::new(seed).randn_tensor(&[len], 1.0).into_vec();
        for (i, x) in v.iter_mut().enumerate().step_by(5) {
            *x = special[i / 5 % special.len()];
        }
        v
    }

    /// Blocked packing of a transposed B is the per-element gather, bit for
    /// bit, on both block bodies: across KC slab splits, ragged k-steps,
    /// ragged and whole panels, and FNN-3's fc1 weight (k 784, n 206).
    #[test]
    fn blocked_transposed_panels_are_the_gathered_ones() {
        if microkernel() != "avx2+fma" {
            println!("note: no avx2+fma here; the dispatched body is the portable one");
        }
        for k in [1, 7, 8, 9, 255, 256, 257, 784] {
            for n in [1, 5, 8, 15, 16, 17, 206] {
                let g = Gemm::nt(3, k, n);
                let b = payload(k * n, (k * 1000 + n) as u64);
                let want = gathered(&g, &b).buf;
                assert_bits(&g.pack_b(&b).buf, &want, &format!("dispatched body, k {k} n {n}"));
                let mut portable = PackedB::default();
                g.pack_b_with(&mut portable, |p0, j0, cols, panel| {
                    // SAFETY: as in `pack_b_into`; `b` holds all n×k.
                    unsafe {
                        fill_transposed_body::<false>(b[j0 * k + p0..].as_ptr(), k, cols, panel)
                    }
                });
                assert_bits(&portable.buf, &want, &format!("portable body, k {k} n {n}"));
            }
        }
    }

    /// A stored-slice pack over a buffer left dirty — by a larger product's
    /// panels, or NaN-filled — is the gather into zeroed panels, bit for
    /// bit, edge lanes' zeros included: on both operand sides, every
    /// transpose, ragged and whole panels, and several KC slabs, in the
    /// planned layout — 6-row panels, 4-row ones (m = 1, 4, 7, 8, 13, 32)
    /// and a planned tail after a full stripe; for a transposed B on both
    /// block bodies.
    #[test]
    fn packs_over_dirty_buffers_are_the_gathered_ones() {
        let big = Gemm::nt(2 * MC, 3 * KC, 64);
        let shapes = [
            (1, 1, 1),
            (MR, 8, NR),
            (MR_SHORT, 8, NR),
            (7, KC + 9, 17),
            (8, 3, 5),
            (13, 2 * KC + 3, 33),
            (32, 32, 206),
            (MC + 8, 40, 20),
        ];
        for (s, (m, k, n)) in shapes.into_iter().enumerate() {
            for (t, g) in
                [Gemm::nn(m, k, n), Gemm::nt(m, k, n), Gemm::tn(m, k, n), Gemm::tt(m, k, n)]
                    .into_iter()
                    .enumerate()
            {
                let seed = 10 * s as u64 + t as u64;
                let (a, b) = (payload(g.a_len(), 500 + seed), payload(g.b_len(), 600 + seed));
                let (want_a, want_b) = (gathered_a(&g, &a).buf, gathered(&g, &b).buf);
                for nan_fill in [false, true] {
                    let mut pa = big.pack_a(&payload(big.a_len(), 1));
                    let mut pb = big.pack_b(&payload(big.b_len(), 2));
                    if nan_fill {
                        pa.buf.fill(f32::NAN);
                        pb.buf.fill(f32::NAN);
                    }
                    let what = format!("{g:?}, NaN-filled {nan_fill}");
                    let mut portable = pb.clone();
                    g.pack_a_into(&a, &mut pa);
                    g.pack_b_into(&b, &mut pb);
                    assert_bits(&pa.buf, &want_a, &format!("A of {what}"));
                    assert_bits(&pb.buf, &want_b, &format!("B of {what}"));
                    if g.trans_b {
                        let panels = b_panels(n);
                        pack_panels(
                            &mut portable.buf,
                            k,
                            n,
                            panels,
                            false,
                            |p0, j0, cols, _, p| {
                                // SAFETY: as in `pack_b_into`; `b` holds all n×k.
                                unsafe {
                                    fill_transposed_body::<false>(
                                        b[j0 * k + p0..].as_ptr(),
                                        k,
                                        cols,
                                        p,
                                    )
                                }
                            },
                        );
                        assert_bits(&portable.buf, &want_b, &format!("portable B of {what}"));
                    }
                }
            }
        }
    }

    /// Runs one H-row tile on the portable body or, when `portable` is
    /// false, on the AVX2 one. Safety as [`tile`].
    unsafe fn body<const H: usize>(
        portable: bool,
        ap: *const f32,
        rows: impl Iterator<Item = *const f32>,
        dst: *mut f32,
        ld: usize,
        add: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if !portable {
            return microkernel_fma::<H>(ap, rows, dst, ld, add);
        }
        microkernel_generic::<H>(ap, rows, dst, ld, add)
    }

    /// One tile of [`by_tiles`]: the H-row panel at `ap` against B panel
    /// `jr`, into rows `r0..r0 + mr` of the dense `C` of `g`. With `direct`
    /// a tile whole for its panel's height is stored from the registers;
    /// otherwise it goes through the array and `store_tile`.
    unsafe fn tile_of<const H: usize>(
        (g, c): (&Gemm, &mut [f32]),
        ap: *const f32,
        rows: impl Iterator<Item = *const f32>,
        (r0, mr): (usize, usize),
        (jr, lanes): (usize, usize),
        overwrite: bool,
        (portable, direct): (bool, bool),
    ) {
        if direct && mr == H && lanes == NR {
            let dst = c[r0 * g.n + jr * NR..][..(H - 1) * g.n + NR].as_mut_ptr();
            body::<H>(portable, ap, rows, dst, g.n, !overwrite);
        } else {
            let mut acc = [[0.0f32; NR]; H];
            body::<H>(portable, ap, rows, acc.as_mut_ptr().cast(), NR, false);
            let grid = Grid::dense(g.n);
            store_tile(c, &grid, (r0, mr), (0, jr * NR), lanes, &acc, overwrite);
        }
    }

    /// `C = op(A)·op(B)`, or with `add` `C += op(A)·op(B)`, over packed
    /// operands on one body, slab by slab, panel by planned panel. With
    /// `direct`, whole tiles are stored from the body's registers as
    /// `stripe` stores them; without, every tile goes through the array
    /// and `store_tile` — the oracle.
    fn by_tiles(
        g: &Gemm,
        (pa, pb): (&PackedA, &PackedB),
        c: &mut [f32],
        add: bool,
        portable: bool,
        direct: bool,
    ) {
        let (padded, np) = (padded_rows(g.m), g.n.div_ceil(NR));
        for p0 in (0..g.k.max(1)).step_by(KC) {
            let kc = KC.min(g.k - p0);
            let overwrite = !add && p0 == 0;
            for ((r0, h), jr) in a_panels(g.m).flat_map(|p| (0..np).map(move |jr| (p, jr))) {
                let ap = pa.buf[padded * p0 + r0 * kc..].as_ptr();
                let (at, lanes) = ((r0, h.min(g.m - r0)), (jr, NR.min(g.n - jr * NR)));
                let (rows, how) = (pb.rows(p0, kc, jr), (portable, direct));
                // SAFETY: as in `stripe`.
                unsafe {
                    if h == MR {
                        tile_of::<MR>((g, c), ap, rows, at, lanes, overwrite, how);
                    } else {
                        tile_of::<MR_SHORT>((g, c), ap, rows, at, lanes, overwrite, how);
                    }
                }
            }
        }
    }

    /// Whole tiles stored or added straight from the registers are the
    /// array-and-`store_tile` path, bit for bit, on both bodies and both
    /// panel heights; and `run` and `run_add` (at pool widths 1 and 2) are
    /// that path on the dispatched body — over whole and edge tiles of
    /// 6-row and 4-row panels, k across up to three KC slabs and k = 0, and
    /// a `C` holding ±0, subnormals, ±∞ and NaN payloads.
    #[test]
    fn register_stores_are_the_array_stores() {
        let avx2 = microkernel() == "avx2+fma";
        let bodies: &[bool] = if avx2 { &[false, true] } else { &[true] };
        let shapes = [
            Gemm::nn(MR, 8, NR),
            Gemm::nt(2 * MR + 1, KC, 3 * NR),
            Gemm::tn(206, 32, 784),
            Gemm::tt(13, 2 * KC + 3, 2 * NR + 5),
            Gemm::nn(MC + 7, KC + 1, NR + 1),
            Gemm::nt(2 * MR, 0, 2 * NR),
            Gemm::nn(MR_SHORT, 36, 4 * NR),
            Gemm::tn(8, KC + 3, 2 * NR + 1),
            Gemm::nt(16, 72, NR),
            Gemm::tt(32, 9, 3 * NR),
            Gemm::nn(MC + 16, 2 * KC + 1, NR + 3),
        ];
        let pools: Vec<_> =
            [1, 2].map(|w| rayon::ThreadPoolBuilder::new().num_threads(w).build().unwrap()).into();
        for (s, g) in shapes.into_iter().enumerate() {
            let normals = |len: usize, seed: u64| {
                let mut rng = SeedRng::new(seed);
                (0..len).map(|_| rng.randn()).collect::<Vec<f32>>()
            };
            let (a, b) = (normals(g.a_len(), 70 + s as u64), normals(g.b_len(), 80 + s as u64));
            let c0 = payload(g.c_len(), 90 + s as u64);
            let packs = (&g.pack_a(&a), &g.pack_b(&b));
            for add in [false, true] {
                let what = format!("{g:?}, add {add}");
                for &portable in bodies {
                    let (mut want, mut got) = (c0.clone(), c0.clone());
                    by_tiles(&g, packs, &mut want, add, portable, false);
                    by_tiles(&g, packs, &mut got, add, portable, true);
                    assert_bits(&got, &want, &format!("{what}, portable body {portable}"));
                }
                let mut want = c0.clone();
                by_tiles(&g, packs, &mut want, add, !avx2, false);
                for (w, pool) in pools.iter().enumerate() {
                    let mut got = c0.clone();
                    if add {
                        pool.install(|| g.run_add(&a, &b, &mut got));
                    } else {
                        pool.install(|| g.run(&a, &b, &mut got));
                    }
                    assert_bits(&got, &want, &format!("{what}, pool width {}", w + 1));
                }
            }
        }
    }

    /// Each stripe's panels tile the fewest rows that cover it, rounded up
    /// to even and to at least 4, as 6-row panels then 4-row ones with as
    /// many 6-row panels as fit; a full stripe is 6-row panels only; and a
    /// product's panels are its stripes' in order.
    #[test]
    fn the_panel_plan_covers_each_stripe_with_the_fewest_rows() {
        let heights = |rows| stripe_panels(rows).map(|(_, h)| h).collect::<Vec<_>>();
        assert_eq!(heights(4), [4]);
        assert_eq!(heights(8), [4, 4]);
        assert_eq!(heights(16), [6, 6, 4]);
        assert_eq!(heights(32), [6, 6, 6, 6, 4, 4]);
        assert_eq!(heights(MC), [MR; MC / MR]);
        for rows in 1..=MC {
            let plan: Vec<_> = stripe_panels(rows).collect();
            let cover = rows.max(MR_SHORT).next_multiple_of(2);
            let mut next = 0;
            for &(r0, h) in &plan {
                assert_eq!(r0, next, "rows {rows}: {plan:?} is not contiguous");
                assert!(r0 < rows, "rows {rows}: panel at {r0} holds no row");
                next += h;
            }
            assert_eq!(next, cover, "rows {rows}: {plan:?}");
            let h = heights(rows);
            assert!(h.windows(2).all(|w| w[0] >= w[1]), "rows {rows}: 4-row panels last");
            let six = h.iter().filter(|&&h| h == MR).count();
            assert!((six + 1) * MR > cover || (cover - (six + 1) * MR) % MR_SHORT != 0);
        }
        for m in [1, 5, MC, MC + 1, 2 * MC + 7, 3 * MC] {
            let want: Vec<_> = (0..m)
                .step_by(MC)
                .flat_map(|s0| stripe_panels((m - s0).min(MC)).map(move |(r, h)| (s0 + r, h)))
                .collect();
            assert_eq!(a_panels(m).collect::<Vec<_>>(), want);
            assert_eq!(padded_rows(m), want.last().map_or(0, |&(r0, h)| r0 + h), "m {m}");
        }
    }

    /// The per-element chains the kernels compute: for each element of `C`
    /// (row-major) and each KC slab (k = 0 is one empty slab), a chain from
    /// `+0.0` over the slab's k-steps in order, fused (`mul_add`, the AVX2
    /// body) or not (the portable body).
    fn chains(g: &Gemm, a: &[f32], b: &[f32], fused: bool) -> Vec<Vec<f32>> {
        let (at, bt) = (|i, p| a_at(g, a, i, p), |p, j| b_at(g, b, p, j));
        let slabs: Vec<_> = (0..g.k.max(1)).step_by(KC).map(|p0| p0..g.k.min(p0 + KC)).collect();
        let chain = |i, j, ps: &std::ops::Range<usize>| {
            ps.clone().fold(0.0f32, |acc, p| {
                let (x, y): (f32, f32) = (at(i, p), bt(p, j));
                if fused {
                    x.mul_add(y, acc)
                } else {
                    acc + x * y
                }
            })
        };
        let element = |q: usize| slabs.iter().map(|ps| chain(q / g.n, q % g.n, ps)).collect();
        (0..g.c_len()).map(element).collect()
    }

    /// `C` from `c0` and the chains: the first slab stored unless `add`,
    /// every other added as `c + chain`.
    fn apply(c0: &[f32], chains: &[Vec<f32>], add: bool) -> Vec<f32> {
        let slabs = |(c, ch): (&f32, &Vec<f32>)| {
            let first = if add { *c + ch[0] } else { ch[0] };
            ch[1..].iter().fold(first, |c, s| c + s)
        };
        c0.iter().zip(chains).map(slabs).collect()
    }

    /// Every entry point is the per-element chains, bit for bit: `run`,
    /// `run_add` and `run_packed` (sequential, and parallel at pool widths
    /// 1/2/4) on the dispatched body, and the planned tiles on both bodies
    /// (`by_tiles`), over every m in 1..=2·MC + 7 — every plan of a tail
    /// stripe, alone and after one or two full stripes — k ∈ {0, 1, KC,
    /// KC + 1} and n ∈ {1, NR, NR + 1, 3·NR + 5}, from a `C` of ±0,
    /// subnormals, ±∞ and NaN payloads.
    #[test]
    fn every_entry_point_is_the_per_element_chains() {
        let avx2 = microkernel() == "avx2+fma";
        let bodies: &[bool] = if avx2 { &[false, true] } else { &[true] };
        let pools: Vec<_> = [1, 2, 4]
            .map(|w| rayon::ThreadPoolBuilder::new().num_threads(w).build().unwrap())
            .into();
        for m in 1..=2 * MC + 7 {
            for (k, n) in [0, 1, KC, KC + 1]
                .into_iter()
                .flat_map(|k| [1, NR, NR + 1, 3 * NR + 5].map(|n| (k, n)))
            {
                let t = (m + k + n) % 4;
                let g = Gemm { trans_a: t & 1 == 1, trans_b: t & 2 == 2, m, k, n };
                let seed = (m * 1000 + k * 10 + n) as u64;
                let (a, b) = (
                    SeedRng::new(seed).randn_tensor(&[g.a_len()], 1.0).into_vec(),
                    SeedRng::new(seed + 1).randn_tensor(&[g.b_len()], 1.0).into_vec(),
                );
                let c0 = payload(g.c_len(), seed + 2);
                let packs = (&g.pack_a(&a), &g.pack_b(&b));
                let (plain, fused) = (chains(&g, &a, &b, false), chains(&g, &a, &b, true));
                for add in [false, true] {
                    let what = format!("{g:?}, add {add}");
                    let oracle =
                        |fused_body| apply(&c0, if fused_body { &fused } else { &plain }, add);
                    for &portable in bodies {
                        let mut got = c0.clone();
                        by_tiles(&g, packs, &mut got, add, portable, true);
                        let body = if portable { "portable" } else { "avx2" };
                        assert_bits(&got, &oracle(!portable), &format!("{what}, {body} tiles"));
                    }
                    let want = oracle(avx2);
                    let mut got = c0.clone();
                    if add {
                        g.run_add(&a, &b, &mut got);
                    } else {
                        g.run(&a, &b, &mut got);
                    }
                    assert_bits(&got, &want, &format!("{what}, run"));
                    if add {
                        continue;
                    }
                    let widths = [(false, 0), (true, 0), (true, 1), (true, 2)];
                    for (parallel, w) in widths {
                        let mut got = c0.clone();
                        pools[w].install(|| g.run_packed(packs.0, packs.1, &mut got, parallel));
                        let how = format!("{what}, run_packed parallel {parallel}");
                        assert_bits(&got, &want, &format!("{how} at width {}", 1 << w));
                    }
                }
            }
        }
    }

    /// `run_add` is `run` then an add, bit for bit: from any `C` at one
    /// slab (`k ≤ KC`), and from `C = +0.0` across slabs, at pool widths
    /// 1/2/4 — on stripes that really split across the pool (Linear's dW
    /// shape, `tn(206, 32, 784)`, is the first).
    #[test]
    fn run_add_is_run_then_add() {
        let shapes = [
            (Gemm::tn(206, 32, 784), false),
            (Gemm::tn(3 * MC + 5, KC, 19), false),
            (Gemm::nn(7, 13, 21), false),
            (Gemm::nt(MC + 1, 2 * KC + 3, 40), true),
            (Gemm::tt(5, KC + 1, 17), true),
        ];
        for width in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            for (i, (g, from_zero)) in shapes.into_iter().enumerate() {
                let seed = 40 + i as u64;
                let a = SeedRng::new(seed).randn_tensor(&[g.a_len()], 1.0).into_vec();
                let b = SeedRng::new(seed + 100).randn_tensor(&[g.b_len()], 1.0).into_vec();
                let c0 = if from_zero {
                    vec![0.0f32; g.c_len()]
                } else {
                    SeedRng::new(seed + 200).randn_tensor(&[g.c_len()], 1.0).into_vec()
                };
                let mut prod = vec![f32::NAN; g.c_len()];
                g.run(&a, &b, &mut prod);
                let want: Vec<f32> = c0.iter().zip(&prod).map(|(c, p)| c + p).collect();
                let mut c = c0.clone();
                pool.install(|| g.run_add(&a, &b, &mut c));
                assert_bits(&c, &want, &format!("{g:?} at width {width}"));
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
