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
//!   backward-data weights, the LSTM's step operands). A transposed stored
//!   B — every `x·Wᵀ` on a stored weight — is filled in blocks of 8
//!   columns × 8 k-steps: 8 contiguous rows loaded, one in-register
//!   transposition and 8 panel-row stores ([`fill_transposed`]; ragged
//!   edges go element by element). A stored A is laid out from its MR row
//!   slices, a transposed one by MR-float copies. The stored-slice packers
//!   write every lane, an edge panel's lanes past the edge as explicit
//!   zeros, so they pack over whatever a reused buffer holds; only the
//!   `*_with` fillers, which may skip entries, get their panels zeroed
//!   first.
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
//!   each output row. A full tile inside one kept run of `C` — every full
//!   tile of a stored matrix — is stored (or added, `c + acc`) by the
//!   microkernel straight from its accumulators; an edge tile, or one that
//!   wraps a grid row, goes through an MR×NR array and [`store_tile`].
//!   Lanes and rows past the edge are computed and then discarded by that
//!   store, so non-finite inputs never leak (`0·inf = NaN` can only appear
//!   in lanes that are thrown away).
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
use std::mem::MaybeUninit;

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

    /// Packs `op(A)` from wherever `fill` reads it. `fill(p0, i0, rows,
    /// panel)` writes one zeroed `kc×MR` k-major micro-panel: element
    /// `(i0 + i, p0 + kk)` of `op(A)` goes to `panel[kk * MR + i]` for
    /// `i < rows`; what it leaves untouched stays zero.
    pub fn pack_a_with(&self, pa: &mut PackedA, fill: impl FnMut(usize, usize, usize, &mut [f32])) {
        (pa.m, pa.k) = (self.m, self.k);
        pack_panels::<MR>(&mut pa.buf, self.k, self.m, true, fill);
    }

    /// Packs `op(A)` from its stored slice, reusing `pa`'s allocation. A
    /// stored A gives a panel its MR rows as slices; a transposed A is
    /// stored `k×m`, so each k-step of a panel is MR contiguous floats.
    pub fn pack_a_into(&self, a: &[f32], pa: &mut PackedA) {
        let (m, k) = (self.m, self.k);
        assert_eq!(a.len(), m * k, "pack_a: A length vs {m}×{k} descriptor");
        (pa.m, pa.k) = (m, k);
        pack_panels::<MR>(&mut pa.buf, k, m, false, |p0, i0, rows, panel| {
            if self.trans_a {
                copy_runs::<MR>(panel, &a[p0 * m + i0..], m, rows);
            } else {
                let kc = panel.len() / MR;
                for (i, row) in a[i0 * k..].chunks_exact(k).take(rows).enumerate() {
                    for (dst, &v) in panel.chunks_exact_mut(MR).zip(&row[p0..p0 + kc]) {
                        dst[i] = v;
                    }
                }
                if rows < MR {
                    panel.chunks_exact_mut(MR).for_each(|dst| dst[rows..].fill(0.0));
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
    pub fn pack_b_with(&self, pb: &mut PackedB, fill: impl FnMut(usize, usize, usize, &mut [f32])) {
        (pb.k, pb.n) = (self.k, self.n);
        pack_panels::<NR>(&mut pb.buf, self.k, self.n, true, fill);
    }

    /// Packs `op(B)` from its stored slice, reusing `pb`'s allocation. A
    /// transposed B is stored `n×k`, so a panel's columns are stored rows:
    /// [`fill_transposed`] turns them in 8×8 blocks.
    pub fn pack_b_into(&self, b: &[f32], pb: &mut PackedB) {
        let (k, n) = (self.k, self.n);
        // The one check behind `fill_transposed`'s unchecked loads.
        assert!(b.len() == k * n, "pack_b: B length {} vs {k}×{n} descriptor", b.len());
        (pb.k, pb.n) = (k, n);
        pack_panels::<NR>(&mut pb.buf, k, n, false, |p0, j0, cols, panel| {
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
                    let (y, x) = yx;
                    let whole = lanes == NR && grid.col_step == 1 && x + NR <= grid.width;
                    for ip in 0..panels {
                        let ap = pa.buf[a_off + (panel0 + ip) * kc * MR..][..kc * MR].as_ptr();
                        let (r0, mr) = (ip * MR, MR.min(rows - ip * MR));
                        let overwrite = !ADD && p0 == 0;
                        let b_rows = b.rows(p0, kc, jr);
                        // SAFETY (both arms): `ap` is a kc-step panel and
                        // `b` yields kc rows of NR readable floats — a packed
                        // panel by construction, an offset window by
                        // `run_offsets`' reach assert — and the tile's MR
                        // rows land in the slice of C taken for them, or in
                        // an array the kernel writes whole (it is not
                        // zeroed first: the kernel is not inlined here, so
                        // that fill would be 12 more stores per tile).
                        if whole && mr == MR {
                            let at = r0 * grid.ldc + grid.origin + y * grid.row_step + x;
                            let dst = cs[at..][..(MR - 1) * grid.ldc + NR].as_mut_ptr();
                            unsafe { tile(ap, b_rows, dst, grid.ldc, !overwrite) };
                        } else {
                            let mut acc = MaybeUninit::<[[f32; NR]; MR]>::uninit();
                            let acc = unsafe {
                                tile(ap, b_rows, acc.as_mut_ptr().cast(), NR, false);
                                acc.assume_init_ref()
                            };
                            store_tile(cs, grid, (r0, mr), yx, lanes, acc, overwrite);
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

/// The panel loop, written once for both operand sides: lays an operand of
/// `extent` lanes (rows of `op(A)`, columns of `op(B)`) by `k` deep out as
/// `LANES`-wide micro-panels in [`KC`]-deep slabs — slab-major, then panel,
/// k-major inside — and hands each panel to `fill(p0, l0, lanes, panel)`
/// with its slab start, first lane and live lane count (`< LANES` only on
/// the edge panel). With `zeroed` the buffer is zero-filled first, for a
/// filler that leaves entries untouched; without it `fill` must write
/// every lane of its panel, the ones past `lanes` as zeros.
fn pack_panels<const LANES: usize>(
    buf: &mut Vec<f32>,
    k: usize,
    extent: usize,
    zeroed: bool,
    mut fill: impl FnMut(usize, usize, usize, &mut [f32]),
) {
    if zeroed {
        buf.clear();
    }
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

/// The register tile: one MR×NR block of C accumulated over the k-steps
/// of the packed A panel `ap` (MR values a step) and the B rows `rows`
/// yields, then written from the accumulators to the MR rows `dst + i·ld`
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
/// `ap` must be valid for reads of [`MR`] floats per row `rows` yields,
/// every such row for reads of [`NR`] floats, and `dst + i·ld` for writes
/// (and, with `add`, reads) of [`NR`] floats for every `i <` [`MR`].
#[inline(always)]
unsafe fn tile(
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
        return microkernel_fma(ap, rows, dst, ld, add);
    }
    microkernel_generic(ap, rows, dst, ld, add)
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
    dst: *mut f32,
    ld: usize,
    add: bool,
) {
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

/// The AVX2/FMA body: 12 ymm accumulators (6 rows × 2 vectors), one
/// broadcast ymm for A and two loads for B per k-step, and each row
/// stored (or loaded, added and stored) as two ymm. Safety as [`tile`],
/// on a CPU with avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(
    ap: *const f32,
    rows: impl Iterator<Item = *const f32>,
    dst: *mut f32,
    ld: usize,
    add: bool,
) {
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
    for (i, half) in acc.chunks_exact(2).enumerate() {
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

/// Writes the kept part of a tile, computed into `acc`, into `C` (see
/// [`Grid`]), overwriting on the first k-slab and accumulating on the
/// rest: the path of the tiles the microkernel cannot store itself. Tile row `i < mr` is row `r0 + i` of
/// the stripe `c` (the rest are discarded); tile lane `j < lanes` is grid
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
    acc: &[[f32; NR]; MR],
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
        g.pack_a_with(&mut pa, |p0, i0, rows, panel| {
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
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
    /// transpose, ragged and whole panels, and several KC slabs; for a
    /// transposed B on both block bodies.
    #[test]
    fn packs_over_dirty_buffers_are_the_gathered_ones() {
        let big = Gemm::nt(64, 3 * KC, 64);
        let shapes = [(1, 1, 1), (MR, 8, NR), (7, KC + 9, 17), (13, 2 * KC + 3, 33), (32, 32, 206)];
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
                        pack_panels::<NR>(&mut portable.buf, k, n, false, |p0, j0, cols, panel| {
                            // SAFETY: as in `pack_b_into`; `b` holds all n×k.
                            unsafe {
                                fill_transposed_body::<false>(
                                    b[j0 * k + p0..].as_ptr(),
                                    k,
                                    cols,
                                    panel,
                                )
                            }
                        });
                        assert_bits(&portable.buf, &want_b, &format!("portable B of {what}"));
                    }
                }
            }
        }
    }

    /// Runs one tile on the portable body or, when `portable` is false, on
    /// the AVX2 one. Safety as [`tile`].
    unsafe fn body(
        portable: bool,
        ap: *const f32,
        rows: impl Iterator<Item = *const f32>,
        dst: *mut f32,
        ld: usize,
        add: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if !portable {
            return microkernel_fma(ap, rows, dst, ld, add);
        }
        microkernel_generic(ap, rows, dst, ld, add)
    }

    /// `C = op(A)·op(B)`, or with `add` `C += op(A)·op(B)`, over packed
    /// operands on one body, slab by slab. With `direct`, full tiles are
    /// stored from the body's registers as `stripe` stores them; without,
    /// every tile goes through the array and `store_tile` — the oracle.
    fn by_tiles(
        g: &Gemm,
        (pa, pb): (&PackedA, &PackedB),
        c: &mut [f32],
        add: bool,
        portable: bool,
        direct: bool,
    ) {
        let (mp, np, grid) = (g.m.div_ceil(MR), g.n.div_ceil(NR), Grid::dense(g.n));
        for p0 in (0..g.k.max(1)).step_by(KC) {
            let kc = KC.min(g.k - p0);
            let overwrite = !add && p0 == 0;
            for (ip, jr) in (0..mp).flat_map(|ip| (0..np).map(move |jr| (ip, jr))) {
                let ap = pa.buf[(mp * p0 + ip * kc) * MR..].as_ptr();
                let (mr, lanes) = (MR.min(g.m - ip * MR), NR.min(g.n - jr * NR));
                let rows = pb.rows(p0, kc, jr);
                // SAFETY: as in `stripe`.
                unsafe {
                    if direct && mr == MR && lanes == NR {
                        let dst = c[ip * MR * g.n + jr * NR..][..(MR - 1) * g.n + NR].as_mut_ptr();
                        body(portable, ap, rows, dst, g.n, !overwrite);
                    } else {
                        let mut acc = [[0.0f32; NR]; MR];
                        body(portable, ap, rows, acc.as_mut_ptr().cast(), NR, false);
                        store_tile(c, &grid, (ip * MR, mr), (0, jr * NR), lanes, &acc, overwrite);
                    }
                }
            }
        }
    }

    /// Full tiles stored or added straight from the registers are the
    /// array-and-`store_tile` path, bit for bit, on both bodies; and `run`
    /// and `run_add` (at pool widths 1 and 2) are that path on the
    /// dispatched body — over full and edge tiles, k across up to three KC
    /// slabs and k = 0, and a `C` holding ±0, subnormals, ±∞ and NaN
    /// payloads.
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
