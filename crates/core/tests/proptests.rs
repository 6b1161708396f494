//! Property-based tests for the two-level averaging kernels — the paper's
//! §3.1 identities must hold for *arbitrary* gradients, not just Gaussian
//! ones — and the checkpoint codec's fuzz: damaged or arbitrary bytes are
//! refused, never a panic or an allocation larger than the input.

use a2sgd::mean2::{enc_into, shift_by_sign, split_means, TwoMeans};
use a2sgd::{Checkpoint, SchedCheckpoint};
use a2sgd_sched::SchedState;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest single request each thread
/// makes: how the checkpoint fuzz sees what an input made the decoder
/// allocate.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method hands its own arguments to `System`, whose contract
// is the trait's; `note` only updates a thread-local `Cell` and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Allocation headroom a refused input may use (its error message).
const ERROR_ALLOC_BYTES: usize = 1024;

/// A v3 checkpoint of `params.len()` parameters with arbitrary bit
/// patterns: velocity one value per parameter or none, and the schedule
/// block present or not.
fn checkpoint(params: &[u32], words: [u64; 4], velocity: bool, sched: bool) -> Checkpoint {
    let floats = |xor: u32| params.iter().map(|b| f32::from_bits(b ^ xor)).collect::<Vec<_>>();
    Checkpoint {
        step: words[0],
        seed: words[1],
        params: floats(0),
        velocity: if velocity { floats(0x8040_2010) } else { Vec::new() },
        sched: sched.then(|| SchedCheckpoint {
            state: SchedState {
                local_in_window: words[2] % 64,
                current_h: words[3] % 64,
                ref_dispersion: f64::from_bits(words[2] ^ words[3]),
            },
            anchor: floats(0x0102_0408),
        }),
    }
}

fn grad() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..256)
}

/// ε = g − enc(g): the residual a round keeps local. The library never
/// materialises it (the round shifts g in place); the §3.1 identities
/// about it are checked through `enc_into`.
fn residual(g: &[f32], m: &TwoMeans) -> Vec<f32> {
    let mut enc = vec![0.0f32; g.len()];
    enc_into(g, m, &mut enc);
    g.iter().zip(&enc).map(|(v, e)| v - e).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn means_are_class_averages(g in grad()) {
        let m = split_means(&g);
        let pos: Vec<f64> = g.iter().filter(|v| **v >= 0.0).map(|v| *v as f64).collect();
        let neg: Vec<f64> = g.iter().filter(|v| **v < 0.0).map(|v| -*v as f64).collect();
        prop_assert_eq!(m.n_pos, pos.len());
        prop_assert_eq!(m.n_neg, neg.len());
        if !pos.is_empty() {
            let mean = pos.iter().sum::<f64>() / pos.len() as f64;
            prop_assert!((m.mu_pos as f64 - mean).abs() < 1e-4 * (1.0 + mean.abs()));
        }
        if !neg.is_empty() {
            let mean = neg.iter().sum::<f64>() / neg.len() as f64;
            prop_assert!((m.mu_neg as f64 - mean).abs() < 1e-4 * (1.0 + mean.abs()));
        }
        // µ− is an absolute mean: always non-negative.
        prop_assert!(m.mu_neg >= 0.0 && m.mu_pos >= 0.0);
    }

    #[test]
    fn enc_plus_residual_is_identity(g in grad()) {
        // g == enc(g) + ε, coordinate-wise.
        let m = split_means(&g);
        let mut enc = vec![0.0f32; g.len()];
        enc_into(&g, &m, &mut enc);
        let eps = residual(&g, &m);
        for i in 0..g.len() {
            prop_assert!((enc[i] + eps[i] - g[i]).abs() < 1e-3 * (1.0 + g[i].abs()));
        }
    }

    #[test]
    fn shift_to_local_means_round_trips(g in grad()) {
        // Global = local means is a zero shift: g comes back value-exact.
        let m = split_means(&g);
        let (dp, dn) = m.shift_to(m.mu_pos, m.mu_neg);
        let mut work = g.clone();
        shift_by_sign(&mut work, dp, dn);
        prop_assert_eq!(work, g);
    }

    #[test]
    fn global_means_shift_by_class(g in grad(), dp in 0.0f32..5.0, dn in 0.0f32..5.0) {
        // Replacing local means with (µ+ + dp, µ− + dn) shifts positive
        // coordinates by +dp and negative ones by −dn exactly.
        let m = split_means(&g);
        let (d_pos, d_neg) = m.shift_to(m.mu_pos + dp, m.mu_neg + dn);
        let mut work = g.clone();
        shift_by_sign(&mut work, d_pos, d_neg);
        for i in 0..g.len() {
            let expect = if g[i] >= 0.0 { g[i] + dp } else { g[i] - dn };
            prop_assert!((work[i] - expect).abs() < 1e-3 * (1.0 + expect.abs()));
        }
    }

    #[test]
    fn residual_l2_never_exceeds_gradient_l2(g in grad()) {
        // Subtracting the class means is a projection-like contraction:
        // ‖ε‖² = ‖g‖² − (n₊µ₊² + n₋µ₋²) ≤ ‖g‖².
        let m = split_means(&g);
        let norm_g: f64 = g.iter().map(|v| (*v as f64).powi(2)).sum();
        let eps = residual(&g, &m);
        let norm_e: f64 = eps.iter().map(|v| (*v as f64).powi(2)).sum();
        prop_assert!(norm_e <= norm_g + 1e-3 * (1.0 + norm_g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn checkpoint_decode_refuses_damage_or_round_trips(
        params in prop::collection::vec(any::<u32>(), 0..24),
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        velocity in any::<bool>(),
        sched in any::<bool>(),
        damage in 0u8..8,
        pick in any::<u64>(),
        noise in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        // A valid v3 encoding, with and without the schedule block, then
        // one kind of damage; or bytes from nowhere, with and without the
        // magic in front.
        let (w0, w1, w2, w3) = words;
        let valid = checkpoint(&params, [w0, w1, w2, w3], velocity, sched).encode();
        let mut buf = valid.clone();
        let at = |len: usize| (pick % len.max(1) as u64) as usize;
        match damage {
            0 => buf = noise.clone(),
            1 => buf = [&valid[..8], &noise[..]].concat(),
            2 => buf.truncate(at(valid.len())),
            3 => buf.extend_from_slice(&noise),
            4 => {
                let bit = at(8 * valid.len());
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            5 => buf[7] = [1, 2, 4, 0xff][at(4)],
            6 => {
                // Inflate one length word: the parameters', the
                // velocity's, or the anchor's.
                let p = params.len();
                let mut words = vec![24, 32 + 4 * p];
                if sched {
                    words.push(valid.len() - 8 - 4 * p);
                }
                let w = words[at(words.len())];
                let claim = u64::from_le_bytes(buf[w..w + 8].try_into().unwrap());
                let more = [1, 1 << 20, 1 << 40, u64::MAX / 4][(pick >> 8) as usize % 4];
                buf[w..w + 8].copy_from_slice(&claim.wrapping_add(more).to_le_bytes());
            }
            _ => {}
        }

        LARGEST.with(|l| l.set(0));
        let got = Checkpoint::decode(&buf);
        let largest = LARGEST.with(Cell::get);

        prop_assert!(
            largest <= buf.len().max(ERROR_ALLOC_BYTES),
            "{} B allocated for a {} B input (damage {})", largest, buf.len(), damage
        );
        match got {
            Ok(ck) => prop_assert!(ck.encode() == buf, "a decoded input re-encodes to itself"),
            Err(_) => prop_assert!(damage != 7, "a valid encoding is refused"),
        }
    }
}
