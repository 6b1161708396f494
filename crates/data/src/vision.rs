//! Class-conditional synthetic image datasets.
//!
//! An image is a pure function of `(dataset seed, index)`: a per-index
//! [`SeedRng`] draws the jitter `(dy, dx)`, then one
//! [`SeedRng::fill_randn`] fills the whole image with its pixel noise in
//! pixel order (the values one `randn()` per pixel gives, bit for bit), and
//! the template shifted by the jitter is added row by row as `base + z·σ`,
//! with `base = 0` where the shift leaves the frame. No libm call is made
//! per pixel: the normals come from `mini_tensor::rng`'s branch-free
//! Box–Muller body. [`Dataset::sample_into`] writes straight into a batch
//! row, which is how `synthdata::stack` assembles a batch.

use crate::loader::Dataset;
use mini_tensor::rng::SeedRng;

/// Geometry and difficulty of a synthetic vision dataset.
#[derive(Debug, Clone, Copy)]
pub struct VisionSpec {
    /// Channels (1 for the MNIST-like set, 3 for the CIFAR-like set).
    pub channels: usize,
    /// Square image side.
    pub side: usize,
    /// Number of classes.
    pub classes: usize,
    /// Additive Gaussian pixel noise σ.
    pub noise: f32,
    /// Maximum translation jitter in pixels (each axis, uniform).
    pub jitter: usize,
}

impl VisionSpec {
    /// MNIST-like: 1×28×28, 10 classes.
    pub fn mnist_like() -> Self {
        VisionSpec { channels: 1, side: 28, classes: 10, noise: 0.9, jitter: 2 }
    }

    /// CIFAR-like: 3×32×32, 10 classes, noisier and more jittered (harder).
    pub fn cifar_like() -> Self {
        VisionSpec { channels: 3, side: 32, classes: 10, noise: 1.1, jitter: 3 }
    }
}

/// A virtual dataset of `len` images: class templates are fixed random
/// smooth patterns; each sample is its class template translated by a small
/// jitter plus i.i.d. pixel noise. Deterministic in `(seed, index)`.
pub struct SyntheticImages {
    spec: VisionSpec,
    len: usize,
    seed: u64,
    templates: Vec<Vec<f32>>,
}

impl SyntheticImages {
    /// Builds the dataset (materialises only the `classes` templates).
    pub fn new(spec: VisionSpec, len: usize, seed: u64) -> Self {
        let mut rng = SeedRng::new(seed ^ 0xD1CE_BA5E);
        let pixels = spec.channels * spec.side * spec.side;
        let mut templates = Vec::with_capacity(spec.classes);
        for _ in 0..spec.classes {
            // Smooth template: random coarse grid (side/4)² upsampled
            // bilinearly, giving spatially-correlated class structure that
            // convolutions can exploit.
            let coarse_side = (spec.side / 4).max(2);
            let mut t = vec![0.0f32; pixels];
            for c in 0..spec.channels {
                let coarse: Vec<f32> =
                    (0..coarse_side * coarse_side).map(|_| rng.randn() * 1.2).collect();
                for y in 0..spec.side {
                    for x in 0..spec.side {
                        let fy = y as f32 / spec.side as f32 * (coarse_side - 1) as f32;
                        let fx = x as f32 / spec.side as f32 * (coarse_side - 1) as f32;
                        let (y0, x0) = (fy as usize, fx as usize);
                        let (y1, x1) =
                            ((y0 + 1).min(coarse_side - 1), (x0 + 1).min(coarse_side - 1));
                        let (wy, wx) = (fy - y0 as f32, fx - x0 as f32);
                        let v = coarse[y0 * coarse_side + x0] * (1.0 - wy) * (1.0 - wx)
                            + coarse[y0 * coarse_side + x1] * (1.0 - wy) * wx
                            + coarse[y1 * coarse_side + x0] * wy * (1.0 - wx)
                            + coarse[y1 * coarse_side + x1] * wy * wx;
                        t[(c * spec.side + y) * spec.side + x] = v;
                    }
                }
            }
            templates.push(t);
        }
        SyntheticImages { spec, len, seed, templates }
    }

    /// Dataset geometry.
    pub fn spec(&self) -> &VisionSpec {
        &self.spec
    }
}

impl Dataset for SyntheticImages {
    fn len(&self) -> usize {
        self.len
    }

    fn num_classes(&self) -> usize {
        self.spec.classes
    }

    /// `[C, H, W]`.
    fn example_dims(&self) -> Vec<usize> {
        vec![self.spec.channels, self.spec.side, self.spec.side]
    }

    /// Pixel noise first, one [`SeedRng::fill_randn`] over the image, then
    /// the jittered template added row by row as `base + z·σ` (`base` 0
    /// where the shifted template leaves the frame).
    fn sample_into(&self, index: usize, out: &mut [f32]) -> usize {
        assert!(index < self.len, "index {index} out of bounds {}", self.len);
        let label = index % self.spec.classes;
        let tmpl = &self.templates[label];
        assert_eq!(out.len(), tmpl.len(), "an image is {} pixels", tmpl.len());
        let mut rng = SeedRng::new(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let side = self.spec.side;
        let j = self.spec.jitter;
        let (dy, dx) = if j > 0 {
            (rng.below(2 * j + 1) as isize - j as isize, rng.below(2 * j + 1) as isize - j as isize)
        } else {
            (0, 0)
        };
        rng.fill_randn(out);
        let noise = self.spec.noise;
        // Columns x whose source x + dx lies in the frame.
        let lo = (-dx).clamp(0, side as isize) as usize;
        let hi = (side as isize - dx).clamp(lo as isize, side as isize) as usize;
        for (r, row) in out.chunks_exact_mut(side).enumerate() {
            let sy = (r % side) as isize + dy;
            let (lo, hi) = if (0..side as isize).contains(&sy) { (lo, hi) } else { (0, 0) };
            let (left, rest) = row.split_at_mut(lo);
            let (mid, right) = rest.split_at_mut(hi - lo);
            // `0.0 +` as in `base + z·σ`: a −0 product becomes +0.
            for v in left.iter_mut().chain(right) {
                *v = 0.0 + *v * noise;
            }
            if !mid.is_empty() {
                // Row r + dy of the same channel, from column lo + dx.
                let at = ((r as isize + dy) * side as isize + lo as isize + dx) as usize;
                let src = &tmpl[at..at + mid.len()];
                for (v, &base) in mid.iter_mut().zip(src) {
                    *v = base + *v * noise;
                }
            }
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel loop `sample` was before `sample_into`: one
    /// `randn()` per pixel inside the template walk. `randn` now runs the
    /// same body as `fill_randn`, so the two must agree bit for bit.
    fn per_pixel_oracle(d: &SyntheticImages, index: usize) -> (Vec<f32>, usize) {
        let label = index % d.spec.classes;
        let mut rng = SeedRng::new(d.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let side = d.spec.side;
        let j = d.spec.jitter as isize;
        let (dy, dx) = if j > 0 {
            (
                rng.below((2 * j + 1) as usize) as isize - j,
                rng.below((2 * j + 1) as usize) as isize - j,
            )
        } else {
            (0, 0)
        };
        let tmpl = &d.templates[label];
        let mut img = vec![0.0f32; tmpl.len()];
        for c in 0..d.spec.channels {
            for y in 0..side {
                for x in 0..side {
                    let sy = y as isize + dy;
                    let sx = x as isize + dx;
                    let base = if sy >= 0 && sy < side as isize && sx >= 0 && sx < side as isize {
                        tmpl[(c * side + sy as usize) * side + sx as usize]
                    } else {
                        0.0
                    };
                    img[(c * side + y) * side + x] = base + rng.randn() * d.spec.noise;
                }
            }
        }
        (img, label)
    }

    #[test]
    fn sample_into_is_the_per_pixel_loop() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let specs = [
            VisionSpec::mnist_like(),
            VisionSpec::cifar_like(),
            VisionSpec { jitter: 0, ..VisionSpec::mnist_like() },
            // Shifts past the frame: whole rows and columns of noise alone.
            VisionSpec { channels: 2, side: 5, classes: 3, noise: 0.7, jitter: 6 },
        ];
        for spec in specs {
            let d = SyntheticImages::new(spec, 64, 19);
            for index in 0..64 {
                let (want, label) = per_pixel_oracle(&d, index);
                let mut got = vec![f32::NAN; want.len()];
                assert_eq!(d.sample_into(index, &mut got), label);
                assert_eq!(bits(&got), bits(&want), "{spec:?} index {index}");
                assert_eq!(bits(d.sample(index).0.as_slice()), bits(&want));
            }
        }
    }

    #[test]
    fn deterministic_samples() {
        let d1 = SyntheticImages::new(VisionSpec::mnist_like(), 100, 7);
        let d2 = SyntheticImages::new(VisionSpec::mnist_like(), 100, 7);
        let (a, la) = d1.sample(13);
        let (b, lb) = d2.sample(13);
        assert_eq!(la, lb);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn different_indices_differ() {
        let d = SyntheticImages::new(VisionSpec::mnist_like(), 100, 7);
        let (a, _) = d.sample(0);
        let (b, _) = d.sample(10); // same class (10 % 10 == 0), different noise
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn labels_are_balanced() {
        let d = SyntheticImages::new(VisionSpec::mnist_like(), 1000, 3);
        let mut counts = [0usize; 10];
        for i in 0..1000 {
            counts[d.sample(i).1] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn classes_are_separable_by_template_distance() {
        // Nearest-template classification should beat chance by a wide
        // margin — guarantees the dataset is learnable.
        let d = SyntheticImages::new(VisionSpec::cifar_like(), 200, 11);
        let mut correct = 0;
        for i in 0..200 {
            let (img, label) = d.sample(i);
            let mut best = (f32::INFINITY, 0usize);
            for (c, t) in d.templates.iter().enumerate() {
                let dist: f32 = img.as_slice().iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if best.1 == label {
                correct += 1;
            }
        }
        assert!(correct > 120, "only {correct}/200 nearest-template correct");
    }

    #[test]
    fn cifar_dims() {
        let d = SyntheticImages::new(VisionSpec::cifar_like(), 10, 1);
        let (img, _) = d.sample(0);
        assert_eq!(img.shape().dims(), &[3, 32, 32]);
    }
}
