//! Token embedding lookup.

use crate::init;
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Embedding table: maps integer token ids (stored as `f32` in the input
/// tensor, as the [`Module`] contract is tensor-in/tensor-out) of shape
/// `[B, T]` to vectors `[B, T, E]`.
pub struct Embedding {
    name: String,
    vocab: usize,
    dim: usize,
    weight: Param,
    cached_ids: Vec<usize>,
    cached_in_dims: Vec<usize>,
}

impl Embedding {
    /// Creates an embedding with U(−0.1, 0.1) init (classic PTB recipe).
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut SeedRng) -> Self {
        let weight =
            Param::new(format!("{name}.weight"), init::small_uniform(rng, &[vocab, dim], 0.1));
        Embedding {
            name: name.to_string(),
            vocab,
            dim,
            weight,
            cached_ids: Vec::new(),
            cached_in_dims: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }
}

impl Module for Embedding {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let dims = x.shape().dims().to_vec();
        self.cached_in_dims = dims.clone();
        self.cached_ids.clear();
        self.cached_ids.reserve(x.numel());
        let w = self.weight.data.as_slice();
        let mut out = vec![0.0f32; x.numel() * self.dim];
        for (i, &idf) in x.as_slice().iter().enumerate() {
            // `as` saturates (NaN and −1 → 0) and truncates (2.7 → 2): only
            // an id it maps back onto exactly is a whole number.
            let id = idf as usize;
            assert!(
                id as f32 == idf && id < self.vocab,
                "token id {idf} at position {i} is not an integer in 0..{}",
                self.vocab
            );
            self.cached_ids.push(id);
            out[i * self.dim..(i + 1) * self.dim]
                .copy_from_slice(&w[id * self.dim..(id + 1) * self.dim]);
        }
        let mut out_dims = dims;
        out_dims.push(self.dim);
        Tensor::from_vec(out, &out_dims[..])
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        assert_eq!(dout.numel(), self.cached_ids.len() * self.dim, "backward before forward");
        let g = self.weight.grad.as_mut_slice();
        for (i, &id) in self.cached_ids.iter().enumerate() {
            let src = &dout.as_slice()[i * self.dim..(i + 1) * self.dim];
            for (gv, dv) in g[id * self.dim..(id + 1) * self.dim].iter_mut().zip(src) {
                *gv += *dv;
            }
        }
        // Token ids carry no gradient.
        Tensor::zeros(&self.cached_in_dims[..])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_scatter() {
        let mut rng = SeedRng::new(61);
        let mut emb = Embedding::new("emb", 5, 3, &mut rng);
        let x = Tensor::from_vec(vec![0.0, 2.0, 2.0, 4.0], [2, 2]);
        let y = emb.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 2, 3]);
        let w = emb.weight.data.as_slice().to_vec();
        assert_eq!(&y.as_slice()[0..3], &w[0..3]);
        assert_eq!(&y.as_slice()[3..6], &w[6..9]);

        let dout = Tensor::ones([2, 2, 3]);
        let _ = emb.backward(&dout);
        let g = emb.weight.grad.as_slice();
        // Token 2 appeared twice → grad 2, tokens 0 and 4 once, others 0.
        assert!(g[0..3].iter().all(|&v| v == 1.0));
        assert!(g[3..6].iter().all(|&v| v == 0.0));
        assert!(g[6..9].iter().all(|&v| v == 2.0));
        assert!(g[12..15].iter().all(|&v| v == 1.0));
    }

    fn lookup(ids: Vec<f32>) {
        let mut emb = Embedding::new("emb", 3, 2, &mut SeedRng::new(63));
        let n = ids.len();
        let _ = emb.forward(&Tensor::from_vec(ids, [1, n]), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "token id -1 at position 1 is not an integer in 0..3")]
    fn negative_id_panics() {
        lookup(vec![0.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "token id NaN at position 2")]
    fn nan_id_panics() {
        lookup(vec![0.0, 1.0, f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "token id 2.5 at position 0")]
    fn fractional_id_panics() {
        lookup(vec![2.5]);
    }

    #[test]
    #[should_panic(expected = "token id 5 at position 0 is not an integer in 0..3")]
    fn out_of_vocab_panics() {
        let mut rng = SeedRng::new(62);
        let mut emb = Embedding::new("emb", 3, 2, &mut rng);
        let _ = emb.forward(&Tensor::from_vec(vec![5.0], [1, 1]), Mode::Train);
    }
}
