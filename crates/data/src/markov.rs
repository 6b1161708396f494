//! Zipf-weighted Markov token source — the PTB stand-in.
//!
//! Each token has `branch` possible successors with Zipf-distributed
//! transition probabilities, all derived deterministically from a seed. A
//! language model that learns the transition table perfectly reaches the
//! source's conditional entropy, so perplexity curves have a known floor —
//! the analogue of PTB's ≈ 80–140 perplexity range for the paper's Figure 3d.

use crate::loader::Dataset;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// A deterministic synthetic corpus.
pub struct MarkovText {
    vocab: usize,
    tokens: Vec<u32>,
    seq_len: usize,
    /// transition[t] = (successors, cumulative probabilities)
    transitions: Vec<(Vec<u32>, Vec<f32>)>,
}

impl MarkovText {
    /// Generates a corpus of `len` tokens over `vocab` symbols with
    /// `branch` successors per symbol.
    pub fn new(vocab: usize, branch: usize, len: usize, seq_len: usize, seed: u64) -> Self {
        assert!(vocab >= 2 && branch >= 1 && branch <= vocab);
        let mut rng = SeedRng::new(seed ^ 0x7EA7_0A51);
        // Zipf weights 1/1, 1/2, …, 1/branch normalised.
        let weights: Vec<f32> = (1..=branch).map(|k| 1.0 / k as f32).collect();
        let z: f32 = weights.iter().sum();
        let mut transitions = Vec::with_capacity(vocab);
        for _ in 0..vocab {
            let mut succ: Vec<u32> = Vec::with_capacity(branch);
            while succ.len() < branch {
                let s = rng.below(vocab) as u32;
                if !succ.contains(&s) {
                    succ.push(s);
                }
            }
            let mut cum = Vec::with_capacity(branch);
            let mut acc = 0.0f32;
            for w in &weights {
                acc += w / z;
                cum.push(acc);
            }
            transitions.push((succ, cum));
        }
        // Roll the chain.
        let mut tokens = Vec::with_capacity(len);
        let mut cur = rng.below(vocab) as u32;
        for _ in 0..len {
            tokens.push(cur);
            let (succ, cum) = &transitions[cur as usize];
            let u = rng.uniform(0.0, 1.0);
            let k = cum.iter().position(|&c| u <= c).unwrap_or(cum.len() - 1);
            cur = succ[k];
        }
        MarkovText { vocab, tokens, seq_len, transitions }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Sequence length per example.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The per-token conditional entropy of the source in nats — the
    /// theoretical minimum cross-entropy any model can reach.
    pub fn entropy_floor(&self) -> f64 {
        // All rows share the same Zipf distribution.
        let branch = self.transitions[0].0.len();
        let weights: Vec<f64> = (1..=branch).map(|k| 1.0 / k as f64).collect();
        let z: f64 = weights.iter().sum();
        -weights.iter().map(|w| (w / z) * (w / z).ln()).sum::<f64>()
    }

    /// Perplexity floor `exp(entropy)`.
    pub fn perplexity_floor(&self) -> f64 {
        self.entropy_floor().exp()
    }

    /// Language-model example `i`: input tokens
    /// `[i·T, i·T+T)` and targets shifted by one.
    pub fn lm_example(&self, i: usize) -> (Vec<u32>, Vec<u32>) {
        let t = self.seq_len;
        let start = i * t;
        assert!(start + t < self.tokens.len(), "example {i} out of range");
        let input = self.tokens[start..start + t].to_vec();
        let target = self.tokens[start + 1..start + t + 1].to_vec();
        (input, target)
    }

    /// Number of non-overlapping LM examples.
    pub fn num_examples(&self) -> usize {
        (self.tokens.len() - 1) / self.seq_len
    }

    /// Stacks examples `idxs` into `([B, T] input tensor, B·T flat targets)`.
    pub fn lm_batch(&self, idxs: &[usize]) -> (Tensor, Vec<usize>) {
        let t = self.seq_len;
        let b = idxs.len();
        let mut input = vec![0.0f32; b * t];
        let mut targets = Vec::with_capacity(b * t);
        for (bi, &i) in idxs.iter().enumerate() {
            let (x, y) = self.lm_example(i);
            for (j, &tok) in x.iter().enumerate() {
                input[bi * t + j] = tok as f32;
            }
            targets.extend(y.iter().map(|&v| v as usize));
        }
        (Tensor::from_vec(input, [b, t]), targets)
    }

    /// Raw token stream (for distribution tests).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }
}

/// `Dataset` adapter: example = `[T]` token tensor, "label" = first target
/// token (the full-sequence targets come from [`MarkovText::lm_batch`];
/// this adapter exists so the generic sharding machinery applies).
impl Dataset for MarkovText {
    fn len(&self) -> usize {
        self.num_examples()
    }

    fn num_classes(&self) -> usize {
        self.vocab
    }

    fn example_dims(&self) -> Vec<usize> {
        vec![self.seq_len]
    }

    fn sample_into(&self, index: usize, out: &mut [f32]) -> usize {
        let (x, y) = self.lm_example(index);
        assert_eq!(out.len(), x.len(), "example {index} is {} tokens", x.len());
        for (o, &tok) in out.iter_mut().zip(&x) {
            *o = tok as f32;
        }
        y[0] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_vocab() {
        let a = MarkovText::new(50, 4, 2000, 10, 3);
        let b = MarkovText::new(50, 4, 2000, 10, 3);
        assert_eq!(a.tokens(), b.tokens());
        assert!(a.tokens().iter().all(|&t| (t as usize) < 50));
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let m = MarkovText::new(30, 3, 500, 8, 4);
        let (x, y) = m.lm_example(2);
        assert_eq!(&x[1..], &y[..7]);
    }

    #[test]
    fn entropy_floor_matches_zipf() {
        let m = MarkovText::new(100, 4, 100, 5, 5);
        // Zipf(4): w = 1, .5, .333, .25; Z = 2.0833…
        let w = [1.0f64, 0.5, 1.0 / 3.0, 0.25];
        let z: f64 = w.iter().sum();
        let h: f64 = -w.iter().map(|v| (v / z) * (v / z).ln()).sum::<f64>();
        assert!((m.entropy_floor() - h).abs() < 1e-12);
        assert!(m.perplexity_floor() > 1.0 && m.perplexity_floor() < 4.0);
    }

    #[test]
    fn chain_respects_transition_support() {
        let m = MarkovText::new(20, 2, 5000, 10, 6);
        for w in m.tokens().windows(2) {
            let (succ, _) = &m.transitions[w[0] as usize];
            assert!(succ.contains(&w[1]), "{} → {} not in support", w[0], w[1]);
        }
    }

    #[test]
    fn batch_shapes() {
        let m = MarkovText::new(40, 3, 2000, 16, 7);
        let (x, y) = m.lm_batch(&[0, 1, 2]);
        assert_eq!(x.shape().dims(), &[3, 16]);
        assert_eq!(y.len(), 48);
    }

    #[test]
    fn high_frequency_successor_dominates() {
        // Empirical check that transitions follow the Zipf weights: the
        // most likely successor should appear ≈ 48% of the time (1/Z).
        let m = MarkovText::new(10, 4, 50_000, 10, 8);
        let mut top_hits = 0usize;
        let mut total = 0usize;
        for w in m.tokens().windows(2) {
            let (succ, _) = &m.transitions[w[0] as usize];
            if w[1] == succ[0] {
                top_hits += 1;
            }
            total += 1;
        }
        let frac = top_hits as f64 / total as f64;
        assert!((frac - 0.48).abs() < 0.05, "top-successor frequency {frac}");
    }
}
