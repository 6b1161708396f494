//! Error-feedback memory (Stich et al.; Karimireddy et al.).
//!
//! Sparsified/quantized SGD keeps a worker-local residual `m`: each
//! iteration compresses `g + m` and stores back whatever the compressor
//! dropped. This preserves the *sum* of updates over time, which is the key
//! to the convergence guarantees the paper cites.
//!
//! The memory is one buffer used in place. [`ErrorFeedback::accumulate`]
//! adds the gradient into it, so the buffer *is* the accumulated gradient
//! `g + m` the compressor reads; the compressor then subtracts what it
//! transmits ([`ErrorFeedback::take`] for whole coordinates, or any
//! in-place update of the slice `accumulate` returns), and what is left is
//! the next iteration's memory: transmitted + residual == accumulated.

/// Worker-local error-feedback buffer.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    memory: Vec<f32>,
}

impl ErrorFeedback {
    /// Zero-initialised memory for an `n`-parameter model.
    pub fn new(n: usize) -> Self {
        ErrorFeedback { memory: vec![0.0; n] }
    }

    /// `memory += grad`. Returns the buffer, which now holds the
    /// accumulated (error-compensated) gradient: compress it, and subtract
    /// the transmitted part from it in place.
    pub fn accumulate(&mut self, grad: &[f32]) -> &mut [f32] {
        assert_eq!(grad.len(), self.memory.len());
        for (m, g) in self.memory.iter_mut().zip(grad) {
            *m += *g;
        }
        &mut self.memory
    }

    /// Transmits coordinate `i` whole: returns its accumulated value and
    /// leaves no residual there — also for a non-finite value, where
    /// subtracting would leave `inf − inf = NaN` for good.
    pub fn take(&mut self, i: usize) -> f32 {
        std::mem::take(&mut self.memory[i])
    }

    /// Current residual: between steps, what compression has dropped so far.
    pub fn residual(&self) -> &[f32] {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_then_absorb_conserves_mass() {
        // Invariant: accumulated = transmitted + residual, exactly.
        let mut ef = ErrorFeedback::new(4);
        let acc = ef.accumulate(&[1.0, -2.0, 3.0, -4.0]).to_vec(); // memory 0 → the gradient
        assert_eq!(acc, vec![1.0, -2.0, 3.0, -4.0]);
        let transmitted = [ef.take(0), 0.0, ef.take(2), 0.0]; // pretend top-2 kept
        assert_eq!(transmitted, [1.0, 0.0, 3.0, 0.0]);
        assert_eq!(ef.residual(), &[0.0, -2.0, 0.0, -4.0]);

        // Next iteration: residual folds back in.
        assert_eq!(ef.accumulate(&[0.5; 4]), &[0.5, -1.5, 0.5, -3.5]);
    }

    #[test]
    fn zero_compression_error_means_zero_residual() {
        let mut ef = ErrorFeedback::new(3);
        for m in ef.accumulate(&[1.0, 2.0, 3.0]) {
            *m -= *m;
        }
        assert_eq!(ef.residual(), &[0.0; 3]);
        // Taking is lossless where subtracting is not.
        ef.accumulate(&[f32::INFINITY, 0.0, 0.0]);
        assert_eq!(ef.take(0), f32::INFINITY);
        assert_eq!(ef.residual(), &[0.0; 3]);
    }
}
