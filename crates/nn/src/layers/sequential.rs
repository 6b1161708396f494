//! Sequential container.

use crate::flat::param_count;
use crate::hook::{GradHook, NullHook};
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::Tensor;

/// Runs child modules in order; backward runs them in reverse.
pub struct Sequential {
    name: String,
    children: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(name: &str) -> Self {
        Sequential { name: name.to_string(), children: Vec::new() }
    }

    /// Appends a child module (builder style).
    pub fn push(mut self, m: Box<dyn Module>) -> Self {
        self.children.push(m);
        self
    }

    /// Appends a child module in place.
    pub fn add(&mut self, m: Box<dyn Module>) {
        self.children.push(m);
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the container has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = x.clone();
        for m in &mut self.children {
            cur = m.forward(&cur, mode);
        }
        cur
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.backward_hooked(dout, &mut NullHook)
    }

    fn backward_hooked(&mut self, dout: &Tensor, hook: &mut dyn GradHook) -> Tensor {
        // Children run in reverse topological order, each announcing its
        // own parameters as its backward completes — the output end of the
        // network reports (and can start synchronizing) while the input
        // end is still backpropagating.
        let mut cur = dout.clone();
        for m in self.children.iter_mut().rev() {
            cur = m.backward_hooked(&cur, hook);
        }
        cur
    }

    fn backward_params(&mut self, dout: &Tensor, hook: &mut dyn GradHook) {
        // Children before the first one with parameters would only form
        // input gradients: they do not run, and that one forms none.
        let Some(first) = self.children.iter_mut().position(|m| param_count(m.as_mut()) > 0) else {
            return;
        };
        let (head, rest) = self.children[first..].split_first_mut().expect("position is in range");
        let mut cur = dout.clone();
        for m in rest.iter_mut().rev() {
            cur = m.backward_hooked(&cur, hook);
        }
        head.backward_params(&cur, hook);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in &mut self.children {
            m.visit_params(f);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::layers::{Linear, Relu};
    use mini_tensor::rng::SeedRng;

    #[test]
    fn mlp_gradcheck() {
        let mut rng = SeedRng::new(4);
        let net = Sequential::new("mlp")
            .push(Box::new(Linear::new("fc1", 6, 5, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new("fc2", 5, 3, &mut rng)));
        gradcheck::check_module(Box::new(net), &[2, 6], 7, 2e-2);
    }
}
