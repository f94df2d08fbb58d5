//! The forward-sweep driver behind every analysis in [`super`].
//!
//! A [`Sweep`] owns two ping-pong buffers, allocated once per sweep, and
//! each buffer's support window: a range of state ids outside which the
//! buffer is exactly zero. Every step calls the windowed forward kernel
//! ([`TransitionMatrix::forward_window_into`]), so it touches only the
//! states the mass can occupy, and clears only the stale part of the
//! spare buffer's old window. Draining, expectations and distances read
//! the window only. No term a dense loop would add outside the window is
//! non-zero, so every result equals the dense computation bit for bit.

use crate::bitvec::BitVec;
use crate::dtmc::Dtmc;
use crate::matrix::TransitionMatrix;
use std::ops::Range;

/// The forward-sweep driver: the distribution `pi` and the spare buffer
/// `prev` (the previous distribution after a step), each zero outside its
/// window.
pub(super) struct Sweep<'a> {
    matrix: &'a TransitionMatrix,
    pub(super) pi: Vec<f64>,
    window: Range<usize>,
    prev: Vec<f64>,
    prev_window: Range<usize>,
}

impl<'a> Sweep<'a> {
    pub(super) fn new(dtmc: &'a Dtmc) -> Self {
        let pi = dtmc.initial_dense();
        let lo = pi.iter().position(|&p| p != 0.0).unwrap_or(0);
        let hi = pi.iter().rposition(|&p| p != 0.0).map_or(lo, |i| i + 1);
        Sweep {
            matrix: dtmc.matrix(),
            prev: vec![0.0; pi.len()],
            pi,
            window: lo..hi,
            prev_window: lo..hi,
        }
    }

    /// Writes `π · P` (only `active` rows propagate) into `prev`.
    fn propagate(&mut self, active: Option<&BitVec>) {
        let (window, dirty) = (self.window.clone(), self.prev_window.clone());
        self.prev_window =
            self.matrix
                .forward_window_into(&self.pi, window, active, &mut self.prev, dirty);
    }

    /// One step `π ← π · P`.
    pub(super) fn step(&mut self, active: Option<&BitVec>) {
        self.propagate(active);
        std::mem::swap(&mut self.pi, &mut self.prev);
        std::mem::swap(&mut self.window, &mut self.prev_window);
    }

    /// One step of the lazy chain `π ← ½π + ½π·P`, returning its L∞ change.
    pub(super) fn lazy_step(&mut self) -> f64 {
        self.propagate(None);
        self.window = hull(&self.window, &self.prev_window);
        let w = self.window.clone();
        let mut delta: f64 = 0.0;
        for (p, s) in self.pi[w.clone()].iter_mut().zip(&self.prev[w]) {
            let lazy = 0.5 * *p + 0.5 * s;
            delta = delta.max((lazy - *p).abs());
            *p = lazy;
        }
        delta
    }

    /// Removes the mass on `target` states, returning its sum.
    pub(super) fn drain(&mut self, target: &BitVec) -> f64 {
        let mut absorbed = 0.0;
        for i in target.iter_ones_in(self.window.clone()) {
            absorbed += self.pi[i];
            self.pi[i] = 0.0;
        }
        absorbed
    }

    /// The expectation of `values` under `π`.
    pub(super) fn expectation(&self, values: &[f64]) -> f64 {
        super::dot(&self.pi[self.window.clone()], &values[self.window.clone()])
    }

    /// The L∞ distance between `π` and the previous distribution.
    pub(super) fn delta(&self) -> f64 {
        let w = hull(&self.window, &self.prev_window);
        super::max_abs_diff(&self.pi[w.clone()], &self.prev[w])
    }
}

/// The smallest range covering two non-empty windows.
fn hull(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    a.start.min(b.start)..a.end.max(b.end)
}
