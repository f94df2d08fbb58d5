//! Pins every support-window forward sweep in `transient` bit for bit
//! (`f64::to_bits`) to a dense reference that touches all `n` states each
//! step, the way the sweeps ran before they carried windows.
//!
//! The chains cover BFS-like numbering (where the window is narrow),
//! randomly permuted numbering (where it is a loose superset), arbitrary
//! jumps and rank-one matrices. The binary lowers the parallel threshold
//! so the windowed gather also runs on the worker pool; the lane-identity
//! test compares one lane against four on a chain wide enough to split
//! the window into several chunks.

use proptest::prelude::*;
use smg_dtmc::{par, transient, BitVec, CsrBuilder, Dtmc, RankOneMatrix, TransitionMatrix};
use std::collections::BTreeMap;
use std::sync::Once;

/// Lowers the parallel threshold before any engine call in this process
/// reads it. Every test calls this first.
fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("SMG_PAR_MIN_ROWS", "16"));
}

/// xorshift64 for deriving a whole test case from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How a generated chain numbers and connects its states.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Short forward moves and occasional jumps back, in BFS-like order.
    Walk,
    /// The same walk under a random permutation of state ids.
    Permuted,
    /// Successors anywhere.
    Scattered,
    /// Every row the same distribution.
    RankOne,
}

fn random_dtmc(seed: u64, n: usize, shape: Shape) -> Dtmc {
    let mut rng = Rng(seed | 1);
    let mut rows: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|r| {
            let k = 1 + rng.below(3);
            let weights: Vec<u64> = (0..k).map(|_| 1 + rng.next() % 9).collect();
            let total: u64 = weights.iter().sum();
            weights
                .iter()
                .map(|&w| {
                    let c = match shape {
                        Shape::Scattered => rng.below(n),
                        _ if rng.below(6) == 0 => rng.below(r + 1),
                        _ => (r + rng.below(3)).min(n - 1),
                    };
                    (c as u32, w as f64 / total as f64)
                })
                .collect()
        })
        .collect();
    let mut perm: Vec<usize> = (0..n).collect();
    if let Shape::Permuted = shape {
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut permuted = vec![Vec::new(); n];
        for (r, row) in rows.into_iter().enumerate() {
            permuted[perm[r]] = row
                .into_iter()
                .map(|(c, v)| (perm[c as usize] as u32, v))
                .collect();
        }
        rows = permuted;
    }
    let matrix = match shape {
        Shape::RankOne => {
            TransitionMatrix::RankOne(RankOneMatrix::new(n, rows[0].clone()).unwrap())
        }
        _ => {
            let mut b = CsrBuilder::with_capacity(n, 3 * n);
            for mut row in rows {
                b.push_row(&mut row).unwrap();
            }
            TransitionMatrix::Sparse(b.finish())
        }
    };
    // One to three initial states, early in the numbering before `perm`.
    let starts = 1 + rng.below(3);
    let initial: Vec<(u32, f64)> = (0..starts)
        .map(|_| (perm[rng.below(n.min(4))] as u32, 1.0 / starts as f64))
        .collect();
    let mut labels = BTreeMap::new();
    let (lhs_gap, rhs_gap) = (1 + rng.below(8), 2 + rng.below(12));
    let salt = rng.next();
    labels.insert(
        "lhs".to_string(),
        BitVec::from_fn(n, |i| !(i as u64 ^ salt).is_multiple_of(lhs_gap as u64)),
    );
    labels.insert(
        "rhs".to_string(),
        BitVec::from_fn(n, |i| {
            (i as u64)
                .wrapping_mul(salt | 1)
                .is_multiple_of(rhs_gap as u64)
        }),
    );
    let rewards = (0..n).map(|_| rng.below(7) as f64 * 0.75 - 1.5).collect();
    Dtmc::new(matrix, initial, labels, rewards).unwrap()
}

// --- the dense reference: every step touches all n states ----------------

fn dense_step(m: &TransitionMatrix, pi: &[f64], active: Option<&BitVec>) -> Vec<f64> {
    let n = m.n();
    let live = |r: usize| active.is_none_or(|a| a.get(r));
    let mut out = vec![0.0; n];
    if let TransitionMatrix::RankOne(r1) = m {
        let mass: f64 = (0..n).filter(|&r| live(r)).map(|r| pi[r]).sum();
        if mass > 0.0 {
            for &(c, v) in r1.dist() {
                out[c as usize] += mass * v;
            }
        }
        return out;
    }
    for (r, &p) in pi.iter().enumerate() {
        if p != 0.0 && live(r) {
            for (c, v) in m.row_iter(r) {
                out[c as usize] += p * v;
            }
        }
    }
    out
}

fn dense_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn dense_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn dense_distribution(d: &Dtmc, t: usize) -> Vec<f64> {
    let mut pi = d.initial_dense();
    for _ in 0..t {
        pi = dense_step(d.matrix(), &pi, None);
    }
    pi
}

fn dense_until(d: &Dtmc, lhs: &BitVec, rhs: &BitVec, t: usize) -> f64 {
    let active = lhs.and(&rhs.not());
    let mut pi = d.initial_dense();
    let drain = |pi: &mut Vec<f64>| {
        let mut absorbed = 0.0;
        for i in rhs.iter_ones() {
            absorbed += pi[i];
            pi[i] = 0.0;
        }
        absorbed
    };
    let mut success = drain(&mut pi);
    for _ in 0..t {
        pi = dense_step(d.matrix(), &pi, Some(&active));
        success += drain(&mut pi);
        if success >= 1.0 - 1e-15 {
            break;
        }
    }
    success.min(1.0)
}

fn dense_steady(d: &Dtmc, tol: f64, max_steps: usize, lazy: bool) -> transient::SteadyState {
    let mut pi = d.initial_dense();
    let mut delta = f64::INFINITY;
    for step in 1..=max_steps {
        let stepped = dense_step(d.matrix(), &pi, None);
        if lazy {
            delta = 0.0;
            for (p, s) in pi.iter_mut().zip(&stepped) {
                let blended = 0.5 * *p + 0.5 * s;
                delta = delta.max((blended - *p).abs());
                *p = blended;
            }
        } else {
            delta = dense_delta(&pi, &stepped);
            pi = stepped;
        }
        if delta < tol {
            return transient::SteadyState {
                converged_at: Some(step),
                distribution: pi,
                final_delta: delta,
            };
        }
    }
    transient::SteadyState {
        converged_at: None,
        distribution: pi,
        final_delta: delta,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every windowed sweep against its dense reference, horizons `0..=max_t`.
fn assert_sweeps_match_dense(d: &Dtmc, max_t: usize) {
    let (lhs, rhs) = (d.label("lhs").unwrap(), d.label("rhs").unwrap());
    let series = transient::instantaneous_reward_series(d, max_t);
    for (t, step_reward) in series.iter().enumerate() {
        let dense = dense_distribution(d, t);
        assert_eq!(
            bits(&transient::distribution_at(d, t)),
            bits(&dense),
            "π at t={t}"
        );
        let reward = dense_dot(&dense, d.rewards()).to_bits();
        assert_eq!(
            transient::instantaneous_reward(d, t).to_bits(),
            reward,
            "I={t}"
        );
        assert_eq!(step_reward.to_bits(), reward, "series at t={t}");
        let until = transient::bounded_until_prob(d, lhs, rhs, t).unwrap();
        assert_eq!(
            until.to_bits(),
            dense_until(d, lhs, rhs, t).to_bits(),
            "U<={t}"
        );
        let all = BitVec::ones(d.n_states());
        let reach = transient::bounded_reach_prob(d, rhs, t).unwrap();
        assert_eq!(
            reach.to_bits(),
            dense_until(d, &all, rhs, t).to_bits(),
            "F<={t}"
        );
    }
    for tol in [1e-3, 1e-9] {
        for (lazy, got) in [
            (false, transient::detect_steady_state(d, tol, max_t)),
            (true, transient::lazy_steady_state(d, tol, max_t)),
        ] {
            let want = dense_steady(d, tol, max_t, lazy);
            assert_eq!(got.converged_at, want.converged_at, "lazy={lazy} tol={tol}");
            assert_eq!(bits(&got.distribution), bits(&want.distribution));
            assert_eq!(got.final_delta.to_bits(), want.final_delta.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windowed sweeps equal the dense loops bit for bit on every shape.
    #[test]
    fn windowed_sweeps_match_dense_reference(
        seed in 0u64..1_000_000_000,
        n in 2usize..=48,
        shape in 0usize..4,
    ) {
        init();
        let shape = [Shape::Walk, Shape::Permuted, Shape::Scattered, Shape::RankOne][shape];
        assert_sweeps_match_dense(&random_dtmc(seed, n, shape), 40);
    }
}

/// One lane and four lanes give the same bits, and both equal the dense
/// reference, on chains wide enough for the window to span several
/// kernel chunks (`Scattered`) or to sit at an offset (`Permuted`).
#[test]
fn lane_count_does_not_change_windowed_sweeps() {
    init();
    if cfg!(feature = "parallel") {
        assert!(par::with_lane_scope(4, || par::should_parallelize(16)));
    }
    for shape in [Shape::Walk, Shape::Permuted, Shape::Scattered] {
        let d = random_dtmc(0x5EED, 12_000, shape);
        let run = |lanes| {
            par::with_lane_scope(lanes, || {
                let (lhs, rhs) = (d.label("lhs").unwrap(), d.label("rhs").unwrap());
                let mut out = transient::distribution_at(&d, 30);
                out.extend(transient::instantaneous_reward_series(&d, 30));
                out.push(transient::bounded_until_prob(&d, lhs, rhs, 30).unwrap());
                out.push(transient::bounded_reach_prob(&d, rhs, 30).unwrap());
                out.extend(transient::lazy_steady_state(&d, 1e-12, 30).distribution);
                out
            })
        };
        let one = run(1);
        assert_eq!(bits(&one), bits(&run(4)), "{shape:?}");
        let dense = dense_distribution(&d, 30);
        assert_eq!(bits(&one[..d.n_states()]), bits(&dense), "{shape:?}");
    }
}
