//! Seeded input generation. Every input a workload feeds the program —
//! model constants, SNRs, horizons, request order — comes from here, so
//! the same seed yields byte-identical inputs.

/// SplitMix64: small, fast and good enough to pick benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so each workload draws
    /// from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to 3 significant digits so the
    /// generated source stays readable.
    pub fn unit_range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        round3(lo + u * (hi - lo))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn round3(v: f64) -> f64 {
    let scale = 10f64.powi(2 - v.abs().log10().floor() as i32);
    (v * scale).round() / scale
}

/// A layered error channel in the shape of `examples/models/walk.sm`: a
/// frame counter `t` ticks `0..N`, an error flag latches with probability
/// `perr` per tick, and a lane index `s` drifts up to `W-1` without
/// touching the error process. `W` widens each layer (more states to
/// compile and sweep) while every error probability keeps its closed form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Depth: number of ticks.
    pub n: u64,
    /// Lanes per layer (1 = a plain walk).
    pub w: u64,
    /// Per-tick error probability.
    pub perr: f64,
}

impl Channel {
    /// Guarded-command source of the chain.
    pub fn source(&self) -> String {
        let Channel { n, w, perr } = *self;
        let body = if w > 1 {
            let drift = "&(s'=min(s+1,W-1))";
            format!(
                "  [] t < N & !err -> perr/2:(t'=t+1)&(err'=true) + perr/2:(t'=t+1)&(err'=true){drift}\n    \
                 + (1-perr)/2:(t'=t+1) + (1-perr)/2:(t'=t+1){drift};\n  \
                 [] t < N & err -> 0.5:(t'=t+1) + 0.5:(t'=t+1){drift};\n"
            )
        } else {
            "  [] t < N & !err -> perr:(t'=t+1)&(err'=true) + (1-perr):(t'=t+1);\n  \
             [] t < N & err -> (t'=t+1);\n"
                .to_string()
        };
        let lane = if w > 1 {
            "  s : [0..W-1] init 0;\n"
        } else {
            ""
        };
        let w_const = if w > 1 {
            format!("const int W = {w};\n")
        } else {
            String::new()
        };
        format!(
            "// Layered error channel: {n} ticks, {w} lanes, error rate {perr}.\n\
             dtmc\n\n\
             const int N = {n};\n{w_const}const double perr = {perr};\n\n\
             module channel\n  t : [0..N] init 0;\n{lane}  err : bool init false;\n\
             {body}  [] t = N -> true;\nendmodule\n\n\
             label \"err\" = err;\n\n\
             rewards\n  err : 1;\nendrewards\n"
        )
    }

    /// Reachable states: layer `t` holds `min(t, W-1) + 1` lanes, each
    /// with the flag clear or (after the first tick) set.
    pub fn states(&self) -> u64 {
        (0..=self.n)
            .map(|t| (t.min(self.w - 1) + 1) * if t == 0 { 1 } else { 2 })
            .sum()
    }

    /// Logical transitions of a plain walk (`W = 1`): two out of every
    /// clean state before `N`, one out of every other state.
    pub fn transitions(&self) -> u64 {
        debug_assert_eq!(self.w, 1, "only plain walks have this count");
        3 * self.n + 1
    }

    /// `P(F<=k err)`: some error within `min(k, N)` ticks. `k = None` is
    /// the unbounded `P(F err)`.
    pub fn p_err_within(&self, k: Option<u64>) -> f64 {
        let steps = k.map_or(self.n, |k| k.min(self.n));
        -(steps as f64 * (-self.perr).ln_1p()).exp_m1()
    }
}

/// A worst-case channel as an MDP: at every tick the scheduler picks the
/// quiet (`pq`) or burst (`pb > pq`) regime, and each error bumps a
/// counter that saturates at `K`. `Pmax`/`Pmin` of reaching `K` are the
/// binomial tails of the always-burst and always-quiet schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regime {
    /// Depth: number of ticks.
    pub n: u64,
    /// Error count that saturates the counter.
    pub k: u64,
    /// Quiet-regime error probability.
    pub pq: f64,
    /// Burst-regime error probability.
    pub pb: f64,
}

impl Regime {
    /// Guarded-command source of the MDP.
    pub fn source(&self) -> String {
        let Regime { n, k, pq, pb } = *self;
        format!(
            "// Quiet/burst regime channel: {n} ticks, counter saturating at {k}.\n\
             mdp\n\n\
             const int N = {n};\nconst int K = {k};\n\
             const double pq = {pq};\nconst double pb = {pb};\n\n\
             module chan\n  t : [0..N] init 0;\n  c : [0..K] init 0;\n  \
             [] t < N -> pq:(t'=t+1)&(c'=min(c+1,K)) + (1-pq):(t'=t+1);\n  \
             [] t < N -> pb:(t'=t+1)&(c'=min(c+1,K)) + (1-pb):(t'=t+1);\n  \
             [] t = N -> true;\nendmodule\n\n\
             label \"full\" = c = K;\n"
        )
    }

    /// Reachable states: layer `t` holds counters `0..=min(t, K)`.
    pub fn states(&self) -> u64 {
        (0..=self.n).map(|t| t.min(self.k) + 1).sum()
    }

    /// `Pmax(F<=k full)` (`max = true`, always burst) or `Pmin` (always
    /// quiet); `k = None` is unbounded.
    pub fn p_full_within(&self, k: Option<u64>, max: bool) -> f64 {
        let steps = k.map_or(self.n, |k| k.min(self.n));
        binomial_tail(steps, if max { self.pb } else { self.pq }, self.k)
    }
}

/// `P(Binomial(n, p) >= k)`. Sums whichever side of `k` lies away from
/// the mean (its terms fall off geometrically), so a small tail is summed
/// directly instead of lost to cancellation in `1 − (lower sum)`.
pub fn binomial_tail(n: u64, p: f64, k: u64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // ln P(X = i), built up from i = 0 so no factorial overflows.
    let (lp, lq) = (p.ln(), (-p).ln_1p());
    let log_terms = (0..n).scan(n as f64 * lq, |log_term, i| {
        let current = *log_term;
        *log_term += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + lp - lq;
        Some(current)
    });
    let all: Vec<f64> = log_terms.chain(std::iter::once(n as f64 * lp)).collect();
    let sum = |range: std::ops::Range<usize>| all[range].iter().map(|l| l.exp()).sum::<f64>();
    if k as f64 > n as f64 * p {
        sum(k as usize..all.len())
    } else {
        1.0 - sum(0..k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn unit_range_stays_in_bounds_and_is_short() {
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let v = r.unit_range(1e-4, 9e-4);
            assert!((1e-4..=9e-4).contains(&v), "{v}");
            assert!(format!("{v}").len() <= 8, "{v}");
        }
    }

    #[test]
    fn binomial_tail_matches_direct_sum() {
        let direct = |n: u64, p: f64, k: u64| {
            let mut c = 1.0f64;
            let mut total = 0.0;
            for i in 0..=n {
                if i >= k {
                    total += c * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32);
                }
                c = c * (n - i) as f64 / (i + 1) as f64;
            }
            total
        };
        for &(n, p, k) in &[
            (10, 0.3, 3),
            (40, 0.05, 2),
            (30, 0.5, 15),
            (5, 0.2, 6),
            (60, 0.1, 25),
        ] {
            let (a, b) = (binomial_tail(n, p, k), direct(n, p, k));
            assert!(
                (a - b).abs() <= 1e-12 * b.max(1e-300),
                "n={n} p={p} k={k}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn channel_closed_forms() {
        let c = Channel {
            n: 10,
            w: 3,
            perr: 0.1,
        };
        assert!((c.p_err_within(None) - (1.0 - 0.9f64.powi(10))).abs() < 1e-15);
        assert!((c.p_err_within(Some(4)) - (1.0 - 0.9f64.powi(4))).abs() < 1e-15);
        assert_eq!(c.p_err_within(Some(50)), c.p_err_within(None));
        // t=0: 1; t=1: 2 lanes x 2; t>=2: 3 lanes x 2.
        assert_eq!(c.states(), 1 + 4 + 9 * 6);
        assert_eq!(Channel { w: 1, ..c }.states(), 21);
    }
}
