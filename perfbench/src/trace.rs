//! The traced run's bookkeeping: registry snapshots, per-layer totals and
//! the per-layer metric list.

use smg_obs::Registry;
use std::collections::BTreeMap;

/// Every sample of a [`Registry`], keyed by its exposition name with
/// labels (`smg_pool_epochs_total`, `smg_pctl_property_seconds_sum{solver="transient"}`).
#[derive(Debug, Clone, Default)]
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    /// Reads `registry` through its Prometheus text exposition.
    pub fn of(registry: &Registry) -> Snapshot {
        Snapshot::parse(&registry.render_text())
    }

    /// Parses Prometheus text exposition (comment lines skipped).
    pub fn parse(text: &str) -> Snapshot {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Snapshot(samples)
    }

    /// Sum of every sample named `name`, over all its label sets.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// One sample, by its full key; 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self − before`, sample by sample (meaningful for counters and
    /// histogram sums/counts, which only grow).
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

/// Per-layer metrics with their units, in report order. Times and counts
/// are means per traced op; rates and ratios are taken over the whole
/// traced phase.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.viterbi.build_ms", "ms"),
    ("core.viterbi.check_ms", "ms"),
    ("core.detector.build_ms", "ms"),
    ("dtmc.explore.states", "count"),
    ("dtmc.explore.levels", "count"),
    ("dtmc.explore.states_per_s", "1/s"),
    ("dtmc.transient_ms", "ms"),
    ("dtmc.transient.bytes_computed", "B"),
    ("pool.epochs", "count"),
    ("pool.dispatch_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("lang.compile.states", "count"),
    ("lang.compile.states_per_s", "1/s"),
    ("lint_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("pctl.unbounded_ms", "ms"),
    ("pctl.solve.sweeps", "count"),
    ("pctl.cache.hit_ratio", "ratio"),
    ("mdp.vi_ms", "ms"),
    ("mdp.deflations", "count"),
    ("serve.handler_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.model_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.http_errors", "count"),
    ("cli.residual_ms", "ms"),
    ("share.core", "ratio"),
    ("share.lang", "ratio"),
    ("share.lint", "ratio"),
    ("share.pctl", "ratio"),
    ("share.mdp", "ratio"),
    ("share.dtmc", "ratio"),
    ("share.serve", "ratio"),
    ("share.cli", "ratio"),
    ("unattributed_ms", "ms"),
    ("unattributed.share", "ratio"),
    ("trace.op_wall_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Totals gathered over a traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    ops: u64,
    wall_ms: f64,
    totals: BTreeMap<&'static str, f64>,
    parts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Counts one traced op of wall time `wall_ms`.
    pub fn op(&mut self, wall_ms: f64) {
        self.ops += 1;
        self.wall_ms += wall_ms;
    }

    /// Wall time of the ops counted so far.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Adds `value` to the total behind `key` (a per-layer metric name or
    /// an auxiliary total such as `explore.seconds`).
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.totals.entry(key).or_default() += value;
    }

    /// Adds `ms` to the time metric `key`, counting it towards `group`'s
    /// share of wall time. The groups partition an op's wall time; each
    /// has a `share.<group>` metric, and what they leave is unattributed.
    pub fn part(&mut self, group: &'static str, key: &'static str, ms: f64) {
        debug_assert!(
            PER_LAYER
                .iter()
                .any(|(name, _)| name.strip_prefix("share.") == Some(group)),
            "{group}"
        );
        self.add(key, ms);
        *self.parts.entry(group).or_default() += ms;
    }

    /// The engine instruments every workload shares: pool, solver sweeps,
    /// MEC deflations and session-cache counters.
    pub fn add_engine(&mut self, d: &Snapshot) {
        self.add("pool.epochs", d.sum("smg_pool_epochs_total"));
        self.add(
            "pool.dispatch_ms",
            1e3 * d.sum("smg_pool_dispatch_seconds_sum"),
        );
        self.add("pctl.solve.sweeps", d.sum("smg_solve_sweeps_total"));
        self.add("mdp.deflations", d.sum("smg_vi_deflations_total"));
        self.add("cache.hits", d.sum("smg_session_cache_hits_total"));
        self.add("cache.misses", d.sum("smg_session_cache_misses_total"));
    }

    fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics of [`PER_LAYER`], given the traced phase's
    /// length and the untraced ops/s measured in the same process.
    pub fn metrics(
        &self,
        elapsed_s: f64,
        untraced_ops_per_s: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let per_op = |v: f64| v / self.ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let attributed: f64 = self.parts.values().sum();
        let traced_ops_per_s = ratio(self.ops as f64, elapsed_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "dtmc.explore.states_per_s" => ratio(
                        self.total("dtmc.explore.states"),
                        self.total("explore.seconds"),
                    ),
                    "lang.compile.states_per_s" => ratio(
                        self.total("lang.compile.states"),
                        self.total("lang.compile_ms") / 1e3,
                    ),
                    "pctl.cache.hit_ratio" => ratio(
                        self.total("cache.hits"),
                        self.total("cache.hits") + self.total("cache.misses"),
                    ),
                    "serve.model_hit_ratio" => {
                        ratio(self.total("serve.model_hits"), self.total("serve.posts"))
                    }
                    "unattributed_ms" => per_op(self.wall_ms - attributed),
                    "unattributed.share" => ratio(self.wall_ms - attributed, self.wall_ms),
                    "trace.op_wall_ms" => per_op(self.wall_ms),
                    "trace.ops_per_s" => traced_ops_per_s,
                    "trace.untraced_ops_per_s" => untraced_ops_per_s,
                    "trace.overhead" => 1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
                    _ => match name.strip_prefix("share.") {
                        Some(group) => {
                            ratio(self.parts.get(group).copied().unwrap_or(0.0), self.wall_ms)
                        }
                        None => per_op(self.total(name)),
                    },
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// Transient-kernel traffic a CSR chain implies per step: for each
/// nonzero its value (8 B), column index (4 B) and gathered source entry
/// (8 B); for each row its offset (8 B) and written result (8 B). This is
/// computed from the model's shape, not measured.
pub fn csr_step_bytes(states: f64, nnz: f64) -> f64 {
    20.0 * nnz + 16.0 * states
}

/// Per-step traffic of a rank-one (memoryless) chain: the weight and
/// source vectors read and the result written, 8 B each per state.
pub fn rank_one_step_bytes(states: f64) -> f64 {
    24.0 * states
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_labels_and_diffs() {
        let before = Snapshot::parse("# TYPE a counter\na_total 2\nb_sum{x=\"1\"} 0.5\n");
        let after = Snapshot::parse(
            "a_total 5\na_total_other 9\nb_sum{x=\"1\"} 1.5\nb_sum{x=\"2\"} 1\nb_count 4\n",
        );
        let d = after.since(&before);
        assert_eq!(d.sum("a_total"), 3.0);
        assert_eq!(d.sum("b_sum"), 2.0);
        assert_eq!(d.get("b_sum{x=\"2\"}"), 1.0);
        assert_eq!(d.sum("missing"), 0.0);
    }

    #[test]
    fn shares_and_remainder_partition_wall_time() {
        let mut t = Trace::default();
        t.op(10.0);
        t.op(30.0);
        t.part("lang", "lang.compile_ms", 20.0);
        t.part("cli", "cli.residual_ms", 4.0);
        t.add("lang.compile.states", 1000.0);
        let m: BTreeMap<_, _> = t
            .metrics(2.0, 2.0)
            .into_iter()
            .map(|(k, v, _)| (k, v))
            .collect();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["lang.compile_ms"], 10.0);
        assert_eq!(m["share.lang"], 0.5);
        assert_eq!(m["share.cli"], 0.1);
        assert_eq!(m["unattributed_ms"], 8.0);
        assert!((m["unattributed.share"] - 0.4).abs() < 1e-12);
        assert_eq!(m["lang.compile.states_per_s"], 50_000.0);
        assert_eq!(m["trace.ops_per_s"], 1.0);
        assert_eq!(m["trace.overhead"], 0.5);
        assert_eq!(m["core.viterbi.build_ms"], 0.0);
    }
}
