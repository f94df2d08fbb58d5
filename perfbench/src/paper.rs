//! `paper-viterbi` and `paper-detector`: the paper's case studies through
//! the `smg-core` analyzers.
//!
//! The engine explorer and the transient kernels do the work; nothing here
//! touches the `.sm` front end, lint, the unbounded solvers or HTTP, so a
//! change to any of those should leave these workloads unchanged. Each
//! workload times one kind of analyzer call, so its `op_p50_ms` is that
//! call's latency. The default paper configurations finish in 0.1–0.2 s,
//! too short to time alone: they run, verified, as the set-up, and the
//! timed calls are scaled up — the decoder to traceback `L = 8` (121,088
//! reduced and 302,720 counter-extended states), the 1x2 detector to 7
//! channel and output levels (about 1.27M full states at 8 dB).

use crate::gen::Rng;
use crate::reference;
use crate::trace::{csr_step_bytes, rank_one_step_bytes, Snapshot, Trace};
use crate::Workload;
use smg_core::{DetectorAnalyzer, ViterbiAnalyzer};
use smg_detector::DetectorConfig;
use smg_obs as obs;
use smg_viterbi::ViterbiConfig;
use std::sync::Arc;
use std::time::Instant;

/// Horizon of the decoder properties (Table I).
const T_VITERBI: u64 = 300;
/// Horizons of the detector P2 sweep (Table V).
const T_DETECTOR: [u64; 3] = [5, 10, 20];
/// SNR grids the seed deals from, around the paper's operating points.
/// The decoder grid is the one [`reference::VITERBI_L8_T300`] commits
/// values for. The grids are narrow because check time (decoder) and
/// state count (1x2 detector, through pruning) fall with SNR.
const SNR_VITERBI: [f64; 3] = [4.9, 5.0, 5.1];
const SNR_1X2: [f64; 3] = [7.95, 8.0, 8.05];

/// Which analyzer a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// `ViterbiAnalyzer` P1/P2/P3 at `L = 8`, `T = 300`.
    Viterbi,
    /// `DetectorAnalyzer` P2 at `T = 5, 10, 20` on the 7-level 1x2
    /// detector.
    Detector,
}

/// A `paper-*` workload's state.
pub struct Paper {
    case: Case,
    rng: Rng,
    /// SNRs still to deal before the grid is reshuffled.
    deck: Vec<f64>,
    snr: f64,
}

fn detector_1x2(snr_db: f64) -> DetectorConfig {
    DetectorConfig {
        h_levels: 7,
        y_levels: 7,
        ..DetectorConfig::mimo_1x2().with_snr_db(snr_db)
    }
}

fn check_detector(config: DetectorConfig) -> Result<(), String> {
    let r = DetectorAnalyzer::new(config)
        .horizons(T_DETECTOR.to_vec())
        .analyze()
        .map_err(|e| e.to_string())?;
    reference::detector(r.ber, &r.p2_at)
}

impl Paper {
    /// Runs the paper's default configurations — the decoder, the 1x2
    /// detector and `mimo_1x4()` — and checks their answers, which also
    /// warms the engine (pool threads, allocator); then seeds the
    /// workload.
    pub fn setup(case: Case, seed: u64) -> Result<Paper, String> {
        let r = ViterbiAnalyzer::new(ViterbiConfig::paper())
            .horizon(T_VITERBI)
            .analyze()
            .map_err(|e| e.to_string())?;
        reference::viterbi_invariants(r.p1, r.p2, r.p3)?;
        check_detector(DetectorConfig::mimo_1x2())?;
        check_detector(DetectorConfig::mimo_1x4())?;
        Ok(Paper {
            case,
            rng: Rng::new(seed, 1),
            deck: Vec::new(),
            snr: f64::NAN,
        })
    }
}

impl Workload for Paper {
    /// One call per cycle. SNRs are dealt from a seeded shuffle of the
    /// grid, so every three calls cover the grid once whatever the seed.
    fn next_cycle(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = match self.case {
                Case::Viterbi => SNR_VITERBI.to_vec(),
                Case::Detector => SNR_1X2.to_vec(),
            };
            self.rng.shuffle(&mut self.deck);
        }
        self.snr = self.deck.pop().expect("the deck was just refilled");
        1
    }

    fn run(&mut self, _i: usize, trace: Option<&mut Trace>) -> Result<(), String> {
        let registry = Arc::new(obs::Registry::new());
        let started = Instant::now();
        match self.case {
            Case::Viterbi => {
                let analyzer = ViterbiAnalyzer::new(
                    ViterbiConfig::paper()
                        .with_traceback_len(8)
                        .with_snr_db(self.snr),
                )
                .horizon(T_VITERBI);
                let r = match trace {
                    None => analyzer.analyze(),
                    Some(_) => obs::with_recorder(registry.clone(), || analyzer.analyze()),
                }
                .map_err(|e| e.to_string())?;
                let wall_ms = 1e3 * started.elapsed().as_secs_f64();
                reference::viterbi(self.snr, r.p1, r.p2, r.p3)?;
                if let Some(t) = trace {
                    let build = r.reduced_stats.build_time + r.p3_stats.build_time;
                    t.part("core", "core.viterbi.build_ms", 1e3 * build.as_secs_f64());
                    t.part(
                        "core",
                        "core.viterbi.check_ms",
                        1e3 * r.check_time.as_secs_f64(),
                    );
                    // P1 and P2 sweep the reduced chain, P3 the counted one.
                    let reduced = csr_step_bytes(
                        r.reduced_stats.states as f64,
                        r.reduced_stats.transitions as f64,
                    );
                    let counted =
                        csr_step_bytes(r.p3_stats.states as f64, r.p3_stats.transitions as f64);
                    t.add(
                        "dtmc.transient.bytes_computed",
                        T_VITERBI as f64 * (2.0 * reduced + counted),
                    );
                    record_engine(t, &Snapshot::of(&registry), wall_ms);
                }
            }
            Case::Detector => {
                let analyzer =
                    DetectorAnalyzer::new(detector_1x2(self.snr)).horizons(T_DETECTOR.to_vec());
                let r = match trace {
                    None => analyzer.analyze(),
                    Some(_) => obs::with_recorder(registry.clone(), || analyzer.analyze()),
                }
                .map_err(|e| e.to_string())?;
                let wall_ms = 1e3 * started.elapsed().as_secs_f64();
                reference::detector(r.ber, &r.p2_at)?;
                if r.reduced_stats.states >= r.full_stats.states {
                    return Err("symmetry reduction did not shrink the detector".into());
                }
                if let Some(t) = trace {
                    let build = r.full_stats.build_time + r.reduced_stats.build_time;
                    t.part("core", "core.detector.build_ms", 1e3 * build.as_secs_f64());
                    let steps: u64 = T_DETECTOR.iter().sum();
                    t.add(
                        "dtmc.transient.bytes_computed",
                        steps as f64 * rank_one_step_bytes(r.reduced_stats.states as f64),
                    );
                    record_engine(t, &Snapshot::of(&registry), wall_ms);
                }
            }
        }
        Ok(())
    }
}

/// Explorer, transient-kernel and pool instruments recorded inside one
/// analyzer call.
fn record_engine(t: &mut Trace, d: &Snapshot, wall_ms: f64) {
    t.add("dtmc.explore.states", d.sum("smg_explore_states_total"));
    t.add("dtmc.explore.levels", d.sum("smg_explore_levels_total"));
    t.add("explore.seconds", d.sum("smg_explore_seconds_sum"));
    t.add(
        "dtmc.transient_ms",
        1e3 * d.get("smg_pctl_property_seconds_sum{solver=\"transient\"}"),
    );
    t.add_engine(d);
    t.op(wall_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dealt(seed: u64) -> Vec<f64> {
        let mut p = Paper {
            case: Case::Viterbi,
            rng: Rng::new(seed, 1),
            deck: Vec::new(),
            snr: f64::NAN,
        };
        (0..6)
            .map(|_| {
                p.next_cycle();
                p.snr
            })
            .collect()
    }

    #[test]
    fn every_three_calls_cover_the_grid_in_seeded_order() {
        assert_eq!(dealt(4), dealt(4));
        let seeds: Vec<Vec<f64>> = (0..8).map(dealt).collect();
        assert!(seeds.iter().any(|d| d != &seeds[0]));
        for d in seeds {
            for three in d.chunks(3) {
                let mut sorted = three.to_vec();
                sorted.sort_by(f64::total_cmp);
                assert_eq!(sorted, SNR_VITERBI);
            }
        }
    }
}
