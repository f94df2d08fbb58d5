//! `sm-check`: what a model author runs — `smg check model.sm --props
//! FILE --format json` through `smg_cli::run`, at default options with
//! lint on.
//!
//! `smg-lang` compile and the default unbounded solvers (DTMC and MDP
//! value iteration) do the work; `smg-lang` has its own BFS, so the
//! engine explorer is not used. Default value iteration is quadratic in
//! chain depth, so each job is sized for compile and solve to both take a
//! visible share: a deep plain walk with the paper's bounded forms only, a
//! shallow wide channel adding unbounded `P`, and a quiet/burst MDP with
//! unbounded `Pmax`/`Pmin`.

use crate::gen::{Channel, Regime, Rng};
use crate::reference::{self, num, text};
use crate::trace::{csr_step_bytes, Snapshot, Trace};
use crate::Workload;
use smg_obs as obs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One `smg check` job: files on disk plus what each property must equal.
#[derive(Debug, Clone)]
pub struct Job {
    model: PathBuf,
    props: PathBuf,
    source: String,
    is_mdp: bool,
    states: u64,
    /// Per property: closed-form value and bounded horizon (if any).
    expect: Vec<(f64, Option<u64>)>,
}

/// Draws a bounded horizon near the paper's `T = 300` (a narrow range:
/// transient cost is linear in it).
fn horizon(rng: &mut Rng) -> u64 {
    rng.range(295, 305)
}

/// A property, its closed-form value and its bound (if bounded).
type Prop = (String, f64, Option<u64>);

/// A drawn job before it is written out: source, whether it is an MDP,
/// its state count and its properties.
type Draw = (String, bool, u64, Vec<Prop>);

/// The cycle's three jobs, drawn from `rng`. The rates that set how many
/// sweeps value iteration needs (the wide channel's error rate, the MDP's
/// quiet and burst rates) come from narrow ranges, so that every seed
/// costs about the same.
pub fn jobs(rng: &mut Rng) -> Vec<Draw> {
    let deep = Channel {
        n: 100_000,
        w: 1,
        perr: rng.unit_range(2e-5, 8e-5),
    };
    let wide = Channel {
        n: 1_000,
        w: 40,
        perr: rng.unit_range(3.6e-4, 4.4e-4),
    };
    let regime = Regime {
        n: 600,
        k: 60,
        pq: rng.unit_range(0.089, 0.091),
        pb: rng.unit_range(0.12, 0.125),
    };
    let bounded = |c: &Channel, rng: &mut Rng| {
        let (a, b, d) = (horizon(rng), horizon(rng), horizon(rng));
        vec![
            (
                format!("P=? [ F<={a} err ]"),
                c.p_err_within(Some(a)),
                Some(a),
            ),
            (
                format!("P=? [ G<={b} !err ]"),
                1.0 - c.p_err_within(Some(b)),
                Some(b),
            ),
            (format!("R=? [ I={d} ]"), c.p_err_within(Some(d)), Some(d)),
        ]
    };
    let mut wide_props = vec![("P=? [ F err ]".to_string(), wide.p_err_within(None), None)];
    wide_props.extend(bounded(&wide, rng));
    let (a, b) = (horizon(rng), horizon(rng));
    let mdp_props = vec![
        (
            "Pmax=? [ F full ]".to_string(),
            regime.p_full_within(None, true),
            None,
        ),
        (
            "Pmin=? [ F full ]".to_string(),
            regime.p_full_within(None, false),
            None,
        ),
        (
            format!("Pmax=? [ F<={a} full ]"),
            regime.p_full_within(Some(a), true),
            Some(a),
        ),
        (
            format!("Pmin=? [ G<={b} !full ]"),
            1.0 - regime.p_full_within(Some(b), true),
            Some(b),
        ),
    ];
    vec![
        (deep.source(), false, deep.states(), bounded(&deep, rng)),
        (wide.source(), false, wide.states(), wide_props),
        (regime.source(), true, regime.states(), mdp_props),
    ]
}

/// The `sm-check` workload's state.
pub struct SmCheck {
    rng: Rng,
    dir: PathBuf,
    cycle: Vec<Job>,
}

impl SmCheck {
    /// Seeds the workload under `dir` and warms the CLI path on a walk
    /// past the engine's parallel threshold (about 0.3 s, long enough to
    /// time as set-up).
    pub fn setup(seed: u64, dir: &Path) -> Result<SmCheck, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let warm = Channel {
            n: 40_000,
            w: 1,
            perr: 1e-3,
        };
        let job = write_job(
            dir,
            "warm",
            &warm.source(),
            false,
            warm.states(),
            &[(
                "P=? [ F<=300 err ]".into(),
                warm.p_err_within(Some(300)),
                Some(300),
            )],
        )?;
        check_job(&job)?;
        Ok(SmCheck {
            rng: Rng::new(seed, 2),
            dir: dir.to_path_buf(),
            cycle: Vec::new(),
        })
    }
}

fn write_job(
    dir: &Path,
    name: &str,
    source: &str,
    is_mdp: bool,
    states: u64,
    props: &[Prop],
) -> Result<Job, String> {
    let model = dir.join(format!("{name}.sm"));
    let props_path = dir.join(format!("{name}.props"));
    let prop_text: String = props.iter().map(|(p, _, _)| format!("{p}\n")).collect();
    std::fs::write(&model, source).map_err(|e| format!("{}: {e}", model.display()))?;
    std::fs::write(&props_path, prop_text).map_err(|e| format!("{}: {e}", props_path.display()))?;
    Ok(Job {
        model,
        props: props_path,
        source: source.to_string(),
        is_mdp,
        states,
        expect: props.iter().map(|&(_, v, k)| (v, k)).collect(),
    })
}

/// Runs `smg check` on `job` and verifies the reply against its closed
/// forms; returns the parsed reply.
fn check_job(job: &Job) -> Result<smg_serve::json::Value, String> {
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let args: Vec<String> = vec![
        "check".into(),
        path(&job.model),
        "--props".into(),
        path(&job.props),
        "--format".into(),
        "json".into(),
    ];
    let cmd = smg_cli::parse_args(&args).map_err(|e| e.to_string())?;
    let out = smg_cli::run(&cmd).map_err(|e| e.to_string())?;
    verify(job, &out)
}

/// Checks an `smg check --format json` reply for `job`: state count and
/// every value against its closed form. Returns the parsed reply.
pub fn verify(job: &Job, out: &str) -> Result<smg_serve::json::Value, String> {
    let doc = smg_serve::json::parse(out)?;
    let states = doc
        .get("model")
        .and_then(|m| m.get("states"))
        .and_then(smg_serve::json::Value::as_u64)
        .ok_or("reply has no model.states")?;
    if states != job.states {
        return Err(format!("{states} states, expected {}", job.states));
    }
    let records = reference::records(out)?;
    if records.len() != job.expect.len() {
        return Err(format!(
            "{} results for {} properties",
            records.len(),
            job.expect.len()
        ));
    }
    for (r, &(want, _)) in records.iter().zip(&job.expect) {
        reference::close(
            text(r, "property")?,
            num(r, "value")?,
            want,
            reference::REL_TOL,
        )?;
    }
    Ok(doc)
}

impl Workload for SmCheck {
    fn next_cycle(&mut self) -> usize {
        let drawn = jobs(&mut self.rng);
        self.cycle = drawn
            .iter()
            .enumerate()
            .map(|(i, (src, is_mdp, states, props))| {
                write_job(&self.dir, &format!("job{i}"), src, *is_mdp, *states, props)
            })
            .collect::<Result<_, _>>()
            .expect("the work directory accepted the warm-up job");
        self.cycle.len()
    }

    fn run(&mut self, i: usize, trace: Option<&mut Trace>) -> Result<(), String> {
        let job = &self.cycle[i];
        let Some(t) = trace else {
            return check_job(job).map(|_| ());
        };
        // The stages `smg check` runs before solving, called one by one
        // in product order on the same source.
        let mut clock = Instant::now();
        let mut lap = || {
            let ms = 1e3 * clock.elapsed().as_secs_f64();
            clock = Instant::now();
            ms
        };
        let program = smg_lang::parse(&job.source).map_err(|e| e.to_string())?;
        let parse_ms = lap();
        let checked = smg_lang::check(program).map_err(|e| e.to_string())?;
        let check_ms = lap();
        let lint = smg_lint::lint_with(&checked, &smg_lint::LintOptions::default());
        let lint_ms = lap();
        let expand = smg_lang::ExpandOptions::from(smg_cli::Options::default());
        let compiled = smg_lang::compile_any_with(checked, expand).map_err(|e| e.to_string())?;
        let compile_ms = lap();
        std::hint::black_box((&lint, &compiled));
        drop(compiled);

        let registry = Arc::new(obs::Registry::new());
        let started = Instant::now();
        let doc = obs::with_recorder(registry.clone(), || check_job(job))?;
        let wall_ms = 1e3 * started.elapsed().as_secs_f64();
        let d = Snapshot::of(&registry);

        t.part("lang", "lang.parse_ms", parse_ms);
        t.part("lang", "lang.check_ms", check_ms);
        t.part("lang", "lang.compile_ms", compile_ms);
        t.part("lint", "lint_ms", lint_ms);
        t.add("lang.compile.states", job.states as f64);
        t.add("lint.diagnostics", d.sum("smg_lint_diagnostics_total"));
        t.add_engine(&d);
        let model = doc.get("model").ok_or("reply has no model")?;
        let build_s = num(model, "build_s")?;
        let step_bytes = csr_step_bytes(num(model, "states")?, num(model, "transitions")?);
        let mut solve_ms = 0.0;
        let results = doc
            .get("results")
            .and_then(smg_serve::json::Value::as_array)
            .ok_or("reply has no results")?;
        for (r, &(_, k)) in results.iter().zip(&job.expect) {
            let ms = 1e3 * num(r, "time_s")?;
            solve_ms += ms;
            match (text(r, "solver")?, job.is_mdp) {
                ("transient", _) => {
                    t.part("dtmc", "dtmc.transient_ms", ms);
                    t.add(
                        "dtmc.transient.bytes_computed",
                        k.unwrap_or(0) as f64 * step_bytes,
                    );
                }
                (_, true) => t.part("mdp", "mdp.vi_ms", ms),
                (_, false) => t.part("pctl", "pctl.unbounded_ms", ms),
            }
        }
        // What `smg_cli::run` spends outside its own load and solve
        // stopwatches: rendering and glue.
        t.part("cli", "cli.residual_ms", wall_ms - 1e3 * build_s - solve_ms);
        t.op(wall_ms);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs() {
        let draw = |seed| jobs(&mut Rng::new(seed, 2));
        let (a, b, c) = (draw(11), draw(11), draw(12));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn generated_state_counts_match_the_compiler() {
        let small = [
            Channel {
                n: 30,
                w: 1,
                perr: 0.01,
            }
            .source(),
            Channel {
                n: 30,
                w: 5,
                perr: 0.01,
            }
            .source(),
            Regime {
                n: 30,
                k: 4,
                pq: 0.1,
                pb: 0.2,
            }
            .source(),
        ];
        let want = [
            Channel {
                n: 30,
                w: 1,
                perr: 0.01,
            }
            .states(),
            Channel {
                n: 30,
                w: 5,
                perr: 0.01,
            }
            .states(),
            Regime {
                n: 30,
                k: 4,
                pq: 0.1,
                pb: 0.2,
            }
            .states(),
        ];
        for (src, want) in small.iter().zip(want) {
            let checked = smg_lang::check(smg_lang::parse(src).unwrap()).unwrap();
            let lint = smg_lint::lint_with(&checked, &smg_lint::LintOptions::default());
            assert!(lint.is_clean(), "{}", lint.render_text("gen.sm"));
            let compiled = smg_lang::compile_any(checked).unwrap();
            assert_eq!(compiled.model.n_states() as u64, want, "{src}");
        }
    }

    #[test]
    fn small_jobs_pass_and_a_perturbed_value_fails() {
        let dir = PathBuf::from(".perfbench-work").join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let c = Channel {
            n: 40,
            w: 3,
            perr: 0.02,
        };
        let r = Regime {
            n: 40,
            k: 5,
            pq: 0.05,
            pb: 0.2,
        };
        let chain_props = vec![
            ("P=? [ F err ]".to_string(), c.p_err_within(None), None),
            (
                "P=? [ G<=25 !err ]".to_string(),
                1.0 - c.p_err_within(Some(25)),
                Some(25),
            ),
            (
                "R=? [ I=60 ]".to_string(),
                c.p_err_within(Some(60)),
                Some(60),
            ),
        ];
        let mdp_props = vec![
            (
                "Pmax=? [ F full ]".to_string(),
                r.p_full_within(None, true),
                None,
            ),
            (
                "Pmin=? [ F full ]".to_string(),
                r.p_full_within(None, false),
                None,
            ),
            (
                "Pmax=? [ F<=30 full ]".to_string(),
                r.p_full_within(Some(30), true),
                Some(30),
            ),
        ];
        let chain = write_job(&dir, "c", &c.source(), false, c.states(), &chain_props).unwrap();
        let mdp = write_job(&dir, "m", &r.source(), true, r.states(), &mdp_props).unwrap();
        check_job(&chain).unwrap();
        check_job(&mdp).unwrap();
        let mut wrong = chain.clone();
        wrong.expect[1].0 *= 1.0 + 1e-6;
        assert!(check_job(&wrong).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}
