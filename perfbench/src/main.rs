//! End-to-end and per-layer benchmark of the smg model checker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-viterbi|paper-detector|sm-check|daemon|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in a child process of its own (so peak memory and
//! the pinned pool lane count belong to that workload alone), sets up
//! several times and reports the median set-up, then runs whole cycles of
//! seeded ops for at most `--seconds`, verifying every answer. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). See `perfbench/README.md`.

mod daemon;
mod gen;
mod paper;
mod reference;
mod smcheck;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Trace;

/// A workload: seeded cycles of ops, each verified against a reference.
pub trait Workload {
    /// Draws the next cycle of ops; returns how many it holds.
    fn next_cycle(&mut self) -> usize;
    /// Runs op `i` of the current cycle, checks its answer, and with a
    /// trace records its per-layer numbers.
    fn run(&mut self, i: usize, trace: Option<&mut Trace>) -> Result<(), String>;
    /// Called before a traced phase.
    fn begin_trace(&mut self) {}
    /// Called after a traced phase, for numbers read once per phase.
    fn end_trace(&mut self, _trace: &mut Trace) {}
    /// Running counts of the kinds of op sent so far, for workloads whose
    /// ops change kind on the way (a daemon read of an evicted model
    /// becomes a compile).
    fn mix(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::new()
    }
}

const WORKLOADS: [&str; 4] = ["paper-viterbi", "paper-detector", "sm-check", "daemon"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-viterbi|paper-detector|sm-check|daemon|all \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- parent

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    smg_serve::json::escape(s)
}

/// Run metadata: the `BENCH_dtmc.json` meta fields plus the git hash and
/// the seed.
fn meta(args: &Args, lanes: usize) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| json_str(&s));
    format!(
        "{{\"git\": {}, \"rustc\": {}, \"nproc\": {}, \"smg_threads_env\": {}, \"lanes\": {lanes}, \
         \"features\": {{\"parallel\": true}}, \"profile\": {}, \"debug_assertions\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        opt(command_output("git", &["rev-parse", "HEAD"])),
        opt(command_output(&rustc, &["-V"])),
        nproc(),
        opt(std::env::var("SMG_THREADS").ok()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        cfg!(debug_assertions),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs each requested workload in a child process and relays its output;
/// for `all`, ends with one combined result line.
fn parent(args: &Args) -> Result<(), String> {
    // The engine pool is pinned to at most nproc lanes.
    let lanes = std::env::var("SMG_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(nproc(), |n| n.clamp(1, nproc()));
    println!("meta {}", meta(args, lanes));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut last_lines = Vec::new();
    for name in &names {
        let out = Command::new(&exe)
            .args(["--child", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .env("SMG_THREADS", lanes.to_string())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {name} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("workload {name} failed ({})", out.status));
        }
        let last = stdout
            .lines()
            .last()
            .ok_or(format!("workload {name} printed nothing"))?
            .to_string();
        if names.len() == 1 {
            print!("{stdout}");
            return Ok(());
        }
        for line in stdout.lines().take(stdout.lines().count() - 1) {
            println!("{line}");
        }
        println!("result {name} {last}");
        last_lines.push((name, last));
    }
    // `all`: one line folding every workload's result, metrics prefixed by
    // workload name.
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for (name, line) in &last_lines {
        let doc = smg_serve::json::parse(line)?;
        correct &= doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(smg_serve::json::Value::Object(m)) = doc.get("metrics") {
            for (k, v) in m {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                metrics.push((format!("{name}.{k}"), value, unit.to_string()));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                number(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

// ----------------------------------------------------------------- child

/// Op outcomes of a timed phase.
#[derive(Debug, Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one op. A failed op (an error, a non-200 reply or a wrong
    /// answer) counts as missing every latency limit.
    fn record(&mut self, latency_ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.latencies_ms.push(latency_ms),
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("perfbench: op failed: {e}");
                }
                self.failed += 1;
                self.latencies_ms.push(f64::INFINITY);
            }
        }
    }
}

/// Runs whole cycles until another cycle would overrun `seconds` (at
/// least one); returns the measured wall time.
fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    loop {
        let cycle_start = Instant::now();
        for i in 0..w.next_cycle() {
            let t0 = Instant::now();
            let outcome = w.run(i, trace.as_deref_mut());
            tally.record(1e3 * t0.elapsed().as_secs_f64(), outcome);
        }
        let cycle = cycle_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + cycle > seconds {
            return start.elapsed().as_secs_f64();
        }
    }
}

fn setup(name: &str, seed: u64, dir: &std::path::Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-viterbi" => Box::new(paper::Paper::setup(paper::Case::Viterbi, seed)?),
        "paper-detector" => Box::new(paper::Paper::setup(paper::Case::Detector, seed)?),
        "sm-check" => Box::new(smcheck::SmCheck::setup(seed, dir)?),
        "daemon" => Box::new(daemon::Daemon::setup(seed, dir)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn child(args: &Args) -> Result<(), String> {
    let name = args.workload.as_str();
    let dir = PathBuf::from(".perfbench-work").join(format!("{name}-{}", std::process::id()));
    let result = child_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-work");
    result
}

fn child_in(args: &Args, dir: &std::path::Path) -> Result<(), String> {
    let name = args.workload.as_str();
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup(name, args.seed, dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPEATS > 0");
    let setup_s = stats::median(&setups);
    let lanes = smg_dtmc::par::max_threads();
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "workload {name}: seed {}, {lanes} pool lanes, set-up {setup_s:.4} s (median of {})",
        args.seed,
        each.join(", ")
    );

    // One discarded cycle first, so first-touch memory and lazily built
    // engine state are not timed. Its answers are still checked.
    let mut warm = Tally::default();
    measure(w.as_mut(), 0.0, None, &mut warm);
    let mut tally = Tally::default();
    let attempted = |t: &Tally| warm.attempted + t.attempted;
    let failed = |t: &Tally| warm.failed + t.failed;
    if !args.trace {
        let mix_before = w.mix();
        let elapsed = measure(w.as_mut(), args.seconds, None, &mut tally);
        print_mix(&mix_before, &w.mix(), tally.attempted);
        let rss = peak_rss_mib()?;
        let ops = tally.attempted;
        let p50 = stats::median(&tally.latencies_ms);
        let rows = [
            ("setup_s", setup_s, "s"),
            ("ops_per_s", ops as f64 / elapsed, "1/s"),
            ("op_p50_ms", p50, "ms"),
            ("peak_rss_mib", rss, "MiB"),
        ];
        for (k, v, u) in rows {
            println!("  {k:<16} {v:>14.4} {u}");
        }
        for (k, q) in [("op_p90_ms", 90.0), ("op_p99_ms", 99.0)] {
            match stats::tail_percentile(&tally.latencies_ms, q) {
                Some(v) => println!("  {k:<16} {v:>14.4} ms"),
                None => println!("  {k:<16} {:>14} (fewer than 10 ops beyond it)", "-"),
            }
        }
        println!(
            "  {:<16} {:>14.4} ratio ({} of {} ops, warm-up cycle included; {ops} ops in {elapsed:.2} s timed)",
            "fail_ratio",
            failed(&tally) as f64 / attempted(&tally) as f64,
            failed(&tally),
            attempted(&tally)
        );
        let metrics: Vec<(String, f64, String)> = rows
            .iter()
            .map(|&(k, v, u)| (k.to_string(), v, u.to_string()))
            .collect();
        println!(
            "{}",
            result_line(
                failed(&tally) == 0,
                attempted(&tally),
                failed(&tally),
                &metrics
            )
        );
        return Ok(());
    }

    // Traced run: half the time untraced for the overhead baseline, half
    // with the stage calls and recorders in place.
    let half = args.seconds / 2.0;
    let untraced_elapsed = measure(w.as_mut(), half, None, &mut tally);
    let untraced_ops_per_s = tally.attempted as f64 / untraced_elapsed;
    let mut t = Trace::default();
    w.begin_trace();
    let traced_before = tally.attempted;
    let mix_before = w.mix();
    let elapsed = measure(w.as_mut(), half, Some(&mut t), &mut tally);
    w.end_trace(&mut t);
    print_mix(&mix_before, &w.mix(), tally.attempted - traced_before);
    println!(
        "  traced {} ops in {elapsed:.2} s after {traced_before} untraced ops; {} of {} ops failed",
        tally.attempted - traced_before,
        failed(&tally),
        attempted(&tally)
    );
    let metrics: Vec<(String, f64, String)> = t
        .metrics(elapsed, untraced_ops_per_s)
        .into_iter()
        .map(|(k, v, u)| (k.to_string(), v, u.to_string()))
        .collect();
    for (k, v, u) in &metrics {
        println!("  {k:<32} {v:>16.4} {u}");
    }
    println!(
        "{}",
        result_line(
            failed(&tally) == 0,
            attempted(&tally),
            failed(&tally),
            &metrics
        )
    );
    Ok(())
}

/// Prints what the timed ops turned out to be, as shares of them.
fn print_mix(before: &BTreeMap<&'static str, u64>, after: &BTreeMap<&'static str, u64>, ops: u64) {
    if after.is_empty() {
        return;
    }
    let shares: Vec<String> = after
        .iter()
        .map(|(k, &n)| {
            let d = n - before.get(k).copied().unwrap_or(0);
            format!("{k} {:.1}%", 100.0 * d as f64 / ops.max(1) as f64)
        })
        .collect();
    println!("  mix of timed ops: {}", shares.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_and_miss_latency_limits() {
        let mut t = Tally::default();
        t.record(1.0, Ok(()));
        t.record(2.0, Err("perturbed value".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.latencies_ms[1], f64::INFINITY);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.25, "s".into())]);
        let doc = smg_serve::json::parse(&line).unwrap();
        let smg_serve::json::Value::Object(m) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let v = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(v.get("value").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn args_reject_unknown_workloads_and_trace_values() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload paper-viterbi --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(parse("--workload paper --seed 3").is_err());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--workload daemon --trace 2").is_err());
    }
}
