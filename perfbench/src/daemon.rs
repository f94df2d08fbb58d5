//! `daemon`: resident serving. One closed-loop client drives an
//! in-process `smg_serve::spawn` daemon over a seeded request mix on more
//! distinct small models than the daemon holds (capacity 8, 9 models):
//! `POST /models` writes that hit, compile cold or evict; `POST /check`
//! reads of a cached certified batch; and `POST /check` solves with fresh
//! bounded horizons. The compile layer is used beside reads rather than
//! once per job as in `sm-check`.
//!
//! Each request opens its own connection, and the daemon's accept loop
//! sleeps 2 ms (`ACCEPT_POLL`) whenever no connection is waiting, so with
//! one closed-loop client a cached `/check` takes about one poll period
//! whatever the handler does: `op_p50_ms` and `ops_per_s` are quantized
//! by that sleep. The traced `serve.handler_ms` is the figure that moves
//! with JSON, the session cache and rendering.
//!
//! The mix rests on no traffic data; every number in it is an assumption,
//! and the run prints the mix it actually produced next to its metrics.

use crate::gen::{Channel, Rng};
use crate::reference::{self, num, text};
use crate::trace::{csr_step_bytes, Snapshot, Trace};
use crate::Workload;
use smg_serve::client;
use smg_serve::json::{self, Value};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Instant;

/// Distinct models in the mix: one more than [`CAPACITY`], the smallest
/// excess that makes the LRU evict (an assumption, not measured traffic).
const MODELS: usize = 9;
/// The daemon's resident-model capacity (its default).
const CAPACITY: usize = 8;
/// Requests per cycle: about 0.15 s of work, so the run stops close to
/// `--seconds` (a choice of granularity, not of traffic).
const CYCLE: usize = 40;
/// Shares of drawn requests, in percent: `POST /models`, cached certified
/// `/check`, fresh bounded `/check`. Assumed, not taken from traffic; a
/// read of a model the daemon has evicted turns into a `POST /models`,
/// so the realized mix differs and is printed.
const MIX_PERCENT: [u64; 3] = [15, 70, 15];
/// Certified width of the cached batch.
const EPS: f64 = 1e-6;
const BATCH: [&str; 2] = ["P=? [ F err ]", "P=? [ G !err ]"];
/// Bounded horizons of the fresh solves. The session cache memoizes no
/// bounded result, so every such request is solved afresh.
const HORIZONS: (u64, u64) = (10, 250);

/// One model of the mix, with everything its replies are checked against.
struct Model {
    chain: Channel,
    post_body: String,
    hash: String,
    /// `smg check --certified EPS --topo --format json` records of the
    /// batch on the same source, `time_s` removed.
    batch_records: Vec<Value>,
}

#[derive(Debug, Clone, Copy)]
enum Req {
    Post(usize),
    Cached(usize),
    Fresh(usize),
}

/// The `daemon` workload's state.
pub struct Daemon {
    rng: Rng,
    handle: smg_serve::Handle,
    addr: String,
    models: Vec<Model>,
    /// The client's mirror of the daemon's LRU: most recent last.
    resident: VecDeque<usize>,
    cycle: Vec<Req>,
    before: Snapshot,
    /// What the requests sent so far turned out to be: see [`Workload::mix`].
    mix: BTreeMap<&'static str, u64>,
}

fn batch_body(hash: &str) -> String {
    let props: Vec<String> = BATCH.iter().map(|p| json::escape(p)).collect();
    format!(
        "{{\"hash\": \"{hash}\", \"props\": [{}], \"certified\": {EPS:e}, \"topo\": true}}",
        props.join(", ")
    )
}

/// The seeded model mix: walk-shaped channels of 4–6k states. The sizes
/// are fixed and the seed deals them out, so which models are hot changes
/// with the seed but the total compile work does not.
pub fn chains(rng: &mut Rng) -> Vec<Channel> {
    let mut depths: Vec<u64> = (0..MODELS as u64).map(|i| 2_000 + 125 * i).collect();
    rng.shuffle(&mut depths);
    depths
        .into_iter()
        .map(|n| Channel {
            n,
            w: 1,
            perr: rng.unit_range(1e-4, 4e-4),
        })
        .collect()
}

impl Daemon {
    /// Spawns the daemon, computes the CLI reference records of every
    /// model's batch (sources written under `dir`), and warms the daemon
    /// with one compile and one batch.
    pub fn setup(seed: u64, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut rng = Rng::new(seed, 3);
        let defaults = smg_lang::ExpandOptions::default();
        let mut models = Vec::new();
        for (i, chain) in chains(&mut rng).into_iter().enumerate() {
            let source = chain.source();
            let path = dir.join(format!("model{i}.sm"));
            std::fs::write(&path, &source).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut args = vec!["check".to_string(), path.to_string_lossy().into_owned()];
            for p in BATCH {
                args.extend(["--prop".to_string(), p.to_string()]);
            }
            args.extend(
                [
                    "--certified",
                    &format!("{EPS:e}"),
                    "--topo",
                    "--format",
                    "json",
                ]
                .map(String::from),
            );
            let cmd = smg_cli::parse_args(&args).map_err(|e| e.to_string())?;
            let out = smg_cli::run(&cmd).map_err(|e| e.to_string())?;
            models.push(Model {
                chain,
                post_body: format!("{{\"source\": {}}}", json::escape(&source)),
                hash: smg_serve::content_hash(&source, defaults.max_states, defaults.allow_stutter),
                batch_records: reference::records(&out)?,
            });
        }
        let handle = smg_serve::spawn(smg_serve::ServerConfig {
            capacity: CAPACITY,
            ..smg_serve::ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = handle.addr().to_string();
        let mut daemon = Daemon {
            rng,
            handle,
            addr,
            models,
            resident: VecDeque::new(),
            cycle: Vec::new(),
            before: Snapshot::default(),
            mix: BTreeMap::new(),
        };
        daemon.request(Req::Post(0), None)?;
        daemon.request(Req::Cached(0), None)?;
        Ok(daemon)
    }

    /// Marks model `m` most recently used; returns whether it was
    /// resident, and evicts beyond capacity like the daemon does.
    fn touch(&mut self, m: usize) -> bool {
        let was = match self.resident.iter().position(|&r| r == m) {
            Some(i) => {
                self.resident.remove(i);
                true
            }
            None => false,
        };
        self.resident.push_back(m);
        while self.resident.len() > CAPACITY {
            self.resident.pop_front();
            self.count("evictions");
        }
        was
    }

    fn count(&mut self, what: &'static str) {
        *self.mix.entry(what).or_default() += 1;
    }

    fn request(&mut self, req: Req, trace: Option<&mut Trace>) -> Result<(), String> {
        // A read of a model the daemon no longer holds would 404: the
        // client compiles it first, as a real client would.
        let req = match req {
            Req::Cached(m) | Req::Fresh(m) if !self.resident.contains(&m) => {
                self.count("reads_recompiled");
                Req::Post(m)
            }
            other => other,
        };
        match req {
            Req::Post(m) => {
                let started = Instant::now();
                let (status, body) = client::post(&self.addr, "/models", &self.models[m].post_body)
                    .map_err(|e| e.to_string())?;
                let wall_ms = 1e3 * started.elapsed().as_secs_f64();
                let cached = self.touch(m);
                self.count(if cached { "post_hit" } else { "post_cold" });
                let reply = verify_model(status, &body, &self.models[m], cached)?;
                if let Some(t) = trace {
                    t.add("serve.posts", 1.0);
                    if cached {
                        t.add("serve.model_hits", 1.0);
                    } else {
                        t.part("serve", "serve.compile_ms", 1e3 * num(&reply, "build_s")?);
                    }
                    t.op(wall_ms);
                }
            }
            Req::Cached(m) => {
                let body = batch_body(&self.models[m].hash);
                let started = Instant::now();
                let (status, reply) =
                    client::post(&self.addr, "/check", &body).map_err(|e| e.to_string())?;
                let wall_ms = 1e3 * started.elapsed().as_secs_f64();
                self.touch(m);
                self.count("check_cached");
                let records = verify_batch(status, &reply, &self.models[m])?;
                if let Some(t) = trace {
                    record_solves(t, &reply, &records, 0.0)?;
                    t.op(wall_ms);
                }
            }
            Req::Fresh(m) => {
                let k = self.rng.range(HORIZONS.0, HORIZONS.1);
                let prop = format!("P=? [ F<={k} err ]");
                let body = format!(
                    "{{\"hash\": \"{}\", \"props\": [{}]}}",
                    self.models[m].hash,
                    json::escape(&prop)
                );
                let started = Instant::now();
                let (status, reply) =
                    client::post(&self.addr, "/check", &body).map_err(|e| e.to_string())?;
                let wall_ms = 1e3 * started.elapsed().as_secs_f64();
                self.touch(m);
                self.count("check_fresh");
                let chain = self.models[m].chain;
                let records = verify_fresh(status, &reply, &chain, k)?;
                if let Some(t) = trace {
                    let step = csr_step_bytes(chain.states() as f64, chain.transitions() as f64);
                    record_solves(t, &reply, &records, k as f64 * step)?;
                    t.op(wall_ms);
                }
            }
        }
        Ok(())
    }
}

/// Checks a `POST /models` reply: status, content hash, closed-form
/// state count and whether the daemon reports the model as cached.
fn verify_model(status: u16, body: &str, model: &Model, cached: bool) -> Result<Value, String> {
    if status != 200 {
        return Err(format!("POST /models: status {status}: {body}"));
    }
    let reply = json::parse(body)?;
    if text(&reply, "hash")? != model.hash {
        return Err(format!("POST /models: hash {:?}", text(&reply, "hash")?));
    }
    if num(&reply, "states")? != model.chain.states() as f64 {
        return Err("POST /models: wrong state count".into());
    }
    if reply.get("cached").and_then(Value::as_bool) != Some(cached) {
        return Err(format!("POST /models: expected cached = {cached}"));
    }
    Ok(reply)
}

/// Checks a certified batch reply: records equal to the CLI's, and the
/// closed form `P(F err)` inside the certified interval.
fn verify_batch(status: u16, reply: &str, model: &Model) -> Result<Vec<Value>, String> {
    if status != 200 {
        return Err(format!("POST /check: status {status}: {reply}"));
    }
    let records = reference::records(reply)?;
    if records != model.batch_records {
        return Err("POST /check: records differ from smg check".into());
    }
    let want = model.chain.p_err_within(None);
    let interval = records[0]
        .get("interval")
        .and_then(Value::as_array)
        .ok_or("POST /check: no certified interval")?;
    let (lo, hi) = (
        interval[0].as_f64().unwrap_or(f64::NAN),
        interval[1].as_f64().unwrap_or(f64::NAN),
    );
    if !(lo - 1e-12 <= want && want <= hi + 1e-12) {
        return Err(format!("POST /check: {want:e} outside [{lo:e}, {hi:e}]"));
    }
    Ok(records)
}

/// Checks a fresh bounded reply against `1 − (1 − p)^min(k, N)`.
fn verify_fresh(status: u16, reply: &str, chain: &Channel, k: u64) -> Result<Vec<Value>, String> {
    if status != 200 {
        return Err(format!("POST /check: status {status}: {reply}"));
    }
    let records = reference::records(reply)?;
    let [r] = records.as_slice() else {
        return Err(format!(
            "POST /check: {} records for one property",
            records.len()
        ));
    };
    if text(r, "solver")? != "transient" {
        return Err("POST /check: bounded query not solved by transient".into());
    }
    reference::close(
        text(r, "property")?,
        num(r, "value")?,
        chain.p_err_within(Some(k)),
        reference::REL_TOL,
    )?;
    Ok(records)
}

/// Attributes a `/check` reply's solve times: transient to the DTMC
/// kernels, the rest to the unbounded (certified) solvers.
fn record_solves(t: &mut Trace, reply: &str, records: &[Value], bytes: f64) -> Result<(), String> {
    let doc = json::parse(reply)?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("reply has no results")?;
    for (r, rec) in results.iter().zip(records) {
        let ms = 1e3 * num(r, "time_s")?;
        if text(rec, "solver")? == "transient" {
            t.part("dtmc", "dtmc.transient_ms", ms);
        } else {
            t.part("pctl", "pctl.unbounded_ms", ms);
        }
    }
    t.add("dtmc.transient.bytes_computed", bytes);
    Ok(())
}

impl Workload for Daemon {
    fn next_cycle(&mut self) -> usize {
        let rng = &mut self.rng;
        self.cycle = (0..CYCLE)
            .map(|_| {
                // Skewed popularity, assumed: model m is drawn as u^3 * 9
                // for uniform u, so low-numbered models are hot and stay
                // resident (model 0 gets about 48% of requests) and the
                // tail compiles cold and evicts.
                let u = (rng.below(1 << 20) as f64) / (1 << 20) as f64;
                let m = ((u * u * u) * MODELS as f64) as usize;
                let r = rng.below(100);
                if r < MIX_PERCENT[0] {
                    Req::Post(m)
                } else if r < MIX_PERCENT[0] + MIX_PERCENT[1] {
                    Req::Cached(m)
                } else {
                    Req::Fresh(m)
                }
            })
            .collect();
        self.cycle.len()
    }

    fn run(&mut self, i: usize, trace: Option<&mut Trace>) -> Result<(), String> {
        self.request(self.cycle[i], trace)
    }

    fn mix(&self) -> BTreeMap<&'static str, u64> {
        self.mix.clone()
    }

    fn begin_trace(&mut self) {
        self.before = Snapshot::of(&self.handle.registry());
    }

    fn end_trace(&mut self, t: &mut Trace) {
        let d = Snapshot::of(&self.handle.registry()).since(&self.before);
        let handler_ms = 1e3 * d.sum("smg_serve_request_seconds_sum");
        t.add("serve.handler_ms", handler_ms);
        // Client latency outside the handler: connect, accept poll,
        // request read and response write.
        t.part("serve", "serve.transport_ms", t.wall_ms() - handler_ms);
        t.add("serve.evictions", d.sum("smg_serve_evictions_total"));
        t.add("serve.http_errors", d.sum("smg_serve_http_errors_total"));
        t.add_engine(&d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix() {
        let draw = |seed| format!("{:?}", chains(&mut Rng::new(seed, 3)));
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    fn model() -> Model {
        let chain = Channel {
            n: 50,
            w: 1,
            perr: 0.01,
        };
        let source = chain.source();
        Model {
            chain,
            post_body: String::new(),
            hash: smg_serve::content_hash(&source, 4_000_000, false),
            batch_records: Vec::new(),
        }
    }

    fn fresh_reply(value: f64) -> String {
        format!(
            "{{\"results\": [{{\"property\": \"P=? [ F<=20 err ]\", \"value\": {value:?}, \
             \"verdict\": null, \"interval\": null, \"solver\": \"transient\", \"time_s\": 0.001}}]}}"
        )
    }

    #[test]
    fn perturbed_values_and_non_200_replies_fail() {
        let chain = model().chain;
        let exact = chain.p_err_within(Some(20));
        assert!(verify_fresh(200, &fresh_reply(exact), &chain, 20).is_ok());
        assert!(verify_fresh(200, &fresh_reply(exact * (1.0 + 1e-7)), &chain, 20).is_err());
        assert!(verify_fresh(500, &fresh_reply(exact), &chain, 20).is_err());
        let m = model();
        let reply = format!(
            "{{\"hash\": \"{}\", \"states\": {}, \"cached\": false, \"build_s\": 0.01}}",
            m.hash,
            m.chain.states()
        );
        assert!(verify_model(200, &reply, &m, false).is_ok());
        assert!(verify_model(200, &reply, &m, true).is_err());
        assert!(verify_model(404, &reply, &m, false).is_err());
    }

    #[test]
    fn walk_transition_count_matches_the_compiler() {
        let chain = model().chain;
        let checked = smg_lang::check(smg_lang::parse(&chain.source()).unwrap()).unwrap();
        let compiled = smg_lang::compile_any(checked).unwrap();
        let dtmc = compiled.model.as_dtmc().unwrap();
        assert_eq!(
            dtmc.matrix().logical_transitions() as u64,
            chain.transitions()
        );
    }
}
