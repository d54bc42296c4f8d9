//! The three workloads: set-up, the timed closed loop, and the untimed
//! correctness checks that follow it.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie::engine::{EngineStats, GenieEngine, ParseRequest};
use genie::live::LiveWorld;
use genie::pipeline::NnOptions;
use genie::{DataPipeline, GenieResult, ParseResponse};
use genie_nlp::failpoint::fnv64;
use genie_server::json::Json;
use genie_server::{api, GenieServer, ServerConfig};

use crate::client::{batch_body, closed_loop, parse_body, wire, Conn, LoopResult, Sample};
use crate::stats::{median, windowed, Windowed};
use crate::world;

/// Utterances per `POST /v1/parse_batch` request.
const BATCH: usize = 16;
/// Size of the hot utterance set the cache is warmed with.
const HOT_SET: usize = 64;
/// Closed-loop client threads (at most the CPU count of a small host).
const CLIENTS: usize = 2;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Idle reload pairs (upsert, remove) measured after the parse loop on the
/// workloads that do not reload under load.
const IDLE_RELOAD_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdBatch,
    HotSingle,
    SkillReload,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cold_batch" => Some(Workload::ColdBatch),
            "hot_single" => Some(Workload::HotSingle),
            "skill_reload" => Some(Workload::SkillReload),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBatch => "cold_batch",
            Workload::HotSingle => "hot_single",
            Workload::SkillReload => "skill_reload",
        }
    }
}

/// The inputs a workload sends: utterances and the pre-rendered requests
/// over them. Request `i` carries `utterances[groups[i].clone()]`.
pub struct Inputs {
    pub utterances: Vec<String>,
    pub groups: Vec<std::ops::Range<usize>>,
    pub jobs: Vec<Vec<u8>>,
    /// `POST /v1/parse` singles (otherwise `POST /v1/parse_batch`).
    pub single: bool,
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub bootstrap_s: f64,
    pub inputs_s: f64,
    pub warmup_s: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.bootstrap_s + self.inputs_s + self.warmup_s
    }
}

/// A served world ready for the timed loop.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub live: Arc<LiveWorld>,
    pub server: GenieServer,
    pub inputs: Inputs,
    pub bootstrap_digest: u64,
}

impl Setup {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn engine(&self) -> &GenieEngine {
        self.live.engine()
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Bootstrap the world, bind the server, generate the inputs and warm up.
fn set_up(workload: Workload, seed: u64, seconds: u64, round: usize) -> (Setup, Phases) {
    let mut phases = Phases::default();
    let started = Instant::now();
    let dir = world::state_dir(&format!("{}-{round}", workload.name()));
    let live = world::open_world(&dir);
    let server = GenieServer::bind_live(
        live.clone(),
        ServerConfig::builder()
            .worker_threads(4)
            .build()
            .expect("valid server config"),
    )
    .expect("bind the benchmark server");
    phases.bootstrap_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let (inputs, warmup) = match workload {
        Workload::ColdBatch => cold_inputs(seed, seconds),
        Workload::HotSingle | Workload::SkillReload => {
            let inputs = hot_inputs(live.engine(), seed);
            let warmup = inputs.jobs.clone();
            (inputs, warmup)
        }
    };
    phases.inputs_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut conn = Conn::new(server.local_addr());
    for job in &warmup {
        let response = conn.exchange(job).expect("warm-up request");
        assert!(
            response.status < 500,
            "warm-up request failed: {}",
            response.status
        );
    }
    phases.warmup_s = started.elapsed().as_secs_f64();

    let bootstrap_digest = live.weights_digest();
    let setup = Setup {
        workload,
        seed,
        dir,
        live,
        server,
        inputs,
        bootstrap_digest,
    };
    (setup, phases)
}

/// `cold_batch` inputs: enough distinct utterances for the whole run in
/// batches of [`BATCH`], plus separate warm-up batches.
fn cold_inputs(seed: u64, seconds: u64) -> (Inputs, Vec<Vec<u8>>) {
    // 512 warm-up utterances share the pool's vocabulary; with 64 the first
    // seconds of the loop still had a heavier tail than the rest.
    const WARMUP_BATCHES: usize = 32;
    // About twice the throughput a 2-CPU host sustains, so the pool never
    // runs dry; `run` reports it if it does.
    let batches = (seconds as usize * 2500).div_ceil(BATCH).max(8);
    let mut utterances = world::distinct_utterances(seed, (batches + WARMUP_BATCHES) * BATCH);
    let warmup_utterances = utterances.split_off(batches * BATCH);
    let warmup = warmup_utterances
        .chunks(BATCH)
        .map(|chunk| wire("POST", "/v1/parse_batch", &batch_body(chunk)))
        .collect();
    let groups: Vec<_> = (0..batches).map(|i| i * BATCH..(i + 1) * BATCH).collect();
    let jobs = groups
        .iter()
        .map(|group| {
            wire(
                "POST",
                "/v1/parse_batch",
                &batch_body(&utterances[group.clone()]),
            )
        })
        .collect();
    let inputs = Inputs {
        utterances,
        groups,
        jobs,
        single: false,
    };
    (inputs, warmup)
}

/// `hot_single` inputs: [`HOT_SET`] utterances the world answers (typed
/// no-parse answers are not cached, so they would never hit), parsed once
/// in-process, which fills the response cache.
fn hot_inputs(engine: &GenieEngine, seed: u64) -> Inputs {
    let utterances: Vec<String> = world::distinct_utterances(seed, HOT_SET * 8)
        .into_iter()
        .filter(|utterance| engine.parse(&ParseRequest::new(utterance.as_str())).is_ok())
        .take(HOT_SET)
        .collect();
    assert_eq!(utterances.len(), HOT_SET, "too few answered utterances");
    let jobs = utterances
        .iter()
        .map(|u| wire("POST", "/v1/parse", &parse_body(u)))
        .collect();
    Inputs {
        groups: (0..HOT_SET).map(|i| i..i + 1).collect(),
        utterances,
        jobs,
        single: true,
    }
}

/// Set up [`SETUPS`] times, keeping the last set-up; returns it with the
/// phases of every round.
pub fn set_up_repeatedly(workload: Workload, seed: u64, seconds: u64) -> (Setup, Vec<Phases>) {
    let mut phases = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for round in 0..SETUPS {
        // Tear the previous round down first so rounds do not overlap.
        drop(kept.take());
        let (setup, round_phases) = set_up(workload, seed, seconds, round);
        phases.push(round_phases);
        kept = Some(setup);
    }
    (kept.expect("at least one set-up"), phases)
}

/// One timed reload over the socket.
struct Reload {
    seconds: f64,
    ok: bool,
    /// Status polls that found the reload runner not yet idle.
    busy_polls: usize,
}

fn body_json(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// Poll `GET /v1/admin/reload/status` until the reload runner is idle;
/// returns the number of polls that found it busy, or `None` when it never
/// became idle. A `wait: true` reload is answered just before the runner
/// marks itself idle, so a reload posted the moment the previous one
/// returns can be refused with `409 reload_in_progress`, whose body asks
/// clients to poll this endpoint and retry; the client polls first.
fn wait_idle(conn: &mut Conn) -> Option<usize> {
    let status = wire("GET", "/v1/admin/reload/status", "");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut busy = 0;
    while Instant::now() < deadline {
        let response = conn.exchange(&status).ok()?;
        let state = body_json(&response.body)
            .and_then(|json| json.get("state").and_then(Json::as_str).map(str::to_owned));
        if response.status == 200 && state.as_deref() == Some("idle") {
            return Some(busy);
        }
        busy += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Wait for an idle reload runner, then post one reload body and check it
/// answered 200 at `expected_version`. Only the `POST` is timed.
fn reload(conn: &mut Conn, body: &str, expected_version: u64) -> Reload {
    let Some(busy_polls) = wait_idle(conn) else {
        eprintln!("perfbench: the reload runner never became idle");
        return Reload {
            seconds: 0.0,
            ok: false,
            busy_polls: 0,
        };
    };
    let request = wire("POST", "/v1/admin/reload", body);
    let started = Instant::now();
    let response = conn.exchange(&request);
    let seconds = started.elapsed().as_secs_f64();
    let version = match &response {
        Ok(response) if response.status == 200 => body_json(&response.body)
            .and_then(|json| json.get("world_version").and_then(Json::as_f64)),
        _ => None,
    };
    let ok = version == Some(expected_version as f64);
    if !ok {
        let shown = response.map(|r| (r.status, String::from_utf8_lossy(&r.body).into_owned()));
        eprintln!("perfbench: reload to version {expected_version} failed: {shown:?}");
    }
    Reload {
        seconds,
        ok,
        busy_polls,
    }
}

/// The alternating delta sequence: upsert the bench class on even steps
/// (the first is step 0), remove it on odd ones.
fn delta_body(seed: u64, step: usize) -> String {
    if step.is_multiple_of(2) {
        world::upsert_body(seed)
    } else {
        world::remove_body()
    }
}

/// What the timed phase and the checks measured.
pub struct Outcome {
    pub parse: LoopResult,
    /// Per-request latency (ms) and request rate, as window medians.
    pub latency: Windowed,
    /// Utterances answered per second (window median).
    pub parse_rps: f64,
    pub reload_s: Vec<f64>,
    pub exact_match: f64,
    pub answered_ratio: f64,
    pub attempted: usize,
    pub failed: usize,
    pub cache_hit_ratio: f64,
    pub final_digest: u64,
    /// Status polls that found the reload runner busy before a reload.
    pub reload_busy_polls: usize,
}

fn cache_hit_ratio(before: EngineStats, after: EngineStats) -> f64 {
    let requests = after.requests - before.requests;
    (after.cache_hits - before.cache_hits) as f64 / requests.max(1) as f64
}

/// Run the timed closed loop for `seconds`, then check every response.
pub fn run(setup: &Setup, seconds: u64) -> Outcome {
    let addr = setup.addr();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let before = setup.engine().stats();
    let mut reloads: Vec<Reload> = Vec::new();
    let parse = match setup.workload {
        Workload::ColdBatch => {
            closed_loop(addr, CLIENTS, &setup.inputs.jobs, false, false, deadline)
        }
        Workload::HotSingle => closed_loop(addr, CLIENTS, &setup.inputs.jobs, true, true, deadline),
        Workload::SkillReload => std::thread::scope(|scope| {
            let reloader = scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut done = Vec::new();
                while Instant::now() < deadline {
                    let step = done.len();
                    done.push(reload(
                        &mut conn,
                        &delta_body(setup.seed, step),
                        step as u64 + 2,
                    ));
                }
                done
            });
            let parse = closed_loop(addr, CLIENTS - 1, &setup.inputs.jobs, true, true, deadline);
            reloads = reloader.join().expect("reload client thread");
            parse
        }),
    };
    let after = setup.engine().stats();
    let per_request = if setup.inputs.single { 1 } else { BATCH };
    let points: Vec<(f64, f64)> = parse
        .samples
        .iter()
        .map(|s| (s.done_s, s.latency_ms))
        .collect();
    let latency = windowed(&points, parse.elapsed_s);
    if setup.workload == Workload::ColdBatch
        && parse.samples.len() + parse.transport_errors == setup.inputs.jobs.len()
    {
        eprintln!("perfbench: the cold_batch pool ran dry before the deadline");
    }

    // --- Untimed from here on.
    let mut conn = Conn::new(addr);
    let reload_s: Vec<f64> = match setup.workload {
        Workload::SkillReload => {
            let timed = reloads.iter().map(|r| r.seconds).collect();
            // Finish the last pair so the world ends on the bootstrap
            // library; this reload ran after the loop and is not timed.
            if reloads.len() % 2 == 1 {
                let step = reloads.len();
                reloads.push(reload(
                    &mut conn,
                    &delta_body(setup.seed, step),
                    step as u64 + 2,
                ));
            }
            timed
        }
        Workload::ColdBatch | Workload::HotSingle => {
            for step in 0..2 * IDLE_RELOAD_PAIRS {
                reloads.push(reload(
                    &mut conn,
                    &delta_body(setup.seed, step),
                    step as u64 + 2,
                ));
            }
            reloads.iter().map(|r| r.seconds).collect()
        }
    };
    let final_digest = setup.live.weights_digest();
    let mut failed = reloads.iter().filter(|r| !r.ok).count() + parse.transport_errors;
    if final_digest != setup.bootstrap_digest {
        eprintln!(
            "perfbench: final weights digest {final_digest:#018x} differs from the \
             bootstrap digest {:#018x}",
            setup.bootstrap_digest
        );
        failed += 1;
    }
    let mut attempted = reloads.len() + parse.samples.len() + parse.transport_errors;

    let accuracy = check_accuracy(setup.engine(), &mut conn);
    attempted += accuracy.attempted;
    failed += accuracy.failed;

    failed += check_samples(setup, &parse.samples);

    Outcome {
        parse,
        parse_rps: latency.rate * per_request as f64,
        latency,
        reload_s,
        exact_match: accuracy.exact_match,
        answered_ratio: accuracy.answered_ratio,
        attempted,
        failed,
        cache_hit_ratio: cache_hit_ratio(before, after),
        final_digest,
        reload_busy_polls: reloads.iter().map(|r| r.busy_polls).sum(),
    }
}

fn bypassed(utterances: &[String]) -> Vec<ParseRequest> {
    utterances
        .iter()
        .map(|u| ParseRequest::new(u.as_str()).bypass_cache())
        .collect()
}

fn digest_of(text: &str) -> u64 {
    fnv64(text.as_bytes())
}

/// Expected body digest of every request, rendered in-process against the
/// world currently serving (cache bypassed, so nothing the socket run
/// cached is reused).
fn expected_digests(engine: &GenieEngine, inputs: &Inputs, upto: usize) -> Vec<u64> {
    let sent = inputs.groups[..upto].last().map_or(0, |g| g.end);
    let results = engine.parse_batch(&bypassed(&inputs.utterances[..sent]));
    inputs.groups[..upto]
        .iter()
        .map(|group| {
            let results = &results[group.clone()];
            if inputs.single {
                digest_of(&api::render_result(&results[0]).2)
            } else {
                digest_of(&api::render_batch(results))
            }
        })
        .collect()
}

/// Count timed responses that are a 5xx or not byte-identical to the
/// in-process rendering.
fn check_samples(setup: &Setup, samples: &[Sample]) -> usize {
    let upto = samples.iter().map(|s| s.job + 1).max().unwrap_or(0);
    let mut oracles = vec![expected_digests(setup.engine(), &setup.inputs, upto)];
    if setup.workload == Workload::SkillReload {
        // Responses came from either world of the alternation: the
        // bootstrap library, or it plus the bench class. Build the second
        // oracle in-process, then restore the first world.
        let (upsert, mode) = world::decode_delta(&world::upsert_body(setup.seed));
        let (remove, _) = world::decode_delta(&world::remove_body());
        setup
            .live
            .reload_with(&upsert, mode)
            .expect("oracle upsert");
        oracles.push(expected_digests(setup.engine(), &setup.inputs, upto));
        setup
            .live
            .reload_with(&remove, mode)
            .expect("oracle remove");
    }
    let mut failed = 0;
    for sample in samples {
        let identical = oracles.iter().any(|o| o[sample.job] == sample.digest);
        if sample.status >= 500 || !identical {
            if failed < 3 {
                eprintln!(
                    "perfbench: job {} answered {} with a body unlike the in-process rendering",
                    sample.job, sample.status
                );
            }
            failed += 1;
        }
    }
    failed
}

struct Accuracy {
    exact_match: f64,
    answered_ratio: f64,
    attempted: usize,
    failed: usize,
}

/// Send the fixed accuracy set through `POST /v1/parse_batch`, check each
/// body against the in-process rendering, and score the top-1 programs
/// with `genie::evaluate`'s canonical comparison.
fn check_accuracy(engine: &GenieEngine, conn: &mut Conn) -> Accuracy {
    let examples = world::accuracy_set();
    let utterances: Vec<String> = examples.iter().map(|e| e.text()).collect();
    let results: Vec<GenieResult<ParseResponse>> = engine.parse_batch(&bypassed(&utterances));
    let mut failed = 0;
    let mut attempted = 0;
    for (chunk, expected) in utterances.chunks(BATCH).zip(results.chunks(BATCH)) {
        attempted += 1;
        let expected = api::render_batch(expected);
        match conn.exchange(&wire("POST", "/v1/parse_batch", &batch_body(chunk))) {
            Ok(response) if response.status == 200 && response.body == expected.as_bytes() => {}
            other => {
                eprintln!("perfbench: accuracy batch answered unlike in-process: {other:?}");
                failed += 1;
            }
        }
    }
    let library = engine.library();
    let pipeline = DataPipeline::new(&library, world::pipeline_config());
    let gold: Vec<Vec<String>> = examples
        .iter()
        .map(|e| pipeline.gold_tokens(e, NnOptions::default()))
        .collect();
    let predictions: Vec<Vec<String>> = results
        .iter()
        .map(|r| r.as_ref().map_or(Vec::new(), |r| r.best().tokens.clone()))
        .collect();
    let scores = genie::evaluate(library.as_ref(), &examples, &gold, &predictions);
    let answered = results.iter().filter(|r| r.is_ok()).count();
    Accuracy {
        exact_match: scores.program_accuracy,
        answered_ratio: answered as f64 / results.len() as f64,
        attempted,
        failed,
    }
}

/// Median set-up time of the rounds.
pub fn setup_s(phases: &[Phases]) -> f64 {
    median(&phases.iter().map(Phases::total).collect::<Vec<_>>())
}
