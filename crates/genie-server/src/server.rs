//! The socket front-end: bind, accept, route, drain, shut down.
//!
//! # Threading model
//!
//! `worker_threads` acceptor threads share one `TcpListener` (accepting
//! from multiple threads is the classic pre-forked pattern — the kernel
//! load-balances) and each owns its connection for the connection's
//! lifetime, so a request's handler never migrates threads. Decode work
//! does not happen on acceptor threads: an acceptor answers a single parse
//! itself only when `GenieEngine::cached` holds its verified answer (the
//! lookup `parse` starts with, so the bytes are the same), and every miss
//! queues into the [`crate::coalescer::Coalescer`] (one dispatcher thread,
//! micro-batched through `GenieEngine::parse_batch`), which is where the
//! engine's own deterministic parallelism takes over. Reload rebuilds do
//! not happen on acceptor threads either: they queue into the
//! [`crate::reload::ReloadRunner`]'s builder thread.
//!
//! # Supervision
//!
//! Acceptors are supervised: a watchdog thread owns the acceptor handles,
//! joins any that die (a panic that escapes a handler — per-request
//! handling itself runs under `catch_unwind` and answers a typed `500`
//! first), and respawns them so the configured accept capacity recovers.
//! The chaos soak drives this on purpose through the `server.accept` and
//! `server.handle` failpoints.
//!
//! # Overload
//!
//! Ahead of the coalescer sits a bounded admission gate: past
//! `max_inflight` concurrently admitted parse requests the server sheds
//! with a `503` + `Retry-After` instead of queueing unboundedly
//! (deliberately distinct from the per-client quota's `429`). Each admitted
//! request carries a deadline; one that cannot complete inside
//! `request_deadline` answers a typed `504`.
//!
//! # Shutdown
//!
//! [`GenieServer::shutdown`] flips the flag, nudges each blocked acceptor
//! awake with loopback connections until the supervisor (which joins the
//! acceptors) exits, then closes and joins the coalescer (which drains its
//! queue by construction) and the reload runner (which finishes or rolls
//! back an in-progress rebuild).

use std::io::BufReader;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use genie::live::LiveWorld;
use genie::{EngineStatsHandle, GenieEngine, GenieResult};

use crate::admin;
use crate::api;
use crate::coalescer::{Coalescer, SubmitError};
use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::follower::{FollowerConfig, FollowerRunner};
use crate::http::{self, HttpError, Request};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::quota::Quota;
use crate::reload::{ReloadRunner, ReloadSubmit};

/// How often the supervisor watchdog sweeps for dead acceptors.
const SUPERVISOR_TICK: Duration = Duration::from_millis(20);

struct Shared {
    engine: GenieEngine,
    engine_stats: EngineStatsHandle,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    quota: Option<Quota>,
    coalescer: Coalescer,
    /// The live world behind the engine, when bound with
    /// [`GenieServer::bind_live`] or [`GenieServer::bind_follower`]; the
    /// replication surface (`/v1/admin/deltas`, `/v1/admin/bundle`) needs
    /// it beyond what the [`ReloadRunner`] holds.
    live: Option<Arc<LiveWorld>>,
    /// The background reload builder, when the server was bound with
    /// [`GenieServer::bind_live`]; `None` makes `/v1/admin/reload` a 503
    /// (followers deliberately have none — their world converges on the
    /// primary's journal, never on direct writes).
    reload: Option<ReloadRunner>,
    /// Whether this server replicates from a primary
    /// ([`GenieServer::bind_follower`]); `/readyz` reports the role.
    follower: bool,
    /// Parse requests currently admitted (queued or executing); the
    /// overload gate compares this against `config.max_inflight`.
    inflight: AtomicUsize,
    shutdown: AtomicBool,
}

/// A bound, serving HTTP front-end over a [`GenieEngine`].
///
/// Dropping the server shuts it down gracefully (equivalent to
/// [`GenieServer::shutdown`]).
pub struct GenieServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    supervisor: Option<JoinHandle<()>>,
    /// The replication poller, when bound with
    /// [`GenieServer::bind_follower`].
    follower_runner: Option<FollowerRunner>,
}

impl GenieServer {
    /// Bind `config.addr` and start serving `engine`.
    ///
    /// # Errors
    ///
    /// A typed [`ServerError`]: `Config` for an invalid config, `Io` when
    /// the socket cannot be bound, `Spawn` when the OS refuses a thread.
    /// (`ServerError` converts into `genie::Error`, so `?` keeps working
    /// in `GenieResult` contexts.)
    pub fn bind(engine: GenieEngine, config: ServerConfig) -> Result<GenieServer, ServerError> {
        Self::bind_inner(engine, None, false, config)
    }

    /// Bind `config.addr` and serve a [`LiveWorld`]'s engine, enabling the
    /// live-update admin surface: `POST /v1/admin/reload` applies a skill
    /// delta (incremental re-synthesis + retraining + atomic world swap)
    /// on a background builder thread — the default reply is `202
    /// Accepted`, `{"wait": true}` blocks for the swap report — and
    /// `GET /v1/admin/version` reports the serving snapshot version.
    /// Requests in flight during a swap finish on the world they started
    /// with; a failed or panicking rebuild leaves the old world serving;
    /// [`GenieServer::shutdown`] drains an in-progress reload.
    ///
    /// # Errors
    ///
    /// A typed [`ServerError`], as for [`GenieServer::bind`].
    pub fn bind_live(
        live: Arc<LiveWorld>,
        config: ServerConfig,
    ) -> Result<GenieServer, ServerError> {
        let engine = live.engine().clone();
        Self::bind_inner(engine, Some(live), false, config)
    }

    /// Bind `config.addr` and serve `live` as a **follower** of the primary
    /// named in `follower`: a background poller fetches
    /// `GET /v1/admin/deltas?since=V` with exponential backoff + jitter,
    /// applies each record deterministically (converging on the primary's
    /// `weights_digest`), and resyncs from the primary's bundle when it
    /// falls too far behind. While the primary is unreachable the follower
    /// keeps serving its last world in **degraded mode** — `GET /readyz`
    /// answers `503` and the `server_degraded` gauge flips, but parses keep
    /// working. Followers refuse direct `POST /v1/admin/reload` (`503
    /// not_live`): their world converges on the journal alone.
    ///
    /// # Errors
    ///
    /// A typed [`ServerError`], as for [`GenieServer::bind`].
    pub fn bind_follower(
        live: Arc<LiveWorld>,
        config: ServerConfig,
        follower: FollowerConfig,
    ) -> Result<GenieServer, ServerError> {
        follower.validate()?;
        let engine = live.engine().clone();
        let mut server = Self::bind_inner(engine, Some(live.clone()), true, config)?;
        let runner = FollowerRunner::start(live, follower, server.shared.metrics.clone()).map_err(
            |source| ServerError::Spawn {
                what: "follower poller",
                source,
            },
        )?;
        server.follower_runner = Some(runner);
        Ok(server)
    }

    fn bind_inner(
        engine: GenieEngine,
        live: Option<Arc<LiveWorld>>,
        follower: bool,
        config: ServerConfig,
    ) -> Result<GenieServer, ServerError> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::default());
        let quota =
            (config.quota_burst > 0).then(|| Quota::new(config.quota_burst, config.quota_per_sec));
        let coalescer = Coalescer::start(
            engine.clone(),
            config.coalesce_window,
            config.max_coalesce_batch,
            metrics.clone(),
        )
        .map_err(|source| ServerError::Spawn {
            what: "coalescer dispatcher",
            source,
        })?;
        let reload = live
            .clone()
            .filter(|_| !follower)
            .map(|live| ReloadRunner::start(live, metrics.clone()))
            .transpose()
            .map_err(|source| ServerError::Spawn {
                what: "reload runner",
                source,
            })?;
        let shared = Arc::new(Shared {
            engine_stats: engine.stats_handle(),
            engine,
            config,
            metrics,
            quota,
            coalescer,
            live,
            reload,
            follower,
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut acceptors = Vec::with_capacity(shared.config.worker_threads);
        for worker in 0..shared.config.worker_threads {
            let handle = spawn_acceptor(&shared, &listener, worker).map_err(|source| {
                // Threads already spawned must not outlive a failed bind
                // holding the listener: tell them to exit on their next
                // accepted connection.
                shared.shutdown.store(true, Ordering::SeqCst);
                ServerError::Spawn {
                    what: "acceptor",
                    source,
                }
            })?;
            acceptors.push(Some(handle));
        }
        let supervisor = {
            let supervised = shared.clone();
            std::thread::Builder::new()
                .name("genie-supervisor".to_owned())
                .spawn(move || supervise(&supervised, &listener, acceptors))
                .map_err(|source| {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    ServerError::Spawn {
                        what: "supervisor",
                        source,
                    }
                })?
        };
        Ok(GenieServer {
            shared,
            addr,
            supervisor: Some(supervisor),
            follower_runner: None,
        })
    }

    /// The bound address (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current metrics exposition (same text `GET /metrics` serves).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.render(&self.shared.engine_stats)
    }

    /// Gracefully stop: refuse new connections, drain in-flight requests
    /// and the coalescer queue, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Stop the replication poller first: no new world swaps land while
        // the request paths drain.
        if let Some(mut runner) = self.follower_runner.take() {
            runner.shutdown();
        }
        let Some(supervisor) = self.supervisor.take() else {
            return;
        };
        // Nudge acceptors blocked in `accept()` awake until the supervisor
        // (which joins them) has exited; a nudge connection is answered by
        // the flag check and dropped. Busy acceptors finish their
        // connection first — that is the drain.
        while !supervisor.is_finished() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = supervisor.join();
        // All handlers are gone; close the queues and drain the workers.
        self.shared.coalescer.shutdown();
        if let Some(reload) = self.shared.reload.as_ref() {
            reload.shutdown();
        }
    }
}

impl Drop for GenieServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_acceptor(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    worker: usize,
) -> std::io::Result<JoinHandle<()>> {
    let shared = shared.clone();
    let listener = listener.try_clone()?;
    std::thread::Builder::new()
        .name(format!("genie-server-{worker}"))
        .spawn(move || accept_loop(&shared, &listener))
}

/// The watchdog: joins acceptors that died (an escaped panic) and respawns
/// them so accept capacity recovers; on shutdown, joins whatever is left.
fn supervise(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    mut acceptors: Vec<Option<JoinHandle<()>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for (worker, slot) in acceptors.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                if let Some(dead) = slot.take() {
                    let _ = dead.join();
                }
            }
            if slot.is_none() && !shared.shutdown.load(Ordering::SeqCst) {
                // A respawn failure (thread limits) is retried next tick;
                // the remaining acceptors keep serving meanwhile.
                if let Ok(handle) = spawn_acceptor(shared, listener, worker) {
                    shared
                        .metrics
                        .acceptor_respawns
                        .fetch_add(1, Ordering::Relaxed);
                    *slot = Some(handle);
                }
            }
        }
        std::thread::sleep(SUPERVISOR_TICK);
    }
    for slot in &mut acceptors {
        if let Some(handle) = slot.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(stream);
                    return;
                }
                // Chaos hook: an injected error drops this connection (the
                // client sees a reset, a valid fault-model outcome); an
                // injected panic kills this acceptor so the supervisor's
                // respawn path gets exercised.
                if genie_nlp::failpoint::fail_io("server.accept").is_err() {
                    drop(stream);
                    continue;
                }
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                handle_connection(shared, stream, peer);
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshake):
                // back off briefly and keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(None) => return, // clean close between requests
            Ok(Some(request)) => {
                shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                // Supervision: a handler panic costs this one request (a
                // typed 500) and this one connection, never the acceptor.
                let routed = catch_unwind(AssertUnwindSafe(|| route(shared, peer.ip(), &request)));
                let (outcome, panicked) = match routed {
                    Ok(outcome) => (outcome, false),
                    Err(_) => {
                        shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
                        let outcome = Outcome::error(
                            500,
                            "Internal Server Error",
                            "internal_panic",
                            "the request handler panicked; it was supervised and this \
                             connection will close",
                        );
                        (outcome, true)
                    }
                };
                shared
                    .metrics
                    .record_latency(started.elapsed().as_micros() as u64);
                shared.metrics.record_status(outcome.status);
                let keep_alive =
                    request.keep_alive && !panicked && !shared.shutdown.load(Ordering::SeqCst);
                if http::write_response(
                    &mut stream,
                    outcome.status,
                    outcome.reason,
                    outcome.content_type,
                    &outcome.body,
                    keep_alive,
                    &outcome.extra_headers,
                )
                .is_err()
                    || !keep_alive
                {
                    return;
                }
            }
            Err(error) => {
                // Codec-level failure: answer when there is an answer to
                // give, then close the connection either way (the stream
                // position is no longer trustworthy).
                if let Some((status, reason)) = error.status() {
                    shared.metrics.record_status(status);
                    let body = format!(
                        "{{\"error\": {{\"code\": {}, \"message\": {}}}}}",
                        crate::json::escape(error.code()),
                        crate::json::escape(&error.to_string()),
                    );
                    let _ = http::write_response(
                        &mut stream,
                        status,
                        reason,
                        "application/json",
                        body.as_bytes(),
                        false,
                        &[],
                    );
                }
                return;
            }
        }
    }
}

struct Outcome {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    /// Raw bytes: JSON and metrics bodies are UTF-8, the bundle endpoint's
    /// is a sealed binary artifact.
    body: Vec<u8>,
    extra_headers: Vec<(&'static str, String)>,
}

impl Outcome {
    fn json(status: u16, reason: &'static str, body: String) -> Outcome {
        Outcome {
            status,
            reason,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    fn error(status: u16, reason: &'static str, code: &str, message: &str) -> Outcome {
        Outcome::json(
            status,
            reason,
            format!(
                "{{\"error\": {{\"code\": {}, \"message\": {}}}}}",
                crate::json::escape(code),
                crate::json::escape(message),
            ),
        )
    }
}

/// RAII admission slot: dropping it (however the request ends — success,
/// typed error, or panic unwinding through `catch_unwind`) frees capacity.
struct InflightPermit<'a>(&'a AtomicUsize);

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Try to take an admission slot; past `max_inflight` the request is shed
/// with a `503` + `Retry-After` (distinct from the quota's `429`: the gate
/// protects the *server*, the quota polices each *client*).
fn admit(shared: &Shared) -> Result<Option<InflightPermit<'_>>, Box<Outcome>> {
    if shared.config.max_inflight == 0 {
        return Ok(None); // gate disabled
    }
    let admitted = shared.inflight.fetch_add(1, Ordering::AcqRel);
    if admitted >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        let mut outcome = Outcome::error(
            503,
            "Service Unavailable",
            "overloaded",
            &format!(
                "the server is at its admission limit ({} in-flight requests); retry shortly",
                shared.config.max_inflight
            ),
        );
        outcome.extra_headers.push(("Retry-After", "1".to_owned()));
        return Err(Box::new(outcome));
    }
    Ok(Some(InflightPermit(&shared.inflight)))
}

fn route(shared: &Shared, peer: IpAddr, request: &Request) -> Outcome {
    // Chaos hook: an injected error is a typed 500; an injected panic
    // unwinds into the handler's `catch_unwind` and becomes the
    // `internal_panic` 500, proving supervision end to end.
    if let Err(error) = genie_nlp::failpoint::fail_io("server.handle") {
        return Outcome::error(
            500,
            "Internal Server Error",
            "injected_fault",
            &error.to_string(),
        );
    }
    // The admin surface takes query parameters (`/v1/admin/deltas?since=V`);
    // routing matches on the path alone.
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    match (request.method.as_str(), path) {
        ("POST", "/v1/parse") => {
            let _permit = match admit(shared) {
                Ok(permit) => permit,
                Err(shed) => return *shed,
            };
            if let Some(outcome) = check_quota(shared, peer, 1.0) {
                return outcome;
            }
            shared
                .metrics
                .parse_requests
                .fetch_add(1, Ordering::Relaxed);
            let parse_request = match decode_body(&request.body)
                .and_then(|json| api::parse_request_from_json(&json))
            {
                Ok(parse_request) => parse_request,
                Err(error) => return codec_outcome(&error),
            };
            // A cache hit (a response or a typed no-parse) is answered here,
            // on the acceptor thread: it is the same verified entry `parse`
            // would return, so only the wait for a micro-batch is skipped.
            // Misses queue into the coalescer.
            let result = match shared.engine.cached(&parse_request) {
                Some(answer) => answer,
                None => {
                    let deadline = Instant::now() + shared.config.request_deadline;
                    match shared.coalescer.submit(parse_request, deadline) {
                        Ok(result) => result,
                        Err(error) => return submit_error_outcome(shared, error),
                    }
                }
            };
            record_parse_result(shared, &result);
            let (status, reason, body) = api::render_result(&result);
            Outcome::json(status, reason, body)
        }
        ("POST", "/v1/parse_batch") => {
            let _permit = match admit(shared) {
                Ok(permit) => permit,
                Err(shed) => return *shed,
            };
            shared
                .metrics
                .batch_requests
                .fetch_add(1, Ordering::Relaxed);
            let requests = match decode_body(&request.body).and_then(|json| {
                api::parse_batch_from_json(&json, shared.config.max_batch_requests)
            }) {
                Ok(requests) => requests,
                Err(error) => return codec_outcome(&error),
            };
            if let Some(outcome) = check_quota(shared, peer, requests.len() as f64) {
                return outcome;
            }
            // A client-assembled batch is already a batch: it goes straight
            // to the engine's deterministic fan-out, not via the coalescer.
            let results = shared.engine.parse_batch(&requests);
            for result in &results {
                record_parse_result(shared, result);
            }
            Outcome::json(200, "OK", api::render_batch(&results))
        }
        ("POST", "/v1/admin/reload") => {
            shared
                .metrics
                .reload_requests
                .fetch_add(1, Ordering::Relaxed);
            let Some(runner) = shared.reload.as_ref() else {
                shared.metrics.reload_failed.fetch_add(1, Ordering::Relaxed);
                return Outcome::error(
                    503,
                    "Service Unavailable",
                    "not_live",
                    "this server was not bound to a live world; reload is unavailable",
                );
            };
            let body = match decode_body(&request.body) {
                Ok(body) => body,
                Err(error) => {
                    shared.metrics.reload_failed.fetch_add(1, Ordering::Relaxed);
                    return codec_outcome(&error);
                }
            };
            let (delta, mode) = match admin::skill_delta_from_json(&body) {
                Ok(decoded) => decoded,
                Err(error) => {
                    shared.metrics.reload_failed.fetch_add(1, Ordering::Relaxed);
                    return codec_outcome(&error);
                }
            };
            // The rebuild runs on the background builder thread; this
            // acceptor either returns immediately (202) or merely waits for
            // the report, so shutdown can drain it like any blocked request.
            match runner.submit(delta, mode, admin::wait_from_json(&body)) {
                ReloadSubmit::Accepted { accepted_version } => {
                    Outcome::json(202, "Accepted", admin::render_accepted(accepted_version))
                }
                ReloadSubmit::Done(outcome) => match *outcome {
                    Ok(report) => Outcome::json(200, "OK", admin::render_swap_report(&report)),
                    Err(error) => {
                        let (status, reason) = api::status_for_error(&error);
                        Outcome::json(status, reason, api::render_error(&error))
                    }
                },
                ReloadSubmit::Busy => {
                    let mut outcome = Outcome::error(
                        409,
                        "Conflict",
                        "reload_in_progress",
                        "another reload is already queued or running; poll \
                         /v1/admin/reload/status and retry",
                    );
                    // Rebuilds take seconds, not milliseconds: tell the
                    // client when retrying is worth it.
                    outcome.extra_headers.push(("Retry-After", "2".to_owned()));
                    outcome
                }
                ReloadSubmit::ShuttingDown => Outcome::error(
                    503,
                    "Service Unavailable",
                    "shutting_down",
                    "the server is draining and no longer accepts reloads",
                ),
            }
        }
        ("GET", "/v1/admin/reload/status") => match shared.reload.as_ref() {
            Some(runner) => Outcome::json(200, "OK", runner.render_status()),
            None => Outcome::error(
                503,
                "Service Unavailable",
                "not_live",
                "this server was not bound to a live world; reload is unavailable",
            ),
        },
        ("GET", "/v1/admin/version") => Outcome::json(
            200,
            "OK",
            admin::render_version(
                shared.engine.world_version(),
                shared.reload.is_some(),
                shared.engine.model().weights_digest(),
            ),
        ),
        ("GET", "/v1/admin/deltas") => {
            let Some(live) = shared.live.as_ref() else {
                return Outcome::error(
                    503,
                    "Service Unavailable",
                    "not_live",
                    "this server was not bound to a live world; there is no delta journal",
                );
            };
            let since = match query_param(query, "since") {
                None => 0,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(since) => since,
                    Err(_) => {
                        return Outcome::error(
                            400,
                            "Bad Request",
                            "bad_request",
                            &format!("`since` must be a non-negative integer, got `{raw}`"),
                        )
                    }
                },
            };
            let records = live.journal_records_since(since);
            Outcome::json(
                200,
                "OK",
                admin::render_deltas(live.version(), live.journal_first_version(), &records),
            )
        }
        ("GET", "/v1/admin/bundle") => {
            let Some(live) = shared.live.as_ref() else {
                return Outcome::error(
                    503,
                    "Service Unavailable",
                    "not_live",
                    "this server was not bound to a live world; there is no bundle",
                );
            };
            match live.bundle_bytes() {
                // Sealed bytes ship verbatim: the checksum footer crosses
                // the wire, so the receiver re-validates end to end.
                Ok(bytes) => Outcome {
                    status: 200,
                    reason: "OK",
                    content_type: "application/octet-stream",
                    body: bytes,
                    extra_headers: Vec::new(),
                },
                Err(genie::Error::Config(error)) => Outcome::error(
                    503,
                    "Service Unavailable",
                    "not_durable",
                    &error.to_string(),
                ),
                Err(error) => Outcome::error(
                    500,
                    "Internal Server Error",
                    "bundle_unavailable",
                    &error.to_string(),
                ),
            }
        }
        ("GET", "/metrics") => Outcome {
            status: 200,
            reason: "OK",
            content_type: "text/plain; charset=utf-8",
            body: shared.metrics.render(&shared.engine_stats).into_bytes(),
            extra_headers: Vec::new(),
        },
        ("GET", "/healthz") => Outcome::json(200, "OK", "{\"status\": \"ok\"}".to_owned()),
        ("GET", "/readyz") => {
            let degraded = shared.metrics.degraded.load(Ordering::Relaxed) != 0;
            let lag = shared.metrics.replication_lag.load(Ordering::Relaxed);
            let role = if shared.follower {
                "follower"
            } else {
                "primary"
            };
            let body = admin::render_ready(
                role,
                !degraded,
                shared.engine.world_version(),
                lag,
                degraded,
            );
            if degraded {
                // Still serving (parses keep working on the last world),
                // but load balancers should prefer healthy replicas.
                Outcome::json(503, "Service Unavailable", body)
            } else {
                Outcome::json(200, "OK", body)
            }
        }
        ("POST" | "GET", _) => Outcome::error(
            404,
            "Not Found",
            "not_found",
            &format!("no such endpoint: {}", request.path),
        ),
        _ => {
            let mut outcome = Outcome::error(
                405,
                "Method Not Allowed",
                "method_not_allowed",
                &format!("method {} is not supported", request.method),
            );
            outcome
                .extra_headers
                .push(("Allow", "GET, POST".to_owned()));
            outcome
        }
    }
}

/// The value of query parameter `name`, verbatim (the admin paths are
/// ASCII; no percent-decoding).
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

fn decode_body(body: &[u8]) -> Result<Json, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::BadRequest("request body is not UTF-8".into()))?;
    Json::parse(text).map_err(|error| HttpError::BadRequest(format!("malformed JSON: {error}")))
}

fn codec_outcome(error: &HttpError) -> Outcome {
    let (status, reason) = error.status().unwrap_or((400, "Bad Request"));
    Outcome::error(status, reason, error.code(), &error.to_string())
}

/// The typed 5xx for a coalescer submission that produced no response.
fn submit_error_outcome(shared: &Shared, error: SubmitError) -> Outcome {
    match error {
        SubmitError::ShuttingDown => Outcome::error(
            503,
            "Service Unavailable",
            "shutting_down",
            "the server is draining and no longer accepts work",
        ),
        SubmitError::DeadlineExceeded => {
            shared
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            Outcome::error(
                504,
                "Gateway Timeout",
                "deadline_exceeded",
                &format!(
                    "the request missed its {}ms deadline budget",
                    shared.config.request_deadline.as_millis()
                ),
            )
        }
        SubmitError::Crashed => Outcome::error(
            500,
            "Internal Server Error",
            "batch_crashed",
            "the micro-batch serving this request crashed; it was supervised — retry",
        ),
    }
}

fn check_quota(shared: &Shared, peer: IpAddr, cost: f64) -> Option<Outcome> {
    let quota = shared.quota.as_ref()?;
    let Err(exceeded) = quota.try_take(peer, cost, Instant::now()) else {
        return None;
    };
    shared
        .metrics
        .quota_rejections
        .fetch_add(1, Ordering::Relaxed);
    let mut outcome = Outcome::error(
        429,
        "Too Many Requests",
        "quota_exhausted",
        &format!(
            "per-client quota exhausted; retry in {:.3}s",
            exceeded.retry_after_secs
        ),
    );
    outcome.extra_headers.push((
        "Retry-After",
        format!("{}", exceeded.retry_after_secs.ceil().max(1.0) as u64),
    ));
    Some(outcome)
}

fn record_parse_result(shared: &Shared, result: &GenieResult<genie::ParseResponse>) {
    if result.is_ok() {
        shared.metrics.parse_ok.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.metrics.parse_failed.fetch_add(1, Ordering::Relaxed);
    }
}
