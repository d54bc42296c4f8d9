//! Replica catch-up: the follower's replication poller.
//!
//! A server bound with [`crate::GenieServer::bind_follower`] serves parses
//! from its own [`LiveWorld`] while a background
//! poller keeps that world converged with a primary:
//!
//! 1. **Poll** `GET /v1/admin/deltas?since=V` on the primary (V = the local
//!    world version), with a per-attempt connect/read timeout.
//! 2. **Apply** each returned record whose version is exactly `local + 1`
//!    via [`LiveWorld::reload_with`](genie::live::LiveWorld::reload_with) —
//!    the deterministic rebuild reproduces the primary's
//!    `weights_digest` byte-for-byte (see the determinism contract in
//!    `genie::live`), so convergence is provable, not assumed.
//! 3. **Resync** from `GET /v1/admin/bundle` when record-by-record catch-up
//!    is impossible (the primary's journal starts after `local + 1`) or
//!    uneconomical (the version lag exceeds `resync_lag`): the sealed
//!    bundle bytes ship verbatim — the checksum footer crosses the wire —
//!    and install atomically via
//!    [`LiveWorld::install_bundle`](genie::live::LiveWorld::install_bundle).
//!
//! # Failure model
//!
//! Poll failures back off exponentially (`backoff_base · 2^failures`,
//! capped at `backoff_max`) with deterministic jitter derived from the
//! config seed and the attempt counter — retries never synchronize across
//! a fleet of followers restarted together. After `retry_budget`
//! consecutive failures the follower enters **degraded mode**: it keeps
//! serving its last world (parses never fail over to nothing), but
//! `GET /readyz` answers `503` and the `server_degraded` gauge flips to 1
//! so load balancers route around it. The first successful poll restores
//! readiness.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use genie::live::LiveWorld;
use genie_nlp::failpoint::fnv64;
use genie_templates::ConfigError;

use crate::admin;
use crate::http::{self, HttpError};
use crate::json::Json;
use crate::metrics::Metrics;

/// Default delay between successful polls.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(500);
/// Default base delay of the failure backoff.
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(200);
/// Default ceiling of the failure backoff.
pub const DEFAULT_BACKOFF_MAX: Duration = Duration::from_secs(10);
/// Default per-attempt connect/read/write timeout.
pub const DEFAULT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);
/// Default consecutive failures before the follower reports degraded.
pub const DEFAULT_RETRY_BUDGET: u32 = 3;
/// Default version lag beyond which the follower resyncs from a bundle
/// instead of replaying records one by one.
pub const DEFAULT_RESYNC_LAG: u64 = 32;

/// Largest accepted `GET /v1/admin/deltas` response.
const MAX_DELTAS_BODY: usize = 16 * 1024 * 1024;
/// Largest accepted `GET /v1/admin/bundle` response (bundles carry a full
/// model snapshot plus the synthesis memo).
const MAX_BUNDLE_BODY: usize = 512 * 1024 * 1024;
/// Granularity of shutdown-aware sleeps.
const SLEEP_TICK: Duration = Duration::from_millis(10);

/// The follower's validated replication configuration. Construct via
/// [`FollowerConfig::builder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerConfig {
    /// The primary's address, e.g. `127.0.0.1:8400`.
    pub primary: String,
    /// Delay between successful polls.
    pub poll_interval: Duration,
    /// Base delay of the exponential failure backoff.
    pub backoff_base: Duration,
    /// Ceiling of the failure backoff (jitter included).
    pub backoff_max: Duration,
    /// Per-attempt connect/read/write timeout against the primary.
    pub attempt_timeout: Duration,
    /// Consecutive poll failures before the follower reports itself
    /// degraded on `/readyz` (it keeps serving either way).
    pub retry_budget: u32,
    /// Version lag beyond which the follower resyncs from the primary's
    /// bundle instead of replaying journal records one by one.
    pub resync_lag: u64,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            primary: String::new(),
            poll_interval: DEFAULT_POLL_INTERVAL,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_max: DEFAULT_BACKOFF_MAX,
            attempt_timeout: DEFAULT_ATTEMPT_TIMEOUT,
            retry_budget: DEFAULT_RETRY_BUDGET,
            resync_lag: DEFAULT_RESYNC_LAG,
            seed: 0,
        }
    }
}

impl FollowerConfig {
    /// Start building a config for a follower of `primary`.
    pub fn builder(primary: impl Into<String>) -> FollowerConfigBuilder {
        FollowerConfigBuilder {
            config: FollowerConfig {
                primary: primary.into(),
                ..FollowerConfig::default()
            },
        }
    }

    /// Re-validate an assembled config (builders call this from `build`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.primary.is_empty() {
            return Err(ConfigError::new(
                "primary",
                "a follower needs its primary's address",
            ));
        }
        if self.poll_interval.is_zero() || self.poll_interval > Duration::from_secs(300) {
            return Err(ConfigError::new(
                "poll_interval",
                "must be positive and at most 300s",
            ));
        }
        if self.backoff_base.is_zero() || self.backoff_base > self.backoff_max {
            return Err(ConfigError::new(
                "backoff_base",
                "must be positive and at most backoff_max",
            ));
        }
        if self.backoff_max > Duration::from_secs(300) {
            return Err(ConfigError::new("backoff_max", "must be at most 300s"));
        }
        if self.attempt_timeout.is_zero() || self.attempt_timeout > Duration::from_secs(300) {
            return Err(ConfigError::new(
                "attempt_timeout",
                "must be positive and at most 300s",
            ));
        }
        if self.retry_budget == 0 || self.retry_budget > 1000 {
            return Err(ConfigError::new(
                "retry_budget",
                format!("must be in 1..=1000, got {}", self.retry_budget),
            ));
        }
        if self.resync_lag == 0 {
            return Err(ConfigError::new(
                "resync_lag",
                "must be at least 1 (0 would resync on every delta)",
            ));
        }
        Ok(())
    }
}

/// Builder for [`FollowerConfig`]; `build()` validates.
#[derive(Debug, Clone)]
pub struct FollowerConfigBuilder {
    config: FollowerConfig,
}

impl FollowerConfigBuilder {
    /// Delay between successful polls.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.config.poll_interval = interval;
        self
    }

    /// Exponential failure backoff: base delay and ceiling.
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.config.backoff_base = base;
        self.config.backoff_max = max;
        self
    }

    /// Per-attempt connect/read/write timeout.
    pub fn attempt_timeout(mut self, timeout: Duration) -> Self {
        self.config.attempt_timeout = timeout;
        self
    }

    /// Consecutive failures before `/readyz` reports degraded.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.config.retry_budget = budget;
        self
    }

    /// Version lag beyond which the follower resyncs from a bundle.
    pub fn resync_lag(mut self, lag: u64) -> Self {
        self.config.resync_lag = lag;
        self
    }

    /// Seed of the deterministic backoff jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validate and return the config.
    pub fn build(self) -> Result<FollowerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Everything a poll attempt can fail with. Only the *category* matters to
/// the loop (every failure backs off and counts toward the retry budget);
/// the detail feeds nothing but debugging.
enum PollError {
    /// The primary was unreachable or spoke garbage.
    Transport(HttpError),
    /// The primary answered, but not with what the protocol promises.
    Protocol(String),
    /// A record or bundle was rejected locally (rebuild failure, config
    /// digest mismatch, corrupt bytes).
    Apply(genie::Error),
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::Transport(error) => write!(f, "transport: {error}"),
            PollError::Protocol(detail) => write!(f, "protocol: {detail}"),
            PollError::Apply(error) => write!(f, "apply: {error}"),
        }
    }
}

/// Handle to the replication poller thread.
pub(crate) struct FollowerRunner {
    shutdown: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl FollowerRunner {
    /// Start the poller over `live` against `config.primary`.
    pub(crate) fn start(
        live: Arc<LiveWorld>,
        config: FollowerConfig,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<FollowerRunner> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let worker = {
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("genie-follower".to_owned())
                .spawn(move || follower_loop(&live, &config, &metrics, &shutdown))?
        };
        Ok(FollowerRunner {
            shutdown,
            worker: Some(worker),
        })
    }

    /// Stop polling and join the poller thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for FollowerRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn follower_loop(
    live: &Arc<LiveWorld>,
    config: &FollowerConfig,
    metrics: &Arc<Metrics>,
    shutdown: &AtomicBool,
) {
    let mut failures: u32 = 0;
    let mut attempt: u64 = 0;
    while !shutdown.load(Ordering::SeqCst) {
        attempt += 1;
        metrics.replication_polls.fetch_add(1, Ordering::Relaxed);
        match poll_primary(live, config, metrics) {
            Ok(()) => {
                failures = 0;
                metrics.degraded.store(0, Ordering::Relaxed);
                sleep_unless_shutdown(config.poll_interval, shutdown);
            }
            Err(_) => {
                failures = failures.saturating_add(1);
                metrics.replication_errors.fetch_add(1, Ordering::Relaxed);
                if failures >= config.retry_budget {
                    // Degraded, not dead: the last world keeps serving.
                    metrics.degraded.store(1, Ordering::Relaxed);
                }
                sleep_unless_shutdown(backoff_delay(config, failures, attempt), shutdown);
            }
        }
    }
}

/// The delay before retry `failures` (1-based): exponential growth capped
/// at `backoff_max`, then "equal jitter" — half the backoff is fixed, half
/// is a deterministic hash of `(seed, attempt)` — so the worst case never
/// exceeds the cap and simultaneous followers still spread out.
fn backoff_delay(config: &FollowerConfig, failures: u32, attempt: u64) -> Duration {
    let exponent = failures.saturating_sub(1).min(16);
    let backoff = config
        .backoff_base
        .saturating_mul(1u32 << exponent)
        .min(config.backoff_max);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&config.seed.to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    let fraction = (fnv64(&key) % 1024) as f64 / 1024.0;
    backoff / 2 + backoff.mul_f64(fraction / 2.0)
}

fn sleep_unless_shutdown(total: Duration, shutdown: &AtomicBool) {
    let mut remaining = total;
    while !remaining.is_zero() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let tick = remaining.min(SLEEP_TICK);
        std::thread::sleep(tick);
        remaining = remaining.saturating_sub(tick);
    }
}

/// One poll: fetch the primary's delta feed and converge on it.
fn poll_primary(
    live: &Arc<LiveWorld>,
    config: &FollowerConfig,
    metrics: &Arc<Metrics>,
) -> Result<(), PollError> {
    let addr = resolve(&config.primary)?;
    let local = live.version();
    let response = http_get(
        &addr,
        &format!("/v1/admin/deltas?since={local}"),
        config.attempt_timeout,
        MAX_DELTAS_BODY,
    )?;
    if response.status != 200 {
        return Err(PollError::Protocol(format!(
            "delta feed answered {}",
            response.status
        )));
    }
    let text = std::str::from_utf8(&response.body)
        .map_err(|_| PollError::Protocol("delta feed is not UTF-8".to_owned()))?;
    let json = Json::parse(text)
        .map_err(|error| PollError::Protocol(format!("malformed delta feed: {error}")))?;
    let feed = admin::delta_feed_from_json(&json)
        .map_err(|error| PollError::Protocol(error.to_string()))?;
    metrics
        .replication_lag
        .store(feed.world_version.saturating_sub(local), Ordering::Relaxed);
    if feed.world_version <= local {
        return Ok(());
    }
    let lag = feed.world_version - local;
    let contiguous = feed
        .records
        .first()
        .is_some_and(|record| record.version == local + 1);
    if !contiguous || lag > config.resync_lag {
        // Too far behind for record-by-record catch-up (or the records
        // before the journal's start are gone): install the primary's
        // latest bundle wholesale.
        let response = http_get(
            &addr,
            "/v1/admin/bundle",
            config.attempt_timeout,
            MAX_BUNDLE_BODY,
        )?;
        if response.status != 200 {
            return Err(PollError::Protocol(format!(
                "bundle endpoint answered {}",
                response.status
            )));
        }
        // Record the resync and the caught-up lag before installing: the
        // install publishes the new version under the engine's world lock,
        // so whoever reads that version also sees the metrics that go with
        // it (relaxed stores suffice; the lock orders them). A failed
        // install takes them back.
        metrics.replication_resyncs.fetch_add(1, Ordering::Relaxed);
        metrics.replication_lag.store(0, Ordering::Relaxed);
        if let Err(error) = live.install_bundle(&response.body) {
            metrics.replication_resyncs.fetch_sub(1, Ordering::Relaxed);
            metrics.replication_lag.store(lag, Ordering::Relaxed);
            return Err(PollError::Apply(error));
        }
    } else {
        for record in &feed.records {
            // Records must chain exactly; anything else waits for the next
            // poll (which will see the gap and resync).
            if record.version != live.version() + 1 {
                break;
            }
            live.reload_with(&record.delta, record.mode)
                .map_err(PollError::Apply)?;
            metrics.replication_applied.fetch_add(1, Ordering::Relaxed);
        }
    }
    metrics.replication_lag.store(
        feed.world_version.saturating_sub(live.version()),
        Ordering::Relaxed,
    );
    Ok(())
}

fn resolve(primary: &str) -> Result<SocketAddr, PollError> {
    primary
        .to_socket_addrs()
        .map_err(|error| PollError::Transport(HttpError::Io(error)))?
        .next()
        .ok_or_else(|| PollError::Protocol(format!("`{primary}` resolves to no address")))
}

/// One bounded GET against the primary: connect, send, read one framed
/// response. Every socket operation carries `timeout`.
fn http_get(
    addr: &SocketAddr,
    path: &str,
    timeout: Duration,
    max_body_bytes: usize,
) -> Result<http::Response, PollError> {
    let transport = |error: std::io::Error| PollError::Transport(HttpError::Io(error));
    let mut stream = TcpStream::connect_timeout(addr, timeout).map_err(transport)?;
    stream.set_read_timeout(Some(timeout)).map_err(transport)?;
    stream.set_write_timeout(Some(timeout)).map_err(transport)?;
    let _ = stream.set_nodelay(true);
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(transport)?;
    let mut reader = BufReader::new(stream);
    http::read_response(&mut reader, max_body_bytes).map_err(PollError::Transport)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_knobs_are_typed_errors() {
        assert!(FollowerConfig::builder("127.0.0.1:1").build().is_ok());
        assert!(FollowerConfig::builder("").build().is_err());
        assert!(FollowerConfig::builder("h:1")
            .poll_interval(Duration::ZERO)
            .build()
            .is_err());
        assert!(FollowerConfig::builder("h:1")
            .backoff(Duration::from_secs(10), Duration::from_secs(1))
            .build()
            .is_err());
        assert!(FollowerConfig::builder("h:1")
            .backoff(Duration::ZERO, Duration::from_secs(1))
            .build()
            .is_err());
        assert!(FollowerConfig::builder("h:1")
            .attempt_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(FollowerConfig::builder("h:1")
            .retry_budget(0)
            .build()
            .is_err());
        assert!(FollowerConfig::builder("h:1")
            .resync_lag(0)
            .build()
            .is_err());
        let error = FollowerConfig::builder("h:1")
            .retry_budget(0)
            .build()
            .unwrap_err();
        assert!(error.to_string().contains("retry_budget"));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let config = FollowerConfig::builder("127.0.0.1:1")
            .backoff(Duration::from_millis(100), Duration::from_secs(2))
            .seed(42)
            .build()
            .unwrap();
        // Growth: each consecutive failure at least keeps the floor
        // (backoff/2) non-decreasing until the cap.
        let floor =
            |failures: u32| backoff_delay(&config, failures, u64::from(failures)).as_millis();
        assert!(floor(1) >= 50);
        assert!(floor(3) >= 200, "exponential floor, got {}ms", floor(3));
        // Cap: even absurd failure counts stay within backoff_max.
        for attempt in 0..64 {
            let delay = backoff_delay(&config, 60, attempt);
            assert!(delay <= config.backoff_max, "uncapped backoff {delay:?}");
        }
        // Determinism: same (seed, failures, attempt) → same delay; a
        // different attempt jitters differently.
        assert_eq!(backoff_delay(&config, 5, 7), backoff_delay(&config, 5, 7));
        assert_ne!(
            backoff_delay(&config, 5, 7),
            backoff_delay(&config, 5, 8),
            "jitter must vary across attempts"
        );
    }
}
