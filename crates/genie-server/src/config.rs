//! The validating [`ServerConfig`] builder.
//!
//! Same philosophy as `GeneratorConfig` / `PipelineConfig`: every knob a
//! hostile or fat-fingered deployment could set to something dangerous is
//! validated at `build()` into a typed [`ConfigError`] (which converts
//! into `genie::Error::Config`), so a misconfigured server can never bind
//! a socket.

use std::time::Duration;

use genie_templates::ConfigError;

/// Default micro-batch latency budget: none. A lone miss is dispatched at
/// once; misses that queue while the engine is busy still share a batch.
pub const DEFAULT_COALESCE_WINDOW: Duration = Duration::ZERO;
/// Default cap on one coalesced micro-batch.
pub const DEFAULT_MAX_COALESCE_BATCH: usize = 32;
/// Default cap on a request body.
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024;
/// Default cap on the number of utterances in one `/v1/parse_batch`.
pub const DEFAULT_MAX_BATCH_REQUESTS: usize = 64;
/// Default socket read timeout (also the slow-write budget).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Default acceptor/handler thread count.
pub const DEFAULT_WORKER_THREADS: usize = 4;
/// Default cap on concurrently admitted parse requests (the overload
/// shedding gate); generous enough that only a genuine pile-up sheds.
pub const DEFAULT_MAX_INFLIGHT: usize = 512;
/// Default per-request deadline budget (coalescer wait + batch execution).
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// The server's validated configuration. Construct via
/// [`ServerConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Acceptor/handler threads (each owns one connection at a time).
    pub worker_threads: usize,
    /// Latency budget under which concurrent single requests coalesce
    /// into one micro-batch. Zero disables the wait (each batch takes
    /// whatever is already queued).
    pub coalesce_window: Duration,
    /// Most single requests in one coalesced micro-batch.
    pub max_coalesce_batch: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Most utterances accepted in one `/v1/parse_batch` request.
    pub max_batch_requests: usize,
    /// Socket read timeout: the budget a client has to deliver each
    /// request (slow writes past it get `408`), and the idle keep-alive
    /// lifetime.
    pub read_timeout: Duration,
    /// Token-bucket burst per client IP; `0` disables quotas.
    pub quota_burst: u32,
    /// Token-bucket refill rate per client IP, tokens/second.
    pub quota_per_sec: f64,
    /// Cap on parse requests admitted concurrently (queued in the
    /// coalescer or executing). Past it the server **sheds** with a `503`
    /// and `Retry-After` instead of queueing unboundedly; `0` disables the
    /// gate.
    pub max_inflight: usize,
    /// Per-request deadline budget: a single parse that cannot complete
    /// (coalescer wait included) inside it answers a typed `504` instead of
    /// stalling its keep-alive pipeline.
    pub request_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            worker_threads: DEFAULT_WORKER_THREADS,
            coalesce_window: DEFAULT_COALESCE_WINDOW,
            max_coalesce_batch: DEFAULT_MAX_COALESCE_BATCH,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            max_batch_requests: DEFAULT_MAX_BATCH_REQUESTS,
            read_timeout: DEFAULT_READ_TIMEOUT,
            quota_burst: 0,
            quota_per_sec: 0.0,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            request_deadline: DEFAULT_REQUEST_DEADLINE,
        }
    }
}

impl ServerConfig {
    /// Start building a config.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Re-validate an assembled config (builders call this from `build`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.worker_threads == 0 || self.worker_threads > 1024 {
            return Err(ConfigError::new(
                "worker_threads",
                format!("must be in 1..=1024, got {}", self.worker_threads),
            ));
        }
        if self.coalesce_window > Duration::from_secs(1) {
            return Err(ConfigError::new(
                "coalesce_window",
                "a coalescing budget above 1s is a stall, not a batch",
            ));
        }
        if self.max_coalesce_batch == 0 || self.max_coalesce_batch > 4096 {
            return Err(ConfigError::new(
                "max_coalesce_batch",
                format!("must be in 1..=4096, got {}", self.max_coalesce_batch),
            ));
        }
        if self.max_body_bytes == 0 || self.max_body_bytes > 16 * 1024 * 1024 {
            return Err(ConfigError::new(
                "max_body_bytes",
                format!("must be in 1..=16MiB, got {}", self.max_body_bytes),
            ));
        }
        if self.max_batch_requests == 0 || self.max_batch_requests > 4096 {
            return Err(ConfigError::new(
                "max_batch_requests",
                format!("must be in 1..=4096, got {}", self.max_batch_requests),
            ));
        }
        if self.read_timeout.is_zero() || self.read_timeout > Duration::from_secs(300) {
            return Err(ConfigError::new(
                "read_timeout",
                "must be positive and at most 300s",
            ));
        }
        if !self.quota_per_sec.is_finite() || self.quota_per_sec < 0.0 {
            return Err(ConfigError::new(
                "quota_per_sec",
                format!(
                    "must be a finite non-negative rate, got {}",
                    self.quota_per_sec
                ),
            ));
        }
        if self.quota_burst > 0 && self.quota_per_sec == 0.0 {
            return Err(ConfigError::new(
                "quota_per_sec",
                "a non-zero quota burst needs a non-zero refill rate",
            ));
        }
        if self.max_inflight > 1 << 20 {
            return Err(ConfigError::new(
                "max_inflight",
                format!("must be at most 2^20, got {}", self.max_inflight),
            ));
        }
        if self.request_deadline.is_zero() || self.request_deadline > Duration::from_secs(600) {
            return Err(ConfigError::new(
                "request_deadline",
                "must be positive and at most 600s",
            ));
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; `build()` validates.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (e.g. `"127.0.0.1:8400"`, port `0` = ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Acceptor/handler threads.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.config.worker_threads = threads;
        self
    }

    /// Micro-batch latency budget (zero = no added wait).
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.config.coalesce_window = window;
        self
    }

    /// Cap on one coalesced micro-batch.
    pub fn max_coalesce_batch(mut self, size: usize) -> Self {
        self.config.max_coalesce_batch = size;
        self
    }

    /// Cap on a request body, bytes.
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.config.max_body_bytes = bytes;
        self
    }

    /// Cap on utterances per `/v1/parse_batch`.
    pub fn max_batch_requests(mut self, requests: usize) -> Self {
        self.config.max_batch_requests = requests;
        self
    }

    /// Socket read timeout / slow-write budget.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Per-client token-bucket quota: `burst` tokens, refilled at
    /// `per_sec`. A burst of `0` disables quotas.
    pub fn quota(mut self, burst: u32, per_sec: f64) -> Self {
        self.config.quota_burst = burst;
        self.config.quota_per_sec = per_sec;
        self
    }

    /// Overload-shedding cap on concurrently admitted parse requests
    /// (`0` disables the gate).
    pub fn max_inflight(mut self, requests: usize) -> Self {
        self.config.max_inflight = requests;
        self
    }

    /// Per-request deadline budget (coalescer wait + execution).
    pub fn request_deadline(mut self, deadline: Duration) -> Self {
        self.config.request_deadline = deadline;
        self
    }

    /// Validate and return the config.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let config = ServerConfig::builder().build().unwrap();
        assert_eq!(config.coalesce_window, DEFAULT_COALESCE_WINDOW);
        assert_eq!(config.worker_threads, DEFAULT_WORKER_THREADS);
        assert_eq!(config.quota_burst, 0);
    }

    #[test]
    fn out_of_range_knobs_are_typed_errors() {
        assert!(ServerConfig::builder().worker_threads(0).build().is_err());
        assert!(ServerConfig::builder()
            .worker_threads(9999)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .coalesce_window(Duration::from_secs(10))
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .max_coalesce_batch(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder().max_body_bytes(0).build().is_err());
        assert!(ServerConfig::builder()
            .max_body_bytes(1 << 30)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .max_batch_requests(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .read_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder().quota(4, f64::NAN).build().is_err());
        assert!(ServerConfig::builder().quota(4, -1.0).build().is_err());
        assert!(ServerConfig::builder().quota(4, 0.0).build().is_err());
        assert!(ServerConfig::builder()
            .max_inflight((1 << 20) + 1)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .request_deadline(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .request_deadline(Duration::from_secs(3600))
            .build()
            .is_err());
        // The errors name the offending field.
        let error = ServerConfig::builder().quota(4, 0.0).build().unwrap_err();
        assert!(error.to_string().contains("quota_per_sec"));
    }

    #[test]
    fn quota_disabled_by_zero_burst_is_valid() {
        let config = ServerConfig::builder().quota(0, 0.0).build().unwrap();
        assert_eq!(config.quota_burst, 0);
    }
}
