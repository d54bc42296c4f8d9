//! Serving counters and the `GET /metrics` text rendering.
//!
//! All counters are relaxed atomics — incrementing one is a handful of
//! nanoseconds on the request path, and a scrape is a read-only snapshot.
//! Engine-side counters (requests / cache hits / rejected candidates) are
//! **not** shadow-counted here: the server holds the engine's own
//! [`genie::EngineStatsHandle`] and folds its snapshot into the rendering,
//! so `/metrics` sees exactly what the engine saw (including cache hits on
//! requests that raced each other into one coalesced batch).
//!
//! The exposition format is flat text, one `name value` pair per line in a
//! fixed order — trivially diffable, greppable, and parseable by the CI
//! gate without a JSON parser on the scrape side.

use std::sync::atomic::{AtomicU64, Ordering};

use genie::EngineStatsHandle;

/// The server's own counters (monotonic since boot).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// HTTP requests successfully parsed off the wire.
    pub http_requests: AtomicU64,
    /// `POST /v1/parse` requests routed.
    pub parse_requests: AtomicU64,
    /// `POST /v1/parse_batch` requests routed.
    pub batch_requests: AtomicU64,
    /// Utterances answered 2xx (single or within a batch).
    pub parse_ok: AtomicU64,
    /// Utterances answered with a typed parse error (within 2xx batch
    /// responses or 422 singles).
    pub parse_failed: AtomicU64,
    /// Responses with a 4xx status (codec errors, quota, unknown routes).
    pub http_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub http_5xx: AtomicU64,
    /// Requests rejected by the per-client quota (subset of `http_4xx`).
    pub quota_rejections: AtomicU64,
    /// Micro-batches the coalescer dispatched.
    pub coalesce_batches: AtomicU64,
    /// Single requests served through those micro-batches.
    pub coalesced_requests: AtomicU64,
    /// Largest micro-batch dispatched so far.
    pub coalesce_max_batch: AtomicU64,
    /// Sum of request handling latency, µs (route + engine + render).
    pub latency_us_sum: AtomicU64,
    /// Number of latency observations.
    pub latency_us_count: AtomicU64,
    /// `POST /v1/admin/reload` requests routed.
    pub reload_requests: AtomicU64,
    /// Reloads that completed and swapped a new world in.
    pub reload_ok: AtomicU64,
    /// Reloads rejected (no live world, bad body, busy) or failed
    /// mid-rebuild — every failed reload left the old world serving.
    pub reload_failed: AtomicU64,
    /// Request handlers (or the coalescer dispatcher) that panicked and
    /// were caught by supervision; each cost one `500` or one dropped
    /// batch, never the process.
    pub panics: AtomicU64,
    /// Dead acceptor threads respawned by the supervisor watchdog.
    pub acceptor_respawns: AtomicU64,
    /// Requests shed by the overload admission gate (`503` + `Retry-After`;
    /// disjoint from `quota_rejections`' `429`s).
    pub shed: AtomicU64,
    /// Requests that blew their deadline budget and answered `504`.
    pub deadline_exceeded: AtomicU64,
    /// Replication polls a follower issued against its primary.
    pub replication_polls: AtomicU64,
    /// Journal records a follower applied from its primary.
    pub replication_applied: AtomicU64,
    /// Bundle resyncs a follower performed (too far behind for
    /// record-by-record catch-up).
    pub replication_resyncs: AtomicU64,
    /// Replication poll/apply attempts that failed (primary unreachable,
    /// protocol error, or a rejected record).
    pub replication_errors: AtomicU64,
    /// Gauge: how many world versions the follower currently trails its
    /// primary by (0 when caught up or not a follower).
    pub replication_lag: AtomicU64,
    /// Gauge: 1 while a follower serves in degraded mode (its primary has
    /// been unreachable past the retry budget), 0 otherwise.
    pub degraded: AtomicU64,
}

impl Metrics {
    /// Record one dispatched micro-batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        self.coalesce_batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.coalesce_max_batch
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Record one handled request's latency.
    pub fn record_latency(&self, micros: u64) {
        self.latency_us_sum.fetch_add(micros, Ordering::Relaxed);
        self.latency_us_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a response by its status code.
    pub fn record_status(&self, status: u16) {
        if (400..500).contains(&status) {
            self.http_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.http_5xx.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Render the flat text exposition, folding in the engine's counters.
    pub fn render(&self, engine: &EngineStatsHandle) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let engine_stats = engine.snapshot();
        let pairs: [(&str, u64); 35] = [
            ("server_connections_total", load(&self.connections)),
            ("server_http_requests_total", load(&self.http_requests)),
            ("server_parse_requests_total", load(&self.parse_requests)),
            ("server_batch_requests_total", load(&self.batch_requests)),
            ("server_parse_ok_total", load(&self.parse_ok)),
            ("server_parse_failed_total", load(&self.parse_failed)),
            ("server_http_4xx_total", load(&self.http_4xx)),
            ("server_http_5xx_total", load(&self.http_5xx)),
            (
                "server_quota_rejections_total",
                load(&self.quota_rejections),
            ),
            (
                "server_coalesce_batches_total",
                load(&self.coalesce_batches),
            ),
            (
                "server_coalesced_requests_total",
                load(&self.coalesced_requests),
            ),
            ("server_coalesce_max_batch", load(&self.coalesce_max_batch)),
            ("server_latency_us_sum", load(&self.latency_us_sum)),
            ("server_latency_us_count", load(&self.latency_us_count)),
            ("server_reload_requests_total", load(&self.reload_requests)),
            ("server_reload_ok_total", load(&self.reload_ok)),
            ("server_reload_failed_total", load(&self.reload_failed)),
            ("server_panics_total", load(&self.panics)),
            (
                "server_acceptor_respawns_total",
                load(&self.acceptor_respawns),
            ),
            ("server_shed_total", load(&self.shed)),
            (
                "server_deadline_exceeded_total",
                load(&self.deadline_exceeded),
            ),
            (
                "server_replication_polls_total",
                load(&self.replication_polls),
            ),
            (
                "server_replication_applied_total",
                load(&self.replication_applied),
            ),
            (
                "server_replication_resyncs_total",
                load(&self.replication_resyncs),
            ),
            (
                "server_replication_errors_total",
                load(&self.replication_errors),
            ),
            ("server_replication_lag", load(&self.replication_lag)),
            ("server_degraded", load(&self.degraded)),
            ("engine_requests_total", engine_stats.requests),
            ("engine_cache_hits_total", engine_stats.cache_hits),
            ("engine_cache_carried_total", engine_stats.cache_carried),
            (
                "engine_rejected_candidates_total",
                engine_stats.rejected_candidates,
            ),
            (
                "engine_cache_misses_total",
                engine_stats.requests - engine_stats.cache_hits.min(engine_stats.requests),
            ),
            ("world_version", engine_stats.world_version),
            ("world_swaps_total", engine_stats.swaps),
            ("world_last_swap_us", engine_stats.last_swap_us),
        ];
        let mut out = String::with_capacity(pairs.len() * 40);
        for (name, value) in pairs {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_and_latency_accumulate() {
        let metrics = Metrics::default();
        metrics.record_batch(3);
        metrics.record_batch(7);
        metrics.record_batch(2);
        assert_eq!(metrics.coalesce_batches.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.coalesced_requests.load(Ordering::Relaxed), 12);
        assert_eq!(metrics.coalesce_max_batch.load(Ordering::Relaxed), 7);
        metrics.record_latency(100);
        metrics.record_latency(250);
        assert_eq!(metrics.latency_us_sum.load(Ordering::Relaxed), 350);
        assert_eq!(metrics.latency_us_count.load(Ordering::Relaxed), 2);
        metrics.record_status(200);
        metrics.record_status(404);
        metrics.record_status(429);
        metrics.record_status(500);
        assert_eq!(metrics.http_4xx.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.http_5xx.load(Ordering::Relaxed), 1);
    }
}
