//! # genie-server
//!
//! A socket-level HTTP/JSON serving front-end over [`genie::GenieEngine`],
//! built entirely on the standard library (`TcpListener` + threads) and the
//! engine's own deterministic batch machinery — no external HTTP stack.
//!
//! ## Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /v1/parse` | One utterance; a response-cache hit is answered on the acceptor thread, a miss is coalesced into a micro-batch |
//! | `POST /v1/parse_batch` | A client-assembled batch; straight to the engine |
//! | `POST /v1/admin/reload` | Apply a skill delta on a background builder: `202 Accepted` (or `{"wait": true}` for the swap report) ([`GenieServer::bind_live`] only) |
//! | `GET /v1/admin/reload/status` | The reload runner's state and last outcome |
//! | `GET /v1/admin/version` | The serving world-snapshot version and `weights_digest` |
//! | `GET /v1/admin/deltas?since=V` | The effective delta-journal history after `V` — the replication feed followers poll |
//! | `GET /v1/admin/bundle` | The sealed world bundle, verbatim — the follower resync artifact (durable worlds only) |
//! | `GET /metrics` | Flat-text counters (server + engine + world swaps + supervision + replication) |
//! | `GET /healthz` | Liveness |
//! | `GET /readyz` | Readiness: role, world version, replication lag; `503` while a follower is degraded |
//!
//! ## The determinism contract
//!
//! Every response body is a pure function of `(model, library, policies,
//! request)` — never of load, timing, worker count, or which requests
//! happened to share a coalesced micro-batch. The end-to-end tests and the
//! `serving_e2e` bench enforce this by rendering in-process results through
//! the *same* [`api`] functions and asserting byte identity with what came
//! over the socket.
//!
//! ## Quick start
//!
//! ```no_run
//! use genie::EngineBuilder;
//! use genie_server::{GenieServer, ServerConfig};
//!
//! # fn main() -> genie::GenieResult<()> {
//! # let library = thingpedia::Thingpedia::new();
//! let engine = EngineBuilder::new()
//!     .thingpedia(library)
//!     .model_from_snapshot("model.luinet-snapshot")? // fast cold start
//!     .build()?;
//! let config = ServerConfig::builder()
//!     .addr("127.0.0.1:8400")
//!     .quota(64, 16.0) // 64-token burst, 16 req/s refill per client
//!     .build()?;
//! let mut server = GenieServer::bind(engine, config)?;
//! println!("serving on http://{}", server.local_addr());
//! // … serve until told otherwise, then drain in-flight work:
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

// The request path must never take the process down on hostile input: no
// unsupervised unwraps/expects outside test code. Fallible paths use typed
// errors; lock poisoning recovers via `unwrap_or_else(|e| e.into_inner())`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admin;
pub mod api;
pub mod coalescer;
pub mod config;
pub mod error;
pub mod follower;
pub mod http;
pub mod json;
pub mod metrics;
pub mod quota;
pub mod reload;
mod server;

pub use config::{ServerConfig, ServerConfigBuilder};
pub use error::ServerError;
pub use follower::{FollowerConfig, FollowerConfigBuilder};
pub use server::GenieServer;
