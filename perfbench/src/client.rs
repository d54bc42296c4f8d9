//! The load generator's client side: keep-alive connections with
//! `TCP_NODELAY`, every request pre-rendered and sent in one write, every
//! response read with the server's own codec
//! ([`genie_server::http::read_response`]).
//!
//! Sending a request in several segments without `TCP_NODELAY` stalls on
//! delayed ACKs (about 40 ms per request on Linux), which would measure the
//! client instead of the server.
//!
//! A single `POST /v1/parse` answers in 2–3 ms, which is the same order as
//! the time a virtual CPU that went idle takes to be woken by its host.
//! Clients of single requests therefore *busy-poll* for the response
//! (yielding to any runnable thread), so their CPU never idles between
//! request and response and the latency measured is the server's, not the
//! hypervisor's. Batch requests keep the server's cores busy for 20 ms or
//! more; a polling client would take CPU from the server there, so batch
//! clients block.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use genie_nlp::failpoint::fnv64;
use genie_server::http::{read_response, Response};

/// Largest response body the client accepts.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// One pre-rendered HTTP/1.1 request.
pub fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The body of `POST /v1/parse`.
pub fn parse_body(utterance: &str) -> String {
    format!(
        "{{\"utterance\": {}}}",
        genie_server::json::escape(utterance)
    )
}

/// The body of `POST /v1/parse_batch`.
pub fn batch_body(utterances: &[String]) -> String {
    let requests: Vec<String> = utterances.iter().map(|u| parse_body(u)).collect();
    format!("{{\"requests\": [{}]}}", requests.join(", "))
}

/// A keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    busy_poll: bool,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    /// A connection that blocks while it waits for responses.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            busy_poll: false,
            stream: None,
        }
    }

    /// A connection that busy-polls while it waits for responses.
    pub fn polling(addr: SocketAddr) -> Conn {
        Conn {
            busy_poll: true,
            ..Conn::new(addr)
        }
    }

    /// Send one pre-rendered request and read its response, connecting
    /// first if needed. On any transport error the connection is dropped
    /// (the next call reconnects) and the error returned.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Response, String> {
        let result = self.try_exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, request: &[u8]) -> Result<Response, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| format!("timeout: {e}"))?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
            self.stream = Some((stream, reader));
        }
        let (stream, reader) = self.stream.as_mut().expect("connected above");
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        if self.busy_poll {
            poll_readable(stream).map_err(|e| format!("poll: {e}"))?;
        }
        read_response(reader, MAX_RESPONSE_BYTES).map_err(|e| format!("read: {e}"))
    }
}

/// Spin until `stream` has bytes to read, yielding the CPU on each turn.
fn poll_readable(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let mut probe = [0u8; 1];
    let ready = loop {
        match stream.peek(&mut probe) {
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => break Err(e),
        }
    };
    stream.set_nonblocking(false)?;
    ready
}

/// What one closed-loop request did. The body is kept as a digest; the
/// byte-identity check compares digests of in-process renderings.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub job: usize,
    /// Seconds from the loop's start to the response.
    pub done_s: f64,
    pub latency_ms: f64,
    pub status: u16,
    pub digest: u64,
}

/// A closed loop's outcome: the samples of every client, the transport
/// errors, and the wall time the loop measured.
pub struct LoopResult {
    pub samples: Vec<Sample>,
    pub transport_errors: usize,
    pub elapsed_s: f64,
}

/// Run `clients` closed-loop clients until `deadline`, each sending its
/// next request only after the previous response arrived. Jobs are claimed
/// from a shared cursor: with `cycle` they repeat, otherwise each is sent
/// once and a client stops when none are left. `busy_poll` picks the
/// connection kind (see the module docs).
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    jobs: &[Vec<u8>],
    cycle: bool,
    busy_poll: bool,
    deadline: Instant,
) -> LoopResult {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let cursor = &cursor;
                let start = &start;
                scope.spawn(move || {
                    let mut conn = if busy_poll {
                        Conn::polling(addr)
                    } else {
                        Conn::new(addr)
                    };
                    let mut samples = Vec::new();
                    let mut errors = 0;
                    while Instant::now() < deadline {
                        let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                        let job = if cycle { claimed % jobs.len() } else { claimed };
                        let Some(request) = jobs.get(job) else { break };
                        let sent = Instant::now();
                        match conn.exchange(request) {
                            Ok(response) => samples.push(Sample {
                                job,
                                done_s: start.elapsed().as_secs_f64(),
                                latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                                status: response.status,
                                digest: fnv64(&response.body),
                            }),
                            Err(error) => {
                                eprintln!("perfbench: transport error on job {job}: {error}");
                                errors += 1;
                            }
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut transport_errors = 0;
    for (client_samples, errors) in per_client {
        samples.extend(client_samples);
        transport_errors += errors;
    }
    LoopResult {
        samples,
        transport_errors,
        elapsed_s,
    }
}
