//! The micro-batch coalescing queue.
//!
//! Concurrent `POST /v1/parse` requests that miss the response cache land
//! here as jobs. One dispatcher thread takes every job already queued, then
//! waits for more until the configured window closes (or the batch cap is
//! reached), and serves the whole micro-batch through
//! [`genie::GenieEngine::parse_batch`] — the deterministic batch path
//! (an order-preserving `genie-parallel` fan-out of the same per-request
//! pipeline `predict_topk_batch` maps over, sharing the engine's response
//! cache). Each response is a pure function of its own request, so **which
//! requests happen to share a micro-batch can change latency and
//! amortization, never content** — the property the end-to-end determinism
//! tests pin at worker counts {1, 2, 8}.
//!
//! # Deadlines
//!
//! Every job carries its request's deadline. The submitter waits with
//! `recv_timeout` and answers a typed `504` past it; the dispatcher skips
//! jobs that are already expired when their batch forms, so a stalled
//! pipeline cannot also waste engine work on answers nobody is waiting for.
//!
//! # Supervision
//!
//! The per-batch work runs under `catch_unwind`: a panic (the
//! `coalescer.flush` failpoint injects them in chaos runs) costs that one
//! batch — its submitters get a typed `500` via [`SubmitError::Crashed`] —
//! and the dispatcher keeps serving. Shutdown stays drain-by-construction:
//! closing the job channel lets the dispatcher serve everything already
//! queued, then exit; `shutdown()` joins it.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use genie::{GenieEngine, GenieResult, ParseRequest, ParseResponse};

use crate::metrics::Metrics;
use std::sync::Arc;

/// One queued request and the channel its response travels back on.
struct Job {
    request: ParseRequest,
    deadline: Instant,
    reply: mpsc::SyncSender<GenieResult<ParseResponse>>,
}

/// Why a submission produced no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is shutting down and the queue is closed. The HTTP layer
    /// answers `503`.
    ShuttingDown,
    /// The request's deadline budget elapsed before its batch completed.
    /// The HTTP layer answers `504`.
    DeadlineExceeded,
    /// The dispatcher dropped this job's reply without answering — its
    /// batch panicked mid-dispatch. The HTTP layer answers `500`.
    Crashed,
}

/// Handle to the dispatcher thread.
pub struct Coalescer {
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl Coalescer {
    /// Start the dispatcher over `engine`.
    ///
    /// # Errors
    ///
    /// The underlying thread-spawn failure, when the OS refuses a thread.
    pub fn start(
        engine: GenieEngine,
        window: Duration,
        max_batch: usize,
        metrics: Arc<Metrics>,
    ) -> io::Result<Coalescer> {
        let (sender, receiver) = mpsc::channel::<Job>();
        let dispatcher = std::thread::Builder::new()
            .name("genie-coalescer".to_owned())
            .spawn(move || dispatch_loop(&engine, &receiver, window, max_batch, &metrics))?;
        Ok(Coalescer {
            sender: Mutex::new(Some(sender)),
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Submit one request and block until its response is computed or
    /// `deadline` passes.
    ///
    /// # Errors
    ///
    /// A [`SubmitError`] when no response will come (the caller answers a
    /// typed 5xx); the inner [`GenieResult`] carries per-request parse
    /// errors.
    pub fn submit(
        &self,
        request: ParseRequest,
        deadline: Instant,
    ) -> Result<GenieResult<ParseResponse>, SubmitError> {
        let (reply, response) = mpsc::sync_channel(1);
        let sender = {
            let guard = self.sender.lock().unwrap_or_else(|e| e.into_inner());
            guard.clone()
        };
        let Some(sender) = sender else {
            return Err(SubmitError::ShuttingDown);
        };
        sender
            .send(Job {
                request,
                deadline,
                reply,
            })
            .map_err(|_| SubmitError::ShuttingDown)?;
        let now = Instant::now();
        let Some(budget) = deadline
            .checked_duration_since(now)
            .filter(|b| !b.is_zero())
        else {
            return Err(SubmitError::DeadlineExceeded);
        };
        match response.recv_timeout(budget) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Timeout) => Err(SubmitError::DeadlineExceeded),
            // The dispatcher replies exactly once per accepted job, even
            // while draining; a disconnect without a reply means its batch
            // panicked — or the job was dropped as already expired, in
            // which case the deadline verdict is the truthful one.
            Err(RecvTimeoutError::Disconnected) => {
                if Instant::now() >= deadline {
                    Err(SubmitError::DeadlineExceeded)
                } else {
                    Err(SubmitError::Crashed)
                }
            }
        }
    }

    /// Close the queue, let the dispatcher drain everything queued, and
    /// join it. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut guard = self.sender.lock().unwrap_or_else(|e| e.into_inner());
            guard.take();
        }
        let dispatcher = {
            let mut guard = self.dispatcher.lock().unwrap_or_else(|e| e.into_inner());
            guard.take()
        };
        if let Some(handle) = dispatcher {
            let _ = handle.join();
        }
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(
    engine: &GenieEngine,
    receiver: &mpsc::Receiver<Job>,
    window: Duration,
    max_batch: usize,
    metrics: &Metrics,
) {
    loop {
        // Block for the batch's first request…
        let Ok(first) = receiver.recv() else {
            return; // queue closed and fully drained
        };
        let mut batch = vec![first];
        // …then take whatever is already queued, and wait for more only
        // while the window is open. A zero window never waits, but still
        // batches the jobs that queued while the engine was busy.
        let gather_deadline = Instant::now() + window;
        while batch.len() < max_batch {
            let job = match receiver.try_recv() {
                Ok(job) => job,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let budget = gather_deadline.saturating_duration_since(Instant::now());
                    if budget.is_zero() {
                        break;
                    }
                    match receiver.recv_timeout(budget) {
                        Ok(job) => job,
                        Err(_) => break,
                    }
                }
            };
            batch.push(job);
        }
        // Jobs already past their deadline get dropped here: their
        // submitters have answered 504 and gone, and the engine should not
        // burn a batch slot computing for nobody.
        let now = Instant::now();
        batch.retain(|job| job.deadline > now);
        if batch.is_empty() {
            continue;
        }
        // A panic below (e.g. the `coalescer.flush` failpoint) costs this
        // one batch — the dropped reply senders surface as typed 500s at
        // the submitters — and the dispatcher keeps serving.
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            if let Err(error) = genie_nlp::failpoint::fail_io("coalescer.flush") {
                for job in &batch {
                    let _ = job
                        .reply
                        .send(Err(genie::Error::Io(io::Error::other(error.to_string()))));
                }
                return;
            }
            metrics.record_batch(batch.len());
            let requests: Vec<ParseRequest> = batch.iter().map(|job| job.request.clone()).collect();
            let results = engine.parse_batch(&requests);
            for (job, result) in batch.iter().zip(results) {
                // A submitter that gave up (connection died) just drops its
                // receiver; failing to deliver is not an error.
                let _ = job.reply.send(result);
            }
        }))
        .is_err();
        if crashed {
            metrics
                .panics
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_nlp::failpoint::{self, FaultPlan, SiteSpec};
    use luinet::{LuinetParser, ModelConfig, ParserExample};
    use std::sync::atomic::Ordering;

    fn tiny_engine() -> GenieEngine {
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: 1,
            threads: 1,
            ..ModelConfig::default()
        });
        parser.train(&[ParserExample::from_strs("hello", "now => notify")]);
        GenieEngine::builder()
            .thingpedia(thingpedia::Thingpedia::builtin())
            .model(parser)
            .threads(1)
            .build()
            .unwrap()
    }

    /// A zero window does not wait, but it still drains: the jobs that
    /// queued while a batch was executing dispatch together as the next
    /// batch.
    #[test]
    fn a_zero_window_batches_the_jobs_queued_behind_a_busy_engine() {
        let _serialized = failpoint::registry_test_lock();
        // Hold the first batch inside its flush long enough for three more
        // jobs to queue behind it.
        let _armed = failpoint::armed(&FaultPlan::new(1).site(
            "coalescer.flush",
            SiteSpec::new().delay(1.0, 500).max_fires(1),
        ));
        let metrics = Arc::new(Metrics::default());
        let coalescer =
            Coalescer::start(tiny_engine(), Duration::ZERO, 32, metrics.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|scope| {
            let coalescer = &coalescer;
            let submit = move || {
                coalescer
                    .submit(ParseRequest::new("hello"), deadline)
                    .unwrap()
            };
            let first = scope.spawn(submit);
            while failpoint::fired("coalescer.flush") == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let queued: Vec<_> = (0..3).map(|_| scope.spawn(submit)).collect();
            drop(first.join().unwrap());
            for job in queued {
                drop(job.join().unwrap());
            }
        });
        coalescer.shutdown();
        assert_eq!(metrics.coalesce_batches.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.coalesced_requests.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.coalesce_max_batch.load(Ordering::Relaxed), 3);
    }
}
