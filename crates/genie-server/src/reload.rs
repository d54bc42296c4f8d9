//! The background reload runner: crash-safe live reloads off the acceptor
//! threads.
//!
//! `POST /v1/admin/reload` used to run the whole rebuild (synthesis +
//! retraining) on the acceptor thread that received it, holding a
//! connection slot hostage for the full retrain duration. Reloads now run
//! on one dedicated builder thread:
//!
//! * the default reply is a `202 Accepted` the moment the job is queued;
//!   progress is observable at `GET /v1/admin/reload/status`;
//! * `{"wait": true}` keeps the old synchronous contract — the caller
//!   blocks until the swap report (or typed error) is ready — but the
//!   rebuild still happens on the builder, so the acceptor is only
//!   *waiting*, never *working*, and shutdown can drain it like any
//!   blocked request;
//! * one reload runs at a time: a second submission while one is queued or
//!   running answers [`ReloadSubmit::Busy`] (`409`) instead of piling up
//!   rebuilds;
//! * the rebuild runs under `catch_unwind`: a panic mid-reload (the
//!   `reload.retrain` failpoint injects both errors and panics in chaos
//!   runs) is recorded like any failed reload — `server_reload_failed_total`
//!   incremented, old world still serving, version untouched. Rollback is
//!   structural: [`genie::live::LiveWorld`] only swaps after a fully
//!   successful build, so there is nothing to undo;
//! * the builder marks itself idle *before* it replies to a waiting caller,
//!   so a caller that resubmits the moment its reload returns is never
//!   told the finished job is still in progress.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use genie::live::{LiveWorld, RetrainMode, SkillDelta, SwapReport};
use genie::GenieResult;

use crate::metrics::Metrics;

/// What [`ReloadRunner::submit`] decided.
pub enum ReloadSubmit {
    /// The reload was queued; the world version at acceptance time is
    /// reported so the caller can poll for `version > accepted_version`.
    Accepted {
        /// Serving world version when the job was accepted.
        accepted_version: u64,
    },
    /// `wait: true`: the reload ran to completion; here is its outcome.
    Done(Box<GenieResult<SwapReport>>),
    /// A reload is already queued or running; retry after it finishes.
    Busy,
    /// The runner has shut down.
    ShuttingDown,
}

struct ReloadJob {
    delta: SkillDelta,
    mode: RetrainMode,
    reply: Option<mpsc::SyncSender<GenieResult<SwapReport>>>,
}

/// The last completed reload, for `GET /v1/admin/reload/status`.
#[derive(Default)]
struct LastOutcome {
    report: Option<SwapReport>,
    error: Option<String>,
}

struct RunnerShared {
    live: Arc<LiveWorld>,
    metrics: Arc<Metrics>,
    /// One reload queued-or-running at a time.
    busy: AtomicBool,
    running: AtomicBool,
    accepted: AtomicU64,
    last: Mutex<LastOutcome>,
}

/// Handle to the builder thread.
pub struct ReloadRunner {
    shared: Arc<RunnerShared>,
    sender: Mutex<Option<mpsc::Sender<ReloadJob>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl ReloadRunner {
    /// Start the builder thread over `live`.
    ///
    /// # Errors
    ///
    /// The underlying thread-spawn failure, when the OS refuses a thread.
    pub fn start(live: Arc<LiveWorld>, metrics: Arc<Metrics>) -> std::io::Result<ReloadRunner> {
        let shared = Arc::new(RunnerShared {
            live,
            metrics,
            busy: AtomicBool::new(false),
            running: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            last: Mutex::new(LastOutcome::default()),
        });
        let (sender, receiver) = mpsc::channel::<ReloadJob>();
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("genie-reload".to_owned())
                .spawn(move || runner_loop(&shared, &receiver))?
        };
        Ok(ReloadRunner {
            shared,
            sender: Mutex::new(Some(sender)),
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Queue one reload. With `wait`, block until it completes and return
    /// its outcome; otherwise return as soon as it is accepted.
    pub fn submit(&self, delta: SkillDelta, mode: RetrainMode, wait: bool) -> ReloadSubmit {
        if self
            .shared
            .busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return ReloadSubmit::Busy;
        }
        let sender = {
            let guard = self.sender.lock().unwrap_or_else(|e| e.into_inner());
            guard.clone()
        };
        let Some(sender) = sender else {
            self.shared.busy.store(false, Ordering::Release);
            return ReloadSubmit::ShuttingDown;
        };
        let accepted_version = self.shared.live.engine().world_version();
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        let (reply, response) = if wait {
            let (tx, rx) = mpsc::sync_channel(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        if sender.send(ReloadJob { delta, mode, reply }).is_err() {
            self.shared.busy.store(false, Ordering::Release);
            return ReloadSubmit::ShuttingDown;
        }
        match response {
            None => ReloadSubmit::Accepted { accepted_version },
            // The worker replies exactly once per waited job, even when the
            // rebuild panics; a disconnect means shutdown raced us.
            Some(response) => match response.recv() {
                Ok(outcome) => ReloadSubmit::Done(Box::new(outcome)),
                Err(_) => ReloadSubmit::ShuttingDown,
            },
        }
    }

    /// The `GET /v1/admin/reload/status` body.
    pub fn render_status(&self) -> String {
        let state = if self.shared.running.load(Ordering::Acquire) {
            "running"
        } else if self.shared.busy.load(Ordering::Acquire) {
            "queued"
        } else {
            "idle"
        };
        let last = self.shared.last.lock().unwrap_or_else(|e| e.into_inner());
        let last_report = last
            .report
            .as_ref()
            .map_or("null".to_owned(), crate::admin::render_swap_report);
        let last_error = last
            .error
            .as_ref()
            .map_or("null".to_owned(), |error| crate::json::escape(error));
        format!(
            "{{\"state\": \"{state}\", \"accepted_total\": {}, \"world_version\": {}, \
             \"last_report\": {last_report}, \"last_error\": {last_error}}}",
            self.shared.accepted.load(Ordering::Relaxed),
            self.shared.live.engine().world_version(),
        )
    }

    /// Close the queue, let an in-progress reload finish (it either swaps
    /// or rolls back — never leaves halfway), and join the builder.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut guard = self.sender.lock().unwrap_or_else(|e| e.into_inner());
            guard.take();
        }
        let worker = {
            let mut guard = self.worker.lock().unwrap_or_else(|e| e.into_inner());
            guard.take()
        };
        if let Some(handle) = worker {
            let _ = handle.join();
        }
    }
}

impl Drop for ReloadRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn runner_loop(shared: &RunnerShared, receiver: &mpsc::Receiver<ReloadJob>) {
    while let Ok(job) = receiver.recv() {
        shared.running.store(true, Ordering::Release);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.live.reload_with(&job.delta, job.mode)
        }))
        .unwrap_or_else(|_| {
            Err(genie::Error::Io(std::io::Error::other(
                "the reload builder panicked mid-rebuild; the previous world is still serving",
            )))
        });
        match &outcome {
            Ok(report) => {
                shared.metrics.reload_ok.fetch_add(1, Ordering::Relaxed);
                let mut last = shared.last.lock().unwrap_or_else(|e| e.into_inner());
                last.report = Some(*report);
                last.error = None;
            }
            Err(error) => {
                shared.metrics.reload_failed.fetch_add(1, Ordering::Relaxed);
                let mut last = shared.last.lock().unwrap_or_else(|e| e.into_inner());
                last.error = Some(error.to_string());
            }
        }
        // Free the runner before replying: a waiting caller may submit its
        // next reload the moment it has this outcome, and must not find the
        // finished job still marked busy.
        shared.running.store(false, Ordering::Release);
        shared.busy.store(false, Ordering::Release);
        if let Some(reply) = job.reply {
            let _ = reply.send(outcome);
        }
        // `reload.reply` (delay only): holds the builder as if it were
        // descheduled right after replying, which must not matter.
        if let Some(fault) = genie_nlp::failpoint::check("reload.reply") {
            if fault.kind == genie_nlp::failpoint::FaultKind::Delay {
                std::thread::sleep(fault.delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie::paraphrase::ParaphraseConfig;
    use genie::pipeline::PipelineConfig;
    use genie_templates::GeneratorConfig;
    use luinet::ModelConfig;
    use thingpedia::Thingpedia;

    fn tiny_world() -> LiveWorld {
        let pipeline = PipelineConfig::builder()
            .synthesis(
                GeneratorConfig::builder()
                    .target_per_rule(2)
                    .instantiations_per_template(1)
                    .seed(5)
                    .threads(1)
                    .quiet(true)
                    .build()
                    .unwrap(),
            )
            .paraphrase(
                ParaphraseConfig::builder()
                    .per_sentence(1)
                    .error_rate(0.0)
                    .seed(5)
                    .build()
                    .unwrap(),
            )
            .paraphrase_sample(4)
            .parameter_expansion(false)
            .seed(5)
            .build()
            .unwrap();
        let model = ModelConfig {
            epochs: 1,
            seed: 5,
            threads: 1,
            ..ModelConfig::default()
        };
        LiveWorld::bootstrap(Thingpedia::builtin(), pipeline, model).unwrap()
    }

    /// A `wait: true` caller that resubmits the instant its reload returns
    /// must never find the runner still busy with the job it just saw
    /// finish — even when the builder is slow to come back after replying
    /// (the delayed `reload.reply` failpoint), as a descheduled builder
    /// thread is under load.
    #[test]
    fn back_to_back_waited_reloads_are_never_busy() {
        let runner =
            ReloadRunner::start(Arc::new(tiny_world()), Arc::new(Metrics::default())).unwrap();
        let _serialized = genie_nlp::failpoint::registry_test_lock();
        let _armed = genie_nlp::failpoint::armed(&genie_nlp::failpoint::FaultPlan::new(1).site(
            "reload.reply",
            genie_nlp::failpoint::SiteSpec::new().delay(1.0, 20),
        ));
        for i in 0..20 {
            // Removing a class the library lacks is a cheap no-op rebuild.
            let delta = SkillDelta::Remove {
                name: "com.test.absent".to_owned(),
            };
            match runner.submit(delta, RetrainMode::FineTune { epochs: 1 }, true) {
                ReloadSubmit::Done(outcome) => {
                    assert!(outcome.is_ok(), "reload {i} failed: {:?}", outcome.err());
                }
                ReloadSubmit::Busy => panic!("reload {i} found the runner busy"),
                ReloadSubmit::Accepted { .. } => panic!("reload {i} did not wait"),
                ReloadSubmit::ShuttingDown => panic!("reload {i} found the runner shut down"),
            }
        }
        runner.shutdown();
    }
}
