//! End-to-end and per-layer benchmark of the `genie-server` parser service.
//!
//! ```text
//! perfbench --workload <cold_batch|hot_single|skill_reload> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process serves a live world over loopback and drives it with
//! closed-loop clients (see `README.md` for the workloads and metrics).
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
//! an in-process traced replay of the same inputs.

mod client;
mod layers;
mod stats;
mod trace;
mod workload;
mod world;

use std::path::Path;
use std::process::ExitCode;

use stats::{median, peak_rss_mb};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Render `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <cold_batch|hot_single|skill_reload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    println!(
        "perfbench: workload={name} seed={} seconds={} trace={} host: {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::host_fingerprint()
    );

    let (setup, phases) = workload::set_up_repeatedly(args.workload, args.seed, args.seconds);
    let outcome = workload::run(&setup, args.seconds);

    let latency = &outcome.latency;
    println!(
        "perfbench: {} requests in {:.3}s over {} windows; per window (medians): \
         {:.1} utterances/s, p50 {:.3} ms, p99 {:.3} ms (the p{:.2} of at least {} samples, \
         {} or more beyond it)",
        outcome.parse.samples.len(),
        outcome.parse.elapsed_s,
        latency.windows,
        outcome.parse_rps,
        latency.p50,
        latency.p99.value,
        latency.p99.quantile * 100.0,
        latency.p99.samples,
        stats::MIN_BEYOND,
    );
    let windows: Vec<String> = latency
        .window_p99
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect();
    println!("perfbench: p99 per window (ms): {}", windows.join(" "));
    println!(
        "perfbench: {} timed reloads (median {:.3}s, {} status polls found the runner busy); \
         cache hit ratio {:.4}; final weights_digest {:#018x}",
        outcome.reload_s.len(),
        median(&outcome.reload_s),
        outcome.reload_busy_polls,
        outcome.cache_hit_ratio,
        outcome.final_digest,
    );
    let setup_rounds: Vec<String> = phases.iter().map(|p| format!("{:.3}", p.total())).collect();
    println!("perfbench: set-up rounds {} s", setup_rounds.join(", "));

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let trace_path = out.join(format!("trace-{name}-seed{}.tsv", args.seed));
        let metrics = layers::measure(&setup, &outcome, &phases, &trace_path);
        println!("perfbench: spans written to {}", trace_path.display());
        metrics
    } else {
        vec![
            ("setup_s", workload::setup_s(&phases), "s"),
            ("parse_rps", outcome.parse_rps, "utt/s"),
            ("parse_p50_ms", latency.p50, "ms"),
            ("parse_p99_ms", latency.p99.value, "ms"),
            ("exact_match", outcome.exact_match, "ratio"),
            ("answered_ratio", outcome.answered_ratio, "ratio"),
            ("reload_s", median(&outcome.reload_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    // Stop the server and remove the run's state before reporting.
    drop(setup);

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
