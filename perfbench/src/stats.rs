//! Statistics helpers: medians, the tail-percentile rule, peak memory and
//! the host fingerprint every report carries.

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: which quantile was used, its value, and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (`wanted`, or lower when too few
    /// samples lie beyond `wanted`).
    pub quantile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The `wanted` quantile of `values` (nearest rank), lowered to the highest
/// quantile that still has at least [`MIN_BEYOND`] samples beyond it when
/// there are too few samples for `wanted`. Never goes below the median.
pub fn tail(values: &[f64], wanted: f64) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Rank r (1-based) leaves n - r samples beyond it.
    let wanted_rank = (wanted * n as f64).ceil() as usize;
    let rank = wanted_rank
        .min(n.saturating_sub(MIN_BEYOND))
        .max(n.div_ceil(2))
        .max(1);
    Tail {
        quantile: rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    }
}

/// Most windows a run is split into, and the fewest samples a window
/// holds (enough for a p99 with [`MIN_BEYOND`] samples beyond it).
const MAX_WINDOWS: usize = 10;
const MIN_WINDOW_SAMPLES: usize = 1000;

/// A closed loop's throughput and latency as medians over equal time
/// windows of the run, so a stall in one window (a noisy neighbour, a page
/// fault storm) does not move the reported figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    /// Median over windows of requests completed per second.
    pub rate: f64,
    /// Median over windows of the median latency.
    pub p50: f64,
    /// Median over windows of the tail latency, with the lowest quantile
    /// and the smallest sample count any window used.
    pub p99: Tail,
    /// Each window's tail latency, in time order.
    pub window_p99: Vec<f64>,
}

/// Split `(completion time, latency)` samples of a loop that ran
/// `elapsed` seconds into windows of at least [`MIN_WINDOW_SAMPLES`]
/// samples (at most [`MAX_WINDOWS`]) and take medians over them.
pub fn windowed(samples: &[(f64, f64)], elapsed: f64) -> Windowed {
    assert!(!samples.is_empty(), "a loop without samples");
    let windows = (samples.len() / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let width = elapsed / windows as f64;
    let mut latencies = vec![Vec::new(); windows];
    for &(done, latency) in samples {
        let window = ((done / width) as usize).min(windows - 1);
        latencies[window].push(latency);
    }
    let tails: Vec<Tail> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| tail(l, 0.99))
        .collect();
    let rates: Vec<f64> = latencies.iter().map(|l| l.len() as f64 / width).collect();
    let p50s: Vec<f64> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    Windowed {
        windows,
        rate: median(&rates),
        p50: median(&p50s),
        p99: Tail {
            quantile: tails.iter().map(|t| t.quantile).fold(1.0, f64::min),
            value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            samples: tails.iter().map(|t| t.samples).min().unwrap_or(0),
        },
        window_p99: tails.iter().map(|t| t.value).collect(),
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU count and build profile, printed with every report.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("cpus={cpus} profile={profile} os={}", std::env::consts::OS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so `tail` has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.quantile, t.value, t.samples), (0.99, 990.0, 1000));
        let t = tail(&ramp(5000), 0.99);
        assert_eq!((t.quantile, t.value), (0.99, 4950.0));
    }

    #[test]
    fn too_few_samples_lower_the_percentile_to_keep_ten_beyond() {
        // 200 samples: p99 would leave 2 beyond, so rank 190 (p95) is used.
        let t = tail(&ramp(200), 0.99);
        assert_eq!((t.quantile, t.value, t.samples), (0.95, 190.0, 200));
        assert_eq!(200 - 190, MIN_BEYOND);
        // Tiny samples never report below the median.
        let t = tail(&ramp(12), 0.99);
        assert_eq!((t.quantile, t.value), (0.5, 6.0));
        assert_eq!(tail(&[7.0], 0.99).value, 7.0);
    }

    #[test]
    fn windows_report_medians_so_one_stalled_window_does_not_move_them() {
        // 4000 samples over 4 s: four windows of 1000, latency 1 ms except
        // a stall of 50 ms latencies filling the last 30% of window 2.
        let samples: Vec<(f64, f64)> = (0..4000)
            .map(|i| {
                let done = i as f64 / 1000.0;
                let stalled = (2.7..3.0).contains(&done);
                (done, if stalled { 50.0 } else { 1.0 })
            })
            .collect();
        let w = windowed(&samples, 4.0);
        assert_eq!(w.windows, 4);
        assert_eq!((w.rate, w.p50, w.p99.value), (1000.0, 1.0, 1.0));
        assert_eq!((w.p99.quantile, w.p99.samples), (0.99, 1000));
        // Too few samples for two windows: one window, lowered percentile.
        let w = windowed(&samples[..500], 0.5);
        assert_eq!((w.windows, w.p99.quantile, w.p99.samples), (1, 0.98, 500));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
