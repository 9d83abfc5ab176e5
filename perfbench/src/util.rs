//! Order statistics, peak memory, and the result line.

use std::fmt::Write as _;

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `0..=1`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Pin glibc's mmap threshold at its default (128 KiB).  Setting it turns
/// off glibc's dynamic threshold, which otherwise rises to the size of the
/// largest block freed so far: after the first multi-MB engine arena is
/// freed, later arenas land on the heap, where freed space is kept and
/// reused in an order that depends on thread timing.  Peak resident
/// memory then varied by 20-40% between runs of the same code; pinned, it
/// follows the memory the program actually holds.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts allocator tuning; it is called once,
        // before this process starts any other thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Completions per second in each whole `window` of `[start, end)`, where
/// `done` holds the completion times; the median of these rates resists a
/// burst of outside load in part of a run.
pub fn window_rates(
    done: &[std::time::Instant],
    start: std::time::Instant,
    end: std::time::Instant,
    window: f64,
) -> Vec<f64> {
    let windows = (end.duration_since(start).as_secs_f64() / window).floor() as usize;
    let mut counts = vec![0u64; windows];
    for t in done {
        let at = (t.duration_since(start).as_secs_f64() / window) as usize;
        if at < windows {
            counts[at] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window).collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured and whether its checks held.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and how many of them failed (wrong answer,
    /// error response or rejection).
    pub attempted: u64,
    pub failed: u64,
    /// Failed cross-checks (not operations): any entry makes the run
    /// incorrect.
    pub violations: Vec<String>,
    /// Messages of failed operations (the first few are printed).
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Record a broken check (once per distinct message).
    pub fn violate(&mut self, what: String) {
        if !self.violations.contains(&what) {
            self.violations.push(what);
        }
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violate(what());
        }
    }

    /// Human-readable lines, then the one-line JSON result (last line of
    /// standard output).
    pub fn print(&self, workload: &str) {
        for f in self.failures.iter().take(5) {
            println!("failed operation: {f}");
        }
        for v in &self.violations {
            println!("check violated: {v}");
        }
        println!("workload {workload}: attempted {} failed {}", self.attempted, self.failed);
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        let mut json = String::new();
        let correct = self.violations.is_empty() && self.metrics.iter().all(|m| m.1.is_finite());
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
