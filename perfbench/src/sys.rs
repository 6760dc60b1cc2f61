//! Process and host readings, `/metrics` parsing, and order statistics.

use std::collections::BTreeMap;
use std::process::Command;

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat` (clock ticks at the Linux ABI's fixed 100 Hz).
pub fn cpu_ms() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and so every thread it spawns from now
/// on, to the first CPU it is allowed to run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A 1024-CPU mask, the size glibc's `cpu_set_t` uses.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live buffer of `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, for a read-only buffer.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Cores, CPU model, rustc and git commit of this run.
pub fn host_fingerprint() -> BTreeMap<&'static str, String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    // Online CPUs of the host, not the ones this process may use.
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let mut m = BTreeMap::new();
    m.insert("cores", cores.to_string());
    m.insert("cpu_model", model);
    m.insert("rustc", command_line("rustc", &["--version"]));
    m.insert("git_commit", command_line("git", &["rev-parse", "HEAD"]));
    m
}

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples of one quantity over a window (e.g. latencies in ms).
#[derive(Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// `(p50, p99)` over every sample; zeros when empty.
    pub fn p50_p99(&self) -> (f64, f64) {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.50), quantile(&v, 0.99))
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A scrape of the Prometheus text exposition, summed over label sets:
/// counters by family name, histograms by `<name>_sum` / `<name>_count`.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut m = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            // Bucket lines may carry an exemplar trailer; only the sample
            // itself is wanted.
            let sample = line.split(" # ").next().unwrap_or(line);
            let Some((series, value)) = sample.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            if name.ends_with("_bucket") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                *m.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
        Scrape(m)
    }

    /// `self − before` for one family (0 when absent).
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0) - before.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_series_and_skips_buckets() {
        let text = "# HELP x h\n# TYPE x counter\nx{rule=\"a\"} 3\nx{rule=\"b\"} 4\n\
                    h_bucket{le=\"1\"} 2 # {job_id=\"1\"} 0.5\nh_sum 0.25\nh_count 2\n";
        let s = Scrape::parse(text);
        let z = Scrape::default();
        assert_eq!(s.delta(&z, "x"), 7.0);
        assert_eq!(s.delta(&z, "h_sum"), 0.25);
        assert_eq!(s.delta(&z, "h_count"), 2.0);
        assert_eq!(s.delta(&z, "h_bucket"), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let mut s = Samples::default();
        (1..=200).rev().for_each(|i| s.push(f64::from(i)));
        assert_eq!(s.count(), 200);
        assert_eq!(s.p50_p99(), (100.0, 198.0));
        assert_eq!(s.mean(), 100.5);
    }
}
