//! Metrics, percentiles, provenance and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One reported number: its value, unit and how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The subset named in `names` (in that order), or the missing name.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        names
            .iter()
            .map(|&n| {
                self.0
                    .iter()
                    .find(|m| m.name == n)
                    .cloned()
                    .ok_or_else(|| n.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Metrics)
    }

    /// A human-readable table: name, value, unit, sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {:<6} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self, with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                json_number(m.value),
                m.unit
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {}", m.samples);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1000.0 || v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite JSON number (non-finite values become 0, which no check
/// accepts as a measurement).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// A sample of measurements, sorted on demand. Values are stored as `f32`
/// so that millions of read latencies cost little memory (and little of
/// the peak RSS the benchmark reports).
#[derive(Debug, Default, Clone)]
pub struct Sample(Vec<f32>);

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.0.push(v as f32);
    }

    pub fn push_duration(&mut self, d: Duration, unit_ns: f64) {
        self.push(d.as_nanos() as f64 / unit_ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.0.iter().map(|&x| f64::from(x)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().map(|&x| f64::from(x)).sum::<f64>() / self.0.len() as f64
        }
    }
}

pub const NS_PER_US: f64 = 1e3;
pub const NS_PER_MS: f64 = 1e6;
pub const NS_PER_S: f64 = 1e9;

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and with what a result was measured.
pub fn provenance(workload: &str, seed: u64, trace: bool, shape: &str) -> String {
    let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"git_sha\": \"{}\", \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"held_out_seed\": {}, \"trace\": {trace}, \
         \"shape\": \"{}\"}}",
        escape(&git),
        escape(&cpu),
        escape(&rustc),
        crate::HELD_OUT_SEED,
        escape(shape)
    )
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
