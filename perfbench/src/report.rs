//! Result formatting: percentiles, the run descriptor and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. A failed request is recorded as `f64::INFINITY`, so it
/// misses every latency it is ranked into.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    if low == high || sorted[high].is_infinite() {
        return sorted[high];
    }
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed calibration kernel, timed in ms: dependent random reads over a
/// 16 MB table mixed with integer and float work, so it slows down both
/// when the cores are shared and when the caches and memory are. Its
/// spread across a run shows how steady the host was; it is a diagnostic
/// in the descriptor, never a metric.
pub fn calibration_ms() -> f64 {
    const WORDS: usize = 1 << 21;
    let table: Vec<u64> =
        (0..WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = std::hint::black_box(1.0f64);
    for _ in 0..150_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = table[(x ^ (acc.to_bits() & 1)) as usize & (WORDS - 1)];
        acc = acc.mul_add(0.999_999, (word >> 40) as f64 * 1e-12);
    }
    std::hint::black_box((x, acc));
    started.elapsed().as_secs_f64() * 1000.0
}

/// Minimal JSON string escaping (the strings are ours: names, versions).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (a failed request's latency) become
/// `null`, and a run that holds one is not correct.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The run descriptor: one JSON object of string and number fields.
#[derive(Default)]
pub struct Descriptor {
    fields: Vec<(String, String)>,
}

impl Descriptor {
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_string(), json_str(value)));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), json_num(value)));
        self
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        self.fields.push((key.to_string(), format!("[{}]", items.join(", "))));
        self
    }

    pub fn extend(&mut self, other: Descriptor) {
        self.fields.extend(other.fields);
    }

    pub fn render(&self) -> String {
        let items: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{\"descriptor\": {{{}}}}}", items.join(", "))
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}
