//! Sample statistics, metric output, the host calibration loop and the
//! seeded input generator shared by every workload.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timings or rates collected over equal units of one run (windows, jobs,
/// rounds).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample {v}");
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The highest percentile that still has ten samples beyond it, as
    /// `(percentile, value)` — only for at least forty samples, below which
    /// it would be no tail.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        if n < 40 {
            return None;
        }
        let pct = (n - 10) as f64 / n as f64 * 100.0;
        Some((pct, v[n - 11]))
    }
}

/// Which way a per-sample tail is worse: the upper tail of a latency, the
/// lower tail of a rate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tail {
    High,
    Low,
    None,
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    tail: Option<(f64, f64)>,
}

/// The metrics of one run, printed as human-readable lines and as the
/// final JSON object.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric taken as the median of `s`; its tail percentile
    /// is printed (not reported) when there are enough samples.
    pub fn median(&mut self, name: &'static str, unit: &'static str, s: &Samples, tail: Tail) {
        let t = match tail {
            Tail::High => s.tail(),
            Tail::Low => {
                // The low tail of a rate is the high tail of its negation.
                let neg = Samples(s.0.iter().map(|v| -v).collect());
                neg.tail().map(|(p, v)| (100.0 - p, -v))
            }
            Tail::None => None,
        };
        self.metrics.push(Metric {
            name,
            unit,
            value: s.median(),
            samples: s.len(),
            tail: t,
        });
    }

    /// Records a single measured value or an exact count.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: 1,
            tail: None,
        });
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints every metric as a human-readable line, then the result
    /// object as the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            let mut line = format!(
                "metric {:<28} {:>16.6} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if let Some((pct, v)) = m.tail {
                let _ = write!(line, "  p{pct:.1}={v:.6}");
            }
            println!("{line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A fixed reference computation timed in every run: it moves only when
/// the host does, which separates host drift from a change to the
/// program. Returns five timings in milliseconds.
pub fn host_calib_ms() -> Samples {
    let mut s = Samples::default();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for i in 0..4_000_000u64 {
            x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
        }
        black_box(x);
        s.push_ms(t.elapsed());
    }
    s
}

/// Prints the calibration line every run carries (the steadiness script
/// reads it from there).
pub fn print_calib(calib: &Samples) {
    println!("calib host.calib_ms {:?}", calib.median());
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of input variation, seeded
/// from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7e5a_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to 1 mK so thresholds print exactly.
    pub fn kelvin(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1000.0) as u64;
        lo + self.range(0, steps.saturating_sub(1)) as f64 / 1000.0
    }
}
