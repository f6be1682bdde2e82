//! Order statistics, the process's peak memory, and the result line.

/// Nearest-rank percentile `q` in `[0, 1]` of `v` (sorted in place);
/// 0 for an empty sample.
pub fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

pub fn median(v: &mut [u64]) -> f64 {
    percentile(v, 0.5)
}

/// Sub-buckets per power of two: values are kept to within 1/1024.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Recorded values are capped at 2^36 ns (about 69 s).
const MAX_EXP: u32 = 36;

/// A log-linear latency histogram at nanosecond resolution: exact below
/// 1024 ns, within 0.1% above. Constant memory, so the benchmark's own
/// bookkeeping does not grow with throughput and move `peak_rss_mb`.
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        let v = v.min((1 << MAX_EXP) - 1);
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mantissa = v >> (e - SUB_BITS);
        ((e - SUB_BITS + 1) as u64 * SUB + mantissa - SUB) as usize
    }

    /// The smallest value that lands in bucket `i`.
    fn lower(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let e = i / SUB - 1 + SUB_BITS as u64;
        (SUB + i % SUB) << (e - SUB_BITS as u64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Nearest-rank percentile `q` in `[0, 1]`, ns; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Self::lower(i) as f64;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Named metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    /// Prints one human-readable line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}:");
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    /// The single JSON result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_within_a_thousandth() {
        for v in [0u64, 1, 1023, 1024, 1025, 12_345, 999_999, 123_456_789] {
            let lo = Hist::lower(Hist::index(v));
            assert!(lo <= v, "{v}: lower bound {lo} above the value");
            assert!(
                (v - lo) as f64 <= v as f64 / 1024.0,
                "{v}: bucket too wide ({lo})"
            );
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 50.0);
        assert_eq!(h.percentile(0.99), 99.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(Hist::default().percentile(0.5), 0.0);
    }
}
