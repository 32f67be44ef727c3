//! Exact order statistics over raw samples, and the result line.
//!
//! Every percentile here is computed from the raw per-request samples
//! (nearest rank), never from the server's log₂ histograms. A failed
//! request is kept in its distribution as `f64::INFINITY`, so it counts
//! as missing every latency percentile instead of vanishing from the
//! sample set. Samples are kept as `f32` (4 bytes each, exact to well
//! under a microsecond below 16 s) so that the load generator's memory,
//! which counts towards `peak_rss_mb`, grows as little as possible with
//! throughput.

use std::fmt::Write as _;

/// Raw latency samples of one kind of operation, failures included.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f32>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v as f32);
    }

    /// Records a failed operation: it misses every latency percentile.
    pub fn push_failed(&mut self) {
        self.values.push(f32::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    fn sorted(&self) -> Vec<f32> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
        v
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when the
    /// sample cannot support it: fewer than ten samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = (q * n as f64).ceil() as usize;
        if n == 0 || rank == 0 || n - rank < 10 && q > 0.5 {
            return None;
        }
        Some(self.sorted()[rank - 1] as f64)
    }

    /// The median (`None` on an empty sample).
    pub fn p50(&self) -> Option<f64> {
        let n = self.values.len();
        (n > 0).then(|| self.sorted()[n.div_ceil(2) - 1] as f64)
    }

    /// `"p50 … p99 … (n samples)"`, printing the p99 only where at least
    /// ten samples lie beyond it and otherwise the highest percentile
    /// that has.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.len();
        let mut s = match self.p50() {
            Some(p50) => format!("p50 {} {unit}", fmt_value(p50)),
            None => return "no samples".to_string(),
        };
        match self.tail() {
            Some((99, v)) => {
                let _ = write!(s, ", p99 {} {unit}", fmt_value(v));
            }
            Some((q, v)) => {
                let _ = write!(s, ", p{q} {} {unit} (p99 unsupported)", fmt_value(v));
            }
            None => {}
        }
        let _ = write!(s, " ({n} samples)");
        s
    }

    /// The highest whole percentile up to p99 with at least ten samples
    /// beyond it, and its value.
    pub fn tail(&self) -> Option<(u32, f64)> {
        (51..=99).rev().find_map(|q| self.quantile(q as f64 / 100.0).map(|v| (q, v)))
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        "failed".to_string()
    } else {
        format!("{v:.1}")
    }
}

/// Median of a slice (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v[v.len().div_ceil(2) - 1]
}

/// `num / den`, or `0` when nothing was counted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics, printed by name with their unit.
#[derive(Default)]
pub struct Metrics {
    pub items: Vec<Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push(Metric { name: name.into(), value, unit });
    }

    /// One `name = value unit` line per metric.
    pub fn print_lines(&self) {
        for m in &self.items {
            println!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }

    /// The final JSON result line.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite by construction");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 1..=999 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.99), None, "999 samples leave only 9 beyond the p99");
        s.push(1000.0);
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.p50(), Some(500.0));
    }

    #[test]
    fn failures_miss_every_percentile() {
        let mut s = Samples::default();
        for _ in 0..2000 {
            s.push(1.0);
        }
        for _ in 0..30 {
            s.push_failed();
        }
        assert_eq!(s.quantile(0.99), Some(f64::INFINITY));
        assert_eq!(s.p50(), Some(1.0));
    }
}
