//! Percentiles and the JSON result line.

/// Percentiles a tail may be reported at, highest first, in per mille.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` (0–100) among `n` samples, in
/// integer arithmetic so that e.g. p99.9 of 10 000 is rank 9 990 exactly.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as u64;
    ((per_mille * n as u64).div_ceil(1_000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest ladder percentile with at least ten samples beyond it at
/// `n` samples (p50 when even the median has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .map(|&per_mille| per_mille as f64 / 10.0)
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Latency samples of one kind of operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// `(p50, tail, tail percentile)`.
    pub fn summary(&self) -> (f64, f64, f64) {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len());
        (percentile(&sorted, 50.0), percentile(&sorted, tail), tail)
    }
}

/// One reported metric.
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human-readable context printed beside the value (percentile, samples).
    pub note: String,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Report(pub Vec<Metric>);

impl Report {
    /// Adds a metric without a note.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    /// Adds a metric with a note printed beside it.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Prints one line per metric, then the JSON result line last.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for m in &self.0 {
            println!("{:<40} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(3_000), 99.0);
        assert_eq!(tail_percentile(600), 95.0);
        assert_eq!(tail_percentile(120), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
