//! Order statistics and the JSON lines the benchmark prints.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile that still has ten samples above it, as
/// `(percentile, value)`; `None` while that would not lie above the median.
pub fn high_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 21 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// `median`, plus the high percentile when the sample count supports
/// one, as a human-readable summary.
pub fn describe(values: &[f64]) -> String {
    let hi = match high_percentile(values) {
        Some((q, v)) => format!(", p{q:.1} {v:.6}"),
        None => String::from(", no percentile above the median (< 21 samples)"),
    };
    format!("median {:.6} over n={}{hi}", median(values), values.len())
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with every digit of `v` (shortest round-trip form).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN or infinity; the caller marks the run incorrect.
        "0.0".to_string()
    }
}

/// The result object: the benchmark's last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(m.name),
                number(m.value),
                escape(m.unit)
            )
        })
        .collect();
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_above() {
        assert_eq!(high_percentile(&[1.0; 20]), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (q, value) = high_percentile(&v).unwrap();
        assert_eq!(value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((q - 90.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("run_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let bad = result_line(true, 1, 0, &[metric("x", "s", f64::NAN)]);
        assert!(bad.starts_with("{\"correct\": false"));
    }

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
