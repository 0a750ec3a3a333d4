//! Metric names, sample summaries and the result line.

/// A metric or span name: starts with a letter or digit, then at most 63
/// more of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Median of the samples (mean of the middle pair for an even count).
/// `None` when there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 100]`) of the samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// Percentiles the summaries consider, highest first.
const PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A sample set's median and the highest percentile that has at least ten
/// samples beyond it, each with the sample count it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(q, value)`, or `None` when fewer than eleven samples exist.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let n = samples.len();
        let tail = PERCENTILES.iter().find_map(|&q| {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            (n >= rank + 10).then(|| (q, percentile(samples, q).expect("non-empty")))
        });
        Some(Summary {
            n,
            median: median(samples)?,
            tail,
        })
    }

    /// `median 1.25 (n=7)` plus `, p90 1.4 (n=120)` when a tail exists.
    #[must_use]
    pub fn render(&self, unit: &str) -> String {
        let mut s = format!("median {:.6} {unit} (n={})", self.median, self.n);
        if let Some((q, v)) = self.tail {
            s.push_str(&format!(", p{q} {v:.6} {unit} (n={})", self.n));
        }
        s
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The last line of a run: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
///
/// # Errors
/// A metric with an invalid name or unit, a repeated name, or a value
/// that is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!("invalid metric {:?} [{}]", m.name, m.unit));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {:?} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {:?} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A finite `f64` as a JSON number with every significant digit (Rust's
/// shortest round-trip form, which never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "wall_s",
            "nn.eval.gmac_per_s",
            "bench.trace-overhead",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "wall s",
            "a/b",
            "é",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("Mbit/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit("°C"));
    }

    #[test]
    fn median_and_percentile_with_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&hundred, 0.0), None);

        // 100 samples: p90 leaves exactly 10 beyond it; p95 only 5.
        let s = Summary::of(&hundred).expect("samples");
        assert_eq!((s.n, s.median, s.tail), (100, 50.5, Some((90.0, 90.0))));
        assert!(s.render("s").contains("p90 90.000000 s (n=100)"));
        // 20 samples: only the median has ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            Summary::of(&twenty).expect("samples").tail,
            Some((50.0, 10.0))
        );
        // Too few for any tail; the count is still printed.
        let few = Summary::of(&[2.0, 1.0]).expect("samples");
        assert_eq!(few.tail, None);
        assert_eq!(few.render("ms"), "median 1.500000 ms (n=2)");
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn result_line_is_validated_json() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("wall_s", "s", 1.25),
                Metric::new("peak_rss_mb", "MiB", 3.0),
            ],
        )
        .expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 3.0, \"unit\": \"MiB\"}}}"
        );
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", "s", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).is_err());
        let twice = [Metric::new("x", "s", 1.0), Metric::new("x", "s", 2.0)];
        assert!(result_line(true, 1, 0, &twice).is_err());
    }
}
