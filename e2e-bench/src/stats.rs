//! Order statistics over a metric's repeated samples.

/// Sample count, extremes, quartiles and median of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            min: v[0],
            q1: quantile(&v, 1),
            median,
            q3: quantile(&v, 3),
            max: v[n - 1],
        })
    }

    /// Distance between the quartiles as a share of the median (0 for a
    /// zero median, where no share is defined).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile of sorted `v`, computed as Python's
/// `statistics.quantiles(v, n=4)` does by default (the "exclusive" method,
/// which extrapolates for very small samples), so a spread computed here
/// equals one computed from the same values with Python.
fn quantile(v: &[f64], i: i64) -> f64 {
    let len = v.len() as i64;
    if len == 1 {
        return v[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m - j * 4) as f64;
    let j = j as usize;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(s.q1, 1.0) && close(s.median, 2.0) && close(s.q3, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 8.0, 4.0, 2.0, 1.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 4.0) && close(s.q3, 12.0));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 16.0));
    }

    #[test]
    fn single_value_and_empty() {
        let s = Summary::of(&[4.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.5, 4.5, 4.5, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!(close(s.spread(), (8.25 - 2.75) / 5.5));
    }
}
