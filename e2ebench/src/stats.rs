//! Order statistics for timing samples.

/// Median of `v` (NaN-free); 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least ten samples beyond it, with that percentile and the sample
/// count. With ten or fewer samples no such percentile exists and the
/// maximum is reported, flagged by a percentile of 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    if n <= 10 {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// The `q` quantile of `v` (nearest rank, `q` in [0, 1]); 0 for an empty
/// slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = (q.clamp(0.0, 1.0) * (s.len() - 1) as f64).round() as usize;
    s[rank]
}

pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&[3.0, 1.0]).value, 3.0);
    }
}
