//! The benchmark's own arithmetic: medians, percentile ranks, block
//! rates, and step-time breakdowns that sum to their total.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the samples at or below it (rank `ceil(p/100 * n)`, at least 1).
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Groups consecutive `(work, seconds)` samples into blocks of at least
/// `min_secs` each, so that a rate is taken over a stretch long enough to
/// hide timer and scheduling noise.
#[derive(Debug)]
pub struct Blocks {
    min_secs: f64,
    open: (f64, f64),
    closed: Vec<(f64, f64)>,
}

impl Blocks {
    pub fn new(min_secs: f64) -> Self {
        Blocks {
            min_secs,
            open: (0.0, 0.0),
            closed: Vec::new(),
        }
    }

    pub fn add(&mut self, work: f64, secs: f64) {
        self.open.0 += work;
        self.open.1 += secs;
        if self.open.1 >= self.min_secs {
            self.closed.push(std::mem::take(&mut self.open));
        }
    }

    /// The median over blocks of work per second. A trailing block shorter
    /// than `min_secs` is left out unless no block closed.
    ///
    /// # Panics
    ///
    /// Panics when no work was added.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates())
    }

    /// The median over blocks of seconds per unit of work.
    pub fn median_secs_per_unit(&self) -> f64 {
        let per: Vec<f64> = self.rates().iter().map(|r| 1.0 / r).collect();
        median(&per)
    }

    fn rates(&self) -> Vec<f64> {
        let blocks: Vec<(f64, f64)> = if self.closed.is_empty() {
            vec![self.open]
        } else {
            self.closed.clone()
        };
        assert!(
            blocks.iter().all(|&(w, s)| w > 0.0 && s > 0.0),
            "empty block"
        );
        blocks.iter().map(|&(w, s)| w / s).collect()
    }
}

/// A total split into named parts plus the remainder no part covers, so
/// that the printed lines always sum to the total.
#[derive(Debug)]
pub struct Breakdown {
    pub total: f64,
    pub parts: Vec<(&'static str, f64)>,
    pub unattributed: f64,
}

impl Breakdown {
    pub fn new(total: f64, parts: Vec<(&'static str, f64)>) -> Self {
        let covered: f64 = parts.iter().map(|(_, v)| v).sum();
        Breakdown {
            total,
            parts,
            unattributed: total - covered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0); // ceil(5.0) = rank 5
        assert_eq!(percentile(&v, 99.0), 10.0); // ceil(9.9) = rank 10
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 11.0), 2.0); // ceil(1.1) = rank 2
        assert_eq!(percentile(&v, 100.0), 10.0);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 198.0); // rank 198
        assert_eq!(percentile(&w, 95.0), 190.0);
    }

    #[test]
    fn blocks_close_at_the_minimum_length_and_take_medians() {
        let mut b = Blocks::new(1.0);
        // Block 1: 10 + 10 units in 0.5 + 0.5 s = 20/s.
        b.add(10.0, 0.5);
        b.add(10.0, 0.5);
        // Block 2: 30 units in 1.5 s = 20/s. Block 3: 60 units in 1.0 s.
        b.add(30.0, 1.5);
        b.add(60.0, 1.0);
        // An unclosed tail of 1000 units in 0.1 s is left out.
        b.add(1000.0, 0.1);
        // Rates 20, 20, 60: median 20; seconds per unit 0.05, 0.05, 1/60.
        assert_eq!(b.median_rate(), 20.0);
        assert_eq!(b.median_secs_per_unit(), 0.05);
    }

    #[test]
    fn blocks_fall_back_to_the_open_block() {
        let mut b = Blocks::new(10.0);
        b.add(8.0, 2.0);
        assert_eq!(b.median_rate(), 4.0);
    }

    #[test]
    fn breakdown_sums_to_total_with_remainder() {
        let b = Breakdown::new(100.0, vec![("decide", 5.0), ("env", 2.5), ("update", 90.0)]);
        assert_eq!(b.unattributed, 2.5);
        let sum: f64 = b.parts.iter().map(|(_, v)| v).sum::<f64>() + b.unattributed;
        assert_eq!(sum, b.total);
        // Parts that overrun the total leave a negative remainder, shown
        // as such rather than clamped.
        let over = Breakdown::new(10.0, vec![("a", 6.0), ("b", 6.0)]);
        assert_eq!(over.unattributed, -2.0);
    }
}
