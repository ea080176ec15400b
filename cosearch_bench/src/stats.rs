//! Summary statistics and front-quality measures.
//!
//! Timings are reported as a median plus the highest percentile that
//! still leaves at least [`MIN_BEYOND`] samples beyond it; front quality
//! is the hypervolume inside a fixed reference box, so values compare
//! across runs and seeds.

use std::time::Duration;

use unico_surrogate::hypervolume::hypervolume;

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the two middle values for an even
/// count); `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Pause between two samples of [`sample_means`].
pub const SAMPLE_GAP: Duration = Duration::from_millis(100);

/// Times a short operation: `samples` samples, each the mean of
/// `per_sample` timings returned by `time_one`, [`SAMPLE_GAP`] apart.
/// One operation takes microseconds and a host busy spell lasts longer,
/// so averaging many into a sample and spacing the samples keeps one
/// spell from setting the median of them.
///
/// # Errors
///
/// The first error `time_one` returns.
pub fn sample_means<E>(
    samples: usize,
    per_sample: usize,
    mut time_one: impl FnMut() -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut means = Vec::with_capacity(samples);
    for k in 0..samples {
        if k > 0 {
            std::thread::sleep(SAMPLE_GAP);
        }
        let mut sum = 0.0;
        for _ in 0..per_sample {
            sum += time_one()?;
        }
        means.push(sum / per_sample.max(1) as f64);
    }
    Ok(means)
}

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`); `0.0` for
/// an empty sample.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    s[rank(s.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest whole percentile in `50..=99` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The `p`th percentile if the sample is large enough for it under the
/// ten-beyond rule, else `None`.
pub fn checked_percentile(values: &[f64], p: u32) -> Option<f64> {
    (samples_beyond(values.len(), p) >= MIN_BEYOND).then(|| percentile(values, p))
}

fn rank(n: usize, p: u32) -> usize {
    // ceil(p·n / 100) in integers, clamped to a valid 1-based rank.
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A fixed `(latency s, power mW, area mm²)` box that normalises a front
/// independently of the run that produced it: `lo` maps to 0 (the
/// utopia corner) and `hi` to 1 (the hypervolume reference point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefBox {
    /// Utopia corner.
    pub lo: [f64; 3],
    /// Reference (nadir) corner.
    pub hi: [f64; 3],
}

impl RefBox {
    /// Maps an objective vector into box coordinates (unclamped: points
    /// outside the box land outside `[0, 1]³`).
    pub fn normalize(&self, y: &[f64]) -> [f64; 3] {
        std::array::from_fn(|j| (y[j] - self.lo[j]) / (self.hi[j] - self.lo[j]))
    }

    /// Hypervolume of `front` inside the box, in `[0, 1]`. Points beyond
    /// the reference corner contribute nothing; points below the utopia
    /// corner are clamped onto it.
    pub fn hypervolume(&self, front: &[Vec<f64>]) -> f64 {
        let pts: Vec<Vec<f64>> = front
            .iter()
            .map(|y| self.normalize(y).iter().map(|v| v.max(0.0)).collect())
            .collect();
        hypervolume(&pts, &[1.0, 1.0, 1.0])
    }

    /// The front point nearest the utopia corner in box coordinates.
    pub fn knee<'a>(&self, front: &'a [Vec<f64>]) -> Option<&'a [f64]> {
        front
            .iter()
            .map(|y| {
                let d: f64 = self.normalize(y).iter().map(|v| v * v).sum();
                (d, y)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, y)| y.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sample_means_average_each_sample() {
        let mut t = 0.0;
        let means = sample_means(2, 3, || -> Result<f64, ()> {
            t += 1.0;
            Ok(t)
        });
        assert_eq!(means, Ok(vec![2.0, 5.0]));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
    }
}
