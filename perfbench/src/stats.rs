//! The benchmark's own arithmetic: percentiles, open-loop latency and
//! goodput. Kept free of any library type so the unit tests below pin
//! the definitions the README states.

use std::time::Duration;

/// Samples a percentile must have strictly beyond it before it is
/// reported: p50 needs 20 samples, p90 needs 100, p95 needs 200.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Smallest sample count at which percentile `q` (in `(0, 1)`) has at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (MIN_TAIL_SAMPLES as f64 / (1.0 - q)).round() as usize
}

/// Percentile `q` of `samples` by linear interpolation between closest
/// ranks (the `numpy` default), or `None` when fewer than
/// [`min_samples_for`]`(q)` samples back it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < min_samples_for(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(&sorted, q))
}

/// Median of any non-empty sample set (no tail requirement: a median of
/// per-run or per-pass values is a summary, not a tail latency).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    interpolate(&sorted, 0.5)
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Latency of one open-loop request, counted from when it was *due*:
/// the generator's lateness in sending it (`sent - due`) plus the time
/// the server reports it queued and ran. A generator stall therefore
/// shows up in every request it delayed, not only the first.
pub fn open_loop_latency(
    due: Duration,
    sent: Duration,
    queue_wait: Duration,
    service: Duration,
) -> Duration {
    sent.saturating_sub(due) + queue_wait + service
}

/// How one open-loop request ended, as goodput sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    /// Completed; latency from its due time.
    Completed(Duration),
    /// Refused at admission (queue full or shed), cancelled on its
    /// deadline, or failed: a miss whatever its timing.
    Refused,
}

/// Requests completed within `limit` per second of a step lasting
/// `step`. Refused requests are misses.
pub fn goodput(outcomes: &[Served], limit: Duration, step: Duration) -> f64 {
    let good = outcomes
        .iter()
        .filter(|o| matches!(o, Served::Completed(lat) if *lat <= limit))
        .count();
    good as f64 / step.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.95), 200);
        let samples: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(
            percentile(&samples, 0.95).is_none(),
            "199 samples back no p95"
        );
        assert!(percentile(&samples, 0.9).is_some());
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(percentile(&samples, 0.95).is_some());
        assert!(percentile(&samples[..19], 0.5).is_none());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&samples, 0.9).expect("100 samples back p90");
        assert!((p90 - 90.1).abs() < 1e-9, "p90 = {p90}");
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_includes_generator_lateness() {
        // Due at 100 ms, sent at 130 ms: the 30 ms stall counts.
        let lat = open_loop_latency(ms(100), ms(130), ms(5), ms(10));
        assert_eq!(lat, ms(45));
        // Sent on time: queue wait plus service only.
        assert_eq!(open_loop_latency(ms(100), ms(100), ms(5), ms(10)), ms(15));
    }

    #[test]
    fn goodput_counts_refusals_as_misses() {
        let outcomes = [
            Served::Completed(ms(10)),
            Served::Completed(ms(50)),
            Served::Completed(ms(51)),
            Served::Refused,
            Served::Refused,
        ];
        // Two of five within 50 ms over a 2 s step.
        assert_eq!(goodput(&outcomes, ms(50), Duration::from_secs(2)), 1.0);
        assert_eq!(goodput(&[Served::Refused; 8], ms(50), ms(1000)), 0.0);
    }
}
