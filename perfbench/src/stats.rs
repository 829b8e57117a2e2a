//! Summary statistics the benchmark reports. Kept here rather than
//! borrowed from the program, so a change to the program cannot change
//! how the benchmark reads it.

/// Samples that must lie above a tail percentile before it is reported:
/// with fewer, the value is set by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, reported only
/// when at least [`MIN_BEYOND`] samples lie above it.
#[must_use]
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Smallest sample count at which [`tail`] reports percentile `q`.
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| tail(&vec![0.0; n], q).is_some())
        .expect("some count suffices")
}

/// Geometric mean of positive `values`; 0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Ops per second through one pass over a workload's inputs, each taking
/// its median time: a throughput that slow stretches of a run move no
/// more than they move the medians.
#[must_use]
pub fn pass_rate(medians_ms: &[f64]) -> f64 {
    medians_ms.len() as f64 / (medians_ms.iter().sum::<f64>() / 1e3)
}

/// Per-request time outside the server: what the client saw minus what
/// the server stamped on its response (the wire plus the client).
#[must_use]
pub fn gaps(client_ms: &[f64], server_ms: &[f64]) -> Vec<f64> {
    assert_eq!(
        client_ms.len(),
        server_ms.len(),
        "one server time per request"
    );
    client_ms
        .iter()
        .zip(server_ms)
        .map(|(c, s)| c - s)
        .collect()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        assert_eq!(tail(&hundred[..99], 0.9), None);
        assert_eq!(tail(&hundred, 0.99), None);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty, 0.75), Some(30.0));
        assert_eq!(tail(&forty[..39], 0.75), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=100).map(f64::from).collect();
        shuffled.reverse();
        shuffled.swap(3, 71);
        assert_eq!(tail(&shuffled, 0.9), Some(90.0));
    }

    #[test]
    fn min_samples_matches_the_tail_rule() {
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.75), 40);
        assert_eq!(min_samples_for(0.5), 20);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn pass_rate_counts_inputs_per_second() {
        assert!((pass_rate(&[250.0, 750.0]) - 2.0).abs() < 1e-12);
        assert!((pass_rate(&[200.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gap_is_client_minus_server() {
        let gap = gaps(&[44.0, 1.5, 40.25], &[0.5, 1.0, 0.25]);
        assert_eq!(gap, vec![43.5, 0.5, 40.0]);
    }

    #[test]
    #[should_panic(expected = "one server time per request")]
    fn gap_rejects_unpaired_samples() {
        let _ = gaps(&[1.0, 2.0], &[1.0]);
    }
}
