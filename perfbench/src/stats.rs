//! Metric values, their names, and the percentile every timing goes through.

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, the tail is too thin to tell a change from noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at quantile `q` (`0 < q ≤ 1`): the
/// smallest sample with at least `q · n` samples at or below it. Returns
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank, when
/// `q` is outside `(0, 1]`, or when a sample is not finite.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) || samples.iter().any(|s| !s.is_finite()) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median, for the few set-up repeats of one run — too few samples
/// for [`percentile`], and not a latency tail.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
    if sorted.is_empty() || sorted.len() != samples.len() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered list of metrics; `push` rejects an invalid or repeated name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    pub list: Vec<Metric>,
    /// Percentiles left out because too few samples lay beyond them.
    pub refused: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(
            self.get(&name).is_none(),
            "metric {name:?} is recorded twice"
        );
        self.list.push(Metric { name, unit, value });
    }

    /// Pushes a percentile of `samples`, or notes its refusal.
    pub fn push_percentile(&mut self, name: &str, unit: &'static str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Some(value) => self.push(name, unit, value),
            None => self.refused.push(format!(
                "{name}: {} samples cannot support it ({MIN_BEYOND} must lie beyond)",
                samples.len()
            )),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A timing percentile that must exist: the workloads are sized so that
/// every reported percentile has enough samples beyond it, so a refusal
/// here means the run was too short to measure and is reported as such.
pub fn required_percentile(what: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support p{} (needs {MIN_BEYOND} beyond it)",
            samples.len(),
            q * 100.0
        )
    })
}

/// Ratio with an explicit value for an empty base (a layer the workload
/// never exercised reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Order-sensitive fingerprint of an output's exact bit pattern, so outputs
/// can be checked against the oracle after the timed region without keeping
/// them in memory. Four independent lanes keep it near memory speed.
pub fn fingerprint(values: &[f32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [1u64, 2, 3, 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(K);
        }
    }
    for v in tail {
        lanes[0] = (lanes[0] ^ u64::from(v.to_bits())).wrapping_mul(K);
    }
    lanes.iter().fold(values.len() as u64, |h, l| {
        (h ^ l).wrapping_mul(K).rotate_left(29)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_the_ranked_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.01), Some(1.0));
        // Rank 90 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.901), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        // The median of 19 samples has only 9 beyond it.
        assert_eq!(percentile(&samples, 0.5), None);
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(9.0));
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(989.0));
        assert_eq!(percentile(&samples, 0.995), None);
        assert!(required_percentile("x", &samples[..500], 0.99).is_err());
    }

    #[test]
    fn percentile_rejects_bad_input() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), None);
        assert_eq!(percentile(&samples, 1.5), None);
        assert_eq!(percentile(&samples, f64::NAN), None);
        assert_eq!(percentile(&[], 0.5), None);
        let mut with_nan = samples.clone();
        with_nan[3] = f64::NAN;
        assert_eq!(percentile(&with_nan, 0.5), None);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in [
            "setup_s",
            "models.engine.serve_conv_ms.stem.7x7",
            "kernels.cache.hit_ratio",
            "7x7-conv",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".leading_dot",
            "_leading_underscore",
            "space here",
            "slash/name",
            "quote\"",
            "ünicode",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_name_is_used_once() {
        let mut m = Metrics::default();
        m.push("latency_ms_p50", "ms", 1.0);
        m.push("latency_ms_p50", "ms", 2.0);
    }

    #[test]
    fn fingerprint_sees_every_bit_and_position() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let mut b = a;
        b[4] = f32::from_bits(b[4].to_bits() ^ 1);
        let mut c = a;
        c.swap(0, 1);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a[..4]), fingerprint(&a));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }
}
