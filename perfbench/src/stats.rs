//! Drift correction, medians and the result line.

/// `R`'s nominal time in seconds. Every timed end-to-end metric is
/// reported as if `R` had taken exactly this long just before it.
pub const R_NOMINAL_S: f64 = 0.060;

/// One timed call and the reference-kernel time it is corrected by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub raw_s: f64,
    pub ref_s: f64,
}

/// One timed call as measured: its wall time and the index, in the
/// run's time-ordered list of `R` times, of the `R` run just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    pub raw_s: f64,
    pub ref_before: usize,
}

/// Pairs each call with the mean of the `R` run just before it and the
/// next `R` run after it. `R` varies from one run to the next as well
/// as drifting, so the mean of the two runs around a call tracks the
/// host's speed during the call better than either alone. A call with
/// no later `R` is dropped.
pub fn bracketed(calls: &[Call], refs: &[f64]) -> Vec<Timed> {
    calls
        .iter()
        .filter_map(|c| {
            let before = *refs.get(c.ref_before)?;
            let after = *refs.get(c.ref_before + 1)?;
            Some(Timed {
                raw_s: c.raw_s,
                ref_s: (before + after) / 2.0,
            })
        })
        .collect()
}

impl Timed {
    /// `raw × R_nominal / R`.
    pub fn corrected(self) -> f64 {
        self.raw_s * R_NOMINAL_S / self.ref_s
    }
}

/// Median; the mean of the middle two for an even count. `None` when
/// empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The timed-metric rule: median of the drift-corrected samples after
/// dropping the first `warmup`.
pub fn corrected_median(samples: &[Timed], warmup: usize) -> Option<f64> {
    median(samples.iter().skip(warmup).map(|t| t.corrected()))
}

/// Median of the raw samples after dropping the first `warmup`.
pub fn raw_median(samples: &[Timed], warmup: usize) -> Option<f64> {
    median(samples.iter().skip(warmup).map(|t| t.raw_s))
}

/// Whether `name` is a valid metric name: a leading letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The result line's metrics, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        self.0.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|m| m.0)
    }

    /// The one-line JSON result. A value that is not finite becomes
    /// `null`, which no consumer reads as a measurement.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_reference() {
        // A call that took 2 s after an R of twice nominal ran on a
        // host at half speed: it reads as 1 s.
        let slow = Timed {
            raw_s: 2.0,
            ref_s: 2.0 * R_NOMINAL_S,
        };
        assert!((slow.corrected() - 1.0).abs() < 1e-12);
        let nominal = Timed {
            raw_s: 0.3,
            ref_s: R_NOMINAL_S,
        };
        assert!((nominal.corrected() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn corrected_median_drops_warmup_and_cancels_uniform_drift() {
        // Host speed drifts from 1× to 1.5× to 0.8×; the work is the
        // same, so every corrected sample reads 0.4 s. The warm-up
        // sample is an outlier and must not count.
        let nom = R_NOMINAL_S;
        let samples = [
            Timed {
                raw_s: 9.0,
                ref_s: nom,
            },
            Timed {
                raw_s: 0.4,
                ref_s: nom,
            },
            Timed {
                raw_s: 0.6,
                ref_s: 1.5 * nom,
            },
            Timed {
                raw_s: 0.32,
                ref_s: 0.8 * nom,
            },
        ];
        let m = corrected_median(&samples, 1).unwrap();
        assert!((m - 0.4).abs() < 1e-12, "{m}");
        assert_eq!(raw_median(&samples, 1), Some(0.4));
        assert_eq!(corrected_median(&samples[..1], 1), None);
    }

    #[test]
    fn calls_are_bracketed_by_the_reference_runs_around_them() {
        // R, call, R, call, call, R: the second and third calls share
        // the bracket (R1, R2); a call after the last R has none.
        let refs = [0.04, 0.06, 0.08];
        let calls = [
            Call {
                raw_s: 1.0,
                ref_before: 0,
            },
            Call {
                raw_s: 2.0,
                ref_before: 1,
            },
            Call {
                raw_s: 3.0,
                ref_before: 1,
            },
            Call {
                raw_s: 4.0,
                ref_before: 2,
            },
        ];
        let t = bracketed(&calls, &refs);
        assert_eq!(t.len(), 3);
        assert!((t[0].ref_s - 0.05).abs() < 1e-12);
        assert!((t[1].ref_s - 0.07).abs() < 1e-12);
        assert_eq!(t[2].raw_s, 3.0);
        assert!((t[0].corrected() - 1.0 * R_NOMINAL_S / 0.05).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median([]), None);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("audit_s"));
        assert!(valid_name("wire.decode_peak_heap_mb"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a\"b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.push("audit_s", 0.25, "s");
        m.push("x", f64::NAN, "count");
        assert_eq!(
            m.to_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"audit_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}
