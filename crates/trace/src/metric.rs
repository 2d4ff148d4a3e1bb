//! Named metrics: monotonic counters, last-value gauges and decade-bucket
//! histograms. All entry points no-op (one atomic load) when tracing is
//! disabled.

use urcl_json::Value;

use crate::{enabled, with_state, Histogram};

/// Number of histogram buckets: one per decade from `1e-7` up to `1e6`,
/// with open-ended first/last buckets.
pub(crate) const HIST_BUCKETS: usize = 14;

/// Exponent of the lower bound of bucket 1 (bucket 0 is `< 10^HIST_MIN_EXP`).
const HIST_MIN_EXP: i32 = -7;

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_state(|s| *s.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Increments the named counter by one.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Sets the named gauge to its latest value.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        s.gauges.insert(name.to_string(), value);
    });
}

/// Records one observation into the named histogram. Values are bucketed
/// by decade (`…, [1e-3, 1e-2), [1e-2, 1e-1), …`), which is enough to see
/// latency distributions without configuring bucket bounds per metric.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        let h = s
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                ..Histogram::default()
            });
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        h.buckets[bucket_index(value)] += 1;
    });
}

fn bucket_index(value: f64) -> usize {
    if !(value > 0.0) {
        return 0;
    }
    let exp = value.log10().floor() as i32;
    (exp - HIST_MIN_EXP + 1).clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

/// Estimated quantile from the decade buckets: find the bucket holding
/// the target rank, then interpolate linearly inside it, clamped to the
/// exact observed `[min, max]`. Decade buckets make this an estimate
/// (good to the bucket's width), which is enough to watch a latency
/// distribution drift; benches that need exact percentiles compute them
/// client-side from raw samples.
pub(crate) fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * (h.count as f64 - 1.0)).max(0.0);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 > rank {
            let frac = (rank - seen as f64) / c as f64;
            let lo = if i == 0 {
                h.min.min(10f64.powi(HIST_MIN_EXP))
            } else {
                10f64.powi(HIST_MIN_EXP + i as i32 - 1)
            };
            let hi = if i == HIST_BUCKETS - 1 {
                h.max.max(10f64.powi(HIST_MIN_EXP + i as i32 - 1))
            } else {
                10f64.powi(HIST_MIN_EXP + i as i32)
            };
            return (lo + (hi - lo) * frac).clamp(h.min, h.max);
        }
        seen += c;
    }
    h.max
}

pub(crate) fn histogram_to_json(h: &Histogram) -> Value {
    let mut bounds = Vec::with_capacity(HIST_BUCKETS - 1);
    for i in 0..HIST_BUCKETS - 1 {
        bounds.push(Value::Num(10f64.powi(HIST_MIN_EXP + i as i32)));
    }
    Value::object()
        .with("count", Value::Num(h.count as f64))
        .with("sum", Value::Num(h.sum))
        .with("min", Value::Num(if h.count == 0 { 0.0 } else { h.min }))
        .with("max", Value::Num(if h.count == 0 { 0.0 } else { h.max }))
        .with("p50", Value::Num(histogram_quantile(h, 0.50)))
        .with("p95", Value::Num(histogram_quantile(h, 0.95)))
        .with("p99", Value::Num(histogram_quantile(h, 0.99)))
        .with("bucket_bounds", Value::Array(bounds))
        .with(
            "bucket_counts",
            Value::Array(h.buckets.iter().map(|&c| Value::Num(c as f64)).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_range() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(1e-9), 0);
        assert_eq!(bucket_index(1e-7), 1);
        assert_eq!(bucket_index(0.5), 7);
        assert_eq!(bucket_index(1.0), 8);
        assert_eq!(bucket_index(1e6), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(1e20), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantile_estimates_are_ordered_and_clamped() {
        let mut h = Histogram {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Histogram::default()
        };
        assert_eq!(histogram_quantile(&h, 0.5), 0.0, "empty histogram");
        // 90 fast observations at ~1ms, 10 slow at ~0.5s.
        for _ in 0..90 {
            h.count += 1;
            h.sum += 1e-3;
            h.min = h.min.min(1e-3);
            h.max = h.max.max(1e-3);
            h.buckets[bucket_index(1e-3)] += 1;
        }
        for _ in 0..10 {
            h.count += 1;
            h.sum += 0.5;
            h.min = h.min.min(0.5);
            h.max = h.max.max(0.5);
            h.buckets[bucket_index(0.5)] += 1;
        }
        let (p50, p95, p99) = (
            histogram_quantile(&h, 0.50),
            histogram_quantile(&h, 0.95),
            histogram_quantile(&h, 0.99),
        );
        assert!(
            p50 <= p95 && p95 <= p99,
            "quantiles ordered: {p50} {p95} {p99}"
        );
        assert!((1e-3..1e-2).contains(&p50), "p50 in the fast decade: {p50}");
        assert!((0.1..=0.5).contains(&p99), "p99 in the slow decade: {p99}");
        assert!(p99 <= h.max && p50 >= h.min, "clamped to observed range");
    }

    #[test]
    fn histogram_summary_tracks_min_max_sum() {
        let _guard = crate::test_lock::hold();
        crate::enable();
        crate::reset();
        histogram_record("h", 0.001);
        histogram_record("h", 0.1);
        histogram_record("h", 10.0);
        crate::disable();
        let doc = crate::snapshot();
        let h = doc.get("histograms").and_then(|v| v.get("h")).expect("h");
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(h.get("min").and_then(Value::as_f64), Some(0.001));
        assert_eq!(h.get("max").and_then(Value::as_f64), Some(10.0));
        let counts = h.get("bucket_counts").and_then(Value::as_array).unwrap();
        let total: f64 = counts.iter().filter_map(Value::as_f64).sum();
        assert_eq!(total, 3.0);
    }
}
