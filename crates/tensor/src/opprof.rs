//! Per-op dispatch profiler for the autodiff hot loop.
//!
//! The training step is dominated by many *small* kernels, so per-op
//! overhead (dispatch, buffer churn, barrier cost) can rival arithmetic.
//! This module keeps one `(calls, nanoseconds)` pair per op kind for the
//! forward and backward pass each, as process-global relaxed atomics.
//! When profiling is off (the default) the cost per op is a single
//! relaxed load; when on, two `Instant` samples per op.
//!
//! Enable with `URCL_OP_PROFILE=1` or [`set_op_profile`]; read with
//! [`op_profile`]. `bench_train_step` prints the table when the env var
//! is set, which is how the kernel work in this crate gets targeted at
//! the ops that actually burn the milliseconds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of distinct op kinds tracked (see [`OP_NAMES`]).
pub const OP_KINDS: usize = 26;

/// Human-readable op-kind names, index-aligned with the counters.
pub const OP_NAMES: [&str; OP_KINDS] = [
    "add", "sub", "mul", "div", "neg", "scale", "add_scalar", "powf", "exp", "ln", "sqrt", "abs",
    "relu", "leaky_relu", "sigmoid", "tanh", "matmul", "permute", "reshape", "sum_axes", "sum_all",
    "mean_all", "softmax", "concat", "narrow", "detach",
];

/// Profiling state: 0 = unset (read env on first use), 1 = on, 2 = off.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

const ZERO: AtomicU64 = AtomicU64::new(0);
static FWD_CALLS: [AtomicU64; OP_KINDS] = [ZERO; OP_KINDS];
static FWD_NANOS: [AtomicU64; OP_KINDS] = [ZERO; OP_KINDS];
static BWD_CALLS: [AtomicU64; OP_KINDS] = [ZERO; OP_KINDS];
static BWD_NANOS: [AtomicU64; OP_KINDS] = [ZERO; OP_KINDS];

fn from_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("URCL_OP_PROFILE") {
        Ok(v) if v.trim() == "1" || v.trim().eq_ignore_ascii_case("on") => 1,
        _ => 2,
    })
}

/// Whether per-op profiling is currently active.
#[inline]
pub fn op_profile_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let v = from_env();
            ENABLED.store(v, Ordering::Relaxed);
            v == 1
        }
        v => v == 1,
    }
}

/// Turns per-op profiling on or off at runtime, returning the previous
/// setting. Normal runs use the `URCL_OP_PROFILE` environment variable.
pub fn set_op_profile(on: bool) -> bool {
    let prev = op_profile_enabled();
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    prev
}

/// Records one forward-pass execution of op `kind` taking `nanos` ns.
#[inline]
pub(crate) fn record_forward(kind: usize, nanos: u64) {
    FWD_CALLS[kind].fetch_add(1, Ordering::Relaxed);
    FWD_NANOS[kind].fetch_add(nanos, Ordering::Relaxed);
}

/// Records one backward-pass execution of op `kind` taking `nanos` ns.
#[inline]
pub(crate) fn record_backward(kind: usize, nanos: u64) {
    BWD_CALLS[kind].fetch_add(1, Ordering::Relaxed);
    BWD_NANOS[kind].fetch_add(nanos, Ordering::Relaxed);
}

/// One row of the per-op profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpProfileRow {
    /// Op-kind name (see [`OP_NAMES`]).
    pub name: &'static str,
    /// Forward executions recorded.
    pub fwd_calls: u64,
    /// Total forward nanoseconds.
    pub fwd_nanos: u64,
    /// Backward executions recorded.
    pub bwd_calls: u64,
    /// Total backward nanoseconds.
    pub bwd_nanos: u64,
}

/// Snapshot of the cumulative per-op profile (all kinds, fixed order).
pub fn op_profile() -> Vec<OpProfileRow> {
    (0..OP_KINDS)
        .map(|i| OpProfileRow {
            name: OP_NAMES[i],
            fwd_calls: FWD_CALLS[i].load(Ordering::Relaxed),
            fwd_nanos: FWD_NANOS[i].load(Ordering::Relaxed),
            bwd_calls: BWD_CALLS[i].load(Ordering::Relaxed),
            bwd_nanos: BWD_NANOS[i].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes the cumulative per-op counters.
pub fn reset_op_profile() {
    for i in 0..OP_KINDS {
        FWD_CALLS[i].store(0, Ordering::Relaxed);
        FWD_NANOS[i].store(0, Ordering::Relaxed);
        BWD_CALLS[i].store(0, Ordering::Relaxed);
        BWD_NANOS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_resets() {
        let prev = set_op_profile(true);
        reset_op_profile();
        record_forward(0, 100);
        record_forward(0, 50);
        record_backward(1, 25);
        let rows = op_profile();
        assert_eq!(rows[0].fwd_calls, 2);
        assert_eq!(rows[0].fwd_nanos, 150);
        assert_eq!(rows[1].bwd_calls, 1);
        assert_eq!(rows[1].bwd_nanos, 25);
        reset_op_profile();
        assert_eq!(op_profile()[0].fwd_calls, 0);
        set_op_profile(prev);
    }
}
