//! Accumulating stopwatch, used by the trainer for the per-epoch timings
//! in the efficiency study (Fig. 7). Lives here so timing utilities have
//! one home; `urcl_core` re-exports it as `urcl_core::Stopwatch`.

use std::time::Instant;

/// Accumulating stopwatch: measures total elapsed time across multiple
/// start/stop laps.
#[derive(Debug)]
pub struct Stopwatch {
    started: Option<Instant>,
    total: f64,
    laps: u64,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// A stopped stopwatch at zero.
    pub fn new() -> Self {
        Self {
            started: None,
            total: 0.0,
            laps: 0,
        }
    }

    /// Starts a lap. Panics if already running.
    pub fn start(&mut self) {
        assert!(self.started.is_none(), "stopwatch already running");
        self.started = Some(Instant::now());
    }

    /// Ends the current lap, accumulating its duration.
    pub fn stop(&mut self) {
        let t = self.started.take().expect("stopwatch not running");
        self.total += t.elapsed().as_secs_f64();
        self.laps += 1;
    }

    /// Total accumulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total
    }

    /// Number of completed laps.
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Mean seconds per lap (0 when no laps completed).
    pub fn mean_seconds(&self) -> f64 {
        if self.laps == 0 {
            0.0
        } else {
            self.total / self.laps as f64
        }
    }

    /// Times a closure as one lap and returns its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.start();
        let out = f();
        self.stop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_laps() {
        let mut sw = Stopwatch::new();
        for _ in 0..3 {
            sw.time(|| std::hint::black_box(41 + 1));
        }
        assert_eq!(sw.laps(), 3);
        assert!(sw.total_seconds() >= 0.0);
        assert!(sw.mean_seconds() <= sw.total_seconds());
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_start_panics() {
        let mut sw = Stopwatch::new();
        sw.start();
        sw.start();
    }

    #[test]
    fn zero_laps_mean_is_zero() {
        assert_eq!(Stopwatch::new().mean_seconds(), 0.0);
    }
}
