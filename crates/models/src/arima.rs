//! ARIMA baseline: per-node AR(p) on a d-times-differenced series, fit by
//! regularised least squares. The paper's cited usage (Shekhar &
//! Williams, short-horizon point forecasting) is dominated by the AR
//! component, so the MA term is omitted — documented in DESIGN.md.

use urcl_tensor::Tensor;

/// Per-node ARIMA(p, d, 0) model.
#[derive(Debug, Clone)]
pub struct Arima {
    p: usize,
    d: usize,
    /// Per-node AR coefficients, `[p + 1]` each (intercept last).
    coeffs: Vec<Vec<f32>>,
}

impl Arima {
    /// Fits one AR(p) model per node on a `[T, N]` training series.
    ///
    /// Needs `T > p + d + 1`; panics otherwise.
    pub fn fit(series: &Tensor, p: usize, d: usize) -> Self {
        assert_eq!(series.ndim(), 2, "series must be [T, N]");
        let (t, n) = (series.shape()[0], series.shape()[1]);
        assert!(p >= 1, "AR order must be at least 1");
        assert!(
            t > p + d + 1,
            "series length {t} too short for ARIMA({p},{d},0)"
        );
        let coeffs = (0..n)
            .map(|node| {
                let col: Vec<f32> = (0..t).map(|s| series.at(&[s, node])).collect();
                let diffed = difference(&col, d);
                fit_ar(&diffed, p)
            })
            .collect();
        Self { p, d, coeffs }
    }

    /// AR order.
    pub fn order(&self) -> (usize, usize) {
        (self.p, self.d)
    }

    /// One-step-ahead forecast from a history window.
    ///
    /// `window` is `[M, N]` (most recent observation last) with
    /// `M >= p + d`; returns `[1, N]`.
    pub fn forecast(&self, window: &Tensor) -> Tensor {
        assert_eq!(window.ndim(), 2, "window must be [M, N]");
        let (m, n) = (window.shape()[0], window.shape()[1]);
        assert_eq!(n, self.coeffs.len(), "node count mismatch");
        assert!(
            m >= self.p + self.d,
            "window length {m} < p + d = {}",
            self.p + self.d
        );
        let mut out = Vec::with_capacity(n);
        for node in 0..n {
            let col: Vec<f32> = (0..m).map(|s| window.at(&[s, node])).collect();
            let diffed = difference(&col, self.d);
            // Predict the next differenced value.
            let c = &self.coeffs[node];
            let mut pred = c[self.p]; // intercept
            for lag in 0..self.p {
                pred += c[lag] * diffed[diffed.len() - 1 - lag];
            }
            // Integrate d times: next value = pred + last levels.
            let mut level = pred;
            let mut cur = col;
            for _ in 0..self.d {
                level += *cur.last().expect("non-empty window");
                cur = difference(&cur, 1);
                // Note: for d=1 one addition of the last level suffices;
                // the loop generalises to d>1 by accumulating last values
                // of successively less-differenced series.
            }
            out.push(level);
        }
        Tensor::from_vec(out, &[1, n])
    }
}

/// Applies `d` rounds of first differencing.
fn difference(series: &[f32], d: usize) -> Vec<f32> {
    let mut cur = series.to_vec();
    for _ in 0..d {
        cur = cur.windows(2).map(|w| w[1] - w[0]).collect();
    }
    cur
}

/// Least-squares AR(p) fit with intercept and ridge regularisation.
/// Returns `[φ₁ … φ_p, intercept]`.
fn fit_ar(series: &[f32], p: usize) -> Vec<f32> {
    let t = series.len();
    if t <= p + 1 {
        // Degenerate: fall back to a random-walk model.
        let mut c = vec![0.0; p + 1];
        c[0] = 1.0;
        return c;
    }
    let rows = t - p;
    let cols = p + 1; // lags + intercept
                      // Normal equations: (XᵀX + λI) β = Xᵀy.
    let mut xtx = vec![0.0f64; cols * cols];
    let mut xty = vec![0.0f64; cols];
    for r in 0..rows {
        // Row features: series[r+p-1], …, series[r], 1.
        let y = series[r + p] as f64;
        let mut feats = Vec::with_capacity(cols);
        for lag in 0..p {
            feats.push(series[r + p - 1 - lag] as f64);
        }
        feats.push(1.0);
        for i in 0..cols {
            xty[i] += feats[i] * y;
            for j in 0..cols {
                xtx[i * cols + j] += feats[i] * feats[j];
            }
        }
    }
    let lambda = 1e-4 * rows as f64;
    for i in 0..cols {
        xtx[i * cols + i] += lambda;
    }
    solve(&mut xtx, &mut xty, cols)
        .into_iter()
        .map(|v| v as f32)
        .collect()
}

/// Gaussian elimination with partial pivoting for the small symmetric
/// system of the normal equations.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
            }
            b.swap(col, piv);
        }
        let diag = a[col * n + col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; ridge term makes this rare
        }
        for r in (col + 1)..n {
            let f = a[r * n + col] / diag;
            for j in col..n {
                a[r * n + j] -= f * a[col * n + j];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for j in (col + 1)..n {
            s -= a[col * n + j] * x[j];
        }
        let diag = a[col * n + col];
        x[col] = if diag.abs() < 1e-12 { 0.0 } else { s / diag };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_ar1_coefficient() {
        // y_t = 0.8 y_{t-1} + noise-free
        let mut series = vec![1.0f32];
        for _ in 0..200 {
            series.push(0.8 * series.last().unwrap() + 0.1);
        }
        let c = fit_ar(&series, 1);
        assert!((c[0] - 0.8).abs() < 0.05, "phi = {}", c[0]);
    }

    #[test]
    fn forecast_linear_trend_with_differencing() {
        // A perfectly linear series: first difference is constant, so
        // ARIMA(1,1,0) forecasts the trend continuation.
        let t = 60;
        let n = 2;
        let data: Vec<f32> = (0..t)
            .flat_map(|s| [(s as f32) * 2.0, 100.0 - s as f32])
            .collect();
        let series = Tensor::from_vec(data, &[t, n]);
        let model = Arima::fit(&series, 1, 1);
        let window = series.narrow(0, t - 12, 12);
        let pred = model.forecast(&window);
        // Next values: node 0 -> 120, node 1 -> 40.
        assert!((pred.at(&[0, 0]) - 120.0).abs() < 1.0, "{pred:?}");
        assert!((pred.at(&[0, 1]) - 40.0).abs() < 1.0, "{pred:?}");
    }

    #[test]
    fn forecast_periodic_signal_reasonably() {
        // AR(4) on a noiseless sinusoid should predict well one step out.
        let t = 300;
        let data: Vec<f32> = (0..t)
            .map(|s| (s as f32 * 0.3).sin() * 10.0 + 20.0)
            .collect();
        let series = Tensor::from_vec(data.clone(), &[t, 1]);
        let model = Arima::fit(&series.narrow(0, 0, 250), 4, 0);
        let window = series.narrow(0, 238, 12);
        let pred = model.forecast(&window).at(&[0, 0]);
        let truth = data[250];
        assert!((pred - truth).abs() < 1.0, "pred {pred} vs truth {truth}");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_series_rejected() {
        let series = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
        let _ = Arima::fit(&series, 2, 1);
    }

    #[test]
    fn window_shorter_than_lags_rejected() {
        let t = 50;
        let series = Tensor::from_vec((0..t).map(|v| v as f32).collect::<Vec<f32>>(), &[t, 1]);
        let model = Arima::fit(&series, 4, 1);
        let tiny = series.narrow(0, 0, 3);
        let result = std::panic::catch_unwind(|| model.forecast(&tiny));
        assert!(result.is_err());
    }
}
