//! Numerically careful tensor operations shared across the stack:
//! row-wise softmax / log-softmax, logsumexp, row normalization, and
//! bias broadcasting.

use crate::tensor::Tensor;

/// Row-wise logsumexp of a rank-2 tensor, returned as one value per row.
pub fn logsumexp_rows(x: &Tensor) -> Vec<f32> {
    let (rows, _) = x.shape().as_matrix();
    (0..rows)
        .map(|r| {
            let row = x.row(r);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if !m.is_finite() {
                return m;
            }
            let s: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            m + s.ln()
        })
        .collect()
}

/// Row-wise softmax of a rank-2 tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.shape().as_matrix();
    let mut out = Tensor::zeros([rows, cols]);
    for r in 0..rows {
        let row = x.row(r);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let o = out.row_mut(r);
        let mut s = 0.0;
        for (oi, &v) in o.iter_mut().zip(row) {
            let e = (v - m).exp();
            *oi = e;
            s += e;
        }
        if s > 0.0 {
            for oi in o.iter_mut() {
                *oi /= s;
            }
        }
    }
    out
}

/// Row-wise log-softmax of a rank-2 tensor.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let lse = logsumexp_rows(x);
    let (rows, cols) = x.shape().as_matrix();
    let mut out = Tensor::zeros([rows, cols]);
    #[expect(
        clippy::needless_range_loop,
        reason = "`r` names one row of `x`, `out` and `lse` alike"
    )]
    for r in 0..rows {
        let row = x.row(r);
        let o = out.row_mut(r);
        for (oi, &v) in o.iter_mut().zip(row) {
            *oi = v - lse[r];
        }
    }
    out
}

/// L2-normalize each row; rows with norm below `eps` are left at zero.
///
/// Returns `(normalized, norms)` where `norms[r]` is the pre-normalization
/// L2 norm of row `r` (needed by the normalization backward pass).
pub fn normalize_rows(x: &Tensor, eps: f32) -> (Tensor, Vec<f32>) {
    let (rows, cols) = x.shape().as_matrix();
    let mut out = Tensor::zeros([rows, cols]);
    let mut norms = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = x.row(r);
        let n = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        norms.push(n);
        if n > eps {
            let o = out.row_mut(r);
            for (oi, &v) in o.iter_mut().zip(row) {
                *oi = v / n;
            }
        }
    }
    (out, norms)
}

/// Backward of row L2 normalization.
///
/// Given upstream gradient `g` w.r.t. the normalized rows `ẑ`, the
/// gradient w.r.t. the raw rows `z` is `(g − (g·ẑ)ẑ)/‖z‖` — the projection
/// of `g` onto the tangent space of the unit sphere, scaled by `1/‖z‖`.
pub fn normalize_rows_backward(
    normalized: &Tensor,
    norms: &[f32],
    grad: &Tensor,
    eps: f32,
) -> Tensor {
    let (rows, cols) = normalized.shape().as_matrix();
    assert_eq!(grad.dims(), normalized.dims());
    assert_eq!(norms.len(), rows);
    let mut out = Tensor::zeros([rows, cols]);
    #[expect(
        clippy::needless_range_loop,
        reason = "`r` names one row of four operands alike"
    )]
    for r in 0..rows {
        let n = norms[r];
        if n <= eps {
            continue;
        }
        let zhat = normalized.row(r);
        let g = grad.row(r);
        let gdot: f32 = g.iter().zip(zhat).map(|(a, b)| a * b).sum();
        let o = out.row_mut(r);
        for ((oi, &gi), &zi) in o.iter_mut().zip(g).zip(zhat) {
            *oi = (gi - gdot * zi) / n;
        }
    }
    out
}

/// Add a bias row-vector `(1, n)` or `(n,)` to every row of `x: (m, n)`.
pub fn add_bias_rows(x: &mut Tensor, bias: &Tensor) {
    let (_, cols) = x.shape().as_matrix();
    assert_eq!(bias.numel(), cols, "bias length must equal column count");
    let b = bias.data();
    for row in x.data_mut().chunks_mut(cols) {
        for (xi, &bi) in row.iter_mut().zip(b) {
            *xi += bi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = seeded_rng(21);
        let x = Tensor::randn([6, 9], 3.0, &mut rng);
        let s = softmax_rows(&x);
        for r in 0..6 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]);
        let y = Tensor::from_vec([1, 3], vec![1001.0, 1002.0, 1003.0]);
        let sx = softmax_rows(&x);
        let sy = softmax_rows(&y);
        for (a, b) in sx.data().iter().zip(sy.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let mut rng = seeded_rng(22);
        let x = Tensor::randn([4, 7], 2.0, &mut rng);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for (a, b) in ls.data().iter().zip(s.data()) {
            assert!((a.exp() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn logsumexp_handles_large_values() {
        let x = Tensor::from_vec([1, 2], vec![1000.0, 1000.0]);
        let lse = logsumexp_rows(&x);
        assert!((lse[0] - (1000.0 + 2.0f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let mut rng = seeded_rng(23);
        let x = Tensor::randn([5, 8], 2.0, &mut rng);
        let (n, norms) = normalize_rows(&x, 1e-8);
        for (r, &norm) in norms.iter().enumerate() {
            let rn: f32 = n.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((rn - 1.0).abs() < 1e-5);
            assert!(norm > 0.0);
        }
    }

    #[test]
    fn normalize_rows_zero_row_stays_zero() {
        let x = Tensor::zeros([2, 4]);
        let (n, norms) = normalize_rows(&x, 1e-8);
        assert!(n.data().iter().all(|&v| v == 0.0));
        assert_eq!(norms, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_backward_matches_finite_difference() {
        let mut rng = seeded_rng(24);
        let x = Tensor::randn([3, 5], 1.0, &mut rng);
        let g = Tensor::randn([3, 5], 1.0, &mut rng);
        let (zhat, norms) = normalize_rows(&x, 1e-8);
        let analytic = normalize_rows_backward(&zhat, &norms, &g, 1e-8);

        // Scalar objective: sum(g ⊙ normalize(x)).
        let f = |x: &Tensor| {
            let (z, _) = normalize_rows(x, 1e-8);
            z.data()
                .iter()
                .zip(g.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let h = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (f(&xp) - f(&xm)) / (2.0 * h);
            let an = analytic.at(i);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "elem {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn bias_rows() {
        let mut x = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3], vec![10., 20., 30.]);
        add_bias_rows(&mut x, &b);
        assert_eq!(x.data(), &[11., 22., 33., 14., 25., 36.]);
    }
}
