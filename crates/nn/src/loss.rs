//! Loss functions with analytic gradients.
//!
//! Each loss returns `(value, gradient)` where the gradient is taken with
//! respect to the loss's direct input (logits or raw features), ready to be
//! fed into a module's `backward`. All gradients are verified against
//! central finite differences in the test suite.

use fca_tensor::ops::{log_softmax_rows, normalize_rows, normalize_rows_backward, softmax_rows};
use fca_tensor::Tensor;

/// Mean cross-entropy over a batch of logits.
///
/// Returns the scalar loss and `∂L/∂logits = (softmax − onehot)/B`.
///
/// ```
/// use fca_nn::loss::cross_entropy;
/// use fca_tensor::Tensor;
///
/// let confident = Tensor::from_vec([1, 3], vec![10.0, 0.0, 0.0]);
/// let (loss, grad) = cross_entropy(&confident, &[0]);
/// assert!(loss < 1e-3);
/// assert_eq!(grad.dims(), &[1, 3]);
/// ```
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let (rows, cols) = logits.shape().as_matrix();
    assert_eq!(rows, targets.len(), "batch size mismatch in cross_entropy");
    assert!(
        targets.iter().all(|&t| t < cols),
        "target label out of range"
    );
    let logp = log_softmax_rows(logits);
    let mut loss = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        loss -= logp.row(r)[t];
    }
    loss /= rows as f32;

    let mut grad = softmax_rows(logits);
    let inv_b = 1.0 / rows as f32;
    for (r, &t) in targets.iter().enumerate() {
        let row = grad.row_mut(r);
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_b;
        }
    }
    (loss, grad)
}

/// Classification accuracy of logits against targets.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    if targets.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(targets).filter(|(p, t)| p == t).count();
    correct as f32 / targets.len() as f32
}

/// Supervised contrastive loss (Khosla et al. 2020), `L^CL` in the paper.
///
/// `features` are **raw** (unnormalized) embeddings, typically the
/// concatenation of the two augmented views `[F(x'); F(x'')]` with `labels`
/// repeated accordingly. The loss normalizes internally and the returned
/// gradient is with respect to the raw features (chained through the
/// normalization Jacobian).
///
/// For anchor `i` with positives `P(i)` (same label, ≠ i) and candidates
/// `A(i)` (everything ≠ i):
///
/// ```text
/// L_i = -1/|P(i)| Σ_{p∈P(i)} log( exp(z_i·z_p/τ) / Σ_{a∈A(i)} exp(z_i·z_a/τ) )
/// ```
///
/// Anchors without positives are skipped; the loss averages over valid
/// anchors. Returns `(0, zeros)` when no anchor has a positive.
pub fn supervised_contrastive(
    features: &Tensor,
    labels: &[usize],
    temperature: f32,
) -> (f32, Tensor) {
    let (n, _d) = features.shape().as_matrix();
    assert_eq!(
        n,
        labels.len(),
        "label count mismatch in supervised_contrastive"
    );
    assert!(temperature > 0.0, "temperature must be positive");
    let eps = 1e-8;
    let (z, norms) = normalize_rows(features, eps);

    // Similarity matrix s_ij = z_i · z_j / τ.
    let zt = z.transpose();
    let sim = {
        let mut s = fca_tensor::linalg::matmul(&z, &zt);
        s.scale(1.0 / temperature);
        s
    };

    // Count positives per anchor.
    let pos_count: Vec<usize> = (0..n)
        .map(|i| (0..n).filter(|&j| j != i && labels[j] == labels[i]).count())
        .collect();
    let valid: Vec<usize> = (0..n).filter(|&i| pos_count[i] > 0).collect();
    if valid.is_empty() {
        return (0.0, Tensor::zeros(features.shape().clone()));
    }
    let n_valid = valid.len() as f32;

    // Per-anchor log-denominator over A(i) = {j ≠ i} and softmax p_ij.
    let mut loss = 0.0f32;
    // G_ij = ∂L/∂s_ij, zero diagonal, zero rows for invalid anchors.
    let mut g = Tensor::zeros([n, n]);
    for &i in &valid {
        let row = sim.row(i);
        let mut maxv = f32::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if j != i && v > maxv {
                maxv = v;
            }
        }
        let mut denom = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            if j != i {
                denom += (v - maxv).exp();
            }
        }
        let log_denom = maxv + denom.ln();
        let inv_pos = 1.0 / pos_count[i] as f32;
        let grow = g.row_mut(i);
        for j in 0..n {
            if j == i {
                continue;
            }
            let p_ij = (row[j] - log_denom).exp();
            let is_pos = labels[j] == labels[i];
            if is_pos {
                loss += (log_denom - row[j]) * inv_pos;
                grow[j] = (p_ij - inv_pos) / n_valid;
            } else {
                grow[j] = p_ij / n_valid;
            }
        }
    }
    loss /= n_valid;

    // dZ = (G + Gᵀ)·Z / τ, then chain through the normalization.
    let gt = g.transpose();
    let gsym = g.add(&gt);
    let mut dz = fca_tensor::linalg::matmul(&gsym, &z);
    dz.scale(1.0 / temperature);
    let dfeat = normalize_rows_backward(&z, &norms, &dz, eps);
    (loss, dfeat)
}

/// Temperature-scaled KL distillation `KL(teacher ‖ student)` used by
/// KT-pFL: `teacher_probs` are already probabilities; the student enters as
/// logits. Returns the mean KL over the batch and `∂L/∂student_logits`.
///
/// The standard `T²` factor keeps gradient magnitudes comparable across
/// temperatures.
pub fn kl_distillation(
    student_logits: &Tensor,
    teacher_probs: &Tensor,
    temperature: f32,
) -> (f32, Tensor) {
    let (rows, cols) = student_logits.shape().as_matrix();
    assert_eq!(
        teacher_probs.dims(),
        student_logits.dims(),
        "shape mismatch in kl_distillation"
    );
    assert!(temperature > 0.0);
    let scaled = student_logits.scaled(1.0 / temperature);
    let logq = log_softmax_rows(&scaled);
    let q = softmax_rows(&scaled);

    let mut loss = 0.0f32;
    for r in 0..rows {
        let p = teacher_probs.row(r);
        let lq = logq.row(r);
        for c in 0..cols {
            if p[c] > 0.0 {
                loss += p[c] * (p[c].max(1e-12).ln() - lq[c]);
            }
        }
    }
    loss /= rows as f32;

    // ∂/∂logits of -Σ p log q(logits/T) = (q − p)/T; batch-mean and T²
    // compensation leave (q − p)·T/B… the conventional scaling is T²·mean,
    // giving grad = (q − p)·T/B. We return loss (unscaled) and grad with
    // the T² convention applied to both.
    let mut grad = q;
    let scale = temperature / rows as f32;
    for r in 0..rows {
        let p = teacher_probs.row(r);
        let g = grad.row_mut(r);
        for c in 0..cols {
            g[c] = (g[c] - p[c]) * scale;
        }
    }
    (loss * temperature * temperature, grad)
}

/// FedProto prototype regularizer: mean squared distance between each
/// feature row and its class prototype. Rows whose class has no prototype
/// are skipped. Returns the loss and `∂L/∂features`.
pub fn prototype_loss(
    features: &Tensor,
    labels: &[usize],
    prototypes: &[Option<Tensor>],
) -> (f32, Tensor) {
    let (rows, cols) = features.shape().as_matrix();
    assert_eq!(rows, labels.len(), "label count mismatch in prototype_loss");
    let mut grad = Tensor::zeros([rows, cols]);
    let mut loss = 0.0f32;
    let mut counted = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        let Some(Some(proto)) = prototypes.get(y) else {
            continue;
        };
        assert_eq!(proto.numel(), cols, "prototype dimension mismatch");
        counted += 1;
        let f = features.row(r);
        let g = grad.row_mut(r);
        for ((gi, &fi), &pi) in g.iter_mut().zip(f).zip(proto.data()) {
            let d = fi - pi;
            loss += d * d;
            *gi = 2.0 * d;
        }
    }
    if counted == 0 {
        return (0.0, grad);
    }
    let inv = 1.0 / (counted * cols) as f32;
    loss *= inv;
    grad.scale(inv);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic: &Tensor,
        h: f32,
        tol: f32,
    ) {
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (f(&xp) - f(&xm)) / (2.0 * h);
            let an = analytic.at(i);
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs()),
                "elem {i}: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Tensor::from_vec([2, 3], vec![10., 0., 0., 0., 10., 0.]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Tensor::zeros([4, 10]);
        let (loss, _) = cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - 10.0f32.ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(111);
        let logits = Tensor::randn([3, 5], 1.0, &mut rng);
        let targets = vec![1usize, 4, 0];
        let (_, grad) = cross_entropy(&logits, &targets);
        finite_diff_check(
            &|x| cross_entropy(x, &targets).0,
            &logits,
            &grad,
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let mut rng = seeded_rng(112);
        let logits = Tensor::randn([4, 6], 2.0, &mut rng);
        let (_, grad) = cross_entropy(&logits, &[0, 1, 2, 3]);
        for r in 0..4 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec([3, 2], vec![1., 0., 0., 1., 1., 0.]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn supcon_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(113);
        let feats = Tensor::randn([6, 4], 1.0, &mut rng);
        let labels = vec![0usize, 1, 0, 1, 2, 2];
        let (_, grad) = supervised_contrastive(&feats, &labels, 0.5);
        finite_diff_check(
            &|x| supervised_contrastive(x, &labels, 0.5).0,
            &feats,
            &grad,
            1e-3,
            3e-2,
        );
    }

    #[test]
    fn supcon_zero_when_no_positive_pairs() {
        let mut rng = seeded_rng(114);
        let feats = Tensor::randn([3, 4], 1.0, &mut rng);
        let (loss, grad) = supervised_contrastive(&feats, &[0, 1, 2], 0.5);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn supcon_prefers_clustered_same_class_features() {
        // Same-class features close together → lower loss than scattered.
        let tight = Tensor::from_vec([4, 2], vec![1.0, 0.01, 1.0, -0.01, -1.0, 0.01, -1.0, -0.01]);
        let mixed = Tensor::from_vec([4, 2], vec![1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]);
        let labels = vec![0usize, 0, 1, 1];
        let (l_tight, _) = supervised_contrastive(&tight, &labels, 0.5);
        let (l_mixed, _) = supervised_contrastive(&mixed, &labels, 0.5);
        assert!(l_tight < l_mixed, "tight {l_tight} vs mixed {l_mixed}");
    }

    #[test]
    fn supcon_symmetric_under_view_swap() {
        let mut rng = seeded_rng(115);
        let a = Tensor::randn([3, 4], 1.0, &mut rng);
        let b = Tensor::randn([3, 4], 1.0, &mut rng);
        let labels = [0usize, 1, 0];
        let v1 = Tensor::concat_rows(&[&a, &b]);
        let v2 = Tensor::concat_rows(&[&b, &a]);
        let both: Vec<usize> = labels.iter().chain(labels.iter()).cloned().collect();
        let (l1, _) = supervised_contrastive(&v1, &both, 0.7);
        let (l2, _) = supervised_contrastive(&v2, &both, 0.7);
        assert!((l1 - l2).abs() < 1e-5);
    }

    #[test]
    fn kl_distillation_zero_when_matched() {
        let logits = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]);
        let teacher = softmax_rows(&logits);
        let (loss, grad) = kl_distillation(&logits, &teacher, 1.0);
        assert!(loss.abs() < 1e-5, "loss {loss}");
        assert!(grad.max_abs() < 1e-5);
    }

    #[test]
    fn kl_distillation_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(117);
        let logits = Tensor::randn([2, 4], 1.0, &mut rng);
        let teacher = softmax_rows(&Tensor::randn([2, 4], 1.0, &mut rng));
        let (_, grad) = kl_distillation(&logits, &teacher, 2.0);
        finite_diff_check(
            &|x| kl_distillation(x, &teacher, 2.0).0,
            &logits,
            &grad,
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn prototype_loss_pulls_to_prototype() {
        let feats = Tensor::from_vec([1, 2], vec![1.0, 1.0]);
        let protos = vec![Some(Tensor::from_vec([2], vec![0.0, 0.0]))];
        let (loss, grad) = prototype_loss(&feats, &[0], &protos);
        assert!((loss - 1.0).abs() < 1e-6); // (1+1)/2
        assert!(grad.at(0) > 0.0 && grad.at(1) > 0.0);
    }

    #[test]
    fn prototype_loss_skips_missing_prototypes() {
        let feats = Tensor::ones([2, 3]);
        let protos: Vec<Option<Tensor>> = vec![None, None];
        let (loss, grad) = prototype_loss(&feats, &[0, 1], &protos);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn prototype_loss_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(118);
        let feats = Tensor::randn([3, 4], 1.0, &mut rng);
        let protos = vec![
            Some(Tensor::randn([4], 1.0, &mut rng)),
            Some(Tensor::randn([4], 1.0, &mut rng)),
        ];
        let labels = vec![0usize, 1, 0];
        let (_, grad) = prototype_loss(&feats, &labels, &protos);
        finite_diff_check(
            &|x| prototype_loss(x, &labels, &protos).0,
            &feats,
            &grad,
            1e-2,
            2e-2,
        );
    }
}
