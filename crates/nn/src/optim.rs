//! The optimizer: Adam, behind the [`Optimizer`] trait.
//!
//! Optimizer state is keyed by parameter position, relying on the stable
//! ordering guaranteed by [`crate::Module::params_mut`].

use crate::module::Param;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;

/// A complete, position-independent snapshot of an optimizer's mutable
/// state — what [`Optimizer::learning_rate`], [`Optimizer::step_count`]
/// and [`Optimizer::slots`] read out — re-applied with
/// [`Optimizer::load_state`].
///
/// Hyperparameters (betas, eps) are *not* part of the snapshot —
/// a restored optimizer is rebuilt from the same configuration and only
/// its trajectory (learning rate, step count, moment tensors) travels.
/// Restoring a snapshot must make the optimizer's future updates
/// bit-identical to one that was never snapshotted; the paging layer's
/// client blobs rely on it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptState {
    /// Learning rate at snapshot time.
    pub lr: f32,
    /// Update steps taken so far (drives Adam's bias correction).
    pub step: u64,
    /// Per-parameter state tensors in the implementation's own layout
    /// (Adam: first moments then second moments). Empty when the state
    /// was never lazily initialized.
    pub slots: Vec<Tensor>,
}

/// A gradient-descent optimizer over a parameter list.
pub trait Optimizer: Send {
    /// Apply one update step using each parameter's accumulated gradient.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Update steps taken so far ([`OptState::step`]).
    fn step_count(&self) -> u64;

    /// The per-parameter state tensors where they live, in the
    /// [`OptState::slots`] layout — a snapshot writer encodes straight from
    /// these, no clone in between.
    fn slots(&self) -> Vec<&Tensor>;

    /// Restore a snapshot taken from an identically configured optimizer
    /// over `params`. Snapshots come off disk, so the slots are checked
    /// first — none (never stepped), or this optimizer's count per
    /// parameter, each shaped like its parameter — and a snapshot that
    /// fails leaves the optimizer as it was; one that passes can never trip
    /// [`Optimizer::step`]'s shape assertion later.
    fn load_state(&mut self, state: OptState, params: &[&mut Param]) -> Result<(), WireError>;
}

/// `Ok` when `slots` is empty or holds two runs (Adam's first, then second
/// moments) of tensors shaped like `params`.
fn check_slots(slots: &[Tensor], params: &[&mut Param]) -> Result<(), WireError> {
    if slots.is_empty() {
        return Ok(());
    }
    if slots.len() != 2 * params.len() {
        return Err(WireError::Malformed(
            "optimizer slot count does not fit the model",
        ));
    }
    let shapes = params.iter().map(|p| p.value.dims()).cycle();
    if slots.iter().zip(shapes).any(|(s, dims)| s.dims() != dims) {
        return Err(WireError::Malformed(
            "optimizer slot shape does not match its parameter",
        ));
    }
    Ok(())
}

/// Adam (Kingma & Ba), the optimizer the paper's hyperparameter table
/// assumes (small learning rates around 1e-4).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) defaults.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            assert_eq!(m.dims(), p.grad.dims(), "optimizer state shape drift");
            for (((mi, vi), &gi), wi) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.grad.data())
                .zip(p.value.data_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *wi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn step_count(&self) -> u64 {
        self.t
    }

    fn slots(&self) -> Vec<&Tensor> {
        self.m.iter().chain(&self.v).collect()
    }

    fn load_state(&mut self, state: OptState, params: &[&mut Param]) -> Result<(), WireError> {
        // First moments for every parameter, then second moments.
        check_slots(&state.slots, params)?;
        self.lr = state.lr;
        self.t = state.step;
        let half = state.slots.len() / 2;
        let mut slots = state.slots;
        self.v = slots.split_off(half);
        self.m = slots;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new("x", Tensor::from_vec([1], vec![x0]))
    }

    /// Minimize f(x) = x² with the given optimizer; return final |x|.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = quadratic_param(5.0);
        for _ in 0..steps {
            let x = p.value.at(0);
            p.grad = Tensor::from_vec([1], vec![2.0 * x]);
            opt.step(&mut [&mut p]);
        }
        p.value.at(0).abs()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(minimize(&mut opt, 300) < 1e-2);
    }

    /// Run `steps` quadratic-descent updates on `p` with `opt`.
    fn descend(opt: &mut dyn Optimizer, p: &mut Param, steps: usize) {
        for _ in 0..steps {
            let x = p.value.at(0);
            p.grad = Tensor::from_vec([1], vec![2.0 * x]);
            opt.step(&mut [&mut *p]);
        }
    }

    /// What a snapshot writer reads out of `opt`, as an owned state.
    fn state_of(opt: &dyn Optimizer) -> OptState {
        OptState {
            lr: opt.learning_rate(),
            step: opt.step_count(),
            slots: opt.slots().into_iter().cloned().collect(),
        }
    }

    /// Snapshot `opt` mid-trajectory, load it into `twin`, and assert the
    /// two continue bit-identically.
    fn assert_snapshot_resumes(opt: &mut dyn Optimizer, twin: &mut dyn Optimizer) {
        let mut p = quadratic_param(5.0);
        descend(opt, &mut p, 17);
        let mut q = Param::new("x", p.value.clone());
        twin.load_state(state_of(opt), &[&mut q]).expect("load");
        descend(opt, &mut p, 23);
        descend(twin, &mut q, 23);
        assert_eq!(
            p.value.at(0).to_bits(),
            q.value.at(0).to_bits(),
            "restored optimizer diverged from the never-snapshotted one"
        );
    }

    #[test]
    fn adam_snapshot_resumes_bit_identically() {
        let mut opt = Adam::new(0.3);
        let mut twin = Adam::new(0.3);
        assert_snapshot_resumes(&mut opt, &mut twin);
    }

    #[test]
    fn snapshot_carries_learning_rate() {
        let st = state_of(&Adam::new(0.07));
        assert_eq!(st.lr, 0.07);
        let mut twin = Adam::new(0.3);
        twin.load_state(st, &[]).expect("load");
        assert_eq!(twin.learning_rate(), 0.07);
    }

    #[test]
    fn load_state_refuses_slots_that_do_not_fit_the_params() {
        let mut p = quadratic_param(1.0);
        let state = |slots: Vec<Tensor>| OptState {
            lr: 0.5,
            step: 9,
            slots,
        };
        let mut adam = Adam::new(0.1);
        let one = || Tensor::zeros([1]);
        let wide = || Tensor::zeros([2]);
        // Adam holds m then v: one slot, or three, fits no parameter list.
        assert!(adam.load_state(state(vec![one()]), &[&mut p]).is_err());
        assert!(adam.load_state(state(vec![one(); 3]), &[&mut p]).is_err());
        assert!(adam
            .load_state(state(vec![one(), wide()]), &[&mut p])
            .is_err());
        // A refused snapshot changed nothing, and the optimizer still steps.
        assert_eq!(adam.learning_rate(), 0.1);
        assert_eq!(adam.step_count(), 0);
        assert!(adam.slots().is_empty());
        descend(&mut adam, &mut p, 1);
        assert!(adam.load_state(state(vec![one(); 2]), &[&mut p]).is_ok());
        assert_eq!(adam.step_count(), 9);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        let mut opt = Adam::new(0.1);
        let mut p = quadratic_param(1.0);
        p.grad = Tensor::from_vec([1], vec![1234.0]);
        opt.step(&mut [&mut p]);
        assert!((p.value.at(0) - 0.9).abs() < 1e-3, "got {}", p.value.at(0));
    }
}
