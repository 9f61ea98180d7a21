//! A federated client: local data shard, personal model, optimizer, and
//! the local-update primitives the algorithms compose.

// C1: a length, count or id narrowed by `as` wraps silently; use `try_from`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::config::HyperParams;
use bytes::BufMut;
use fca_data::augment::AugmentConfig;
use fca_data::Dataset;
use fca_models::classifier::ClassifierWeights;
use fca_models::ClientModel;
use fca_nn::loss::{accuracy, cross_entropy, prototype_loss, supervised_contrastive};
use fca_nn::optim::{Adam, OptState, Optimizer};
use fca_nn::Module as _;
use fca_tensor::rng::{derive_seed, SnapRng};
use fca_tensor::serialize::{encode_tensor, encoded_len, Reader, WireError};
use fca_tensor::{Tensor, Workspace, WorkspaceStats};
use std::sync::Arc;

/// Diagnostics from one local update.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalStats {
    /// Mean cross-entropy loss over the update's batches.
    pub ce_loss: f32,
    /// Mean contrastive loss.
    pub cl_loss: f32,
    /// Mean proximal distance ‖C_k − C‖₂.
    pub prox_dist: f32,
    /// Batches processed.
    pub batches: usize,
}

/// Switches for the FedClassAvg local objective — the ablation grid of
/// Table 4 maps directly onto these flags.
#[derive(Clone, Copy, Debug)]
pub struct LocalObjective {
    /// Apply the supervised contrastive term `L^CL`.
    pub contrastive: bool,
    /// Proximal weight ρ (0 disables `L^R`).
    pub rho: f32,
}

/// Layout version of [`Client::snapshot_blob`]; bump on any change.
const SNAPSHOT_VERSION: u8 = 1;

/// A snapshot blob as the fleet and a checkpoint hold it: shared by
/// reference count, so a cold slot, a captured checkpoint and the fleet it
/// is restored onto all point at the one buffer [`Client::snapshot_blob`]
/// (or the checkpoint decoder) wrote.
pub type SnapshotBlob = Arc<Vec<u8>>;

/// Bytes of one RNG position in a blob (four `u64` words).
const RNG_LEN: usize = 32;

/// A blob whose RNG-position or state-tensor count is not this model's.
const OTHER_ARCH: WireError =
    WireError::Malformed("snapshot was taken from a different architecture");

/// One federated client.
pub struct Client {
    /// Client id (stable across rounds).
    pub id: usize,
    /// The personal model `f_k = C_k ∘ F_k`.
    pub model: ClientModel,
    /// Local training shard.
    pub train_data: Dataset,
    /// Local test shard (distribution-matched to training).
    pub test_data: Dataset,
    /// Augmentation pipeline for the contrastive views.
    pub augment: AugmentConfig,
    /// Aggregation weight `|D_k| / |D|`.
    pub weight: f32,
    optimizer: Adam,
    rng: SnapRng,
    /// Scratch shared by every forward/backward this client runs. Batch
    /// shapes repeat across epochs, so the pool converges after the first
    /// epoch and steady-state training allocates nothing.
    workspace: Workspace,
    batch_idx: Vec<usize>,
    batch_images: Vec<f32>,
    batch_labels: Vec<usize>,
}

impl Client {
    /// Assemble a client. `seed` feeds the client's private RNG stream.
    #[expect(
        clippy::too_many_arguments,
        reason = "a client is these eight parts; every caller has each in hand"
    )]
    pub fn new(
        id: usize,
        model: ClientModel,
        train_data: Dataset,
        test_data: Dataset,
        augment: AugmentConfig,
        weight: f32,
        hp: &HyperParams,
        seed: u64,
    ) -> Self {
        assert!(
            !train_data.is_empty(),
            "client {id} has an empty training shard"
        );
        Client {
            id,
            model,
            train_data,
            test_data,
            augment,
            weight,
            optimizer: Adam::new(hp.lr),
            rng: SnapRng::seed_from(derive_seed(seed, 0xC0FFEE + id as u64)),
            workspace: Workspace::new(),
            batch_idx: Vec::new(),
            batch_images: Vec::new(),
            batch_labels: Vec::new(),
        }
    }

    /// Serialize every mutable piece of this client's training state into
    /// a compact blob: optimizer trajectory (learning rate, step count,
    /// moment tensors), the client's private RNG position, the
    /// model's layer-owned RNG positions (dropout), and the full model
    /// state (params + buffers). Rebuilding a pristine twin from the same
    /// seeds and calling [`Client::restore_snapshot`] with this blob
    /// yields a client whose future trajectory is bit-identical to one
    /// that was never serialized — the paging determinism contract
    /// (DESIGN.md §7.6).
    ///
    /// The blob deliberately excludes the data shards, augmentation
    /// config, and workspace: shards are immutable and derivable from the
    /// fleet's partition, and workspace contents never influence numerics
    /// (every slot is fully overwritten before use).
    #[expect(
        clippy::expect_used,
        reason = "encode side of a local artifact: a count above u32::MAX or a tensor rank above 255 is a program bug, and truncating it silently would corrupt the blob"
    )]
    pub fn snapshot_blob(&mut self) -> Vec<u8> {
        // Counts and tensor headers are architecture-sized; one that does
        // not fit the blob's u32 / u8 fields is a program bug, so the
        // encoder refuses loudly instead of truncating.
        self.write_snapshot()
            .expect("client state exceeds the snapshot format's fields")
    }

    /// [`Client::snapshot_blob`]'s body: sizes the blob exactly, then
    /// encodes every tensor straight from where it lives.
    fn write_snapshot(&mut self) -> Result<Vec<u8>, WireError> {
        fn put_count(buf: &mut Vec<u8>, n: usize) -> Result<(), WireError> {
            let n = u32::try_from(n).map_err(|_| WireError::Unencodable("snapshot count"))?;
            buf.put_u32_le(n);
            Ok(())
        }
        fn put_rng(buf: &mut Vec<u8>, rng: &SnapRng) {
            for word in rng.state() {
                buf.put_u64_le(word);
            }
        }
        let slots = self.optimizer.slots();
        let n_rngs = self.model.rng_slots().len();
        let (n_state, state_len) = self.model.state_extent();
        let slots_len: usize = slots.iter().map(|t| encoded_len(t)).sum();
        let len = 1 + 4 + 8 + 4 + slots_len + RNG_LEN + 4 + n_rngs * RNG_LEN + 4 + state_len;

        let mut buf = Vec::with_capacity(len);
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_f32_le(self.optimizer.learning_rate());
        buf.put_u64_le(self.optimizer.step_count());
        put_count(&mut buf, slots.len())?;
        for t in slots {
            encode_tensor(t, &mut buf)?;
        }
        put_rng(&mut buf, &self.rng);
        put_count(&mut buf, n_rngs)?;
        for rng in self.model.rng_slots() {
            put_rng(&mut buf, rng);
        }
        put_count(&mut buf, n_state)?;
        self.model
            .try_for_each_state(|t| encode_tensor(t, &mut buf))?;
        debug_assert_eq!(buf.len(), len, "snapshot length was mis-sized");
        Ok(buf)
    }

    /// Restore a [`Client::snapshot_blob`] onto a twin built from the same
    /// seeds and architecture: model tensors are read straight into the
    /// existing ones, optimizer slots are decoded once and moved in.
    ///
    /// Blobs are written to and read from checkpoint files, so every read
    /// is length-checked and every count and tensor shape is held against
    /// this client's own: a truncated, bit-flipped or foreign blob is an
    /// `Err`, never a panic. After an `Err` the client may be partly
    /// overwritten — discard it. [`crate::fleet::Fleet::restore_snapshots`]
    /// runs this on a scratch twin first, so a blob that reaches a
    /// hydration has already restored cleanly once.
    pub fn restore_snapshot(&mut self, blob: &[u8]) -> Result<(), WireError> {
        fn rng(r: &mut Reader) -> Result<SnapRng, WireError> {
            SnapRng::try_from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
                .ok_or(WireError::Malformed("snapshot RNG position is all zeros"))
        }
        let mut r = Reader::new(blob);
        if r.u8()? != SNAPSHOT_VERSION {
            return Err(WireError::Malformed("unknown snapshot version"));
        }
        let (lr, step) = (r.f32()?, r.u64()?);
        // A tensor is at least its rank byte.
        let slots = (0..r.count(1)?)
            .map(|_| r.tensor())
            .collect::<Result<_, _>>()?;
        self.optimizer
            .load_state(OptState { lr, step, slots }, &self.model.params_mut())?;
        self.rng = rng(&mut r)?;
        let rng_slots = self.model.rng_slots();
        if r.count(RNG_LEN)? != rng_slots.len() {
            return Err(OTHER_ARCH);
        }
        for slot in rng_slots {
            *slot = rng(&mut r)?;
        }
        let mut unread = r.count(1)?;
        self.model.try_for_each_state(|t| {
            unread = unread.checked_sub(1).ok_or(OTHER_ARCH)?;
            r.tensor_into(t)
        })?;
        if unread != 0 {
            return Err(OTHER_ARCH);
        }
        r.finish()
    }

    /// Swap this client's scratch workspace (pool checkout on hydrate).
    pub(crate) fn swap_workspace(&mut self, ws: Workspace) -> Workspace {
        std::mem::replace(&mut self.workspace, ws)
    }

    /// Allocation counters of the client's scratch workspace.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Reset the workspace counters (buffers are kept — only the stats
    /// restart, so a warmed-up client can prove it no longer allocates).
    pub fn reset_workspace_stats(&mut self) {
        self.workspace.reset_stats();
    }

    /// Local accuracy on the client's test shard (eval mode, batched).
    pub fn evaluate(&mut self) -> f32 {
        if self.test_data.is_empty() {
            return 0.0;
        }
        let mut correct = 0.0f32;
        let mut total = 0usize;
        let n = self.test_data.len();
        let (c, h, w) = self.test_data.image_shape();
        let bs = 256;
        let mut i = 0;
        while i < n {
            let hi = (i + bs).min(n);
            self.batch_idx.clear();
            self.batch_idx.extend(i..hi);
            self.test_data.gather_batch_into(
                &self.batch_idx,
                &mut self.batch_images,
                &mut self.batch_labels,
            );
            let bsz = self.batch_labels.len();
            let mut x = self.workspace.tensor([bsz, c, h, w]);
            x.data_mut().copy_from_slice(&self.batch_images);
            let logits = self.model.predict(&x, &mut self.workspace);
            correct += accuracy(&logits, &self.batch_labels) * bsz as f32;
            total += bsz;
            self.workspace.recycle(logits);
            self.workspace.recycle(x);
            i = hi;
        }
        correct / total as f32
    }

    /// The one local-training loop: `epochs` passes over the shard in
    /// shuffled batches; per batch the gradients are zeroed, `step`
    /// accumulates them (and its losses into the stats), and the
    /// optimizer steps.
    fn train_epochs(
        &mut self,
        epochs: usize,
        hp: &HyperParams,
        mut step: impl FnMut(&mut Self, &Tensor, &[usize], &mut LocalStats),
    ) -> LocalStats {
        let mut stats = LocalStats::default();
        for _ in 0..epochs {
            for batch in self.train_data.batch_indices(hp.batch_size, &mut self.rng) {
                let (x, y) = self.train_data.gather_batch(&batch);
                self.model.zero_grad();
                step(self, &x, &y, &mut stats);
                self.optimizer.step(&mut self.model.params_mut());
                stats.batches += 1;
            }
        }
        if stats.batches > 0 {
            let inv = 1.0 / stats.batches as f32;
            stats.ce_loss *= inv;
            stats.cl_loss *= inv;
            stats.prox_dist *= inv;
        }
        stats
    }

    /// The cross-entropy step every supervised objective shares: forward,
    /// loss, backward. `extra` runs between the loss and the backward pass,
    /// on the model and the batch's features: it may add to the gradients
    /// already (a proximal pull) or return a feature-space gradient for
    /// the backward pass to carry.
    fn ce_step(
        &mut self,
        x: &Tensor,
        y: &[usize],
        stats: &mut LocalStats,
        extra: impl FnOnce(&mut ClientModel, &Tensor, &mut LocalStats) -> Option<Tensor>,
    ) {
        let (features, logits) = self.model.forward(x, true, &mut self.workspace);
        let (ce, d_logits) = cross_entropy(&logits, y);
        let d_feat = extra(&mut self.model, &features, stats);
        self.workspace.recycle(features);
        self.workspace.recycle(logits);
        self.model
            .backward(d_feat.as_ref(), &d_logits, &mut self.workspace);
        stats.ce_loss += ce;
    }

    /// FedClassAvg local update (paper Eq. 4): `E` epochs of
    /// `L^CL + L^CE + ρ·L^R` against the broadcast global classifier.
    ///
    /// When `global` is `None` (round 0 bootstrap or pure-local ablation)
    /// the proximal term is skipped.
    pub fn local_update_fedclassavg(
        &mut self,
        global: Option<&ClassifierWeights>,
        hp: &HyperParams,
        obj: LocalObjective,
    ) -> LocalStats {
        let proximal = |model: &mut ClientModel, stats: &mut LocalStats| {
            if let (Some(g), true) = (global, obj.rho > 0.0) {
                stats.prox_dist += model.classifier.accumulate_proximal(g, obj.rho);
            }
        };
        if !obj.contrastive {
            // CE (and optionally proximal) only — the CA / CA+PR ablation
            // rows.
            return self.train_epochs(hp.local_epochs, hp, |c, x, y, stats| {
                c.ce_step(x, y, stats, |model, _, stats| {
                    proximal(model, stats);
                    None
                })
            });
        }
        self.train_epochs(hp.local_epochs, hp, |c, x, y, stats| {
            let b = y.len();
            // Two views, one forward on the 2B concatenation.
            let (v1, v2) = c.augment.two_views(x, &mut c.rng);
            let both = Tensor::concat_rows(&[
                &v1.reshaped([b, v1.numel() / b]),
                &v2.reshaped([b, v2.numel() / b]),
            ]);
            let (_, ch, h, w) = x.shape().as_nchw();
            let both = both.reshape([2 * b, ch, h, w]);
            let features = c.model.forward_features(&both, true, &mut c.workspace);

            // CE on view-1 logits (paper: ŷ predicted from x').
            let feats1 = features.rows(0, b);
            let logits = c.model.classifier.forward(&feats1, true, &mut c.workspace);
            let (ce, d_logits) = cross_entropy(&logits, y);
            c.workspace.recycle(logits);

            // SupCon over both views.
            let labels2: Vec<usize> = y.iter().chain(y.iter()).copied().collect();
            let (cl, d_feat_cl) = supervised_contrastive(&features, &labels2, hp.temperature);
            c.workspace.recycle(features);

            // Backward: classifier path first, then the extractor sees
            // CE-gradient (view 1 rows) + contrastive gradient.
            let d_feat_ce = c.model.classifier.backward(&d_logits, &mut c.workspace);
            let mut d_feat = d_feat_cl;
            for r in 0..b {
                let dst = d_feat.row_mut(r);
                for (di, &si) in dst.iter_mut().zip(d_feat_ce.row(r)) {
                    *di += si;
                }
            }
            c.workspace.recycle(d_feat_ce);
            proximal(&mut c.model, stats);
            c.model.backward_features_only(&d_feat, &mut c.workspace);

            stats.ce_loss += ce;
            stats.cl_loss += cl;
        })
    }

    /// Plain supervised local update (baseline / FedAvg / KT-pFL local
    /// phase): `E` epochs of cross-entropy only.
    pub fn local_update_supervised(&mut self, epochs: usize, hp: &HyperParams) -> LocalStats {
        self.train_epochs(epochs, hp, |c, x, y, stats| {
            c.ce_step(x, y, stats, |_, _, _| None)
        })
    }

    /// FedProx local update: cross-entropy plus `(μ/2)‖w − w_global‖²`
    /// over **all** parameters.
    pub fn local_update_fedprox(
        &mut self,
        global_state: &[Tensor],
        mu: f32,
        hp: &HyperParams,
    ) -> LocalStats {
        self.train_epochs(hp.local_epochs, hp, |c, x, y, stats| {
            c.ce_step(x, y, stats, |_, _, _| None);
            // Proximal pull on every trainable parameter.
            let mut params = c.model.params_mut();
            assert!(
                params.len() <= global_state.len(),
                "global state too short for FedProx"
            );
            for (p, g) in params.iter_mut().zip(global_state) {
                let diff = p.value.sub(g);
                p.grad.axpy(mu, &diff);
            }
        })
    }

    /// FedProto local update: cross-entropy plus `λ‖F(x) − proto_y‖²`.
    pub fn local_update_fedproto(
        &mut self,
        prototypes: &[Option<Tensor>],
        lambda: f32,
        hp: &HyperParams,
    ) -> LocalStats {
        self.train_epochs(hp.local_epochs, hp, |c, x, y, stats| {
            c.ce_step(x, y, stats, |_, features, stats| {
                let (pl, mut d_feat) = prototype_loss(features, y, prototypes);
                d_feat.scale(lambda);
                stats.cl_loss += pl * lambda;
                Some(d_feat)
            })
        })
    }

    /// Compute local per-class mean features over the training shard
    /// (FedProto uplink). Classes with no local examples yield `None`.
    pub fn compute_prototypes(&mut self) -> Vec<Option<Tensor>> {
        let k = self.train_data.num_classes;
        let d = self.model.feature_dim();
        let mut sums = vec![Tensor::zeros([d]); k];
        let mut counts = vec![0usize; k];
        let n = self.train_data.len();
        let bs = 256;
        let mut i = 0;
        while i < n {
            let hi = (i + bs).min(n);
            self.batch_idx.clear();
            self.batch_idx.extend(i..hi);
            let (x, y) = self.train_data.gather_batch(&self.batch_idx);
            let features = self
                .model
                .feature_extractor
                .forward(&x, false, &mut self.workspace);
            for (r, &label) in y.iter().enumerate() {
                for (s, &f) in sums[label].data_mut().iter_mut().zip(features.row(r)) {
                    *s += f;
                }
                counts[label] += 1;
            }
            self.workspace.recycle(features);
            i = hi;
        }
        sums.into_iter()
            .zip(counts)
            .map(|(mut s, c)| {
                if c == 0 {
                    None
                } else {
                    s.scale(1.0 / c as f32);
                    Some(s)
                }
            })
            .collect()
    }

    /// Logits on an external batch (KT-pFL public data), eval mode.
    pub fn logits_on(&mut self, x: &Tensor) -> Tensor {
        self.model.predict(x, &mut self.workspace)
    }

    /// Distill toward soft targets on external data for `steps` batches of
    /// `batch_size` (KT-pFL's knowledge-transfer phase).
    pub fn distill(
        &mut self,
        public: &Tensor,
        targets: &Tensor,
        temperature: f32,
        steps: usize,
        batch_size: usize,
    ) -> f32 {
        use fca_nn::loss::kl_distillation;
        let n = public.shape().as_nchw().0;
        let mut total = 0.0;
        for s in 0..steps {
            let lo = (s * batch_size) % n;
            let hi = (lo + batch_size).min(n);
            if hi <= lo {
                continue;
            }
            self.batch_idx.clear();
            self.batch_idx.extend(lo..hi);
            let x = gather_images(public, &self.batch_idx);
            let t = gather_rows(targets, &self.batch_idx);
            self.model.zero_grad();
            let (features, logits) = self.model.forward(&x, true, &mut self.workspace);
            let (kl, d_logits) = kl_distillation(&logits, &t, temperature);
            self.workspace.recycle(features);
            self.workspace.recycle(logits);
            self.model.backward(None, &d_logits, &mut self.workspace);
            self.optimizer.step(&mut self.model.params_mut());
            total += kl;
        }
        total / steps.max(1) as f32
    }
}

/// Gather images by index from an NCHW tensor.
pub fn gather_images(t: &Tensor, idx: &[usize]) -> Tensor {
    let (_, c, h, w) = t.shape().as_nchw();
    let sz = c * h * w;
    let mut data = Vec::with_capacity(idx.len() * sz);
    for &i in idx {
        data.extend_from_slice(t.image(i));
    }
    Tensor::from_vec([idx.len(), c, h, w], data)
}

/// Gather rows by index from a rank-2 tensor.
pub fn gather_rows(t: &Tensor, idx: &[usize]) -> Tensor {
    let (_, cols) = t.shape().as_matrix();
    let mut data = Vec::with_capacity(idx.len() * cols);
    for &i in idx {
        data.extend_from_slice(t.row(i));
    }
    Tensor::from_vec([idx.len(), cols], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_data::synth::tiny_dataset;
    use fca_models::{build_model, ModelArch};

    fn tiny_client(seed: u64) -> Client {
        let d = tiny_dataset(3, 48, 24, seed);
        let model = build_model(ModelArch::CnnFedAvg, (1, 12, 12), 8, 3, seed);
        let hp = HyperParams::micro_default().with_lr(5e-3);
        Client::new(
            0,
            model,
            d.train,
            d.test,
            AugmentConfig::mnist_like(),
            1.0,
            &hp,
            seed,
        )
    }

    #[test]
    fn supervised_update_reduces_loss() {
        let mut c = tiny_client(601);
        let hp = HyperParams::micro_default().with_lr(5e-3);
        let first = c.local_update_supervised(1, &hp);
        for _ in 0..8 {
            c.local_update_supervised(1, &hp);
        }
        let last = c.local_update_supervised(1, &hp);
        assert!(
            last.ce_loss < first.ce_loss,
            "loss did not decrease: {} → {}",
            first.ce_loss,
            last.ce_loss
        );
    }

    #[test]
    fn fedclassavg_update_produces_all_loss_terms() {
        let mut c = tiny_client(602);
        let hp = HyperParams::micro_default();
        let global = ClassifierWeights::zeros(8, 3);
        let stats = c.local_update_fedclassavg(
            Some(&global),
            &hp,
            LocalObjective {
                contrastive: true,
                rho: 0.1,
            },
        );
        assert!(stats.batches > 0);
        assert!(stats.ce_loss > 0.0);
        assert!(stats.cl_loss > 0.0, "contrastive loss missing");
        assert!(stats.prox_dist > 0.0, "proximal distance missing");
    }

    #[test]
    fn ablation_flags_disable_terms() {
        let mut c = tiny_client(603);
        let hp = HyperParams::micro_default();
        let global = ClassifierWeights::zeros(8, 3);
        let stats = c.local_update_fedclassavg(
            Some(&global),
            &hp,
            LocalObjective {
                contrastive: false,
                rho: 0.0,
            },
        );
        assert_eq!(stats.cl_loss, 0.0);
        assert_eq!(stats.prox_dist, 0.0);
        assert!(stats.ce_loss > 0.0);
    }

    #[test]
    fn evaluate_in_unit_range_and_improves_with_training() {
        let mut c = tiny_client(604);
        let hp = HyperParams::micro_default().with_lr(5e-3);
        let before = c.evaluate();
        assert!((0.0..=1.0).contains(&before));
        for _ in 0..20 {
            c.local_update_supervised(1, &hp);
        }
        let after = c.evaluate();
        assert!(
            after > before || after > 0.6,
            "no improvement: {before} → {after}"
        );
    }

    #[test]
    fn prototypes_cover_local_classes_only() {
        let mut c = tiny_client(605);
        // Restrict the shard to classes {0, 1}.
        let keep: Vec<usize> = (0..c.train_data.len())
            .filter(|&i| c.train_data.labels[i] < 2)
            .collect();
        c.train_data = c.train_data.subset(&keep);
        let protos = c.compute_prototypes();
        assert!(protos[0].is_some());
        assert!(protos[1].is_some());
        assert!(protos[2].is_none());
        assert_eq!(protos[0].as_ref().map(|p| p.numel()), Some(8));
    }

    #[test]
    fn fedprox_update_pulls_toward_global() {
        let mut c = tiny_client(606);
        let hp = HyperParams::micro_default().with_lr(1e-2);
        let global: Vec<Tensor> = c
            .model
            .params_mut()
            .iter()
            .map(|p| Tensor::zeros(p.value.shape().clone()))
            .collect();
        let norm_before: f32 = c
            .model
            .params_mut()
            .iter()
            .map(|p| p.value.sq_norm())
            .sum::<f32>();
        // Huge μ dominates: weights should shrink toward zero.
        for _ in 0..5 {
            c.local_update_fedprox(&global, 50.0, &hp);
        }
        let norm_after: f32 = c
            .model
            .params_mut()
            .iter()
            .map(|p| p.value.sq_norm())
            .sum::<f32>();
        assert!(norm_after < norm_before, "{norm_before} → {norm_after}");
    }

    #[test]
    fn distill_moves_student_toward_teacher() {
        let mut c = tiny_client(607);
        let mut rng = fca_tensor::rng::seeded_rng(608);
        let public = Tensor::randn([16, 1, 12, 12], 1.0, &mut rng);
        // Teacher: uniform targets.
        let targets = Tensor::full([16, 3], 1.0 / 3.0);
        let kl0 = {
            use fca_nn::loss::kl_distillation;
            let logits = c.logits_on(&public);
            kl_distillation(&logits, &targets, 2.0).0
        };
        for _ in 0..10 {
            c.distill(&public, &targets, 2.0, 4, 8);
        }
        let kl1 = {
            use fca_nn::loss::kl_distillation;
            let logits = c.logits_on(&public);
            kl_distillation(&logits, &targets, 2.0).0
        };
        assert!(kl1 < kl0, "distillation did not reduce KL: {kl0} → {kl1}");
    }

    #[test]
    fn workspace_reaches_steady_state_after_warmup() {
        let mut c = tiny_client(610);
        let hp = HyperParams::micro_default().with_lr(5e-3);
        // Warm-up: two full train+eval cycles let the pool converge (batch
        // shapes repeat identically from epoch to epoch).
        for _ in 0..2 {
            c.local_update_supervised(1, &hp);
            c.evaluate();
        }
        c.reset_workspace_stats();
        c.local_update_supervised(1, &hp);
        c.evaluate();
        let stats = c.workspace_stats();
        assert_eq!(
            stats.allocations, 0,
            "steady-state epoch allocated fresh buffers: {stats:?}"
        );
        assert!(stats.reuses > 0, "workspace was never exercised: {stats:?}");
    }

    #[test]
    fn contrastive_update_reaches_steady_state_too() {
        let mut c = tiny_client(611);
        let hp = HyperParams::micro_default();
        let global = ClassifierWeights::zeros(8, 3);
        let obj = LocalObjective {
            contrastive: true,
            rho: 0.1,
        };
        for _ in 0..2 {
            c.local_update_fedclassavg(Some(&global), &hp, obj);
        }
        c.reset_workspace_stats();
        c.local_update_fedclassavg(Some(&global), &hp, obj);
        let stats = c.workspace_stats();
        assert_eq!(
            stats.allocations, 0,
            "steady-state contrastive epoch allocated: {stats:?}"
        );
    }

    /// Client with a dropout-bearing backbone (MicroAlexNet) so snapshot
    /// tests exercise model-owned RNG positions, not just the client rng.
    fn dropout_client(seed: u64, hp: &HyperParams) -> Client {
        let d = tiny_dataset(3, 48, 24, seed);
        let model = build_model(ModelArch::MicroAlexNet, (1, 12, 12), 8, 3, seed);
        Client::new(
            0,
            model,
            d.train,
            d.test,
            AugmentConfig::mnist_like(),
            1.0,
            hp,
            seed,
        )
    }

    /// Mid-training snapshot → restore onto a pristine twin → both
    /// trajectories (losses with contrastive-augmentation RNG draws,
    /// dropout masks, optimizer moments, final accuracy and weights) must
    /// be bit-identical.
    fn assert_snapshot_fidelity(hp: &HyperParams) {
        let mut a = dropout_client(612, hp);
        for _ in 0..2 {
            a.local_update_supervised(1, hp);
        }
        let blob = a.snapshot_blob();
        let mut b = dropout_client(612, hp);
        b.restore_snapshot(&blob).expect("restore");
        assert_eq!(
            b.snapshot_blob(),
            blob,
            "restored client re-encodes differently"
        );
        let obj = LocalObjective {
            contrastive: true,
            rho: 0.0,
        };
        for step in 0..3 {
            let sa = a.local_update_fedclassavg(None, hp, obj);
            let sb = b.local_update_fedclassavg(None, hp, obj);
            assert_eq!(
                sa.ce_loss.to_bits(),
                sb.ce_loss.to_bits(),
                "CE loss diverged at step {step}"
            );
            assert_eq!(
                sa.cl_loss.to_bits(),
                sb.cl_loss.to_bits(),
                "contrastive loss diverged at step {step}"
            );
        }
        assert_eq!(
            a.evaluate().to_bits(),
            b.evaluate().to_bits(),
            "accuracy diverged after restore"
        );
        assert_eq!(
            a.model.full_state(),
            b.model.full_state(),
            "model weights diverged after restore"
        );
        // The RNG positions themselves must also have converged.
        assert_eq!(a.rng.state(), b.rng.state());
    }

    #[test]
    fn snapshot_restores_bit_identical_trajectory_adam() {
        assert_snapshot_fidelity(&HyperParams::micro_default());
    }

    #[test]
    fn snapshot_rejects_version_mismatch() {
        let hp = HyperParams::micro_default();
        let mut a = dropout_client(615, &hp);
        let mut blob = a.snapshot_blob();
        blob[0] = SNAPSHOT_VERSION + 1;
        let mut b = dropout_client(615, &hp);
        assert_eq!(
            b.restore_snapshot(&blob),
            Err(WireError::Malformed("unknown snapshot version"))
        );
    }

    #[test]
    fn snapshot_rejects_zeroed_rng_positions() {
        // 32 zero bytes where an RNG position belongs — the client's own,
        // or a dropout layer's — are damage, not a position: an `Err`.
        let hp = HyperParams::micro_default();
        let mut a = dropout_client(617, &hp);
        a.local_update_supervised(1, &hp);
        let blob = a.snapshot_blob();
        let slots: usize = a.optimizer.slots().iter().map(|t| encoded_len(t)).sum();
        let client_rng = 1 + 4 + 8 + 4 + slots;
        assert!(!a.model.rng_slots().is_empty());
        for at in [client_rng, client_rng + RNG_LEN + 4] {
            let mut zeroed = blob.clone();
            zeroed[at..at + RNG_LEN].fill(0);
            assert_eq!(
                dropout_client(617, &hp).restore_snapshot(&zeroed),
                Err(WireError::Malformed("snapshot RNG position is all zeros")),
                "window at {at}"
            );
        }
        dropout_client(617, &hp)
            .restore_snapshot(&blob)
            .expect("the blob itself");
    }

    #[test]
    fn snapshot_rejects_architecture_mismatch() {
        let hp = HyperParams::micro_default();
        let mut a = dropout_client(614, &hp);
        a.local_update_supervised(1, &hp);
        let blob = a.snapshot_blob();
        let mut b = tiny_client(614); // CnnFedAvg: other params, no dropout rng slots
        assert!(b.restore_snapshot(&blob).is_err());
        // The refusal is an error value: the client is still usable.
        b.local_update_supervised(1, &hp);
    }

    /// The parent commit's encoder, kept as the reference the blob layout is
    /// held against: clone every piece of state, append field by field.
    fn reference_snapshot(c: &mut Client) -> Vec<u8> {
        use bytes::BytesMut;
        let mut buf = BytesMut::new();
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_f32_le(c.optimizer.learning_rate());
        buf.put_u64_le(c.optimizer.step_count());
        let slots: Vec<Tensor> = c.optimizer.slots().into_iter().cloned().collect();
        buf.put_u32_le(slots.len() as u32);
        for t in &slots {
            buf.put_u8(t.shape().rank() as u8);
            for &d in t.dims() {
                buf.put_u32_le(d as u32);
            }
            for &v in t.data() {
                buf.put_f32_le(v);
            }
        }
        for word in c.rng.state() {
            buf.put_u64_le(word);
        }
        let model_rngs: Vec<[u64; 4]> = c.model.rng_slots().iter().map(|r| r.state()).collect();
        buf.put_u32_le(model_rngs.len() as u32);
        for word in model_rngs.into_iter().flatten() {
            buf.put_u64_le(word);
        }
        let state = c.model.full_state();
        buf.put_u32_le(state.len() as u32);
        for t in &state {
            buf.put_u8(t.shape().rank() as u8);
            for &d in t.dims() {
                buf.put_u32_le(d as u32);
            }
            for &v in t.data() {
                buf.put_f32_le(v);
            }
        }
        buf.to_vec()
    }

    #[test]
    fn snapshot_bytes_match_the_reference_encoder() {
        let hp = HyperParams::micro_default();
        let mut c = dropout_client(616, &hp);
        // Pristine (no optimizer slots yet), then mid-training.
        for _ in 0..2 {
            let blob = c.snapshot_blob();
            assert_eq!(blob, reference_snapshot(&mut c));
            assert_eq!(blob.capacity(), blob.len(), "blob was not sized exactly");
            c.local_update_supervised(1, &hp);
        }
    }

    #[test]
    #[should_panic(expected = "empty training shard")]
    fn rejects_empty_shard() {
        let d = tiny_dataset(3, 48, 24, 609);
        let model = build_model(ModelArch::CnnFedAvg, (1, 12, 12), 8, 3, 1);
        let hp = HyperParams::micro_default();
        Client::new(
            0,
            model,
            d.train.subset(&[]),
            d.test,
            AugmentConfig::identity(),
            1.0,
            &hp,
            1,
        );
    }
}
