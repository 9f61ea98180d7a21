//! Virtualized client fleets: the [`Fleet`] owns every client in a
//! federation, but only a bounded number of them exist as materialized
//! [`Client`] values at any moment. The rest live as compact snapshot
//! blobs ([`Client::snapshot_blob`]) plus per-client [`ClientMeta`]
//! records, and are *paged in* (rebuilt from the fleet's seeds, restored
//! from their blob, handed a pooled [`Workspace`]) only for the rounds
//! that sample them. This is what lets a 100k-client cross-device
//! simulation run on one box: memory scales with the residency cap and
//! the dataset, not with the fleet.
//!
//! ## Determinism contract (the refactor oracle)
//!
//! A paged fleet is **bit-identical** to a fully resident fleet at the
//! same seed. Three properties make that hold, and the equivalence tests
//! in `tests/fleet_equivalence.rs` pin each one:
//!
//! 1. Every mutable piece of client state rides in the snapshot blob —
//!    optimizer trajectory, the client's private RNG position, and the
//!    model's layer-owned RNG positions (dropout) included.
//! 2. Hydration rebuilds the pristine client through the *same* seed
//!    derivations as eager construction (`0xBEEF + id` for model init,
//!    `0xF00D + id` for the client stream), so a `Cold(None)` slot and a
//!    never-paged client start from the same bits.
//! 3. Workspace contents never influence numerics (every slot is fully
//!    overwritten before use), so handing a recycled pool workspace to a
//!    hydrated client is invisible to training.
//!
//! Pool *occupancy* (resident count, high-water mark) depends on worker
//! scheduling and is only bounded — never asserted exact — while paging
//! *counts* (page-ins, page-outs, bytes) are deterministic per run shape.

use crate::client::{Client, SnapshotBlob};
use crate::config::HyperParams;
use fca_data::augment::AugmentConfig;
use fca_data::partition::ClientSplit;
use fca_data::Dataset;
use fca_models::{build_model, ModelArch};
use fca_tensor::rng::derive_seed;
use fca_tensor::serialize::WireError;
use fca_tensor::{PoolStats, Workspace, WorkspacePool, WorkspaceStats};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The always-resident descriptor of one client: everything the server
/// needs between rounds without materializing the model.
///
/// `weight` changes must go through [`Fleet::set_weight`] so the live
/// client (when one exists) and this record stay in sync.
#[derive(Clone, Debug)]
pub struct ClientMeta {
    /// Client id (stable across rounds; equals the slot index for fleets
    /// built by the partitioner).
    pub id: usize,
    /// The client's model architecture.
    pub arch: ModelArch,
    /// Aggregation weight `|D_k| / |D|`.
    pub weight: f32,
    /// Training indices into the fleet's parent train set.
    pub train_indices: Vec<usize>,
    /// Test indices into the fleet's parent test set.
    pub test_indices: Vec<usize>,
}

/// Paging counters accumulated over a fleet's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Cold clients materialized (training hydrations and evaluation
    /// hydrations both count).
    pub page_ins: u64,
    /// Snapshot blobs written back after training. Evaluation pages in
    /// without paging out — it mutates nothing, so the original blob
    /// stays valid and no bytes are written.
    pub page_outs: u64,
    /// Total snapshot bytes written by page-outs.
    pub page_bytes: u64,
}

/// One client's storage: materialized, or paged out to a blob.
enum Slot {
    /// Fully materialized client.
    Live(Box<Client>),
    /// Paged out. `None` means pristine — the client has never trained,
    /// so hydration rebuilds it from seeds alone with nothing to restore.
    /// A blob here was written by [`dehydrate`] or has passed
    /// [`Fleet::restore_snapshots`]' check, so it restores without error.
    Cold(Option<SnapshotBlob>),
}

/// Everything needed to rebuild a pristine client from its meta record:
/// the parent datasets, the shared hyperparameters, and the fleet seed
/// the per-client streams derive from.
pub(crate) struct Hydrator {
    train: Dataset,
    test: Dataset,
    augment: AugmentConfig,
    feature_dim: usize,
    hp: HyperParams,
    seed: u64,
}

impl Hydrator {
    /// Build the pristine client for `meta` — bit-identical to what eager
    /// fleet construction produces for the same id and seed.
    fn build_pristine(&self, meta: &ClientMeta) -> Client {
        let (c, h, w) = self.train.image_shape();
        let model = build_model(
            meta.arch,
            (c, h, w),
            self.feature_dim,
            self.train.num_classes,
            derive_seed(self.seed, 0xBEEF + meta.id as u64),
        );
        Client::new(
            meta.id,
            model,
            self.train.subset(&meta.train_indices),
            self.test.subset(&meta.test_indices),
            self.augment,
            meta.weight,
            &self.hp,
            derive_seed(self.seed, 0xF00D + meta.id as u64),
        )
    }
}

/// A federation's client fleet with bounded residency. See module docs.
pub struct Fleet {
    metas: Vec<ClientMeta>,
    slots: Vec<Slot>,
    hydrator: Hydrator,
    /// Upper bound on clients materialized at once by the scheduler.
    max_resident: usize,
    pool: WorkspacePool,
    page_ins: AtomicU64,
    page_outs: AtomicU64,
    page_bytes: AtomicU64,
}

impl Fleet {
    /// Build a fleet over partitioner splits.
    ///
    /// `max_resident = None` materializes every client eagerly (the
    /// classic cross-silo shape); `Some(r)` starts every client cold and
    /// caps the scheduler at `r` materialized clients per wave.
    #[expect(
        clippy::too_many_arguments,
        reason = "one crate-internal caller, `sim`, which holds each input separately"
    )]
    pub(crate) fn from_splits(
        train: &Dataset,
        test: &Dataset,
        splits: Vec<ClientSplit>,
        feature_dim: usize,
        hp: HyperParams,
        seed: u64,
        max_resident: Option<usize>,
        arch_of: &dyn Fn(usize) -> ModelArch,
    ) -> Fleet {
        let (c, h, w) = train.image_shape();
        let total: usize = splits.iter().map(|s| s.train_indices.len()).sum();
        let metas: Vec<ClientMeta> = splits
            .into_iter()
            .map(|split| ClientMeta {
                id: split.client_id,
                arch: arch_of(split.client_id),
                weight: split.train_indices.len() as f32 / total.max(1) as f32,
                train_indices: split.train_indices,
                test_indices: split.test_indices,
            })
            .collect();
        let hydrator = Hydrator {
            train: train.clone(),
            test: test.clone(),
            augment: AugmentConfig::for_image(c, h, w),
            feature_dim,
            hp,
            seed,
        };
        let slots = match max_resident {
            None => metas
                .iter()
                .map(|m| Slot::Live(Box::new(hydrator.build_pristine(m))))
                .collect(),
            Some(_) => metas.iter().map(|_| Slot::Cold(None)).collect(),
        };
        let cap = max_resident.unwrap_or(metas.len()).max(1);
        Fleet {
            metas,
            slots,
            hydrator,
            max_resident: cap,
            pool: WorkspacePool::new(),
            page_ins: AtomicU64::new(0),
            page_outs: AtomicU64::new(0),
            page_bytes: AtomicU64::new(0),
        }
    }

    /// Number of clients in the federation (resident or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the fleet has no clients.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Residency cap the scheduler honors per wave.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Per-client descriptor records.
    pub fn metas(&self) -> &[ClientMeta] {
        &self.metas
    }

    /// Descriptor of client `k`.
    pub fn meta(&self, k: usize) -> &ClientMeta {
        &self.metas[k]
    }

    /// Aggregation weight of client `k` (no materialization).
    pub fn weight(&self, k: usize) -> f32 {
        match &self.slots[k] {
            Slot::Live(c) => c.weight,
            Slot::Cold(_) => self.metas[k].weight,
        }
    }

    /// Set client `k`'s aggregation weight, keeping the meta record and
    /// the live client (if materialized) in sync.
    pub fn set_weight(&mut self, k: usize, weight: f32) {
        self.metas[k].weight = weight;
        if let Slot::Live(c) = &mut self.slots[k] {
            c.weight = weight;
        }
    }

    /// Mutable access to a materialized client. Panics on a cold slot —
    /// use [`Fleet::with_client`] when the fleet may be paged.
    #[expect(
        clippy::panic,
        reason = "caller contract: the accessor of resident fleets; a caller that may meet a paged-out client goes through with_client"
    )]
    pub fn client_mut(&mut self, k: usize) -> &mut Client {
        match &mut self.slots[k] {
            Slot::Live(c) => c,
            Slot::Cold(_) => panic!("client {k} is paged out; use with_client"),
        }
    }

    /// Iterate the currently materialized clients (all of them for a
    /// resident fleet; at most the residency cap for a paged one).
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Live(c) => Some(&**c),
            Slot::Cold(_) => None,
        })
    }

    /// Mutable twin of [`Fleet::clients`].
    pub fn clients_mut(&mut self) -> impl Iterator<Item = &mut Client> {
        self.slots.iter_mut().filter_map(|s| match s {
            Slot::Live(c) => Some(&mut **c),
            Slot::Cold(_) => None,
        })
    }

    /// Run `f` on client `k`, paging it in (and back out afterwards, since
    /// `f` may mutate it) when the slot is cold.
    pub fn with_client<R>(&mut self, k: usize, f: impl FnOnce(&mut Client) -> R) -> R {
        match &mut self.slots[k] {
            Slot::Live(c) => f(c),
            Slot::Cold(blob) => {
                let mut c = hydrate(&self.hydrator, &self.metas[k], blob.as_ref(), &self.pool);
                self.page_ins.fetch_add(1, Ordering::Relaxed);
                let out = f(&mut c);
                *blob = Some(dehydrate(&mut c, &self.pool, &self.page_bytes));
                self.page_outs.fetch_add(1, Ordering::Relaxed);
                out
            }
        }
    }

    /// Run `f` on every sampled client in parallel, leaving the rest
    /// untouched. `f` must communicate results through the network.
    ///
    /// `sampled` must be sorted and distinct
    /// ([`crate::sim::sample_clients`] guarantees this); the walk carves
    /// disjoint `&mut` slot references so rayon only ever sees the
    /// sampled clients — no scan over the full fleet, no hash set. Paged
    /// fleets process the sample in *waves* of at most `max_resident`
    /// clients; within a wave each worker hydrates its client, trains it,
    /// and pages it back out, so at most `max_resident` models exist at
    /// once. Per-client work is independent within a round, so the wave
    /// boundaries are invisible to the numerics.
    pub fn for_sampled_parallel<F>(&mut self, sampled: &[usize], f: F)
    where
        F: Fn(&mut Client) + Sync,
    {
        for chunk in sampled.chunks(self.max_resident) {
            let picked = carve(&mut self.slots, chunk);
            let hydrator = &self.hydrator;
            let metas = &self.metas;
            let pool = &self.pool;
            let page_ins = &self.page_ins;
            let page_outs = &self.page_outs;
            let page_bytes = &self.page_bytes;
            picked
                .into_par_iter()
                .zip(chunk.par_iter())
                .for_each(|(slot, &k)| match slot {
                    Slot::Live(c) => f(c),
                    Slot::Cold(blob) => {
                        let mut c = hydrate(hydrator, &metas[k], blob.as_ref(), pool);
                        page_ins.fetch_add(1, Ordering::Relaxed);
                        f(&mut c);
                        *blob = Some(dehydrate(&mut c, pool, page_bytes));
                        page_outs.fetch_add(1, Ordering::Relaxed);
                    }
                });
        }
    }

    /// Evaluate the given clients' local test accuracies, in `ids` order.
    ///
    /// Evaluation mutates no client state, so cold clients hydrate
    /// against their existing blob, evaluate, and are dropped — the blob
    /// stays as-is and nothing pages out. `ids` must be sorted and
    /// distinct, like a round's sample.
    pub fn evaluate_ids(&mut self, ids: &[usize]) -> Vec<f32> {
        let mut accs = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(self.max_resident) {
            let picked = carve(&mut self.slots, chunk);
            let hydrator = &self.hydrator;
            let metas = &self.metas;
            let pool = &self.pool;
            let page_ins = &self.page_ins;
            let wave_accs: Vec<f32> = picked
                .into_par_iter()
                .zip(chunk.par_iter())
                .map(|(slot, &k)| match slot {
                    Slot::Live(c) => c.evaluate(),
                    Slot::Cold(blob) => {
                        let mut c = hydrate(hydrator, &metas[k], blob.as_ref(), pool);
                        page_ins.fetch_add(1, Ordering::Relaxed);
                        let acc = c.evaluate();
                        pool.checkin(c.swap_workspace(Workspace::new()));
                        acc
                    }
                })
                .collect();
            accs.extend(wave_accs);
        }
        accs
    }

    /// Export every client's mutable state for a checkpoint: one entry per
    /// client, `None` for clients that have never trained (pristine —
    /// hydration rebuilds them from seeds alone). Live clients serialize
    /// through the same [`Client::snapshot_blob`] the pager uses, cold
    /// clients share their existing blob by reference count, so a
    /// checkpoint of a paged fleet and of a resident fleet at the same
    /// point are byte-identical per client.
    pub fn export_snapshots(&mut self) -> Vec<Option<SnapshotBlob>> {
        self.slots
            .iter_mut()
            .map(|s| match s {
                Slot::Live(c) => Some(Arc::new(c.snapshot_blob())),
                Slot::Cold(blob) => blob.clone(),
            })
            .collect()
    }

    /// Restore every client from checkpoint blobs (the inverse of
    /// [`Fleet::export_snapshots`]). The fleet must have been built over
    /// the same dataset/partition/seed so the pristine twins match.
    ///
    /// Every slot becomes `Cold(blob)` — the next hydration replays the
    /// blob, and the residency cap may differ from the checkpointing run's
    /// (elastic resize). That hydration runs mid-round inside the rayon
    /// region, where a bad blob could only abort the federation, so every
    /// blob is restored here first onto a scratch twin of its architecture:
    /// a damaged or foreign checkpoint is refused whole, before any slot
    /// changes.
    pub fn restore_snapshots(&mut self, blobs: Vec<Option<SnapshotBlob>>) -> Result<(), WireError> {
        if blobs.len() != self.slots.len() {
            return Err(WireError::Malformed(
                "checkpoint client count does not match the fleet",
            ));
        }
        #[expect(
            clippy::disallowed_types,
            reason = "lookup only: one scratch twin per architecture, never iterated, so its order cannot reach a result"
        )]
        let mut twins = std::collections::HashMap::new();
        for (meta, blob) in self.metas.iter().zip(&blobs) {
            if let Some(blob) = blob {
                twins
                    .entry(meta.arch)
                    .or_insert_with(|| self.hydrator.build_pristine(meta))
                    .restore_snapshot(blob)?;
            }
        }
        for (slot, blob) in self.slots.iter_mut().zip(blobs) {
            *slot = Slot::Cold(blob);
        }
        Ok(())
    }

    /// Re-shard the fleet in place to new partitioner splits — the drift
    /// engine's hook (`FedConfig::drift`). Each client's meta record takes
    /// the new train/test indices and a recomputed data-share weight; live
    /// clients have their local shards rebuilt from the fleet's parent
    /// datasets immediately, while cold clients pick the new shards up at
    /// their next hydration (snapshot blobs carry model/optimizer/RNG
    /// state, never data, so existing blobs stay valid). Models,
    /// optimizers, and RNG streams are untouched: drift moves the data
    /// under the clients, it does not reset them.
    pub fn apply_splits(&mut self, splits: Vec<ClientSplit>) {
        assert_eq!(
            splits.len(),
            self.metas.len(),
            "drift splits must cover the whole fleet"
        );
        let Fleet {
            metas,
            slots,
            hydrator: h,
            ..
        } = self;
        let total: usize = splits.iter().map(|s| s.train_indices.len()).sum();
        for split in splits {
            let k = split.client_id;
            assert!(
                !split.train_indices.is_empty(),
                "drift split left client {k} with no training data"
            );
            let weight = split.train_indices.len() as f32 / total.max(1) as f32;
            if let Slot::Live(c) = &mut slots[k] {
                c.train_data = h.train.subset(&split.train_indices);
                c.test_data = h.test.subset(&split.test_indices);
                c.weight = weight;
            }
            let meta = &mut metas[k];
            meta.train_indices = split.train_indices;
            meta.test_indices = split.test_indices;
            meta.weight = weight;
        }
    }

    /// Re-shard the fleet to a drift scenario's interpolation position:
    /// compute [`fca_data::drift::drifted_splits`] over the fleet's parent
    /// datasets (a pure function of `(seed, λ)` — nothing from earlier
    /// rounds feeds in, so resumed and uninterrupted runs re-derive the
    /// same shards) and apply them via [`Fleet::apply_splits`].
    pub fn drift_to(&mut self, seed: u64, alpha: f64, lambda_permille: u64) {
        let splits = fca_data::drift::drifted_splits(
            &self.hydrator.train,
            &self.hydrator.test,
            self.metas.len(),
            seed,
            alpha,
            lambda_permille,
        );
        self.apply_splits(splits);
    }

    /// Workspace-pool counters (checkouts, created, resident, high-water).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Bytes of scratch the workspace pool holds between tenants — flat
    /// from round to round once every architecture has been through it.
    pub fn pool_retained_bytes(&self) -> u64 {
        self.pool.retained_bytes()
    }

    /// Paging counters accumulated so far.
    pub fn paging_stats(&self) -> PagingStats {
        PagingStats {
            page_ins: self.page_ins.load(Ordering::Relaxed),
            page_outs: self.page_outs.load(Ordering::Relaxed),
            page_bytes: self.page_bytes.load(Ordering::Relaxed),
        }
    }

    /// Fold the *materialized* clients' workspace counters into one
    /// fleet-level point: `(live clients, allocations, reuses, max peak)`.
    /// O(resident) for a paged fleet — cold clients carry no workspace,
    /// their scratch lives in the pool.
    pub fn live_workspace_point(&self) -> (u64, WorkspaceStats) {
        let mut folded = WorkspaceStats::default();
        let mut live = 0u64;
        for c in self.clients() {
            let s = c.workspace_stats();
            folded.allocations += s.allocations;
            folded.reuses += s.reuses;
            folded.peak_bytes = folded.peak_bytes.max(s.peak_bytes);
            live += 1;
        }
        (live, folded)
    }
}

/// Carve disjoint `&mut Slot` references for a sorted, distinct id chunk.
fn carve<'a>(slots: &'a mut [Slot], ids: &[usize]) -> Vec<&'a mut Slot> {
    let mut picked: Vec<&mut Slot> = Vec::with_capacity(ids.len());
    let mut rest = slots;
    let mut offset = 0usize;
    for &k in ids {
        assert!(k >= offset, "sampled indices must be sorted and distinct");
        let tail = rest.split_at_mut(k - offset).1;
        #[expect(
            clippy::expect_used,
            reason = "sampled ids come from sample_clients over 0..num_clients, so the id is always in range; the assert above already enforces the sortedness half of the contract"
        )]
        let (s, tail) = tail.split_first_mut().expect("sampled index out of range");
        picked.push(s);
        rest = tail;
        offset = k + 1;
    }
    picked
}

/// Materialize one client: rebuild the pristine twin from seeds, restore
/// its snapshot (if it has trained before), and swap in a pooled
/// workspace in place of the empty one `Client::new` made.
fn hydrate(
    h: &Hydrator,
    meta: &ClientMeta,
    blob: Option<&SnapshotBlob>,
    pool: &WorkspacePool,
) -> Box<Client> {
    let mut c = Box::new(h.build_pristine(meta));
    if let Some(blob) = blob {
        #[expect(
            clippy::expect_used,
            reason = "slot invariant: a Cold blob was written by dehydrate or restored cleanly onto a twin of this architecture in restore_snapshots; bytes from a file never reach this call unchecked"
        )]
        c.restore_snapshot(blob)
            .expect("a parked snapshot restores onto its own architecture");
    }
    drop(c.swap_workspace(pool.checkout()));
    c
}

/// Page one client out: serialize its mutable state and return its
/// workspace to the pool. The client is dropped by the caller.
fn dehydrate(c: &mut Client, pool: &WorkspacePool, page_bytes: &AtomicU64) -> SnapshotBlob {
    let blob = c.snapshot_blob();
    page_bytes.fetch_add(blob.len() as u64, Ordering::Relaxed);
    pool.checkin(c.swap_workspace(Workspace::new()));
    Arc::new(blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use fca_data::partition::Partitioner;
    use fca_data::synth::tiny_dataset;

    fn small_fleet(max_resident: Option<usize>, seed: u64) -> Fleet {
        fleet_of(4, max_resident, seed)
    }

    /// `clients` clients on the four-way architecture rotation.
    fn fleet_of(clients: usize, max_resident: Option<usize>, seed: u64) -> Fleet {
        let data = tiny_dataset(3, 24 * clients, 12 * clients, seed);
        let cfg = FedConfig::new(20, HyperParams::micro_default(), 1, seed);
        let splits =
            Partitioner::Dirichlet { alpha: 0.5 }.split(&data.train, &data.test, clients, seed);
        Fleet::from_splits(
            &data.train,
            &data.test,
            splits,
            8,
            cfg.hp,
            seed,
            max_resident,
            &ModelArch::heterogeneous_rotation,
        )
    }

    #[test]
    fn paged_training_matches_resident_bit_for_bit() {
        let hp = HyperParams::micro_default();
        let mut resident = small_fleet(None, 951);
        let mut paged = small_fleet(Some(2), 951);
        let sampled = [0usize, 1, 2, 3];
        for _round in 0..2 {
            resident.for_sampled_parallel(&sampled, |c| {
                c.local_update_supervised(1, &hp);
            });
            paged.for_sampled_parallel(&sampled, |c| {
                c.local_update_supervised(1, &hp);
            });
        }
        for k in sampled {
            let a = resident.with_client(k, |c| c.model.full_state());
            let b = paged.with_client(k, |c| c.model.full_state());
            assert_eq!(a.len(), b.len());
            for (ta, tb) in a.iter().zip(&b) {
                let bits_a: Vec<u32> = ta.data().iter().map(|x| x.to_bits()).collect();
                let bits_b: Vec<u32> = tb.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "client {k} diverged under paging");
            }
        }
        assert_eq!(
            resident.evaluate_ids(&sampled),
            paged.evaluate_ids(&sampled),
            "evaluation diverged under paging"
        );
    }

    #[test]
    fn residency_stays_under_the_cap() {
        let hp = HyperParams::micro_default();
        let mut paged = small_fleet(Some(2), 952);
        let sampled = [0usize, 1, 2, 3];
        paged.for_sampled_parallel(&sampled, |c| {
            c.local_update_supervised(1, &hp);
        });
        let _ = paged.evaluate_ids(&sampled);
        let stats = paged.pool_stats();
        assert!(
            stats.high_water <= 2,
            "pool high-water {} exceeded the residency cap",
            stats.high_water
        );
        let paging = paged.paging_stats();
        assert_eq!(paging.page_ins, 8, "4 training + 4 evaluation hydrations");
        assert_eq!(paging.page_outs, 4, "only training pages out");
        assert!(paging.page_bytes > 0);
    }

    /// Run `op` on a rayon pool of exactly `threads` threads.
    fn on_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(op)
    }

    #[test]
    fn paged_rotation_holds_scratch_memory_flat() {
        // One thread, so one pooled workspace sees all four architectures in
        // turn, round after round: each tenant's layers must settle into the
        // buffers the previous tenants retired instead of adding their own.
        let hp = HyperParams::micro_default();
        let mut fleet = small_fleet(Some(2), 961);
        let sampled = [0usize, 1, 2, 3];
        let mut settled = None;
        on_threads(1, || {
            for round in 1..=50 {
                fleet.for_sampled_parallel(&sampled, |c| {
                    c.local_update_supervised(1, &hp);
                });
                let _ = fleet.evaluate_ids(&sampled);
                let point = (fleet.pool.peak_bytes(), fleet.pool_retained_bytes());
                assert!(point.1 > 0, "the pool holds no scratch");
                if round == 3 {
                    settled = Some(point);
                } else if round > 3 {
                    assert_eq!(
                        Some(point),
                        settled,
                        "scratch memory moved in round {round}"
                    );
                }
            }
        });
        assert_eq!(fleet.pool_stats().created, 1);
    }

    #[test]
    fn parallel_waves_overlap_hydrations_and_stay_bit_identical() {
        let hp = HyperParams::micro_default();
        let sampled: Vec<usize> = (0..8).collect();
        let run = |threads: usize, rendezvous: Option<&std::sync::Barrier>| {
            let mut fleet = fleet_of(8, Some(4), 960);
            on_threads(threads, || {
                fleet.for_sampled_parallel(&sampled, |c| {
                    if let Some(pair) = rendezvous {
                        pair.wait();
                    }
                    c.local_update_supervised(1, &hp);
                });
            });
            (fleet.export_snapshots(), fleet.pool_stats().high_water)
        };
        // One thread hydrates, trains and evicts one client at a time: the
        // high-water mark is 1 by construction, whatever the residency cap.
        let (serial, high_water) = run(1, None);
        assert_eq!(high_water, 1);
        // Four threads, and every client waits — model and workspace in hand
        // — for another to arrive, so two hydrations must be live at once;
        // the wave size still caps them at `max_resident`.
        let pair = std::sync::Barrier::new(2);
        let (parallel, high_water) = run(4, Some(&pair));
        assert!(
            1 < high_water && high_water <= 4,
            "high-water mark {high_water} under a 4-thread pool and a cap of 4"
        );
        assert_eq!(serial, parallel, "thread count changed a client's state");
    }

    #[test]
    fn restore_snapshots_refuses_a_damaged_blob_before_touching_a_slot() {
        let hp = HyperParams::micro_default();
        let mut a = small_fleet(Some(2), 962);
        let sampled = [0usize, 1, 2, 3];
        a.for_sampled_parallel(&sampled, |c| {
            c.local_update_supervised(1, &hp);
        });
        let good = a.export_snapshots();
        let mut b = small_fleet(Some(2), 962);
        let before = b.evaluate_ids(&sampled);
        // Truncated, and another architecture's (client 1's blob at client 2).
        let mut cut = good.clone();
        cut[3] = cut[3]
            .as_ref()
            .map(|blob| Arc::new(blob[..blob.len() - 1].to_vec()));
        let mut swapped = good.clone();
        swapped.swap(1, 2);
        for bad in [cut, swapped] {
            assert!(b.restore_snapshots(bad).is_err());
            assert_eq!(
                b.evaluate_ids(&sampled),
                before,
                "a refused restore changed the fleet"
            );
        }
        b.restore_snapshots(good).expect("restore");
        assert_eq!(a.evaluate_ids(&sampled), b.evaluate_ids(&sampled));
    }

    #[test]
    fn evaluation_does_not_rewrite_blobs() {
        let hp = HyperParams::micro_default();
        let mut paged = small_fleet(Some(1), 953);
        let sampled = [0usize, 1];
        paged.for_sampled_parallel(&sampled, |c| {
            c.local_update_supervised(1, &hp);
        });
        let before = paged.evaluate_ids(&sampled);
        let after = paged.evaluate_ids(&sampled);
        assert_eq!(before, after, "repeated evaluation must be a pure read");
        assert_eq!(paged.paging_stats().page_outs, 2);
    }

    #[test]
    fn set_weight_syncs_meta_and_live_client() {
        let mut fleet = small_fleet(None, 954);
        fleet.set_weight(1, 0.75);
        assert_eq!(fleet.weight(1), 0.75);
        assert_eq!(fleet.meta(1).weight, 0.75);
        assert_eq!(fleet.client_mut(1).weight, 0.75);
    }

    #[test]
    #[should_panic(expected = "paged out")]
    fn client_mut_panics_on_cold_slot() {
        let mut fleet = small_fleet(Some(2), 955);
        let _ = fleet.client_mut(0);
    }

    #[test]
    fn snapshot_export_restore_round_trips_across_residency_caps() {
        let hp = HyperParams::micro_default();
        let mut a = small_fleet(Some(2), 957);
        let sampled = [0usize, 1, 2, 3];
        a.for_sampled_parallel(&sampled, |c| {
            c.local_update_supervised(1, &hp);
        });
        let blobs = a.export_snapshots();
        // Restore into a freshly built twin under a *different* residency
        // cap — the elastic-resize path a checkpoint restore exercises.
        let mut b = small_fleet(Some(1), 957);
        b.restore_snapshots(blobs).expect("restore");
        assert_eq!(
            a.evaluate_ids(&sampled),
            b.evaluate_ids(&sampled),
            "restored fleet diverged from the exporting one"
        );
        // A resident fleet restores too: slots flip to Cold(blob) and the
        // next touch hydrates them.
        let mut c = small_fleet(None, 957);
        c.restore_snapshots(a.export_snapshots()).expect("restore");
        assert_eq!(a.evaluate_ids(&sampled), c.evaluate_ids(&sampled));
    }

    #[test]
    fn restore_snapshots_rejects_wrong_client_count() {
        let mut fleet = small_fleet(Some(2), 958);
        let err = fleet.restore_snapshots(vec![None; 3]);
        assert!(
            err.is_err(),
            "accepted a 3-entry restore on a 4-client fleet"
        );
    }

    #[test]
    fn apply_splits_keeps_paged_and_resident_fleets_identical() {
        let hp = HyperParams::micro_default();
        let data = tiny_dataset(3, 96, 48, 959);
        let mut resident = small_fleet(None, 959);
        let mut paged = small_fleet(Some(2), 959);
        let sampled = [0usize, 1, 2, 3];
        for fleet in [&mut resident, &mut paged] {
            fleet.for_sampled_parallel(&sampled, |c| {
                c.local_update_supervised(1, &hp);
            });
        }
        let splits = fca_data::drift::drifted_splits(&data.train, &data.test, 4, 959, 0.5, 700);
        resident.apply_splits(splits.clone());
        paged.apply_splits(splits);
        let total: f32 = resident.metas().iter().map(|m| m.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-5,
            "drift broke weight normalization"
        );
        // The re-shard reaches live clients now and cold ones at their next
        // hydration; both fleets must stay bit-identical through it.
        assert_eq!(
            resident.evaluate_ids(&sampled),
            paged.evaluate_ids(&sampled)
        );
        for fleet in [&mut resident, &mut paged] {
            fleet.for_sampled_parallel(&sampled, |c| {
                c.local_update_supervised(1, &hp);
            });
        }
        assert_eq!(
            resident.evaluate_ids(&sampled),
            paged.evaluate_ids(&sampled)
        );
    }

    #[test]
    fn resident_fleet_never_pages() {
        let data = tiny_dataset(3, 48, 24, 956);
        let cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 956);
        let splits = Partitioner::Dirichlet { alpha: 0.5 }.split(&data.train, &data.test, 2, 956);
        let resident = Fleet::from_splits(
            &data.train,
            &data.test,
            splits,
            8,
            cfg.hp,
            956,
            None,
            &|_| ModelArch::CnnFedAvg,
        );
        assert_eq!(resident.clients().count(), 2);
        assert_eq!(resident.paging_stats(), PagingStats::default());
    }
}
