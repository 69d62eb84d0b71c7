//! Deterministic set-up: generate the dataset, train the reference model
//! for a short fixed schedule, LASSO-prune it to a quarter of its channels
//! (`p4x`), pack both weight sets and, for store-backed serving, pre-warm the
//! hidden-feature store. Everything here depends only on the fixed model
//! seed, never on the request-stream seed, so every run repeats the same
//! set-up work.

use crate::trace::Tracer;
use gcnp_core::{prune_model, PruneMethod, PrunerConfig, Scheme};
use gcnp_datasets::{Dataset, DatasetKind};
use gcnp_infer::{FeatureStore, FullEngine};
use gcnp_models::{zoo, GnnModel, PackedModel, TrainConfig, Trainer};
use gcnp_sparse::Normalization;
use gcnp_tensor::Matrix;
use std::time::Instant;

/// Seed of the dataset and of both models.
pub const MODEL_SEED: u64 = 7;
/// Training steps of the reference model.
pub const TRAIN_STEPS: usize = 30;
/// Channel budget of the pruned model: 0.25 keeps a quarter (`p4x`).
pub const BUDGET: f32 = 0.25;
/// Kernel threads used while setting up, in every workload. One, for the
/// reason given at `batch::KERNEL_THREADS`: on a shared 2-core VM the
/// serving set-up's quartile spread was 0.35 of the median over five runs
/// with two threads (5.3-8.2 s) and 0.22 over ten with one (7.0-9.8 s).
pub const SETUP_THREADS: usize = 1;

/// The hidden features the store is pre-warmed with: train + validation
/// nodes at every hidden level (the paper's offline store policy, §3.3.2).
pub struct Prewarm {
    pub nodes: Vec<usize>,
    pub rows: Vec<Matrix>,
}

impl Prewarm {
    /// Reset `store` to exactly the pre-warmed state.
    pub fn apply(&self, store: &FeatureStore) {
        store.clear();
        for (level, rows) in self.rows.iter().enumerate() {
            store
                .put_rows(level + 1, &self.nodes, rows)
                .expect("pre-warm rows match the store shape");
        }
    }
}

pub struct Models {
    pub data: Dataset,
    pub reference: GnnModel,
    pub p4x: GnnModel,
    pub packed_bytes: [usize; 2],
    pub prewarm: Option<Prewarm>,
    pub store: Option<FeatureStore>,
}

#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate: f64,
    pub train: f64,
    pub prune: f64,
    pub pack: f64,
    pub prewarm: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.train + self.prune + self.pack + self.prewarm
    }
}

/// Set up once with `SETUP_THREADS` kernel threads, timing each step.
pub fn build(
    kind: DatasetKind,
    scheme: Scheme,
    with_store: bool,
    tr: &mut Tracer,
) -> (Models, SetupTimes) {
    gcnp_tensor::set_num_threads(SETUP_THREADS);
    let mut t = SetupTimes::default();
    let root = tr.open("setup", None, None);

    let t0 = Instant::now();
    let data = tr.span("setup.generate", root, None, || kind.generate(MODEL_SEED));
    t.generate = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut reference = zoo::graphsage(
        data.attr_dim(),
        kind.hidden_dim(),
        data.n_classes(),
        MODEL_SEED,
    );
    let cfg = TrainConfig {
        steps: TRAIN_STEPS,
        eval_every: 10,
        patience: 5,
        seed: MODEL_SEED,
        ..Default::default()
    };
    tr.span("setup.train", root, None, || {
        Trainer::train_saint(&mut reference, &data, &cfg)
    });
    t.train = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let p4x = tr.span("setup.prune", root, None, || {
        let (tadj, tnodes) = data.train_adj();
        let tadj = tadj.normalized(Normalization::Row);
        let tx = data.features.gather_rows(&tnodes);
        let pcfg = PrunerConfig {
            method: PruneMethod::Lasso,
            batch_size: 1024,
            seed: MODEL_SEED,
            ..Default::default()
        };
        prune_model(&reference, &tadj, &tx, BUDGET, scheme, &pcfg).0
    });
    t.prune = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let packed_bytes = tr.span("setup.pack", root, None, || {
        [
            PackedModel::new(&reference).packed_bytes(),
            PackedModel::new(&p4x).packed_bytes(),
        ]
    });
    t.pack = t0.elapsed().as_secs_f64();

    let (prewarm, store) = if with_store {
        let t0 = Instant::now();
        let (prewarm, store) = tr.span("setup.prewarm", root, None, || {
            let adj = data.adj.normalized(Normalization::Row);
            let hidden = FullEngine::new(&p4x, Some(&adj)).hidden(&data.features);
            let mut nodes: Vec<usize> = data.train.iter().chain(&data.val).copied().collect();
            nodes.sort_unstable();
            let n_levels = p4x.n_layers() - 1;
            let rows = hidden[..n_levels]
                .iter()
                .map(|h| h.gather_rows(&nodes))
                .collect();
            let prewarm = Prewarm { nodes, rows };
            let store = FeatureStore::new(data.n_nodes(), n_levels);
            prewarm.apply(&store);
            (prewarm, store)
        });
        t.prewarm = t0.elapsed().as_secs_f64();
        (Some(prewarm), Some(store))
    } else {
        (None, None)
    };
    tr.close(root);
    let models = Models {
        data,
        reference,
        p4x,
        packed_bytes,
        prewarm,
        store,
    };
    (models, t)
}
