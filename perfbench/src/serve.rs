//! `serve-yelp-store`: open-loop, store-backed real-time serving.
//!
//! The pruned GraphSAGE model serves single-node requests drawn uniformly
//! from the test split through `serve_multi` (one worker, pipelined
//! executor, one kernel thread per stage thread). The hidden-feature store
//! is pre-warmed with the train + validation features and written back with
//! `StorePolicy::Roots`. The dispatcher replays a seeded Poisson trace in
//! real time; a request's latency runs from its scheduled arrival.
//!
//! Each replay is a fresh `serve_multi` call of a fixed number of requests
//! over a store reset to the pre-warmed rows, so every replay includes the
//! server's start and computes test nodes from stored neighbours; a rate's
//! latency is the median over its replays. The capacity is measured by
//! draining whole traces without pacing on the sequential executor.

use crate::batch::{
    closed_loop, infer_all, record_engine, record_models, sample, CAPS, ENGINE_SEED,
};
use crate::names::N_STORE_LEVELS;
use crate::report::{median, percentile};
use crate::setup::{self, Prewarm};
use crate::trace::Tracer;
use crate::Ctx;
use gcnp_core::Scheme;
use gcnp_datasets::DatasetKind;
use gcnp_infer::{
    serve_multi, BatchedEngine, EngineMetrics, FeatureStore, FullEngine, MultiServingReport,
    PipelineMode, ServingConfig, StorePolicy,
};
use gcnp_models::Metrics as Score;
use gcnp_obs::MetricsRegistry;
use gcnp_sparse::Normalization;
use gcnp_tensor::init::seeded_rng;
use rand::RngExt;
use std::sync::Arc;

const MAX_BATCH: usize = 64;
const MAX_WAIT_S: f64 = 0.002;
/// Kernel threads per stage thread: the pipelined worker's two stage
/// threads then fill a 2-core machine.
const KERNEL_THREADS: usize = 1;
/// The low rate: partial batches closed by `max_wait`.
const LOW_RPS: f64 = 5_000.0;
/// The high rate: full batches, one every 1.6 ms, at about a sixth of the
/// capacity. At twice this rate a batch's compute plus the wake-ups of
/// the stage threads on a busy shared machine can exceed the 0.8 ms between
/// batches, and the backlog then decides the median.
const HIGH_RPS: f64 = 40_000.0;
/// Requests per replay at each fixed rate (about 0.4 s and 0.25 s).
const LOW_REQUESTS: usize = 2_000;
const HIGH_REQUESTS: usize = 10_000;
/// Drained replays for `rate_per_s`: the trace's arrival rate, far above
/// the capacity so every batch is full, its length, and the seconds it
/// takes to drain on the seed commit (about 350k req/s on a 2-core Xeon VM).
const DRAIN_RPS: f64 = 1e7;
const DRAIN_REQUESTS: usize = 100_000;
const DRAIN_SECONDS: f64 = 0.3;
/// The pruned model must keep at least this test F1-micro.
const F1_FLOOR: f64 = 0.8;
/// Closed-loop batches of `MAX_BATCH` targets for the engine metrics of the
/// traced run.
const CALL_BATCHES: usize = 200;
/// Test nodes compared between uncapped batched and full inference.
const CHECK_SAMPLE: usize = 64;

/// The replays at one rate, with medians over them.
struct Phase {
    p50_ms: f64,
    p99_ms: f64,
    /// Median served requests per wall-clock second.
    throughput: f64,
    requests: u64,
    reports: Vec<MultiServingReport>,
    lag_ms: Vec<f64>,
}

/// Arrival time of the last request of the trace `serve_multi` replays for
/// `cfg`. This copies the draw order of `ServingConfig::arrivals`, which is
/// private to `gcnp_infer::serving`; should the two drift apart, a replay's
/// finish lag comes out wrong, so `Server::replay` fails the run on a
/// negative lag (a paced replay cannot end before its last arrival).
fn last_arrival(cfg: &ServingConfig, pool_len: usize) -> f64 {
    let mut rng = seeded_rng(cfg.seed);
    let mut t = 0.0f64;
    for _ in 0..cfg.n_requests {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        t += -u.ln() / cfg.arrival_rate;
        let _: usize = rng.random_range(0..pool_len);
    }
    t
}

struct Server<'m> {
    m: &'m setup::Models,
    store: &'m FeatureStore,
    prewarm: &'m Prewarm,
}

impl Server<'_> {
    fn engine(&self) -> BatchedEngine<'_> {
        let d = &self.m.data;
        BatchedEngine::new(
            &self.m.p4x,
            &d.adj,
            &d.features,
            CAPS.to_vec(),
            Some(self.store),
            StorePolicy::Roots,
            ENGINE_SEED,
        )
    }

    /// One replay of `n` requests at `rate` over a store reset to the
    /// pre-warmed train + validation rows (untimed), so the replay computes
    /// test nodes and writes their roots back; checks the accounting. A
    /// paced replay (pipelined executor) also returns its finish lag; a
    /// drained one (`drain`: sequential executor) returns none.
    fn replay(
        &self,
        rate: f64,
        n: usize,
        drain: bool,
        seed: u64,
        metrics: Option<&Arc<EngineMetrics>>,
        tr: &mut Tracer,
    ) -> Result<(MultiServingReport, Option<f64>), String> {
        let cfg = ServingConfig {
            arrival_rate: rate,
            max_batch: MAX_BATCH,
            max_wait: MAX_WAIT_S,
            n_requests: n,
            seed,
            pace: !drain,
            pipeline: if drain {
                PipelineMode::Sequential
            } else {
                PipelineMode::Pipelined
            },
            ..Default::default()
        };
        let mut engines = vec![self.engine()];
        if let Some(em) = metrics {
            engines[0].set_metrics(Arc::clone(em));
        }
        self.prewarm.apply(self.store);
        let pool = &self.m.data.test;
        let span = format!("serving.serve_multi.{rate:.0}rps");
        let rep = tr.span(&span, None, Some(seed), || {
            serve_multi(&mut engines, pool, &cfg)
        });
        let rep = rep.map_err(|e| format!("serve_multi at {rate} req/s: {e}"))?;
        if rep.served + rep.shed + rep.shed_queue + rep.shed_deadline != n {
            return Err(format!(
                "accounting at {rate} req/s: served {} + shed {} + shed_queue {} + shed_deadline {} != {n}",
                rep.served, rep.shed, rep.shed_queue, rep.shed_deadline
            ));
        }
        if drain {
            return Ok((rep, None));
        }
        let lag_ms = (rep.wall_seconds - last_arrival(&cfg, pool.len())) * 1e3;
        if lag_ms < 0.0 {
            return Err(format!(
                "replay at {rate} req/s ended {:.3} ms before its last arrival: the rebuilt arrival trace no longer matches serve_multi's",
                -lag_ms
            ));
        }
        Ok((rep, Some(lag_ms)))
    }

    /// The next replay of `run`: replay `k` of a rate uses seed
    /// `seed · 7919 + k`.
    fn replay_next(
        &self,
        run: &mut Replays,
        metrics: Option<&Arc<EngineMetrics>>,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let r = &run.rate;
        let seed = r
            .seed
            .wrapping_mul(7919)
            .wrapping_add(run.reports.len() as u64);
        let (rep, lag) = self.replay(r.rate, r.n, r.drain, seed, metrics, tr)?;
        run.reports.push(rep);
        run.lag_ms.extend(lag);
        Ok(())
    }

    /// All replays of `rates`, interleaved so every rate's replays spread
    /// evenly over the same stretch of time: the next replay is always one
    /// of the rate that has made the smallest share of its replays.
    fn phases(
        &self,
        rates: Vec<Rate>,
        metrics: &[Option<Arc<EngineMetrics>>],
        tr: &mut Tracer,
    ) -> Result<Vec<Phase>, String> {
        let mut runs: Vec<Replays> = rates.into_iter().map(Replays::new).collect();
        while let Some(i) = (0..runs.len())
            .filter(|&i| runs[i].pending())
            .min_by(|&i, &j| runs[i].done().total_cmp(&runs[j].done()))
        {
            self.replay_next(&mut runs[i], metrics[i].as_ref(), tr)?;
        }
        Ok(runs.into_iter().map(Replays::finish).collect())
    }
}

/// Replays of `n` requests at `rate`, paced or drained.
struct Rate {
    rate: f64,
    n: usize,
    drain: bool,
    replays: usize,
    seed: u64,
}

/// The replays made so far at one rate.
struct Replays {
    rate: Rate,
    reports: Vec<MultiServingReport>,
    lag_ms: Vec<f64>,
}

impl Replays {
    fn new(rate: Rate) -> Self {
        Self {
            rate,
            reports: Vec::new(),
            lag_ms: Vec::new(),
        }
    }

    fn pending(&self) -> bool {
        self.reports.len() < self.rate.replays
    }

    /// Share of the replays made so far.
    fn done(&self) -> f64 {
        self.reports.len() as f64 / self.rate.replays as f64
    }

    fn finish(self) -> Phase {
        let med = |f: fn(&MultiServingReport) -> f64| {
            median(&self.reports.iter().map(f).collect::<Vec<_>>())
        };
        Phase {
            p50_ms: med(|r| r.p50_ms),
            p99_ms: med(|r| r.p99_ms),
            throughput: med(|r| r.throughput),
            requests: (self.rate.n * self.reports.len()) as u64,
            lag_ms: self.lag_ms,
            reports: self.reports,
        }
    }
}

impl Phase {
    /// Requests not served (shed before or after dispatch).
    fn shed(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| (r.n_requests - r.served) as u64)
            .sum()
    }
}

/// Count a phase's requests. No replay sets a deadline or a queue bound,
/// so a shed request fails the run: p99 and throughput over attempted
/// requests would then be undefined.
fn account(ctx: &mut Ctx, p: &Phase) -> Result<(), String> {
    let shed = p.shed();
    if shed > 0 {
        return Err(format!("{shed} requests shed: p99 is undefined"));
    }
    ctx.tally.add(p.requests, shed);
    Ok(())
}

fn record_phase(ctx: &mut Ctx, label: &str, p: &Phase, reg: &MetricsRegistry) {
    let n = p.reports.len() as f64;
    let mean = |f: fn(&MultiServingReport) -> f64| p.reports.iter().map(f).sum::<f64>() / n;
    ctx.layer
        .set(&format!("serving.wall_s.{label}"), mean(|r| r.wall_seconds));
    ctx.layer.set(
        &format!("serving.compute_share.{label}"),
        mean(|r| r.compute_seconds / r.wall_seconds),
    );
    ctx.layer.set(
        &format!("serving.occupancy.{label}"),
        mean(|r| r.pipeline_occupancy),
    );
    ctx.layer.set(
        &format!("serving.batch_size.mean.{label}"),
        mean(|r| r.mean_batch_size),
    );
    ctx.layer
        .set(&format!("serving.finish_lag_ms.{label}"), median(&p.lag_ms));
    let snap = reg.snapshot();
    let depth = snap
        .histograms
        .get("serving.queue.depth")
        .map_or(0.0, |h| h.quantile(0.99));
    ctx.layer
        .set(&format!("serving.queue_depth.p99.{label}"), depth);
    let wakeups = snap
        .counters
        .get("serving.dispatch.wakeups")
        .copied()
        .unwrap_or(0) as f64;
    ctx.layer
        .set(&format!("serving.dispatch_wakeups.{label}"), wakeups / n);
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (m, times) = setup::build(
        DatasetKind::YelpSim,
        Scheme::BatchedInference,
        true,
        &mut ctx.tracer,
    );
    ctx.record_setup(&times);
    gcnp_tensor::set_num_threads(KERNEL_THREADS);
    ctx.kernel_threads = KERNEL_THREADS;
    let data = &m.data;
    let prewarm = m
        .prewarm
        .as_ref()
        .expect("serving set-up pre-warms the store");

    // Correctness, untimed: on a fixed sample, uncapped batched inference
    // without a store matches full inference within 1e-3.
    let sample_nodes = &data.test[..CHECK_SAMPLE.min(data.test.len())];
    let adj = data.adj.normalized(Normalization::Row);
    let full = FullEngine::new(&m.p4x, Some(&adj)).logits(&data.features);
    let mut exact = BatchedEngine::new(
        &m.p4x,
        &data.adj,
        &data.features,
        vec![],
        None,
        StorePolicy::None,
        ENGINE_SEED,
    );
    let (got, order) = infer_all(&mut exact, sample_nodes, CHECK_SAMPLE)?;
    for (i, &t) in order.iter().enumerate() {
        let diff = got
            .row(i)
            .iter()
            .zip(full.row(t))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if diff >= 1e-3 {
            return Err(format!(
                "node {t}: batched logits differ from full inference by {diff}"
            ));
        }
    }

    // The pruned model's F1 through the serving engine, untimed. The pass
    // writes test roots into the store, but every replay below first resets
    // the store to the pre-warmed train + validation rows.
    let store = m.store.as_ref().expect("serving set-up builds a store");
    let server = Server {
        m: &m,
        store,
        prewarm,
    };
    let (logits, order) = infer_all(&mut server.engine(), &data.test, MAX_BATCH)?;
    let f1 = Score::f1_micro(&logits, &data.labels, &order);
    if f1 < F1_FLOOR {
        return Err(format!(
            "p4x F1-micro {f1:.4} is below the floor {F1_FLOOR}"
        ));
    }
    ctx.e2e.set("f1_micro", f1);

    // Replay counts follow the run length: about 25% of it at the low rate,
    // 15% at the high rate and 40% drained (at the seed commit's capacity).
    let secs = ctx.seconds;
    let n_low = ((0.25 * secs * LOW_RPS / LOW_REQUESTS as f64) as usize).max(3);
    let n_high = ((0.15 * secs * HIGH_RPS / HIGH_REQUESTS as f64) as usize).max(3);
    let n_drain = ((0.4 * secs / DRAIN_SECONDS) as usize).max(3);
    let seed = ctx.seed;
    let fixed = |scale: usize, seed: u64| {
        vec![
            Rate {
                rate: LOW_RPS,
                n: LOW_REQUESTS,
                drain: false,
                replays: (n_low / scale).max(3),
                seed: seed ^ 0x4c4f,
            },
            Rate {
                rate: HIGH_RPS,
                n: HIGH_REQUESTS,
                drain: false,
                replays: (n_high / scale).max(3),
                seed: seed ^ 0x4849,
            },
        ]
    };
    let mut untraced = Tracer::new(false);
    if ctx.traced() {
        let main = server.phases(fixed(1, seed), &[None, None], &mut untraced)?;
        for p in &main {
            account(ctx, p)?;
        }
        let (low, high) = (&main[0], &main[1]);
        // Per-layer run: both rates again with engine, serving and store
        // metrics attached.
        let store_reg = Arc::new(MetricsRegistry::new());
        store.attach_metrics(&store_reg);
        let regs = [0, 1].map(|_| Arc::new(MetricsRegistry::new()));
        let ems = regs.each_ref().map(|r| Some(EngineMetrics::new(r)));
        let phases = server.phases(fixed(2, seed ^ 0x5452), &ems, &mut ctx.tracer)?;
        for ((label, p), reg) in ["low", "high"].into_iter().zip(&phases).zip(&regs) {
            record_phase(ctx, label, p, reg);
            account(ctx, p)?;
        }
        ctx.layer
            .set("trace.overhead", phases[1].p50_ms / high.p50_ms - 1.0);
        let snap = store_reg.snapshot();
        let count = |what: &str, l: usize| {
            snap.counters
                .get(&format!("store.{what}.l{l}"))
                .copied()
                .unwrap_or(0) as f64
        };
        let replays = phases.iter().map(|p| p.reports.len()).sum::<usize>() as f64;
        // Every replay's reset writes each pre-warmed row once per level;
        // the rest are the engine's write-backs.
        let prewarm_writes = prewarm.nodes.len() as f64 * replays;
        for l in 1..=N_STORE_LEVELS {
            let probes = count("hit", l) + count("miss", l);
            ctx.layer.set(
                &format!("store.hit_ratio.l{l}"),
                if probes > 0.0 {
                    count("hit", l) / probes
                } else {
                    0.0
                },
            );
            ctx.layer.set(
                &format!("store.writes.l{l}"),
                (count("write", l) - prewarm_writes) / replays,
            );
        }
        ctx.layer
            .set("store.resident_mb", store.nbytes() as f64 / 1e6);

        // Engine stages: closed-loop batches of `MAX_BATCH` test targets
        // through the serving engine from the pre-warmed store, timed per
        // call.
        prewarm.apply(store);
        let reg = Arc::new(MetricsRegistry::new());
        let mut e = server.engine();
        e.set_metrics(EngineMetrics::new(&reg));
        let pool = &data.test;
        let calls = closed_loop(
            &mut [("p4x", e)],
            |i| sample(pool, MAX_BATCH, &mut seeded_rng(seed ^ i)),
            CALL_BATCHES,
            &mut ctx.tracer,
        )
        .remove(0);
        let stages = record_engine(ctx, "p4x", &reg, &calls);
        ctx.layer.set(
            "trace.tiling_gap",
            1.0 - stages / calls.seconds.iter().sum::<f64>(),
        );
        record_models(ctx, &m, |cm, model| {
            cm.batched_kmacs_per_node(model, CAPS[1])
        });
        println!(
            "serve-yelp-store (traced): {} + {} requests at {HIGH_RPS} req/s, {} + {} at {LOW_RPS} req/s, untraced + traced; {} closed-loop batches",
            high.requests,
            phases[1].requests,
            low.requests,
            phases[0].requests,
            calls.seconds.len()
        );
        return Ok(());
    }
    // All replays of the run, interleaved round by round, so a slow stretch
    // of a shared machine touches only a few replays of each kind.
    let mut rates = fixed(1, seed);
    rates.push(Rate {
        rate: DRAIN_RPS,
        n: DRAIN_REQUESTS,
        drain: true,
        replays: n_drain,
        seed: seed ^ 0x4452,
    });
    let phases = server.phases(rates, &[None, None, None], &mut untraced)?;
    for p in &phases {
        account(ctx, p)?;
    }
    let [low, high, drained] = <[Phase; 3]>::try_from(phases).map_err(|_| "three phases")?;
    ctx.e2e.set("p50_ms.a", low.p50_ms);
    ctx.e2e.set("tail_ms.a", low.p99_ms);
    ctx.e2e.set("p50_ms.b", high.p50_ms);
    ctx.e2e.set("tail_ms.b", high.p99_ms);
    ctx.e2e.set("rate_per_s", drained.throughput);
    println!(
        "serve-yelp-store: {} requests at {LOW_RPS} req/s and {} at {HIGH_RPS} req/s in paced replays of {LOW_REQUESTS} and {HIGH_REQUESTS}; {} requests in drained replays of {DRAIN_REQUESTS}",
        low.requests, high.requests, drained.requests
    );
    let tput: Vec<f64> = drained.reports.iter().map(|r| r.throughput).collect();
    println!(
        "drained throughput per replay, req/s: p10 {:.0}, p50 {:.0}, p90 {:.0}",
        percentile(&tput, 0.1),
        percentile(&tput, 0.5),
        percentile(&tput, 0.9)
    );
    Ok(())
}
