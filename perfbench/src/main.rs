//! The repository benchmark. Run through `perfbench/run.py`, which builds
//! this package and checks its output:
//!
//! ```sh
//! python3 perfbench/run.py --workload serve-yelp-store --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
//! traced run also writes its spans and per-layer metrics to `--out`. A failed correctness check
//! exits non-zero before any metric is printed.

mod batch;
mod full;
mod names;
mod report;
mod serve;
mod setup;
mod trace;

use report::{json_str, Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// What one run measures and records.
pub struct Ctx {
    /// Request-stream seed: arrival traces and batch targets. The dataset
    /// and models use the fixed `setup::MODEL_SEED`.
    pub seed: u64,
    /// Measured seconds of the run (set-up excluded).
    pub seconds: f64,
    pub tracer: Tracer,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub tally: Tally,
    /// Kernel threads of the measured part (set by the workload).
    pub kernel_threads: usize,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn record_setup(&mut self, s: &setup::SetupTimes) {
        self.e2e.set("setup_s", s.total());
        self.layer.set("setup.generate_s", s.generate);
        self.layer.set("setup.train_s", s.train);
        self.layer.set("setup.prune_s", s.prune);
        self.layer.set("setup.pack_s", s.pack);
        self.layer.set("store.prewarm_s", s.prewarm);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be > 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        e2e: Metrics::new(names::END_TO_END),
        layer: Metrics::new(&names::per_layer()),
        tally: Tally::default(),
        kernel_threads: 0,
    };
    match args.workload.as_str() {
        "serve-yelp-store" => serve::run(&mut ctx)?,
        "batch-reddit-cold" => batch::run(&mut ctx)?,
        "full-flickr" => full::run(&mut ctx)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if ctx.tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    ctx.e2e.set("peak_rss_mb", report::peak_rss_mb());
    ctx.e2e.set(
        "success_rate",
        1.0 - ctx.tally.failed as f64 / ctx.tally.attempted as f64,
    );
    let metrics = if args.trace { &ctx.layer } else { &ctx.e2e };
    metrics.check_finite()?;
    if args.trace {
        let path = args.out.as_ref().ok_or("--trace 1 needs --out")?;
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {},\n\"per_layer\": {},\n\"spans\": {}}}\n",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            ctx.layer.to_json(),
            ctx.tracer.to_json()
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            ctx.tracer.spans().len(),
            path.display()
        );
    }
    println!(
        "config: {{\"workload\": {}, \"request_seed\": {}, \"model_seed\": {}, \"kernel_threads\": {}, \"setup_threads\": {}, \"obs_compiled_in\": {}}}",
        json_str(&args.workload),
        args.seed,
        setup::MODEL_SEED,
        ctx.kernel_threads,
        setup::SETUP_THREADS,
        gcnp_obs::enabled()
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.tally.attempted,
        ctx.tally.failed,
        metrics.to_json()
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
