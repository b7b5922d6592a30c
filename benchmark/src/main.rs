//! The repository benchmark: one command, four named workloads, every
//! operation checked bitwise against the sequential oracle.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload incache-ops --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public entry
//! points users call (the facade `solve_with_on` on a persistent
//! `Runtime`, `serve::Server`, `tb_dist::DistSolver` under
//! `tb_net::Universe`). `--trace 1` repeats the workload with spans
//! around every call and adds per-layer metrics measured by timing calls
//! into each layer's public functions. `--smoke` shrinks every size so
//! the benchmark's own tests run in seconds. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `benchmark/README.md` for every metric.

mod hybrid;
mod layers;
mod ops;
mod serve_mix;
mod solves;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use temporal_blocking::stencil::simd;
use temporal_blocking::topology::{self, Machine};

use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "oocache-jacobi6",
    "incache-ops",
    "serve-mix",
    "hybrid-2rank",
];

/// The end-to-end metrics of the final JSON line under `--trace 0`, in
/// order, with units. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mlups", "MLUP/s"),
    ("latency_p50_ms", "ms"),
];

/// Set-up and measure epochs per run (see [`Ctx::epochs`]).
pub const EPOCHS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut smoke = false;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--smoke" => smoke = true,
            k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir") => {
                let v = raw.get(i + 1).ok_or(format!("{k} needs a value"))?;
                kv.insert(k.to_string(), v.clone());
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let out_dir = kv
        .get("--out-dir")
        .map_or_else(|| PathBuf::from(".bench_out"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
    })
}

/// Everything a workload needs: the arguments, the host, the tracer.
pub struct Ctx {
    pub args: Args,
    pub machine: Machine,
    /// Logical CPUs of the host: the busy-thread budget.
    pub nproc: usize,
    /// Detected shared (last-level) cache in bytes.
    pub llc_bytes: usize,
    pub tracer: Tracer,
}

impl Ctx {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.args.smoke {
            smoke
        } else {
            full
        }
    }

    /// Epochs per run: each builds the system afresh (new runtimes,
    /// pools and buffers, so one process averages over several memory
    /// placements), times that set-up, then measures for an equal share
    /// of `--seconds`. `setup_s` is the median set-up.
    pub fn epochs(&self) -> usize {
        self.size(EPOCHS, 2)
    }

    /// End of the timed phase of an epoch starting now.
    pub fn epoch_deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.args.seconds / self.epochs() as f64)
    }

    /// A seed for one input stream, derived from the workload seed.
    pub fn seed_for(&self, stream: u64) -> u64 {
        let mut h = self.args.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 31;
        h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }
}

/// Operations attempted and failed. A failed operation is an `Err`, a
/// panic, a rejected or cancelled job, or a result that differs from the
/// oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
        self.failed += other.failed;
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a median or percentile.
    pub n: Option<usize>,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n: None,
    }
}

pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        n: Some(n),
        ..metric(name, value, unit)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Busy compute threads the workload asked for.
    pub threads: usize,
    /// Wall time of the system's own set-up before the first timed
    /// operation.
    pub setup_s: f64,
    /// The workload's `mlups` and `latency_p50_ms` (see [`END_TO_END`]).
    pub e2e: Vec<Metric>,
    /// The workload's own named end-to-end metrics (`mlups.parallel`,
    /// `jobs_per_s`, ...), printed in the report.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Extra header lines (sizes, rates).
    pub notes: Vec<String>,
}

fn run_workload(ctx: &Ctx, name: &str) -> Outcome {
    match name {
        "oocache-jacobi6" => solves::run(ctx, solves::Regime::OutOfCache),
        "incache-ops" => solves::run(ctx, solves::Regime::InCache),
        "serve-mix" => serve_mix::run(ctx),
        "hybrid-2rank" => hybrid::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tb-perfbench: {e}");
            eprintln!(
                "usage: tb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--smoke] [--out-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "tb-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let machine = topology::detect::detect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc_bytes = machine
        .shared_cache()
        .map_or(8 << 20, |c| c.size_bytes)
        .max(1 << 20);
    let ctx = Ctx {
        tracer: Tracer::new(args.trace),
        args,
        machine,
        nproc,
        llc_bytes,
    };

    let t_run = Instant::now();
    let mut out = run_workload(&ctx, &ctx.args.workload);
    if ctx.args.trace {
        layers::complete(&ctx, &mut out);
    }
    let peak_rss = sys::peak_rss_mib();

    // Run header.
    let threads = out.threads;
    let header = [
        ("workload", ctx.args.workload.clone()),
        ("seed", ctx.args.seed.to_string()),
        ("seconds", ctx.args.seconds.to_string()),
        ("trace", u8::from(ctx.args.trace).to_string()),
        ("smoke", ctx.args.smoke.to_string()),
        ("machine", ctx.machine.signature()),
        ("nproc", ctx.nproc.to_string()),
        ("threads_used", threads.to_string()),
        ("oversubscribed", (threads > ctx.nproc).to_string()),
        ("llc_bytes", ctx.llc_bytes.to_string()),
        ("simd_active", simd::active().to_string()),
        ("rustc", sys::rustc_version().to_string()),
        (
            "git_rev",
            sys::git_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
        ),
    ];
    for (k, v) in &header {
        println!("# {k}: {v}");
    }
    for n in &out.notes {
        println!("# {n}");
    }

    let mut e2e = vec![
        metric("setup_s", out.setup_s, "s"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    e2e.extend(out.e2e.iter().cloned());
    let error_rate = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    println!("## end-to-end");
    for m in e2e.iter().chain(&out.named) {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    println!("{:<34} {:>16.6} frac", "error_rate", error_rate);
    if ctx.args.trace {
        println!("## per-layer");
        for m in &out.layers {
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        let spans = ctx.args.out_dir.join(format!(
            "trace-{}-seed{}.json",
            ctx.args.workload, ctx.args.seed
        ));
        match ctx.tracer.write(&spans) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                ctx.tracer.len(),
                spans.display()
            ),
            Err(e) => println!("# spans: could not write {}: {e}", spans.display()),
        }
        println!("## self time by span (s)");
        for s in ctx.tracer.self_times() {
            println!(
                "{:<34} n={:<6} total {:>10.4} self {:>10.4}",
                s.name, s.count, s.total_s, s.self_s
            );
        }
    }
    for e in &out.tally.errors {
        println!("# FAILED: {e}");
    }
    println!("# wall_s: {:.3}", t_run.elapsed().as_secs_f64());

    // The result line: end-to-end metrics untraced, per-layer traced.
    let chosen: Vec<(String, f64, &str)> = if ctx.args.trace {
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value);
                (name.to_string(), v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = e2e
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value);
                (name.to_string(), v, unit)
            })
            .collect()
    };
    let missing = chosen.iter().filter(|(_, v, _)| !v.is_finite()).count();
    for (name, _, _) in chosen.iter().filter(|(_, v, _)| !v.is_finite()) {
        println!("# MISSING metric: {name}");
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0 && missing == 0;
    let body: Vec<String> = chosen
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_value(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
