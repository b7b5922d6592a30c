//! Per-layer metrics of the traced run, measured from outside by timing
//! calls into each layer's public functions.
//!
//! The traced workload supplies the layers it exercises (executors and
//! the runtime for the solve workloads, `serve` for `serve-mix`,
//! `tb-dist` for `hybrid-2rank`). Every other layer is probed here: the
//! row kernel, barrier, runtime spawn, membench ceilings and model
//! predictions, and a cold/warm tune always; the solve, serve and
//! distributed layers by a smoke-sized run of the workload that owns
//! them when the traced workload does not.

use std::time::Instant;

use temporal_blocking::grid::{init, Dims3, Grid3, Region3};
use temporal_blocking::membench::{calibrate_host_on, CalibrationProfile};
use temporal_blocking::model::{diamond, pipeline as pmodel, MachineParams};
use temporal_blocking::plan::MethodFamily;
use temporal_blocking::stencil::kernel::StoreMode;
use temporal_blocking::stencil::simd;
use temporal_blocking::sync::SpinBarrier;
use temporal_blocking::topology::TeamLayout;
use temporal_blocking::{
    solve_tuned_with_on, solve_with, Jacobi6, Method, Runtime, StencilOp, TuneOptions,
};

use crate::ops::{AnyOp, DIAMOND_WIDTH, METHODS, PIPE_UPDATES};
use crate::stats::median;
use crate::sys::grid_hash;
use crate::trace::Tracer;
use crate::{hybrid, metric, sampled, serve_mix, solves, Args, Ctx, Metric, Outcome, Tally};

/// Every per-layer metric of the traced run's result line, with units.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("kernel.mlups.jacobi6", "MLUP/s"),
    ("kernel.mlups.jacobi7", "MLUP/s"),
    ("kernel.mlups.varcoeff7", "MLUP/s"),
    ("kernel.mlups.avg27", "MLUP/s"),
    ("kernel.bytes_per_lup.jacobi6", "B/LUP"),
    ("kernel.bytes_per_lup.jacobi7", "B/LUP"),
    ("kernel.bytes_per_lup.varcoeff7", "B/LUP"),
    ("kernel.bytes_per_lup.avg27", "B/LUP"),
    ("kernel.simd_active", "flag"),
    ("exec.s.sequential", "s"),
    ("exec.s.parallel", "s"),
    ("exec.s.pipelined", "s"),
    ("exec.s.compressed", "s"),
    ("exec.s.wavefront", "s"),
    ("exec.s.diamond", "s"),
    ("facade.overhead_s.sequential", "s"),
    ("facade.overhead_s.parallel", "s"),
    ("facade.overhead_s.pipelined", "s"),
    ("facade.overhead_s.compressed", "s"),
    ("facade.overhead_s.wavefront", "s"),
    ("facade.overhead_s.diamond", "s"),
    ("runtime.spawn_s", "s"),
    ("runtime.dispatch_us", "us"),
    ("runtime.place_copy_gbs", "GB/s"),
    ("pool.acquire_us", "us"),
    ("pool.fresh_allocations", "count"),
    ("sync.barrier_us", "us"),
    ("membench.ms_gbs", "GB/s"),
    ("membench.mc_gbs", "GB/s"),
    ("roofline.mlups", "MLUP/s"),
    ("model.pred_mlups.sequential", "MLUP/s"),
    ("model.pred_mlups.parallel", "MLUP/s"),
    ("model.pred_mlups.pipelined", "MLUP/s"),
    ("model.pred_mlups.compressed", "MLUP/s"),
    ("model.pred_mlups.wavefront", "MLUP/s"),
    ("model.pred_mlups.diamond", "MLUP/s"),
    ("eff.sequential", "frac"),
    ("eff.parallel", "frac"),
    ("eff.pipelined", "frac"),
    ("eff.compressed", "frac"),
    ("eff.wavefront", "frac"),
    ("eff.diamond", "frac"),
    ("plan.cold_tune_s", "s"),
    ("plan.cold_measurements", "count"),
    ("plan.warm_measurements", "count"),
    ("plan.pick", "family"),
    ("dist.halo_bytes_per_sweep", "B"),
    ("dist.pack_gbs", "GB/s"),
    ("dist.unpack_gbs", "GB/s"),
    ("dist.rank_skew", "ratio"),
    ("serve.admission_wait_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.ingest_p50_ms", "ms"),
    ("serve.egress_p50_ms", "ms"),
    ("serve.queue_len_p99", "count"),
    ("serve.pool_fresh", "count"),
    ("serve.tuned_hit_frac", "frac"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.setup_s", "s"),
    ("trace.mlups", "MLUP/s"),
    ("trace.latency_p50_ms", "ms"),
];

/// Edge of the kernel probe grid: two `f64` grids of 40³ (1 MB) stay
/// resident in a per-core L2.
const KERNEL_EDGE: usize = 40;
/// Problem of the plan probe: the Jacobi6 key whose pick has been seen
/// to flip between runs.
const PLAN_EDGE: usize = 128;
const PLAN_SWEEPS: usize = 8;

/// Fill in every per-layer metric the traced workload did not supply.
pub fn complete(ctx: &Ctx, out: &mut Outcome) {
    let mut layers = std::mem::take(&mut out.layers);
    let has = |layers: &[Metric], name: &str| layers.iter().any(|m| m.name == name);

    // Layers owned by another workload: a smoke-sized run of it.
    if !has(&layers, "exec.s.parallel") {
        let probe = probe_ctx(ctx);
        let o = solves::run(&probe, solves::Regime::InCache);
        adopt(&mut layers, &mut out.tally, o, &["pool.fresh_allocations"]);
    }
    if !has(&layers, "serve.service_p50_ms") {
        let o = serve_mix::run(&probe_ctx(ctx));
        adopt(&mut layers, &mut out.tally, o, &[]);
    }
    if !has(&layers, "dist.rank_skew") {
        let o = hybrid::run(&probe_ctx(ctx));
        adopt(&mut layers, &mut out.tally, o, &["pool.fresh_allocations"]);
    }
    if !has(&layers, "pool.fresh_allocations") {
        let fresh = layers
            .iter()
            .find(|m| m.name == "serve.pool_fresh")
            .map_or(f64::NAN, |m| m.value);
        layers.push(metric("pool.fresh_allocations", fresh, "count"));
    }

    layers.extend(kernel_probe(ctx));
    let (spawn_s, rt) = spawn_probe(ctx);
    layers.push(metric("runtime.spawn_s", spawn_s, "s"));
    layers.push(barrier_probe(ctx, &rt));
    let params = membench_probe(ctx, &rt, &mut layers);
    layers.extend(plan_probe(ctx, &rt, params, &mut out.tally, &mut out.notes));
    drop(rt);

    // Efficiency: the facade rate of each method on this run's Jacobi6
    // grid against the Eq. 2 roofline.
    let roof = layers
        .iter()
        .find(|m| m.name == "roofline.mlups")
        .map_or(f64::NAN, |m| m.value);
    for m in METHODS {
        let v = layers
            .iter()
            .find(|x| x.name == format!("facade.mlups.{m}"))
            .map_or(f64::NAN, |x| x.value);
        layers.push(metric(format!("eff.{m}"), v / roof, "frac"));
    }

    // The traced run's own end-to-end numbers: compared with an
    // untraced run of the same workload they give the tracing overhead.
    layers.push(metric("trace.spans", ctx.tracer.len() as f64, "count"));
    layers.push(metric(
        "trace.overhead_frac",
        span_cost_s() * ctx.tracer.len() as f64 / ctx.tracer.elapsed().as_secs_f64(),
        "frac",
    ));
    layers.push(metric("trace.setup_s", out.setup_s, "s"));
    for name in ["mlups", "latency_p50_ms"] {
        if let Some(m) = out.e2e.iter().find(|m| m.name == name) {
            layers.push(Metric {
                name: format!("trace.{name}"),
                ..m.clone()
            });
        }
    }
    out.layers = layers;
}

/// Cost of recording one span, measured on a scratch tracer.
fn span_cost_s() -> f64 {
    let scratch = Tracer::new(true);
    let n = 10_000;
    let t0 = Instant::now();
    for i in 0..n {
        scratch.span("probe", None, i, |_| ());
    }
    t0.elapsed().as_secs_f64() / n as f64
}

/// A smoke-sized, traced context for probing another workload's layers.
fn probe_ctx(ctx: &Ctx) -> Ctx {
    Ctx {
        args: Args {
            workload: ctx.args.workload.clone(),
            seed: ctx.args.seed,
            seconds: 0.5,
            trace: true,
            smoke: true,
            out_dir: ctx.args.out_dir.clone(),
        },
        machine: ctx.machine.clone(),
        nproc: ctx.nproc,
        llc_bytes: ctx.llc_bytes,
        tracer: Tracer::new(true),
    }
}

/// Take a probe run's layer metrics (except `skip`) and its checks.
fn adopt(layers: &mut Vec<Metric>, tally: &mut Tally, probe: Outcome, skip: &[&str]) {
    tally.merge(probe.tally);
    layers.extend(
        probe
            .layers
            .into_iter()
            .filter(|m| !skip.contains(&m.name.as_str())),
    );
}

/// Single-thread row-kernel rate per operator on an L2-resident grid,
/// plus each operator's computed code balance.
fn kernel_probe(ctx: &Ctx) -> Vec<Metric> {
    let dims = Dims3::cube(KERNEL_EDGE);
    let src: Grid3<f64> = init::random(dims, ctx.seed_for(99));
    let mut dst = src.clone();
    let region = Region3::interior_of(dims);
    let sweeps = 20;
    let reps = ctx.size(15, 3);
    let mut out = Vec::new();
    for op in AnyOp::all(dims) {
        let mut times = Vec::with_capacity(reps);
        ctx.tracer
            .span(&format!("kernel.{}", op.name()), None, 0, |_| {
                for _ in 0..reps {
                    let t0 = Instant::now();
                    for _ in 0..sweeps {
                        op.kernel_sweep(&src, &mut dst, &region);
                    }
                    times.push(t0.elapsed().as_secs_f64());
                }
            });
        let updates = (region.count() * sweeps) as f64;
        out.push(sampled(
            format!("kernel.mlups.{}", op.name()),
            updates / median(&times) / 1e6,
            "MLUP/s",
            reps,
        ));
        out.push(metric(
            format!("kernel.bytes_per_lup.{}", op.name()),
            op.bytes_per_lup(),
            "B/LUP",
        ));
    }
    out.push(metric(
        "kernel.simd_active",
        f64::from(u8::from(simd::active())),
        "flag",
    ));
    out
}

/// Median wall time of spawning (and dropping) a runtime of `nproc`
/// pinned workers; returns one kept runtime for the other probes.
fn spawn_probe(ctx: &Ctx) -> (f64, Runtime) {
    let layout = TeamLayout::new(&ctx.machine, ctx.nproc, 1);
    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let rt = ctx
            .tracer
            .span("runtime.new", None, 0, |_| Runtime::new(&layout));
        times.push(t0.elapsed().as_secs_f64());
        drop(rt);
    }
    (median(&times), Runtime::new(&layout))
}

/// One `SpinBarrier` round trip across all workers, averaged over many
/// rounds in one dispatch.
fn barrier_probe(ctx: &Ctx, rt: &Runtime) -> Metric {
    let n = rt.threads();
    let rounds = ctx.size(20_000, 200);
    let barrier = SpinBarrier::new(n);
    let mut per_round = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        ctx.tracer.span("sync.spin_barrier", None, 0, |_| {
            rt.run(n, &|_| {
                for _ in 0..rounds {
                    barrier.wait();
                }
            })
        });
        per_round.push(t0.elapsed().as_secs_f64() * 1e6 / rounds as f64);
    }
    sampled("sync.barrier_us", median(&per_round), "us", 5)
}

/// Membench ceilings (COPY over 4× the shared cache for `M_s`), the
/// Eq. 2 roofline for Jacobi6 with plain stores, and the model's
/// predicted rate for each method's frozen configuration.
fn membench_probe(ctx: &Ctx, rt: &Runtime, layers: &mut Vec<Metric>) -> MachineParams {
    let profile = if ctx.args.smoke {
        CalibrationProfile::quick()
    } else {
        CalibrationProfile {
            // Two arrays of 2× the shared cache each.
            mem_elems: 2 * ctx.llc_bytes / 8,
            cache_elems: 1 << 17,
            reps: 3,
            pin: true,
        }
    };
    let p = ctx.tracer.span("membench.calibrate", None, 0, |_| {
        calibrate_host_on(rt, &ctx.machine, profile)
    });
    let b_c = StencilOp::<f64>::bytes_per_lup(&Jacobi6, StoreMode::Normal);
    let roof = p.ms / b_c / 1e6;
    let t = ctx.nproc;
    let pred = |m: &str| match m {
        "sequential" => p.ms1 / b_c / 1e6,
        "parallel" => roof,
        "pipelined" | "compressed" => roof * pmodel::pipeline_speedup(&p, t, PIPE_UPDATES),
        "wavefront" => roof * pmodel::wavefront_speedup(&p, t),
        _ => roof * diamond::diamond_speedup(&p, DIAMOND_WIDTH, 1),
    };
    layers.push(metric("membench.ms_gbs", p.ms / 1e9, "GB/s"));
    layers.push(metric("membench.mc_gbs", p.mc / 1e9, "GB/s"));
    layers.push(metric("roofline.mlups", roof, "MLUP/s"));
    for m in METHODS {
        layers.push(metric(format!("model.pred_mlups.{m}"), pred(m), "MLUP/s"));
    }
    p
}

/// A cold tune into a fresh plan cache, then the warm replay, on the
/// fixed Jacobi6 key; both results are checked against the oracle.
fn plan_probe(
    ctx: &Ctx,
    rt: &Runtime,
    params: MachineParams,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let edge = ctx.size(PLAN_EDGE, 24);
    let input: Grid3<f64> = init::random(Dims3::cube(edge), ctx.seed_for(77));
    let oracle = solve_with(&Jacobi6, input.clone(), PLAN_SWEEPS, Method::Sequential)
        .map(|(g, _)| grid_hash(g.as_slice()))
        .ok();
    let path = ctx.args.out_dir.join(format!(
        "plan-cache-probe-{}-{}.json",
        ctx.args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let opts = TuneOptions {
        cache_path: Some(path.clone()),
        params: ctx.args.smoke.then_some(params),
        ..TuneOptions::default()
    };
    let mut tuned = |label: &str| {
        let t0 = Instant::now();
        let r = ctx.tracer.span(label, None, 0, |_| {
            solve_tuned_with_on(rt, &Jacobi6, input.clone(), PLAN_SWEEPS, &opts)
        });
        let secs = t0.elapsed().as_secs_f64();
        match r {
            Ok((g, _, t)) => {
                let ok = Some(grid_hash(g.as_slice())) == oracle;
                tally.check(ok, || format!("{label}: result differs from the oracle"));
                Some((secs, t))
            }
            Err(e) => {
                tally.check(false, || format!("{label}: {e}"));
                None
            }
        }
    };
    let cold = tuned("plan.cold_tune");
    let warm = tuned("plan.warm_replay");
    let _ = std::fs::remove_file(&path);
    if let Some((_, w)) = &warm {
        tally.check(w.cache_hit && w.measurements == 0, || {
            format!("warm replay measured {} candidates", w.measurements)
        });
    }
    let pick = cold.as_ref().map_or(f64::NAN, |(_, t)| {
        let family = t.plan.method.family();
        MethodFamily::ALL
            .iter()
            .position(|&f| f == family)
            .unwrap_or(0) as f64
    });
    if let Some((_, t)) = &cold {
        notes.push(format!(
            "plan.pick: {} (family index {pick})",
            t.plan.label()
        ));
    }
    vec![
        metric(
            "plan.cold_tune_s",
            cold.as_ref().map_or(f64::NAN, |c| c.0),
            "s",
        ),
        metric(
            "plan.cold_measurements",
            cold.as_ref().map_or(f64::NAN, |c| c.1.measurements as f64),
            "count",
        ),
        metric(
            "plan.warm_measurements",
            warm.as_ref().map_or(f64::NAN, |w| w.1.measurements as f64),
            "count",
        ),
        metric("plan.pick", pick, "family"),
    ]
}
