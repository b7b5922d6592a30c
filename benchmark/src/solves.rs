//! `oocache-jacobi6` and `incache-ops`: facade solves of every paper
//! method on one persistent runtime, out of and inside the shared cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use temporal_blocking::grid::{init, Dims3, Grid3, GridPair, Region3};
use temporal_blocking::topology::TeamLayout;
use temporal_blocking::{Jacobi6, Runtime};

use crate::ops::{self, AnyOp, METHODS};
use crate::stats::{geomean, median};
use crate::sys::grid_hash;
use crate::{metric, sampled, Ctx, Metric, Outcome, Tally};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// Jacobi6 on grids each at least 4× the shared cache.
    OutOfCache,
    /// All four operators, both buffers within ¼ of the shared cache.
    InCache,
}

/// Sweeps per out-of-cache solve.
pub const OOCACHE_SWEEPS: usize = 4;
/// Sweeps per in-cache solve ("many sweeps": dispatch and sync costs
/// recur every sweep).
pub const INCACHE_SWEEPS: usize = 16;
/// Timed executor repetitions per method in the traced run.
const EXEC_REPS: usize = 2;

/// Grid edge for `regime`: out of cache, the smallest edge (a multiple
/// of 8) whose one `f64` grid holds at least 4× the shared cache; in
/// cache, the largest edge (a multiple of 8, at most 64) whose two grids
/// fit in ¼ of it. The cap keeps solves short, so a run takes many
/// samples per cell and dispatch and barrier costs weigh more.
pub fn edge(ctx: &Ctx, regime: Regime) -> usize {
    if ctx.args.smoke {
        return match regime {
            Regime::OutOfCache => 24,
            Regime::InCache => 16,
        };
    }
    match regime {
        Regime::OutOfCache => {
            let cells = (4 * ctx.llc_bytes).div_ceil(8) as f64;
            (cells.cbrt().ceil() as usize).next_multiple_of(8)
        }
        Regime::InCache => {
            let cells = (ctx.llc_bytes / 4 / (2 * 8)) as f64;
            ((cells.cbrt() as usize) / 8 * 8).clamp(16, 64)
        }
    }
}

struct Case {
    op: AnyOp,
    input: Grid3<f64>,
    /// Hash of the timed sequential solve: the oracle for every method.
    oracle: Option<u64>,
    /// A spare grid recycled as the next solve's input buffer.
    spare: Option<Grid3<f64>>,
    /// Facade wall time per solve, per method.
    samples: Vec<Vec<f64>>,
}

impl Case {
    /// A grid holding a fresh copy of the input (outside any timing).
    fn input_copy(&mut self) -> Grid3<f64> {
        match self.spare.take() {
            Some(mut g) if g.dims() == self.input.dims() => {
                g.as_mut_slice().copy_from_slice(self.input.as_slice());
                g
            }
            _ => self.input.clone(),
        }
    }
}

/// One facade solve, verified against `oracle` (or, for the oracle's
/// own run, defining it). Returns the solve's wall time when it
/// succeeded.
#[allow(clippy::too_many_arguments)]
fn facade_solve(
    ctx: &Ctx,
    rt: &Runtime,
    case: &mut Case,
    method_name: &str,
    sweeps: usize,
    threads: usize,
    warm_oracle: &mut Option<u64>,
    tally: &mut Tally,
) -> Option<f64> {
    let group = ctx.tracer.next_id();
    let grid = case.input_copy();
    let method = ops::method(method_name, threads);
    let op = case.op.clone();
    let t0 = Instant::now();
    let result = ctx.tracer.span("facade.solve_with_on", None, group, |_| {
        catch_unwind(AssertUnwindSafe(|| op.solve(rt, grid, sweeps, method)))
    });
    let secs = t0.elapsed().as_secs_f64();
    let what = || format!("{} {method_name} {sweeps} sweeps", case.op.name());
    let (out, _stats) = match result {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            tally.check(false, || format!("{}: {e}", what()));
            return None;
        }
        Err(_) => {
            tally.check(false, || format!("{}: panicked", what()));
            return None;
        }
    };
    let hash = ctx
        .tracer
        .span("bench.verify", None, group, |_| grid_hash(out.as_slice()));
    let ok = match warm_oracle {
        Some(expected) => hash == *expected,
        None if method_name == "sequential" => {
            *warm_oracle = Some(hash);
            true
        }
        None => false,
    };
    tally.check(ok && out.dims() == case.input.dims(), || {
        format!("{}: result differs from the sequential oracle", what())
    });
    case.spare = Some(out);
    ok.then_some(secs)
}

pub fn run(ctx: &Ctx, regime: Regime) -> Outcome {
    let threads = ctx.nproc;
    let e = edge(ctx, regime);
    let dims = Dims3::cube(e);
    let sweeps = ctx.size(
        match regime {
            Regime::OutOfCache => OOCACHE_SWEEPS,
            Regime::InCache => INCACHE_SWEEPS,
        },
        4,
    );
    let ops = match regime {
        Regime::OutOfCache => vec![AnyOp::Jacobi6(Jacobi6)],
        Regime::InCache => AnyOp::all(dims),
    };
    let grid_bytes = dims.len() * 8;
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "grid: {e}^3 f64, {grid_bytes} bytes per grid ({:.2}x the {} byte shared cache), \
         {sweeps} sweeps per solve, {threads} threads",
        grid_bytes as f64 / ctx.llc_bytes as f64,
        ctx.llc_bytes
    ));
    let mut cases: Vec<Case> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| Case {
            op,
            input: init::random(dims, ctx.seed_for(i as u64)),
            oracle: None,
            spare: None,
            samples: vec![Vec::new(); METHODS.len()],
        })
        .collect();

    // Epochs: set up (spawn the runtime, then one warm-up solve per
    // method and operator of one sweep, so pools are filled and pages
    // touched), then whole timed rounds over every (operator, method)
    // cell until the epoch's time is up, so every cell gets the same
    // number of samples.
    let mut setup_times = Vec::new();
    let mut fresh = 0;
    let mut last_rt = None;
    for _ in 0..ctx.epochs() {
        drop(last_rt.take());
        for case in &mut cases {
            case.spare = None;
        }
        let t_setup = Instant::now();
        let rt = ctx.tracer.span("runtime.new", None, 0, |_| {
            Runtime::new(&TeamLayout::new(&ctx.machine, threads, 1))
        });
        for case in &mut cases {
            let mut warm_oracle = None;
            for m in METHODS {
                facade_solve(
                    ctx,
                    &rt,
                    case,
                    m,
                    1,
                    threads,
                    &mut warm_oracle,
                    &mut out.tally,
                );
            }
        }
        setup_times.push(t_setup.elapsed().as_secs_f64());

        let pool = rt.grid_pool::<f64>();
        let fresh_before = pool.fresh_allocations();
        let deadline = ctx.epoch_deadline();
        loop {
            for case in &mut cases {
                let mut oracle = case.oracle;
                for (mi, m) in METHODS.iter().enumerate() {
                    if let Some(s) = facade_solve(
                        ctx,
                        &rt,
                        case,
                        m,
                        sweeps,
                        threads,
                        &mut oracle,
                        &mut out.tally,
                    ) {
                        case.samples[mi].push(s);
                    }
                }
                case.oracle = oracle;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        fresh += pool.fresh_allocations() - fresh_before;
        last_rt = Some(rt);
    }
    out.setup_s = median(&setup_times);
    let rt = last_rt.expect("at least one epoch");

    // Metrics: per cell, the median solve time over its samples.
    let updates = (Region3::interior_of(dims).count() * sweeps) as f64;
    let mut all_mlups = Vec::new();
    let mut all_ms = Vec::new();
    let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); METHODS.len()];
    for case in &cases {
        for (mi, m) in METHODS.iter().enumerate() {
            let s = &case.samples[mi];
            if s.is_empty() {
                continue;
            }
            let med = median(s);
            let mlups = updates / med / 1e6;
            all_mlups.push(mlups);
            all_ms.push(med * 1e3);
            per_method[mi].push(mlups);
            if regime == Regime::InCache {
                out.named.push(sampled(
                    format!("mlups.{}.{m}", case.op.name()),
                    mlups,
                    "MLUP/s",
                    s.len(),
                ));
            }
        }
    }
    for (mi, m) in METHODS.iter().enumerate() {
        let n = cases.iter().map(|c| c.samples[mi].len()).min().unwrap_or(0);
        out.named.push(sampled(
            format!("mlups.{m}"),
            geomean(&per_method[mi]),
            "MLUP/s",
            n,
        ));
    }
    let n_cells = all_mlups.len();
    out.e2e
        .push(sampled("mlups", geomean(&all_mlups), "MLUP/s", n_cells));
    out.e2e
        .push(sampled("latency_p50_ms", geomean(&all_ms), "ms", n_cells));

    if ctx.tracer.enabled() {
        out.layers
            .push(metric("pool.fresh_allocations", fresh as f64, "count"));
        // Facade vs executor on the Jacobi6 case.
        let case = &mut cases[0];
        for (mi, m) in METHODS.iter().enumerate() {
            let facade = median(&case.samples[mi]);
            let exec = exec_median(ctx, &rt, case, m, sweeps, threads, &mut out.tally);
            out.layers.push(metric(
                format!("facade.mlups.{m}"),
                updates / facade / 1e6,
                "MLUP/s",
            ));
            out.layers
                .push(sampled(format!("exec.s.{m}"), exec, "s", EXEC_REPS));
            out.layers
                .push(metric(format!("facade.overhead_s.{m}"), facade - exec, "s"));
        }
        out.layers.extend(runtime_probes(ctx, &rt, case));
    }
    out
}

/// Median executor time of `method` called directly on a prebuilt pair.
fn exec_median(
    ctx: &Ctx,
    rt: &Runtime,
    case: &mut Case,
    method_name: &str,
    sweeps: usize,
    threads: usize,
    tally: &mut Tally,
) -> f64 {
    let method = ops::method(method_name, threads);
    let mut times = Vec::new();
    for _ in 0..EXEC_REPS {
        let a = case.input_copy();
        let mut b = rt.acquire_grid::<f64>(a.dims());
        b.as_mut_slice().copy_from_slice(a.as_slice());
        let mut pair = GridPair::from_parts(a, b);
        let group = ctx.tracer.next_id();
        let r = ctx
            .tracer
            .span(&format!("exec.{method_name}"), None, group, |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    case.op.exec(rt, &mut pair, sweeps, &method)
                }))
            });
        let ok = match r {
            Ok(Ok((dt, hash))) => {
                times.push(dt.as_secs_f64());
                Some(hash) == case.oracle
            }
            _ => false,
        };
        tally.check(ok, || {
            format!("executor {method_name} differs from the sequential oracle")
        });
        let (a, b) = pair.into_parts();
        rt.grid_pool::<f64>().release(b);
        case.spare = Some(a);
    }
    median(&times)
}

/// Runtime-layer probes on the workload's own runtime: empty dispatch
/// latency, pooled acquire on a warm pool, placement copy bandwidth.
fn runtime_probes(ctx: &Ctx, rt: &Runtime, case: &mut Case) -> Vec<Metric> {
    let threads = rt.threads();
    let reps = ctx.size(2000, 50);
    let mut dispatch = Vec::with_capacity(reps);
    ctx.tracer.span("runtime.run.empty", None, 0, |_| {
        for _ in 0..reps {
            let t0 = Instant::now();
            rt.run(threads, &|_| {});
            dispatch.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    });
    let dims = case.input.dims();
    let pool = rt.grid_pool::<f64>();
    let mut acquire = Vec::with_capacity(100);
    for _ in 0..ctx.size(100, 10) {
        let t0 = Instant::now();
        let g = rt.acquire_grid::<f64>(dims);
        acquire.push(t0.elapsed().as_secs_f64() * 1e6);
        pool.release(g);
    }
    let mut dst = case.input_copy();
    let mut copy = Vec::new();
    ctx.tracer.span("runtime.place_copy", None, 0, |_| {
        for _ in 0..3 {
            let t0 = Instant::now();
            rt.place_copy(dst.as_mut_slice(), case.input.as_slice());
            copy.push(t0.elapsed().as_secs_f64());
        }
    });
    case.spare = Some(dst);
    let bytes = 2.0 * (dims.len() * 8) as f64; // read + write
    vec![
        sampled("runtime.dispatch_us", median(&dispatch), "us", reps),
        sampled("pool.acquire_us", median(&acquire), "us", acquire.len()),
        sampled(
            "runtime.place_copy_gbs",
            bytes / median(&copy) / 1e9,
            "GB/s",
            copy.len(),
        ),
    ]
}
