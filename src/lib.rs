//! # temporal-blocking
//!
//! A Rust reproduction of **"Multicore-aware parallel temporal blocking
//! of stencil codes for shared and distributed memory"** (M. Wittmann,
//! G. Hager, G. Wellein, IPPS/LSPP 2010, arXiv:0912.4506), generalized
//! over a stencil-operator layer.
//!
//! The workspace implements the paper end to end:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`grid`] | aligned 3D grids, grid pairs, compressed grids, regions, blocks, race auditor |
//! | [`sync`] | spin barrier, padded progress counters, relaxed pipeline sync (Eq. 3) |
//! | [`topology`] | cache groups, Nehalem EP preset, team layout, affinity |
//! | [`runtime`] | **persistent core-pinned worker teams** (spawn once, dispatch per solve), comm worker, staging-grid pool |
//! | [`stencil`] | **stencil operators**, baselines, **pipelined temporal blocking**, wavefront comparator |
//! | [`model`] | Eq. 2 roofline, §1.4 diagnostic model, Fig. 5 halo model, Fig. 6 scaling model — all fed by per-operator code balance |
//! | [`membench`] | STREAM COPY/SCALE/ADD/TRIAD + machine calibration |
//! | [`net`] | in-process ranks, communicator, Cartesian topology, virtual-time network |
//! | [`dist`] | domain decomposition, multi-layer halo exchange, operator-generic distributed/hybrid solver, cluster sim |
//!
//! ## The operator layer
//!
//! Every execution strategy is generic over [`StencilOp`] — the
//! row-update primitive plus radius, flops/LUP and bytes/LUP metadata.
//! Four operators ship ([`solve`] defaults to the classic Jacobi;
//! [`solve_with`] takes any):
//!
//! | operator | stencil | use case |
//! |----------|---------|----------|
//! | [`Jacobi6`] | 6-point cross, weight 1/6 | the paper's Eq. 1; Laplace relaxation |
//! | [`Jacobi7`] | 7-point cross with center weight | explicit-Euler heat stepping |
//! | [`VarCoeff7`] | 7-point cross + per-cell coefficient grid | heterogeneous diffusion (extra read stream) |
//! | [`Avg27`] | dense 27-point radius-1 average | corner-reading smoothing kernel |
//!
//! Each operator is held to **bitwise identity** across all execution
//! strategies (sequential, blocked, parallel ± streaming stores,
//! pipelined, compressed, wavefront, diamond, distributed/hybrid)
//! against its own sequential oracle.
//!
//! For serving many tenants' solves concurrently on one machine —
//! disjoint cache-group slices, admission control, warm plans per
//! slice shape — see the [`serve`] module.
//!
//! ## Quick start
//!
//! ```
//! use temporal_blocking::prelude::*;
//!
//! // A 3D heat problem: hot z=0 face, cold everywhere else.
//! let dims = Dims3::cube(34);
//! let initial = grid::init::hot_plate::<f64>(dims, 100.0, 0.0);
//!
//! // Solve 8 sweeps with pipelined temporal blocking...
//! let cfg = PipelineConfig::small();
//! let (solution, stats) = solve(initial.clone(), 8, Method::Pipelined(cfg.clone())).unwrap();
//!
//! // ...and it is bitwise identical to the plain sequential solver.
//! let (reference, _) = solve(initial.clone(), 8, Method::Sequential).unwrap();
//! grid::norm::assert_grids_identical(
//!     &reference,
//!     &solution,
//!     &Region3::whole(dims),
//!     "pipelined vs sequential",
//! );
//! assert!(stats.mlups() > 0.0);
//!
//! // Any other operator drops in via `solve_with` — here one explicit
//! // Euler heat step per sweep instead of the Jacobi average.
//! let heat = Jacobi7::heat(0.1);
//! let (a, _) = solve_with(&heat, initial.clone(), 8, Method::Pipelined(cfg)).unwrap();
//! let (b, _) = solve_with(&heat, initial, 8, Method::Sequential).unwrap();
//! grid::norm::assert_grids_identical(&a, &b, &Region3::whole(dims), "heat op");
//! ```

pub use tb_dist as dist;
pub use tb_grid as grid;
pub use tb_membench as membench;
pub use tb_model as model;
pub use tb_net as net;
pub use tb_plan as plan;
pub use tb_runtime as runtime;
pub use tb_stencil as stencil;
pub use tb_sync as sync;
pub use tb_topology as topology;

pub use tb_runtime::{Placement, Runtime};
pub use tb_stencil::{
    Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, RunStats, ScalarPath, StencilOp,
    SyncMode, VarCoeff7,
};

use tb_grid::{CompressedGrid, Dims3, Grid3, GridPair, Real};
use tb_runtime::GridPool;
use tb_stencil::config::GridScheme;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{baseline, diamond, pipeline, wavefront};

pub mod serve;

/// Everything an application typically needs.
pub mod prelude {
    pub use crate::serve::{
        Admission, ClassStats, JobError, JobHandle, JobMethod, JobOp, JobPayload, JobReport,
        JobSpec, PackPolicy, Priority, Rejected, SchedPolicy, Server, ServerConfig, ServerStats,
        SlicePolicy,
    };
    pub use crate::{
        solve, solve_tuned_with_on, solve_with, solve_with_on, Method, TuneOptions, TunedSolve,
    };
    pub use tb_grid::{self as grid, Dims3, Grid3, GridPair, Real, Region3};
    pub use tb_model::MachineParams;
    pub use tb_plan::{MethodFamily, Plan, PlanCache};
    pub use tb_runtime::{Placement, Runtime};
    pub use tb_stencil::{
        Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, RunStats, ScalarPath, StencilOp,
        SyncMode, VarCoeff7,
    };
    pub use tb_topology::{Machine, TeamLayout};
}

/// Solver selection for [`solve`] / [`solve_with`].
#[derive(Clone, Debug)]
pub enum Method {
    /// Plain sequential sweeps (the verification oracle).
    Sequential,
    /// Sequential sweeps with spatial blocking.
    Blocked { block: [usize; 3] },
    /// Thread-parallel standard sweeps (the paper's baseline).
    Parallel {
        threads: usize,
        streaming_stores: bool,
    },
    /// Pipelined temporal blocking (the paper's contribution, §1.3).
    Pipelined(PipelineConfig),
    /// Pipelined temporal blocking on a compressed grid (§1.3).
    PipelinedCompressed(PipelineConfig),
    /// Wavefront temporal blocking (the paper's ref. 2, comparator).
    Wavefront { threads: usize },
    /// Wavefront-diamond temporal blocking (Malas, Hager et al. 2015):
    /// diamond tiles along z × time, no wind-up/wind-down waste, one
    /// width knob instead of block sizes and sync distances.
    Diamond(DiamondConfig),
}

/// [`solve_with`] on a persistent [`Runtime`]: parallel methods run on
/// its (pinned) workers — which must number at least the method's
/// thread count — and every method, `Sequential` and `Blocked`
/// included, takes its second grid buffer / compressed storage from the
/// runtime's staging pool, so repeated solves stop paying
/// spawn-per-solve and allocation-per-solve.
///
/// The result comes back in one of the two grids the solve ran on:
/// `initial` itself (an even sweep count, or `PipelinedCompressed`,
/// which writes its result back into it) or the pooled B buffer, and
/// the other one returns to the pool. The B buffer receives only the
/// one-cell boundary shell of `initial` (see [`GridPair::from_parts`]):
/// no full-grid copy is made around the solve.
pub fn solve_with_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    mut initial: Grid3<T>,
    sweeps: usize,
    method: Method,
) -> Result<(Grid3<T>, RunStats), String> {
    /// Pair the initial grid with a pooled B buffer holding its boundary
    /// shell. The buffer comes from [`Runtime::acquire_grid`], so under
    /// [`Placement::WorkerFirstTouch`] a fresh one commits its pages on
    /// the workers that will compute on them.
    fn pooled_pair<T: Real>(rt: &Runtime, initial: Grid3<T>) -> GridPair<T> {
        let mut b = rt.acquire_grid(initial.dims());
        b.copy_shell_from(&initial);
        GridPair::from_parts(initial, b)
    }
    /// Keep the buffer holding the result, return the other to the pool.
    fn split_result<T: Real>(pool: &GridPool<T>, pair: GridPair<T>, sweeps: usize) -> Grid3<T> {
        let (a, b) = pair.into_parts();
        let (result, spare) = if sweeps.is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        pool.release(spare);
        result
    }
    let pool = rt.grid_pool::<T>();
    match method {
        Method::Sequential => {
            let mut pair = pooled_pair(rt, initial);
            let stats = baseline::seq_sweeps_op(op, &mut pair, sweeps);
            Ok((split_result(&pool, pair, sweeps), stats))
        }
        Method::Blocked { block } => {
            let mut pair = pooled_pair(rt, initial);
            let stats = baseline::seq_blocked_sweeps_op(op, &mut pair, sweeps, block);
            Ok((split_result(&pool, pair, sweeps), stats))
        }
        Method::Parallel {
            threads,
            streaming_stores,
        } => {
            if threads == 0 {
                return Err("threads must be >= 1".into());
            }
            if threads > rt.threads() {
                return Err(format!(
                    "runtime has {} workers but the method needs {threads}",
                    rt.threads()
                ));
            }
            let store = if streaming_stores {
                StoreMode::Streaming
            } else {
                StoreMode::Normal
            };
            let mut pair = pooled_pair(rt, initial);
            let stats = baseline::par_sweeps_op_on(rt, op, &mut pair, sweeps, threads, store);
            Ok((split_result(&pool, pair, sweeps), stats))
        }
        Method::Pipelined(mut cfg) => {
            cfg.scheme = GridScheme::TwoGrid;
            cfg.validate(initial.dims())?;
            let mut pair = pooled_pair(rt, initial);
            let stats = pipeline::run_op_on(rt, op, &mut pair, &cfg, sweeps)?;
            Ok((split_result(&pool, pair, sweeps), stats))
        }
        Method::PipelinedCompressed(mut cfg) => {
            cfg.scheme = GridScheme::Compressed;
            cfg.validate(initial.dims())?;
            let margin = cfg.stages();
            let storage =
                rt.acquire_grid(CompressedGrid::<T>::alloc_dims_for(initial.dims(), margin));
            let mut cg = CompressedGrid::from_grid_in(&initial, margin, storage);
            let stats = pipeline::run_compressed_op_on(rt, op, &mut cg, &cfg, sweeps)?;
            cg.copy_to(&mut initial);
            pool.release(cg.into_storage());
            Ok((initial, stats))
        }
        Method::Wavefront { threads } => {
            let mut pair = pooled_pair(rt, initial);
            let stats = wavefront::run_wavefront_op_on(rt, op, &mut pair, threads, sweeps)?;
            Ok((split_result(&pool, pair, sweeps), stats))
        }
        Method::Diamond(cfg) => {
            let mut pair = pooled_pair(rt, initial);
            let stats = diamond::run_diamond_op_on(rt, op, &mut pair, &cfg, sweeps)?;
            Ok((split_result(&pool, pair, sweeps), stats))
        }
    }
}

/// Run `sweeps` sweeps of the stencil operator `op` on `initial` with the
/// chosen method. Returns the final grid and the run statistics.
///
/// A one-shot convenience over [`solve_with_on`]: each call builds a
/// runtime sized for the method (no workers for `Sequential` and
/// `Blocked`; a `Pipelined` config's `layout` pins its workers), solves
/// on it and drops it. The returned [`RunStats`] time the solve only,
/// not the team spawn and join. Build a [`Runtime`] once and call
/// [`solve_with_on`] when solving repeatedly.
///
/// For a fixed operator, all methods produce bitwise identical results
/// (see crate docs).
pub fn solve_with<T: Real, Op: StencilOp<T>>(
    op: &Op,
    initial: Grid3<T>,
    sweeps: usize,
    method: Method,
) -> Result<(Grid3<T>, RunStats), String> {
    let rt = match &method {
        Method::Sequential | Method::Blocked { .. } => Runtime::with_threads(0),
        Method::Parallel { threads, .. } | Method::Wavefront { threads } => {
            Runtime::with_threads(*threads)
        }
        Method::Pipelined(cfg) | Method::PipelinedCompressed(cfg) => cfg.one_shot_runtime(),
        Method::Diamond(cfg) => Runtime::with_threads(cfg.threads),
    };
    solve_with_on(&rt, op, initial, sweeps, method)
}

/// [`solve_with`] specialized to the classic 6-point Jacobi operator —
/// the paper's Eq. 1 and the default for existing callers.
pub fn solve<T: Real>(
    initial: Grid3<T>,
    sweeps: usize,
    method: Method,
) -> Result<(Grid3<T>, RunStats), String> {
    solve_with(&Jacobi6, initial, sweeps, method)
}

/// Convenience: dims of a cubic problem sized to roughly `mib` MiB for a
/// two-grid `f64` solver — used by examples to scale to the host.
pub fn cube_for_memory_budget(mib: usize) -> Dims3 {
    let bytes = mib * 1024 * 1024;
    let cells = bytes / (2 * 8);
    let edge = (cells as f64).cbrt() as usize;
    Dims3::cube(edge.max(8))
}

/// The persistent runtime for a tuning session: the layout's pinned
/// workers when they already cover `min_threads` (e.g. a full cache
/// group for calibration), otherwise the pin list grown with the
/// machine's remaining CPUs — keeping the layout's placement *and* its
/// carved-out comm core, instead of degrading to unpinned threads with
/// no comm worker.
pub fn tuning_runtime(
    machine: &topology::Machine,
    layout: &topology::TeamLayout,
    min_threads: usize,
) -> Runtime {
    if layout.threads() >= min_threads {
        return Runtime::new(layout);
    }
    let mut cpus = layout.cpus.clone();
    let mut used: std::collections::HashSet<usize> = cpus.iter().flatten().copied().collect();
    if let Some(c) = layout.comm_core {
        used.insert(c);
    }
    for socket in &machine.sockets {
        for &cpu in &socket.cpus {
            if cpus.len() >= min_threads {
                break;
            }
            if used.insert(cpu) {
                cpus.push(Some(cpu));
            }
        }
    }
    while cpus.len() < min_threads {
        cpus.push(None); // machine smaller than the request: unpinned tail
    }
    Runtime::from_cpus(cpus, layout.comm_core.map(Some))
}

/// Translate a [`tb_plan::Plan`]'s method into the facade [`Method`].
/// The SIMD flag is *not* encoded here — [`run_plan_on`] applies it by
/// wrapping the operator in [`ScalarPath`].
pub fn method_for_plan(plan: &tb_plan::Plan) -> Method {
    use tb_plan::PlanMethod;
    match &plan.method {
        PlanMethod::Parallel {
            threads,
            streaming_stores,
        } => Method::Parallel {
            threads: *threads,
            streaming_stores: *streaming_stores,
        },
        PlanMethod::Pipelined(_) => Method::Pipelined(plan.pipeline_config().unwrap()),
        PlanMethod::Compressed(_) => Method::PipelinedCompressed(plan.pipeline_config().unwrap()),
        PlanMethod::Wavefront { threads } => Method::Wavefront { threads: *threads },
        PlanMethod::Diamond { .. } => Method::Diamond(plan.diamond_config().unwrap()),
    }
}

/// Execute one reified [`tb_plan::Plan`] on a persistent runtime.
/// `simd: false` routes through [`ScalarPath`] — bitwise identical
/// results, scalar row kernels.
pub fn run_plan_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    plan: &tb_plan::Plan,
    initial: Grid3<T>,
    sweeps: usize,
) -> Result<(Grid3<T>, RunStats), String> {
    let method = method_for_plan(plan);
    if plan.simd {
        solve_with_on(rt, op, initial, sweeps, method)
    } else {
        solve_with_on(rt, &ScalarPath(op.clone()), initial, sweeps, method)
    }
}

/// Options for [`solve_tuned_with_on`].
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Cache file; `None` uses [`tb_plan::PlanCache::default_path`]
    /// (`$TB_PLAN_CACHE` overrides).
    pub cache_path: Option<std::path::PathBuf>,
    /// Measure at most this many model-ranked candidates on a cold tune.
    pub top_k: usize,
    /// Ignore any cached plan and tune afresh (the result still lands in
    /// the cache).
    pub force_retune: bool,
    /// Skip membench calibration and fingerprint with these parameters —
    /// for tests/benches and for hosts calibrated out of band.
    pub params: Option<MachineParams>,
    /// Restrict the candidate space to these families; empty means all.
    pub families: Vec<tb_plan::MethodFamily>,
    /// Tune for this machine (or sub-machine) instead of the detected
    /// host. The job scheduler passes each slice's
    /// [`Machine::restrict`](topology::Machine::restrict) sub-machine
    /// here, so plans are keyed per sub-machine fingerprint — identical
    /// slices share warm plans, different slice shapes never collide.
    pub machine: Option<topology::Machine>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            cache_path: None,
            top_k: tb_plan::TuneConfig::default().top_k,
            force_retune: false,
            params: None,
            families: Vec::new(),
            machine: None,
        }
    }
}

/// How a tuned solve obtained its plan.
#[derive(Clone, Debug)]
pub struct TunedSolve {
    /// The plan that produced the returned grid.
    pub plan: tb_plan::Plan,
    /// `true` when the plan was replayed from the persistent cache —
    /// by contract such a solve performs **zero** measurements.
    pub cache_hit: bool,
    /// `true` when membench calibration ran (cold cache, no stored
    /// calibration, no [`TuneOptions::params`] override).
    pub calibrated: bool,
    /// Candidate measurements performed (0 on a warm hit).
    pub measurements: usize,
    /// The ranked tuning report (cold tunes only).
    pub report: Option<tb_plan::TuneReport>,
}

use tb_model::MachineParams;

/// [`solve_with_on`] with the method chosen by the plan-cache autotuner:
/// open the persistent cache (one shared in-process store per cache
/// file, so concurrent tenants never race the load-modify-save cycle),
/// replay the stored winner when the [`tb_plan::PlanKey`] matches (no
/// measurement of any kind — the calibration that feeds the fingerprint
/// is itself cached), otherwise enumerate candidates, score them with
/// the `tb-model` predictions, measure only the top-K plus the library
/// default, persist the winner, and solve with it.
pub fn solve_tuned_with_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    initial: Grid3<T>,
    sweeps: usize,
    opts: &TuneOptions,
) -> Result<(Grid3<T>, RunStats, TunedSolve), String> {
    use tb_plan::{CacheEntry, MachineFingerprint, PlanKey, SharedPlanCache, TuneConfig};

    let dims = initial.dims();
    let machine = match &opts.machine {
        Some(m) => m.clone(),
        None => topology::detect::detect(),
    };
    let signature = machine.signature();
    let cache = match &opts.cache_path {
        Some(p) => SharedPlanCache::open(p.clone()),
        None => SharedPlanCache::open_default(),
    };

    // Machine parameters: explicit override, then the cached calibration
    // for this topology, then one membench run (cached for next time).
    let mut calibrated = false;
    let params = match opts.params {
        Some(p) => p,
        None => match cache.calibration(&signature) {
            Some(p) => p,
            None => {
                let group = machine.cores_per_socket().max(1);
                let profile = membench::CalibrationProfile::quick();
                let p = if rt.threads() >= group {
                    membench::calibrate_host_on(rt, &machine, profile)
                } else {
                    let layout = topology::TeamLayout::new(&machine, group, 1);
                    let cal_rt = tuning_runtime(&machine, &layout, group);
                    membench::calibrate_host_on(&cal_rt, &machine, profile)
                };
                calibrated = true;
                cache
                    .with(|c| {
                        c.store_calibration(&signature, p);
                        c.save()
                    })
                    .map_err(|e| format!("plan cache save: {e}"))?;
                p
            }
        },
    };

    let fingerprint = MachineFingerprint::new(&machine, &params);
    let key = PlanKey::new::<T>(fingerprint, op.name(), dims, sweeps);

    // Warm path: replay the stored winner. The entry re-validates
    // against the current dims, and must fit this runtime's workers.
    if !opts.force_retune {
        if let Some(entry) = cache.lookup(&key, dims, Op::RADIUS) {
            if entry.plan.method.threads() <= rt.threads() {
                let plan = entry.plan;
                let (out, stats) = run_plan_on(rt, op, &plan, initial, sweeps)?;
                return Ok((
                    out,
                    stats,
                    TunedSolve {
                        plan,
                        cache_hit: true,
                        calibrated,
                        measurements: 0,
                        report: None,
                    },
                ));
            }
        }
    }

    // Cold path: enumerate, score, measure top-K + incumbent.
    let team = rt.threads().max(1);
    let families: &[tb_plan::MethodFamily] = if opts.families.is_empty() {
        &tb_plan::MethodFamily::ALL
    } else {
        &opts.families
    };
    let candidates: Vec<tb_plan::Plan> = families
        .iter()
        .flat_map(|&f| tb_plan::enumerate_family::<T, Op>(f, &params, op, dims, team))
        .collect();
    let incumbent = tb_plan::default_plan(
        if families.len() == 1 {
            families[0]
        } else {
            tb_plan::MethodFamily::Parallel
        },
        team,
    );
    let report = tb_plan::tune(
        &params,
        op,
        dims,
        candidates,
        incumbent,
        &TuneConfig { top_k: opts.top_k },
        |plan| run_plan_on(rt, op, plan, initial.clone(), sweeps).map(|(_, stats)| stats.mlups()),
    );
    let winner = report
        .winner()
        .ok_or("tuning failed: no candidate could be measured")?;
    let plan = winner.plan.clone();
    cache
        .store_and_save(
            &key,
            CacheEntry {
                plan: plan.clone(),
                dims: [dims.nx, dims.ny, dims.nz],
                measured_mlups: winner.measured_mlups.unwrap_or(0.0),
                predicted_mlups: winner.predicted_mlups,
            },
        )
        .map_err(|e| format!("plan cache save: {e}"))?;

    let measurements = report.measured;
    let (out, stats) = run_plan_on(rt, op, &plan, initial, sweeps)?;
    Ok((
        out,
        stats,
        TunedSolve {
            plan,
            cache_hit: false,
            calibrated,
            measurements,
            report: Some(report),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::{init, norm, Region3};

    fn all_methods() -> Vec<(&'static str, Method)> {
        vec![
            ("blocked", Method::Blocked { block: [7, 7, 7] }),
            (
                "par",
                Method::Parallel {
                    threads: 3,
                    streaming_stores: false,
                },
            ),
            (
                "par-nt",
                Method::Parallel {
                    threads: 2,
                    streaming_stores: true,
                },
            ),
            ("pipelined", Method::Pipelined(PipelineConfig::small())),
            (
                "compressed",
                Method::PipelinedCompressed(PipelineConfig::small()),
            ),
            ("wavefront", Method::Wavefront { threads: 2 }),
            (
                "diamond",
                Method::Diamond(DiamondConfig {
                    threads: 2,
                    width: 6,
                    threads_per_tile: 1,
                    audit: true,
                }),
            ),
            (
                "diamond-mwd",
                Method::Diamond(DiamondConfig {
                    threads: 2,
                    width: 6,
                    threads_per_tile: 2,
                    audit: true,
                }),
            ),
        ]
    }

    #[test]
    fn all_methods_agree_bitwise() {
        let dims = Dims3::cube(20);
        let initial: Grid3<f64> = init::random(dims, 7);
        let sweeps = 6;
        let (want, _) = solve(initial.clone(), sweeps, Method::Sequential).unwrap();
        for (name, m) in all_methods() {
            let (got, stats) = solve(initial.clone(), sweeps, m).unwrap();
            norm::assert_grids_identical(&want, &got, &Region3::whole(dims), name);
            assert_eq!(
                stats.cell_updates,
                (sweeps * dims.interior_len()) as u64,
                "{name}"
            );
        }
    }

    #[test]
    fn all_methods_agree_bitwise_for_every_operator() {
        // Every one-shot `solve_with` builds exactly one runtime and
        // delegates to `solve_with_on`: bitwise equal to the sequential
        // oracle for every operator, zero sweeps included.
        fn check<Op: StencilOp<f64>>(op: &Op, initial: &Grid3<f64>) {
            let dims = initial.dims();
            for sweeps in [0, 1, 2, 5] {
                let mut oracle = GridPair::from_initial(initial.clone());
                tb_stencil::baseline::seq_sweeps_op(op, &mut oracle, sweeps);
                let want = oracle.into_current(sweeps);
                let methods = std::iter::once(("sequential", Method::Sequential));
                for (name, m) in methods.chain(all_methods()) {
                    let before = Runtime::constructed_on_this_thread();
                    let (got, stats) = solve_with(op, initial.clone(), sweeps, m).unwrap();
                    assert_eq!(
                        Runtime::constructed_on_this_thread() - before,
                        1,
                        "{name}: one runtime per one-shot solve"
                    );
                    norm::assert_grids_identical(
                        &want,
                        &got,
                        &Region3::whole(dims),
                        &format!("{} via {name}, {sweeps} sweeps", op.name()),
                    );
                    assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
                }
            }
        }
        let dims = Dims3::cube(20);
        let initial: Grid3<f64> = init::random(dims, 13);
        check(&Jacobi6, &initial);
        check(&Jacobi7::heat(0.11), &initial);
        check(&VarCoeff7::banded(dims), &initial);
        check(&Avg27, &initial);
    }

    #[test]
    fn one_shot_errors_match_the_runtime_form() {
        let g: Grid3<f64> = init::random(Dims3::cube(20), 3);
        let tiny_blocks = PipelineConfig {
            block: [1, 1, 1],
            ..PipelineConfig::small()
        };
        let invalid = [
            Method::Parallel {
                threads: 0,
                streaming_stores: false,
            },
            Method::Wavefront { threads: 0 },
            Method::Pipelined(tiny_blocks.clone()),
            Method::PipelinedCompressed(tiny_blocks),
            Method::Diamond(DiamondConfig::with_width(4, 6).with_threads_per_tile(3)),
        ];
        let rt = Runtime::with_threads(8);
        for m in invalid {
            let want = solve_with_on(&rt, &Jacobi6, g.clone(), 2, m.clone()).unwrap_err();
            let got = solve_with(&Jacobi6, g.clone(), 2, m.clone()).unwrap_err();
            assert_eq!(got, want, "{m:?}");
        }
    }

    #[test]
    fn solve_with_on_shared_runtime_agrees_with_solve_for_every_method() {
        let dims = Dims3::cube(20);
        let initial: Grid3<f64> = init::random(dims, 21);
        let sweeps = 5;
        let (want, _) = solve(initial.clone(), sweeps, Method::Sequential).unwrap();
        let rt = Runtime::with_threads(3);
        for round in 0..2 {
            for (name, m) in all_methods() {
                let (got, stats) =
                    solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, m).unwrap();
                norm::assert_grids_identical(
                    &want,
                    &got,
                    &Region3::whole(dims),
                    &format!("{name} on shared runtime, round {round}"),
                );
                assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
            }
        }
        // The staging pool is being reused, not grown per solve: at most
        // one two-grid B buffer and one compressed storage block parked.
        assert!(rt.grid_pool::<f64>().free_grids() <= 2);
    }

    #[test]
    fn solve_with_on_rejects_undersized_runtime() {
        let dims = Dims3::cube(20);
        let g: Grid3<f64> = init::random(dims, 1);
        let rt = Runtime::with_threads(1);
        assert!(solve_with_on(
            &rt,
            &Jacobi6,
            g,
            2,
            Method::Parallel {
                threads: 4,
                streaming_stores: false
            }
        )
        .is_err());
    }

    #[test]
    fn memory_budget_helper() {
        let d = cube_for_memory_budget(16);
        // 2 f64 grids of edge^3 must fit in ~16 MiB.
        assert!(2 * d.bytes(8) <= 17 * 1024 * 1024);
        assert!(d.nx >= 8);
    }

    #[test]
    fn errors_are_propagated() {
        let dims = Dims3::cube(10);
        let g: Grid3<f64> = init::random(dims, 1);
        assert!(solve(
            g.clone(),
            1,
            Method::Parallel {
                threads: 0,
                streaming_stores: false
            }
        )
        .is_err());
        let mut cfg = PipelineConfig::small();
        cfg.updates_per_thread = 100;
        assert!(solve(g, 1, Method::Pipelined(cfg)).is_err());
    }
}
