//! Two-grid pipelined temporal blocking executor (paper §1.3, Fig. 1).
//!
//! `n` teams of `t` threads form one pipeline of `n·t` threads; pipeline
//! thread `i` applies updates (stages) `i·T … (i+1)·T - 1` to every block.
//! Synchronization is either a global [`SpinBarrier`] after each block
//! update, or the relaxed counter scheme ([`PipelineSync`], Eq. 3).
//!
//! Team sweeps (each advancing the whole grid by `n·t·T` Jacobi sweeps)
//! are separated by barriers; a trailing partial team sweep handles sweep
//! counts that are not multiples of the pipeline depth, so [`run_op_on`]
//! performs *exactly* `sweeps` Jacobi sweeps for any request.
//!
//! [`run_op_on`] (whole solves) and [`run_team_sweep_op_on`] (one team
//! sweep over an external plan, for `tb-dist`) execute on a persistent
//! [`tb_runtime::Runtime`] worker team (the paper's long-lived pinned
//! thread groups): share one runtime across repeated solves to pay the
//! spawn/pin cost once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{AccessKind, GridPair, Real, Region3, RegionAuditor, SharedGrid};
use tb_runtime::Runtime;
use tb_sync::{PipelineSync, SpinBarrier};

use crate::config::PipelineConfig;
use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::pipeline::plan::PipelinePlan;
use crate::pipeline::schedule::team_sweep_schedule;
use crate::stats::RunStats;

/// The shared state of one pipelined run: plan, grid views, and the
/// synchronization objects every worker of the team touches. Build it
/// once per run, then have each worker of the team call
/// [`PipelineRun::worker`]. This is the reusable core behind
/// [`run_op_on`]; `tb-dist`'s NUMA node solver drives one `PipelineRun`
/// per subdomain team on slices of a larger runtime.
pub struct PipelineRun<'a, T: Real, Op: StencilOp<T>> {
    op: &'a Op,
    views: [SharedGrid<T>; 2],
    plan: PipelinePlan,
    barrier: SpinBarrier,
    psync: Option<PipelineSync>,
    auditor: Option<RegionAuditor>,
    total_cells: AtomicU64,
    threads: usize,
    upt: usize,
    depth: usize,
    sweeps: usize,
    _pair: std::marker::PhantomData<&'a mut GridPair<T>>,
}

impl<'a, T: Real, Op: StencilOp<T>> PipelineRun<'a, T, Op> {
    /// Validate `cfg` against the pair and set up the run state for
    /// `sweeps` sweeps of `op`.
    pub fn new(
        op: &'a Op,
        pair: &'a mut GridPair<T>,
        cfg: &PipelineConfig,
        sweeps: usize,
    ) -> Result<Self, String> {
        cfg.validate(pair.dims())?;
        let dims = pair.dims();
        let interior = Region3::interior_of(dims);
        let depth = cfg.stages();
        let plan = PipelinePlan::uniform(interior, cfg.block, depth);
        let threads = cfg.threads();
        Ok(Self {
            op,
            views: pair.shared_views(),
            plan,
            barrier: SpinBarrier::new(threads),
            psync: PipelineSync::from_mode(threads, cfg.team_size, cfg.sync),
            auditor: cfg.audit.then(RegionAuditor::new),
            total_cells: AtomicU64::new(0),
            threads,
            upt: cfg.updates_per_thread,
            depth,
            sweeps,
            _pair: std::marker::PhantomData,
        })
    }

    /// Pipeline threads of this run (`n·t`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute pipeline thread `tid`'s share of the whole run: every
    /// team sweep, including the trailing partial one.
    ///
    /// # Safety
    /// Exactly [`PipelineRun::threads`] workers must call this
    /// concurrently, with distinct `tid`s in `0..threads`, and nothing
    /// else may touch the underlying grid pair for the duration — the
    /// plan geometry plus the synchronization distances then guarantee
    /// the disjointness contract of the shared-grid kernels.
    pub unsafe fn worker(&self, tid: usize) {
        let nblocks = self.plan.num_blocks();
        let team_sweeps = self.sweeps.div_ceil(self.depth);
        let mut my_cells = 0u64;
        for ts in 0..team_sweeps {
            let base = ts * self.depth;
            let stages_now = self.depth.min(self.sweeps - base);
            my_cells += team_sweep_schedule(
                &self.barrier,
                self.psync.as_ref(),
                tid,
                self.threads,
                self.upt,
                nblocks,
                stages_now,
                |k| k,
                |j| {
                    update_block(
                        self.op,
                        &self.views,
                        &self.plan,
                        self.auditor.as_ref(),
                        tid,
                        j,
                        base,
                        stages_now,
                        self.upt,
                    )
                },
            );
        }
        self.total_cells.fetch_add(my_cells, Ordering::Relaxed);
    }

    /// Cell updates performed so far (complete once all workers joined).
    pub fn cells(&self) -> u64 {
        self.total_cells.load(Ordering::Relaxed)
    }
}

/// Run `sweeps` sweeps of `op` over `pair` with pipelined temporal
/// blocking on the given persistent runtime (which must have at least
/// `cfg.threads()` workers; placement belongs to the runtime, so a
/// `cfg.layout` pin list is ignored here). On return the result lives
/// in `pair.current(sweeps)`.
pub fn run_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    cfg: &PipelineConfig,
    sweeps: usize,
) -> Result<RunStats, String> {
    cfg.validate(pair.dims())?;
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    if rt.threads() < cfg.threads() {
        return Err(format!(
            "runtime has {} workers but the pipeline needs {}",
            rt.threads(),
            cfg.threads()
        ));
    }
    let run = PipelineRun::new(op, pair, cfg, sweeps)?;
    let t0 = Instant::now();
    // SAFETY: the runtime dispatch hands out distinct tids 0..threads
    // and blocks until every worker finished; the pair stays exclusively
    // borrowed by `run` for that whole window.
    rt.run(run.threads(), &|tid| unsafe { run.worker(tid) });
    Ok(RunStats::new(run.cells(), t0.elapsed()))
}

/// One pipelined team sweep over an externally built plan — the entry
/// point for the distributed solver, whose stage domains are shrinking
/// ghost rings rather than the plain interior. Executes on the given
/// persistent runtime (at least `cfg.threads()` workers).
///
/// * `views` — the two grid buffers (`views[s % 2]` is read by sweep `s`),
/// * `base_sweep` — global sweep number of stage 0 (fixes parity),
/// * `stages_now` — how many of the plan's stages to execute (allows a
///   trailing partial cycle).
///
/// Returns the number of cell updates performed.
///
/// # Safety
/// The caller must guarantee `views` point at live allocations of the
/// plan's grid extents and that no other thread accesses them during the
/// call. The plan must satisfy the `pipeline::plan` geometry contract
/// (construction via [`PipelinePlan::with_domains`] enforces it).
pub unsafe fn run_team_sweep_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    views: &[SharedGrid<T>; 2],
    plan: &PipelinePlan,
    cfg: &PipelineConfig,
    base_sweep: usize,
    stages_now: usize,
) -> u64 {
    let threads = cfg.threads();
    assert!(
        rt.threads() >= threads,
        "runtime has {} workers but the team sweep needs {threads}",
        rt.threads()
    );
    let nblocks = plan.num_blocks();
    let barrier = SpinBarrier::new(threads);
    let psync = PipelineSync::from_mode(threads, cfg.team_size, cfg.sync);
    let auditor = cfg.audit.then(RegionAuditor::new);
    let total_cells = AtomicU64::new(0);
    let upt = cfg.updates_per_thread;
    rt.run(threads, &|tid| {
        let cells = team_sweep_schedule(
            &barrier,
            psync.as_ref(),
            tid,
            threads,
            upt,
            nblocks,
            stages_now,
            |k| k,
            |j| {
                update_block(
                    op,
                    views,
                    plan,
                    auditor.as_ref(),
                    tid,
                    j,
                    base_sweep,
                    stages_now,
                    upt,
                )
            },
        );
        total_cells.fetch_add(cells, Ordering::Relaxed);
    });
    total_cells.load(Ordering::Relaxed)
}

/// Apply this thread's `T` consecutive stages to block `j` of the team
/// sweep starting at global sweep `base`. Returns cells updated.
#[allow(clippy::too_many_arguments)]
fn update_block<T: Real, Op: StencilOp<T>>(
    op: &Op,
    views: &[SharedGrid<T>; 2],
    plan: &PipelinePlan,
    auditor: Option<&RegionAuditor>,
    tid: usize,
    j: usize,
    base: usize,
    stages_now: usize,
    updates_per_thread: usize,
) -> u64 {
    let mut cells = 0u64;
    for u in 0..updates_per_thread {
        let stage = tid * updates_per_thread + u;
        if stage >= stages_now {
            break;
        }
        let sweep = base + stage;
        let region = plan.region(j, stage, -1);
        if region.is_empty() {
            continue;
        }
        let (sg, dg) = (sweep % 2, (sweep + 1) % 2);
        let claims = auditor.map(|a| {
            let read = a.claim(tid, sg, AccessKind::Read, region.expand(1));
            let write = a.claim(tid, dg, AccessKind::Write, region);
            (read, write)
        });
        // SAFETY: the plan geometry plus the synchronization distances
        // guarantee the disjointness contract of `update_region_shared_op`
        // (see plan module docs; re-checked here when auditing is on).
        unsafe {
            kernel::update_region_shared_op(op, &views[sg], &views[dg], &region, StoreMode::Normal)
        };
        if let (Some(a), Some((r, w))) = (auditor, claims) {
            a.release(r);
            a.release(w);
        }
        cells += region.count() as u64;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::Jacobi6;
    use crate::test_runtime;
    use tb_grid::{init, norm, Dims3, GridPair};
    use tb_sync::SyncMode;

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.into_current(sweeps)
    }

    fn run_cfg(dims: Dims3, seed: u64, sweeps: usize, cfg: &PipelineConfig) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        run_op_on(test_runtime(), &Jacobi6, &mut pair, cfg, sweeps).unwrap();
        pair.into_current(sweeps)
    }

    fn assert_matches_reference(dims: Dims3, sweeps: usize, cfg: &PipelineConfig) {
        let want = reference(dims, 42, sweeps);
        let got = run_cfg(dims, 42, sweeps, cfg);
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("pipelined {sweeps} sweeps vs reference"),
        );
    }

    fn audit_cfg(
        team: usize,
        teams: usize,
        upt: usize,
        sync: SyncMode,
        block: [usize; 3],
    ) -> PipelineConfig {
        PipelineConfig {
            team_size: team,
            n_teams: teams,
            updates_per_thread: upt,
            block,
            sync,
            scheme: crate::config::GridScheme::TwoGrid,
            layout: None,
            audit: true,
        }
    }

    #[test]
    fn exact_multiple_of_depth_relaxed() {
        let cfg = audit_cfg(
            2,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 2,
                dt: 0,
            },
            [8, 8, 8],
        );
        // depth = 2; 4 sweeps = 2 team sweeps.
        assert_matches_reference(Dims3::cube(20), 4, &cfg);
    }

    #[test]
    fn partial_final_team_sweep() {
        let cfg = audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [8, 8, 8]);
        // depth = 4; 6 sweeps = one full + one partial (2 stages).
        assert_matches_reference(Dims3::cube(20), 6, &cfg);
    }

    #[test]
    fn barrier_mode_matches() {
        let cfg = audit_cfg(3, 1, 1, SyncMode::Barrier, [8, 8, 8]);
        assert_matches_reference(Dims3::cube(20), 5, &cfg);
    }

    #[test]
    fn two_teams_with_team_delay() {
        let cfg = audit_cfg(
            2,
            2,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 2,
            },
            [8, 8, 8],
        );
        // depth = 4.
        assert_matches_reference(Dims3::cube(22), 8, &cfg);
    }

    #[test]
    fn deep_pipeline_multiple_updates() {
        let cfg = audit_cfg(2, 2, 2, SyncMode::relaxed_default(), [10, 10, 10]);
        // depth = 8 on a 24^3 grid (interior 22, blocks 10 >= 8).
        assert_matches_reference(Dims3::cube(24), 11, &cfg);
    }

    #[test]
    fn lockstep_du_equals_dl() {
        let cfg = audit_cfg(
            4,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 1,
                dt: 0,
            },
            [8, 8, 8],
        );
        assert_matches_reference(Dims3::cube(18), 4, &cfg);
    }

    #[test]
    fn loose_pipeline_large_du() {
        let cfg = audit_cfg(
            4,
            1,
            1,
            SyncMode::Relaxed {
                dl: 1,
                du: 16,
                dt: 0,
            },
            [8, 8, 8],
        );
        assert_matches_reference(Dims3::cube(18), 4, &cfg);
    }

    #[test]
    fn asymmetric_paper_style_blocks() {
        let cfg = audit_cfg(2, 1, 2, SyncMode::relaxed_default(), [16, 5, 5]);
        assert_matches_reference(Dims3::new(20, 17, 13), 9, &cfg);
    }

    #[test]
    fn single_thread_pipeline_degenerates_to_blocked_sweeps() {
        let cfg = audit_cfg(1, 1, 3, SyncMode::relaxed_default(), [8, 8, 8]);
        assert_matches_reference(Dims3::cube(16), 7, &cfg);
    }

    #[test]
    fn zero_sweeps_is_noop() {
        let dims = Dims3::cube(16);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 1);
        let mut pair = GridPair::from_initial(initial.clone());
        let cfg = PipelineConfig::small();
        let stats = run_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 0).unwrap();
        assert_eq!(stats.cell_updates, 0);
        norm::assert_grids_identical(&initial, pair.current(0), &Region3::whole(dims), "noop");
    }

    #[test]
    fn stats_count_matches_sweeps_times_interior() {
        let dims = Dims3::cube(20);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 3));
        let cfg = audit_cfg(2, 1, 1, SyncMode::relaxed_default(), [9, 9, 9]);
        let sweeps = 6;
        let stats = run_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, sweeps).unwrap();
        assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);
    }

    #[test]
    fn invalid_config_is_reported() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        let mut cfg = PipelineConfig::small();
        cfg.updates_per_thread = 50;
        assert!(run_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 2).is_err());
    }

    #[test]
    fn undersized_runtime_is_rejected() {
        let dims = Dims3::cube(20);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 1));
        let cfg = audit_cfg(3, 1, 1, SyncMode::relaxed_default(), [8, 8, 8]);
        let rt = Runtime::with_threads(2);
        let err = run_op_on(&rt, &Jacobi6, &mut pair, &cfg, 2).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }
}
