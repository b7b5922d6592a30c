//! Wavefront-diamond temporal blocking (Malas, Hager et al. 2015).
//!
//! The successor of the paper's pipelined scheme: instead of pushing
//! spatial blocks through a thread pipeline (which needs a block size,
//! per-thread update counts and `d_l`/`d_u` distances, and wastes
//! wind-up/wind-down work at team-sweep boundaries), the z × sweep
//! plane is tiled with *diamonds* whose edges follow the stencil's
//! dependence slopes. Geometry and its correctness argument live in
//! [`geometry`]; this module executes the schedule:
//!
//! * tiles of one diamond **row** are mutually independent, so the team
//!   walks the rows in order — one [`tb_sync::SpinBarrier`] epoch per
//!   row — with tiles assigned to workers statically (round-robin, no
//!   work stealing, no per-tile synchronization);
//! * within a tile, sweeps advance in order on the two-grid buffers,
//!   each sweep updating full x/y planes of the tile's z-slab.
//!
//! Exactly like the pipelined executors, the whole run is one dispatch
//! on a persistent [`tb_runtime::Runtime`] team, results are **bitwise
//! identical** to the sequential oracle for every operator, and the
//! one entry point is [`run_diamond_op_on`]. The in-cache working set is `≈ 2·(w + 2R)` grid
//! planes (see `tb-model`'s diamond estimate), tuned by the single
//! width parameter `w`.

pub mod geometry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tb_grid::{AccessKind, Dims3, GridPair, Real, Region3, RegionAuditor, SharedGrid};
use tb_runtime::Runtime;
use tb_sync::SpinBarrier;

use crate::kernel::{self, StoreMode};
use crate::op::StencilOp;
use crate::stats::RunStats;

pub use geometry::{DiamondRow, DiamondTile, DiamondTiling};

/// Parameters of a diamond-blocked run. Compared to
/// [`crate::PipelineConfig`] there is deliberately little to tune: the
/// team size and one width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiamondConfig {
    /// Workers executing each diamond row.
    pub threads: usize,
    /// Diamond width `w` in transformed coordinates (`z + R·s`); the
    /// widest z-slab of a tile. Larger widths raise in-cache reuse
    /// (`w / 2R` updates per memory traversal) and the working set
    /// (`≈ 2·(w + 2R)` planes) together.
    pub width: usize,
    /// MWD (Malas et al.'s multi-dimensional intra-tile
    /// parallelization): workers cooperating on *one* tile. `1` is the
    /// classic one-thread-per-tile schedule; larger values split each
    /// tile's z-extent into a per-lane wavefront (one intra-tile
    /// barrier per sweep), so `threads / threads_per_tile` tiles run
    /// concurrently and they *share* one tile working set in cache
    /// instead of each dragging in their own. Must divide `threads`.
    pub threads_per_tile: usize,
    /// Run the debug region auditor (serializes claims; test/debug only).
    pub audit: bool,
}

impl DiamondConfig {
    /// A small, always-valid configuration for quick starts and tests.
    pub fn small() -> Self {
        Self {
            threads: 2,
            width: 8,
            threads_per_tile: 1,
            audit: false,
        }
    }

    /// Config with explicit team size and width, one thread per tile,
    /// auditing off.
    pub fn with_width(threads: usize, width: usize) -> Self {
        Self {
            threads,
            width,
            threads_per_tile: 1,
            audit: false,
        }
    }

    /// Builder-style override of the MWD sub-team size.
    pub fn with_threads_per_tile(mut self, threads_per_tile: usize) -> Self {
        self.threads_per_tile = threads_per_tile;
        self
    }

    /// Validate against a grid and operator radius. Unlike the
    /// pipelined scheme there is no depth/block-size coupling to check —
    /// diamonds clamp to the domain, and any sweep count works.
    pub fn validate(&self, dims: Dims3, radius: usize) -> Result<(), String> {
        if self.threads == 0 {
            return Err("diamond needs at least one thread".into());
        }
        if self.threads_per_tile == 0 {
            return Err("threads_per_tile must be >= 1".into());
        }
        if self.threads_per_tile > self.threads
            || !self.threads.is_multiple_of(self.threads_per_tile)
        {
            return Err(format!(
                "threads_per_tile {} must divide the team size {}",
                self.threads_per_tile, self.threads
            ));
        }
        if radius == 0 {
            return Err("operator radius must be >= 1".into());
        }
        if self.width < 2 * radius {
            return Err(format!(
                "diamond width {} is narrower than 2·radius = {}; \
                 reads would skip a diamond row",
                self.width,
                2 * radius
            ));
        }
        if Region3::interior_of(dims).is_empty() {
            return Err(format!("grid {dims} has no interior"));
        }
        Ok(())
    }
}

/// Execute a prebuilt diamond schedule on the runtime's workers: one
/// dispatch, one barrier epoch per diamond row, tiles round-robin per
/// worker. `base_sweep` is the global sweep number of schedule sweep 0
/// (it fixes which buffer of `views` each sweep reads). Returns cells
/// updated.
///
/// # Safety
/// `views` must point at live allocations covering every region of the
/// tiling, nothing else may access them during the call, and the
/// tiling's domains must satisfy the trapezoid contract documented in
/// [`geometry`] (uniform domains satisfy it trivially). Radius safety:
/// the tiling must have been built with the operator's radius.
pub unsafe fn run_diamond_schedule_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    views: &[SharedGrid<T>; 2],
    tiling: &DiamondTiling,
    cfg: &DiamondConfig,
    base_sweep: usize,
) -> u64 {
    assert_eq!(
        tiling.radius(),
        Op::RADIUS,
        "tiling radius must match the operator"
    );
    let threads = cfg.threads;
    assert!(
        rt.threads() >= threads,
        "runtime has {} workers but the diamond team needs {threads}",
        rt.threads()
    );
    let tpt = cfg.threads_per_tile.max(1);
    assert!(
        threads.is_multiple_of(tpt),
        "threads_per_tile {tpt} must divide the team size {threads}"
    );
    // MWD: the team splits into `groups` sub-teams of `tpt` lanes; each
    // sub-team advances one tile cooperatively, so only `groups` tile
    // working sets are live in cache at a time. tpt == 1 degenerates to
    // the classic one-thread-per-tile schedule (same tile assignment,
    // no intra-tile barriers).
    let groups = threads / tpt;
    let barrier = SpinBarrier::new(threads);
    let intra: Vec<SpinBarrier> = (0..groups).map(|_| SpinBarrier::new(tpt)).collect();
    let auditor = cfg.audit.then(RegionAuditor::new);
    let total_cells = AtomicU64::new(0);
    rt.run(threads, &|tid| {
        let (group, lane) = (tid / tpt, tid % tpt);
        let intra_b = (tpt > 1).then(|| &intra[group]);
        let mut my_cells = 0u64;
        for row in tiling.rows() {
            for tile in row.tiles.iter().skip(group).step_by(groups) {
                // SAFETY: forwarded from this function's contract; the
                // static row-major assignment hands concurrent sub-teams
                // tiles of the same row only, and within a sub-team the
                // lanes partition each sweep's z-extent disjointly.
                my_cells += unsafe {
                    update_tile(
                        op,
                        views,
                        tiling,
                        auditor.as_ref(),
                        tid,
                        tile,
                        base_sweep,
                        lane,
                        tpt,
                        intra_b,
                    )
                };
            }
            // Row epoch: every dependency of the next row is sealed once
            // all workers pass this barrier.
            barrier.wait();
        }
        total_cells.fetch_add(my_cells, Ordering::Relaxed);
    });
    total_cells.load(Ordering::Relaxed)
}

/// Advance one tile through its sweeps — lane `lane` of a `tpt`-lane
/// sub-team updates its `geometry::split_z` chunk of each sweep's
/// region, with one intra-tile barrier *between* consecutive sweeps
/// (`intra`, present iff `tpt > 1`): a chunk's reads reach `radius`
/// planes past its bounds, i.e. into neighboring lanes' sweep-`k−1`
/// writes, which the barrier seals. No barrier is needed after the last
/// sweep — same-row tiles are disjoint at arbitrary relative progress
/// (see `geometry`), so sub-teams never wait on each other's tiles.
/// Returns cells updated by this lane.
///
/// Every lane of a sub-team walks the same tiles and the same sweep
/// indices (empty chunks are skipped *after* the barrier), so the
/// barrier participation count always matches.
///
/// # Safety
/// See [`run_diamond_schedule_on`]; additionally the caller guarantees
/// concurrent sub-teams hold tiles of the same row only and that lanes
/// of one sub-team call this for the same tiles in the same order.
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<T: Real, Op: StencilOp<T>>(
    op: &Op,
    views: &[SharedGrid<T>; 2],
    tiling: &DiamondTiling,
    auditor: Option<&RegionAuditor>,
    tid: usize,
    tile: &DiamondTile,
    base_sweep: usize,
    lane: usize,
    tpt: usize,
    intra: Option<&SpinBarrier>,
) -> u64 {
    let mut cells = 0u64;
    for (k, region) in tile.regions.iter().enumerate() {
        if let (Some(b), true) = (intra, k > 0) {
            // Seal the other lanes' sweep-(k−1) writes before any lane
            // reads across a chunk boundary at sweep k.
            b.wait();
        }
        let chunk = if tpt > 1 {
            geometry::split_z(region, tpt, lane)
        } else {
            *region
        };
        if chunk.is_empty() {
            continue;
        }
        let sweep = base_sweep + tile.s_lo + k;
        let (sg, dg) = (sweep % 2, (sweep + 1) % 2);
        let claims = auditor.map(|a| {
            let read = a.claim(tid, sg, AccessKind::Read, chunk.expand(tiling.radius()));
            let write = a.claim(tid, dg, AccessKind::Write, chunk);
            (read, write)
        });
        // SAFETY: row ordering seals every cross-row dependency, the
        // same-row disjointness argument in `geometry` covers concurrent
        // tiles, and the intra-tile barrier above orders cross-lane
        // chunk dependencies — re-checked by the auditor when enabled.
        kernel::update_region_shared_op(op, &views[sg], &views[dg], &chunk, StoreMode::Normal);
        if let (Some(a), Some((r, w))) = (auditor, claims) {
            a.release(r);
            a.release(w);
        }
        cells += chunk.count() as u64;
    }
    cells
}

/// Run `sweeps` sweeps of `op` with wavefront-diamond temporal blocking
/// on the given persistent runtime (which must have at least
/// `cfg.threads` workers). On return the result is in
/// `pair.current(sweeps)`.
pub fn run_diamond_op_on<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    cfg: &DiamondConfig,
    sweeps: usize,
) -> Result<RunStats, String> {
    let dims = pair.dims();
    cfg.validate(dims, Op::RADIUS)?;
    if rt.threads() < cfg.threads {
        return Err(format!(
            "runtime has {} workers but the diamond team needs {}",
            rt.threads(),
            cfg.threads
        ));
    }
    if sweeps == 0 {
        return Ok(RunStats::new(0, std::time::Duration::ZERO));
    }
    let tiling = DiamondTiling::uniform(Region3::interior_of(dims), cfg.width, Op::RADIUS, sweeps);
    let views = pair.shared_views();
    let t0 = Instant::now();
    // SAFETY: the pair is exclusively borrowed for the whole dispatch,
    // the tiling was built over this grid's interior with the operator's
    // radius, and uniform domains satisfy the trapezoid contract.
    let cells = unsafe { run_diamond_schedule_on(rt, op, &views, &tiling, cfg, 0) };
    Ok(RunStats::new(cells, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::{Avg27, Jacobi6, Jacobi7, VarCoeff7};
    use crate::test_runtime;
    use tb_grid::{init, norm, Dims3};

    fn reference(dims: Dims3, seed: u64, sweeps: usize) -> tb_grid::Grid3<f64> {
        let mut pair = GridPair::from_initial(init::random(dims, seed));
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, sweeps);
        pair.into_current(sweeps)
    }

    fn audit_cfg(threads: usize, width: usize) -> DiamondConfig {
        DiamondConfig {
            threads,
            width,
            threads_per_tile: 1,
            audit: true,
        }
    }

    fn check(dims: Dims3, threads: usize, width: usize, sweeps: usize) {
        let want = reference(dims, 23, sweeps);
        let mut pair = GridPair::from_initial(init::random(dims, 23));
        run_diamond_op_on(
            test_runtime(),
            &Jacobi6,
            &mut pair,
            &audit_cfg(threads, width),
            sweeps,
        )
        .unwrap();
        norm::assert_grids_identical(
            &want,
            pair.current(sweeps),
            &Region3::whole(dims),
            &format!("diamond t={threads} w={width} sweeps={sweeps}"),
        );
    }

    #[test]
    fn single_thread_matches_sequential() {
        check(Dims3::cube(12), 1, 4, 5);
    }

    #[test]
    fn team_matches_sequential_various_widths() {
        for width in [2, 4, 6, 8, 16] {
            check(Dims3::cube(16), 3, width, 6);
        }
    }

    #[test]
    fn width_larger_than_grid_is_fine() {
        // One diamond column swallows the whole z-extent: degenerates to
        // plain multi-sweep blocking, still exact.
        check(Dims3::new(10, 12, 8), 2, 64, 5);
    }

    #[test]
    fn thin_grids_and_odd_widths() {
        check(Dims3::new(14, 6, 20), 2, 5, 7);
        check(Dims3::new(6, 14, 4), 4, 3, 4);
    }

    #[test]
    fn every_operator_matches_its_oracle() {
        let dims = Dims3::cube(14);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 31);
        fn run_both<Op: StencilOp<f64>>(op: &Op, initial: &tb_grid::Grid3<f64>, sweeps: usize) {
            let dims = initial.dims();
            let mut want = GridPair::from_initial(initial.clone());
            baseline::seq_sweeps_op(op, &mut want, sweeps);
            let mut pair = GridPair::from_initial(initial.clone());
            run_diamond_op_on(test_runtime(), op, &mut pair, &audit_cfg(2, 6), sweeps).unwrap();
            norm::assert_grids_identical(
                want.current(sweeps),
                pair.current(sweeps),
                &Region3::whole(dims),
                &format!("diamond {}", op.name()),
            );
        }
        run_both(&Jacobi6, &initial, 5);
        run_both(&Jacobi7::heat(0.12), &initial, 5);
        run_both(&VarCoeff7::banded(dims), &initial, 5);
        run_both(&Avg27, &initial, 5);
    }

    #[test]
    fn mwd_matches_sequential_for_every_subteam_shape() {
        // threads_per_tile ∈ {1, 2, 3, 4, 6} over a 6-thread team (audit
        // on): the intra-tile wavefront must stay bitwise-exact however
        // the team is split between tiles and lanes.
        let dims = Dims3::new(14, 10, 18);
        let sweeps = 6;
        let want = reference(dims, 41, sweeps);
        for tpt in [1usize, 2, 3, 6] {
            for width in [3usize, 6, 10] {
                let cfg = audit_cfg(6, width).with_threads_per_tile(tpt);
                let mut pair = GridPair::from_initial(init::random(dims, 41));
                run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, sweeps).unwrap();
                norm::assert_grids_identical(
                    &want,
                    pair.current(sweeps),
                    &Region3::whole(dims),
                    &format!("mwd tpt={tpt} w={width}"),
                );
            }
        }
        // Whole team on one tile at a time (threads == threads_per_tile).
        let cfg = audit_cfg(4, 5).with_threads_per_tile(4);
        let mut pair = GridPair::from_initial(init::random(dims, 41));
        let s = run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, sweeps).unwrap();
        norm::assert_grids_identical(
            &want,
            pair.current(sweeps),
            &Region3::whole(dims),
            "mwd full-team tile",
        );
        assert_eq!(s.cell_updates, (sweeps * dims.interior_len()) as u64);
    }

    #[test]
    fn mwd_every_operator_matches_its_oracle() {
        let dims = Dims3::cube(13);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 53);
        fn run_both<Op: StencilOp<f64>>(op: &Op, initial: &tb_grid::Grid3<f64>, sweeps: usize) {
            let dims = initial.dims();
            let mut want = GridPair::from_initial(initial.clone());
            baseline::seq_sweeps_op(op, &mut want, sweeps);
            let mut pair = GridPair::from_initial(initial.clone());
            let cfg = audit_cfg(4, 6).with_threads_per_tile(2);
            run_diamond_op_on(test_runtime(), op, &mut pair, &cfg, sweeps).unwrap();
            norm::assert_grids_identical(
                want.current(sweeps),
                pair.current(sweeps),
                &Region3::whole(dims),
                &format!("mwd diamond {}", op.name()),
            );
        }
        run_both(&Jacobi6, &initial, 5);
        run_both(&Jacobi7::heat(0.12), &initial, 5);
        run_both(&VarCoeff7::banded(dims), &initial, 5);
        run_both(&Avg27, &initial, 5); // corner reads cross chunk bounds
    }

    #[test]
    fn mwd_invalid_subteam_rejected() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        for (threads, tpt) in [(4, 3), (2, 4), (3, 0)] {
            let cfg = DiamondConfig::with_width(threads, 6).with_threads_per_tile(tpt);
            let err = run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 1).unwrap_err();
            assert!(err.contains("threads_per_tile"), "({threads},{tpt}): {err}");
        }
    }

    #[test]
    fn stats_account_all_updates() {
        let dims = Dims3::cube(14);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 8));
        let cfg = DiamondConfig::with_width(2, 4);
        let s = run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 5).unwrap();
        assert_eq!(s.cell_updates, (5 * dims.interior_len()) as u64);
    }

    #[test]
    fn zero_sweeps_noop() {
        let dims = Dims3::cube(10);
        let initial: tb_grid::Grid3<f64> = init::random(dims, 4);
        let mut pair = GridPair::from_initial(initial.clone());
        let cfg = DiamondConfig::small();
        let s = run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 0).unwrap();
        assert_eq!(s.cell_updates, 0);
        norm::assert_grids_identical(&initial, pair.current(0), &Region3::whole(dims), "noop");
    }

    #[test]
    fn invalid_configs_rejected() {
        let dims = Dims3::cube(10);
        let mut pair: GridPair<f64> = GridPair::zeroed(dims);
        let mut cfg = DiamondConfig::small();
        cfg.threads = 0;
        assert!(run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 1).is_err());
        let mut cfg = DiamondConfig::small();
        cfg.width = 1;
        let err = run_diamond_op_on(test_runtime(), &Jacobi6, &mut pair, &cfg, 1).unwrap_err();
        assert!(err.contains("2·radius"), "{err}");
        assert!(DiamondConfig::small()
            .validate(Dims3::new(2, 8, 8), 1)
            .is_err());
    }

    #[test]
    fn undersized_runtime_rejected() {
        let dims = Dims3::cube(12);
        let mut pair: GridPair<f64> = GridPair::from_initial(init::random(dims, 2));
        let rt = Runtime::with_threads(1);
        let cfg = DiamondConfig::with_width(3, 4);
        let err = run_diamond_op_on(&rt, &Jacobi6, &mut pair, &cfg, 2).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }
}
