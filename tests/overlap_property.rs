//! Property tests for the overlapped exchange schedule: for random
//! dims, rank grids, operators, halo widths and sweep counts, the
//! overlapped modes must gather grids bitwise identical to the
//! synchronous schedule and to the serial oracle.

use proptest::prelude::*;

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::{
    Avg27, DiamondConfig, Jacobi6, Jacobi7, PipelineConfig, Runtime, StencilOp, SyncMode, VarCoeff7,
};

/// Gather the distributed result of one (mode, exec) run on rank 0.
fn gather<Op: StencilOp<f64>>(
    op: &Op,
    global: &Grid3<f64>,
    dec: &Decomposition,
    pgrid: [usize; 3],
    mode: ExchangeMode,
    sweeps: usize,
) -> Grid3<f64> {
    let results = Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(dec, cart.coords(), global, LocalExec::Seq, op.clone())
                .expect("valid decomposition")
                .with_exchange_mode(mode);
        s.run_sweeps(&mut cart, sweeps);
        s.gather_global(&mut cart, dec, global)
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 gathers")
}

fn check_op<Op: StencilOp<f64>>(
    op: Op,
    seed: u64,
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    comm_thread: bool,
) -> Result<(), TestCaseError> {
    let global: Grid3<f64> = init::random(dims, seed);
    let want = solver::serial_reference_op(&op, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let interior = Region3::interior_of(dims);
    let overlapped_mode = if comm_thread {
        ExchangeMode::OverlappedCommThread
    } else {
        ExchangeMode::Overlapped
    };
    let sync = gather(&op, &global, &dec, pgrid, ExchangeMode::Sync, sweeps);
    let over = gather(&op, &global, &dec, pgrid, overlapped_mode, sweeps);
    let vs_oracle = norm::first_mismatch(&want, &over, &interior);
    prop_assert!(
        vs_oracle.is_none(),
        "{} {overlapped_mode:?} {pgrid:?} h={h} s={sweeps} diverged from the oracle at {vs_oracle:?}",
        op.name()
    );
    let vs_sync = norm::first_mismatch(&sync, &over, &interior);
    prop_assert!(
        vs_sync.is_none(),
        "{} {overlapped_mode:?} {pgrid:?} h={h} s={sweeps} diverged from Sync at {vs_sync:?}",
        op.name()
    );
    Ok(())
}

/// One overlapped solve per rank on a runtime whose grid pool holds a
/// NaN-filled grid of the rank's local dims, which the solver takes as
/// its staging grid. Returns rank 0's gather.
fn gather_with_poisoned_staging<Op: StencilOp<f64>>(
    op: &Op,
    global: &Grid3<f64>,
    dec: &Decomposition,
    pgrid: [usize; 3],
    mode: ExchangeMode,
    exec: &LocalExec,
    sweeps: usize,
) -> Grid3<f64> {
    let results = Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let workers = match exec {
            LocalExec::Seq => 0,
            LocalExec::Pipelined(cfg) => cfg.threads(),
            LocalExec::Diamond(cfg) => cfg.threads,
        };
        let comm_worker = (mode == ExchangeMode::OverlappedCommThread).then_some(None);
        let rt = Runtime::from_cpus(vec![None; workers], comm_worker);
        let pool = rt.grid_pool::<f64>();
        pool.release(Grid3::filled(dec.local(cart.coords()).dims, f64::NAN));
        let mut s =
            DistSolver::from_global_op(dec, cart.coords(), global, exec.clone(), op.clone())
                .expect("valid decomposition")
                .with_exchange_mode(mode);
        s.run_sweeps_on(&rt, &mut cart, sweeps);
        assert_eq!(
            pool.free_grids(),
            0,
            "the poisoned grid is the staging grid"
        );
        s.gather_global(&mut cart, dec, global)
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 gathers")
}

/// The overlapped cycle snapshots only the shells on faces with a
/// neighbor into its staging grid, and the comm side packs every send
/// from there. Starting from a staging grid full of NaN, a send that
/// read a cell the snapshot missed would ship NaN into a neighbor's
/// ghosts, and the gather would diverge from the oracle.
#[test]
fn snapshot_of_neighbor_faces_covers_every_send() {
    let dims = Dims3::new(18, 16, 14);
    let (h, sweeps) = (2, 5);
    let pipelined = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        layout: None,
        audit: false,
    };
    let execs = [
        LocalExec::Seq,
        LocalExec::Pipelined(pipelined),
        LocalExec::Diamond(DiamondConfig::with_width(2, 4)),
    ];
    let global: Grid3<f64> = init::random(dims, 8128);
    let want_jacobi6 = solver::serial_reference_op(&Jacobi6, &global, sweeps);
    let want_avg27 = solver::serial_reference_op(&Avg27, &global, sweeps);
    let interior = Region3::interior_of(dims);
    for pgrid in [[1, 1, 2], [2, 1, 1], [2, 2, 1], [3, 1, 1]] {
        let dec = Decomposition::new(dims, pgrid, h);
        for mode in [ExchangeMode::Overlapped, ExchangeMode::OverlappedCommThread] {
            for exec in &execs {
                let what = format!("poisoned staging {mode:?} {pgrid:?} {exec:?}");
                let got = gather_with_poisoned_staging(
                    &Jacobi6, &global, &dec, pgrid, mode, exec, sweeps,
                );
                norm::assert_grids_identical(&want_jacobi6, &got, &interior, &what);
                let got =
                    gather_with_poisoned_staging(&Avg27, &global, &dec, pgrid, mode, exec, sweeps);
                norm::assert_grids_identical(&want_avg27, &got, &interior, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Overlapped == Sync == serial oracle, bitwise, for random
    /// geometry, operator, halo width, sweep count and comm-thread use.
    #[test]
    fn overlapped_bitwise_matches_sync_and_oracle(
        seed in 0u64..1000,
        nx in 12usize..20,
        ny in 12usize..20,
        nz in 12usize..20,
        pgrid in prop::sample::select(vec![
            [1usize, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2],
            [2, 2, 1], [2, 1, 2], [1, 2, 2],
        ]),
        op_idx in 0usize..4,
        h in 1usize..4,
        sweeps in 1usize..9,
        comm_thread in any::<bool>(),
    ) {
        let dims = Dims3::new(nx, ny, nz);
        match op_idx {
            0 => check_op(Jacobi6, seed, dims, pgrid, h, sweeps, comm_thread)?,
            1 => check_op(Jacobi7::heat(0.07), seed, dims, pgrid, h, sweeps, comm_thread)?,
            2 => check_op(VarCoeff7::banded(dims), seed, dims, pgrid, h, sweeps, comm_thread)?,
            _ => check_op(Avg27, seed, dims, pgrid, h, sweeps, comm_thread)?,
        }
    }

    /// The core/shell split partitions the owned box for every geometry
    /// the decomposition accepts.
    #[test]
    fn core_and_shells_always_partition(
        nx in 10usize..26,
        ny in 10usize..26,
        nz in 10usize..26,
        pgrid in prop::sample::select(vec![
            [2usize, 1, 1], [2, 2, 1], [2, 2, 2], [3, 1, 1],
        ]),
        h in 1usize..4,
        depth in 1usize..5,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        prop_assume!((0..3).all(|d| dims.as_array()[d] / pgrid[d] >= h.max(pgrid[d].min(2))));
        let dec = match Decomposition::try_new(dims, pgrid, h) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        for r in 0..dec.ranks() {
            let l = dec.local(dec.coords_of(r));
            let core = l.interior_core(depth);
            let shells = l.boundary_shells(depth);
            let covered: usize =
                core.count() + shells.iter().map(Region3::count).sum::<usize>();
            prop_assert_eq!(covered, l.owned_local().count());
            for (i, s) in shells.iter().enumerate() {
                prop_assert!(!s.intersects(&core));
                for s2 in &shells[..i] {
                    prop_assert!(!s.intersects(s2));
                }
            }
            // Shells exist only where ghosts arrive: every shell cell is
            // within `depth` of a face that has a neighbor rank.
            let owned = l.owned_local();
            let c = l.coords;
            for s in &shells {
                for z in s.lo[2]..s.hi[2] {
                    for y in s.lo[1]..s.hi[1] {
                        for x in s.lo[0]..s.hi[0] {
                            let p = [x, y, z];
                            let near_ghost_face = (0..3).any(|d| {
                                (c[d] > 0 && p[d] < owned.lo[d] + depth)
                                    || (c[d] + 1 < pgrid[d] && p[d] + depth >= owned.hi[d])
                            });
                            prop_assert!(
                                near_ghost_face,
                                "rank {r} depth {depth}: shell cell {p:?} of {s} is \
                                 not within {depth} of a face with a neighbor"
                            );
                        }
                    }
                }
            }
        }
    }
}
