//! Property-based verification of wavefront-diamond temporal blocking.
//!
//! The scheme's contract: for any geometry, team size, diamond width,
//! sweep count and operator, the diamond executor — on a shared
//! persistent runtime *and* through the one-shot `solve_with` —
//! produces grids **bitwise identical** to the plain parallel baseline
//! and to the operator's sequential oracle. A distributed section holds
//! `LocalExec::Diamond` (including the overlapped trapezoid drive) to
//! the same standard.

use std::sync::OnceLock;

use proptest::prelude::*;

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::runtime::Runtime;
use temporal_blocking::{
    solve_with, solve_with_on, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, StencilOp, VarCoeff7,
};

/// One shared, oversized runtime for every proptest case: subset
/// dispatch and cross-case reuse are part of the property.
fn shared_runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::with_threads(6))
}

fn assert_diamond_matches_everything<Op: StencilOp<f64>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    threads: usize,
    width: usize,
    threads_per_tile: usize,
) -> Result<(), TestCaseError> {
    let initial: Grid3<f64> = init::random(dims, seed);
    let cfg = DiamondConfig {
        threads,
        width,
        threads_per_tile,
        audit: true,
    };
    let method = Method::Diamond(cfg);

    // Sequential oracle and the standard parallel baseline.
    let (oracle, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let (baseline, _) = solve_with(
        op,
        initial.clone(),
        sweeps,
        Method::Parallel {
            threads,
            streaming_stores: false,
        },
    )
    .unwrap();
    prop_assert!(
        norm::first_mismatch(&oracle, &baseline, &Region3::whole(dims)).is_none(),
        "baseline diverged from oracle (pre-existing bug)"
    );

    // Diamond through the one-shot `solve_with`...
    let (one_shot, stats) = solve_with(op, initial.clone(), sweeps, method.clone()).unwrap();
    let mismatch = norm::first_mismatch(&oracle, &one_shot, &Region3::whole(dims));
    prop_assert!(
        mismatch.is_none(),
        "{} diamond t={threads} w={width} sweeps={sweeps}: one-shot run diverged at {mismatch:?}",
        op.name()
    );
    // Diamond must update every interior cell exactly once per sweep.
    prop_assert_eq!(stats.cell_updates, (sweeps * dims.interior_len()) as u64);

    // ...and on the shared persistent runtime.
    let (on_rt, _) = solve_with_on(shared_runtime(), op, initial, sweeps, method).unwrap();
    let mismatch = norm::first_mismatch(&oracle, &on_rt, &Region3::whole(dims));
    prop_assert!(
        mismatch.is_none(),
        "{} diamond t={threads} w={width}: shared-runtime run diverged at {mismatch:?}",
        op.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random dims × team size × width × sweeps × operator:
    /// diamond ≡ parallel baseline ≡ sequential oracle, bitwise, on
    /// both the shared runtime and a one-shot runtime.
    #[test]
    fn diamond_bitwise_identical_to_baseline_and_oracle(
        nx in 8usize..24,
        ny in 8usize..24,
        nz in 8usize..24,
        seed in 0u64..1000,
        sweeps in 1usize..11,
        threads in 1usize..5,
        width in 2usize..17,
        tpt_pick in 0usize..8,
        which_op in 0usize..4,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        // Random MWD sub-team size: any divisor of the team size.
        let divisors: Vec<usize> = (1..=threads).filter(|d| threads % d == 0).collect();
        let tpt = divisors[tpt_pick % divisors.len()];
        match which_op {
            0 => assert_diamond_matches_everything(
                &Jacobi6, dims, seed, sweeps, threads, width, tpt)?,
            1 => assert_diamond_matches_everything(
                &Jacobi7::heat(0.11), dims, seed, sweeps, threads, width, tpt)?,
            2 => assert_diamond_matches_everything(
                &VarCoeff7::banded(dims), dims, seed, sweeps, threads, width, tpt)?,
            _ => assert_diamond_matches_everything(
                &Avg27, dims, seed, sweeps, threads, width, tpt)?,
        }
    }

    /// Distributed ranks advancing with `LocalExec::Diamond` gather the
    /// exact serial-oracle grid, in the synchronous and the overlapped
    /// exchange schedule, for random geometry and cycle structure.
    #[test]
    fn dist_diamond_matches_serial_oracle(
        edge in 12usize..20,
        seed in 0u64..1000,
        sweeps in 1usize..9,
        h in 1usize..4,
        width in 2usize..9,
        axis in 0usize..3,
        overlapped in proptest::any::<bool>(),
    ) {
        let dims = Dims3::cube(edge);
        let mut pgrid = [1usize, 1, 1];
        pgrid[axis] = 2;
        let global: Grid3<f64> = init::random(dims, seed);
        let want = solver::serial_reference_op(&Jacobi6, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let mode = if overlapped { ExchangeMode::Overlapped } else { ExchangeMode::Sync };
        let cfg = DiamondConfig { threads: 2, width, threads_per_tile: 1, audit: true };
        let (g, w, cfg_ref, dec_ref) = (&global, &want, &cfg, &dec);
        let ok = Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = solver::DistSolver::from_global_op(
                dec_ref,
                cart.coords(),
                g,
                LocalExec::Diamond(cfg_ref.clone()),
                Jacobi6,
            )
            .unwrap()
            .with_exchange_mode(mode);
            s.run_sweeps(&mut cart, sweeps);
            match s.gather_global(&mut cart, dec_ref, g) {
                Some(got) => {
                    norm::first_mismatch(w, &got, &Region3::interior_of(dims)).is_none()
                }
                None => true,
            }
        });
        prop_assert!(
            ok.iter().all(|v| *v),
            "dist diamond {pgrid:?} h={h} w={width} {mode:?} diverged from the serial oracle"
        );
    }
}

/// A fixed non-proptest case pinning the 8-rank corner-forwarding path
/// with a corner-reading operator under `LocalExec::Diamond`.
#[test]
fn eight_rank_diamond_avg27_matches_serial() {
    let dims = Dims3::new(18, 16, 14);
    let pgrid = [2, 2, 2];
    let sweeps = 5;
    let global: Grid3<f64> = init::random(dims, 4711);
    let want = solver::serial_reference_op(&Avg27, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, 2);
    let cfg = DiamondConfig {
        threads: 2,
        width: 4,
        threads_per_tile: 2, // corner-reading op + MWD + corner forwarding
        audit: true,
    };
    for mode in [ExchangeMode::Sync, ExchangeMode::OverlappedCommThread] {
        let (g, w, cfg_ref, dec_ref) = (&global, &want, &cfg, &dec);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(
                dec_ref,
                cart.coords(),
                g,
                LocalExec::Diamond(cfg_ref.clone()),
                Avg27,
            )
            .unwrap()
            .with_exchange_mode(mode);
            s.run_sweeps(&mut cart, sweeps);
            if let Some(got) = s.gather_global(&mut cart, dec_ref, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!("8-rank diamond avg27 {mode:?}"),
                );
            }
        });
    }
}

/// Solving repeatedly on one runtime must not churn threads or grow the
/// staging pool — the diamond path reuses the pooled B buffer.
#[test]
fn repeated_diamond_solves_reuse_the_pool() {
    let dims = Dims3::cube(18);
    let initial: Grid3<f64> = init::random(dims, 9);
    let rt = Runtime::with_threads(2);
    let method = Method::Diamond(DiamondConfig::with_width(2, 6));
    let (want, _) = solve_with(&Jacobi6, initial.clone(), 5, method.clone()).unwrap();
    for round in 0..8 {
        let (got, _) = solve_with_on(&rt, &Jacobi6, initial.clone(), 5, method.clone()).unwrap();
        norm::assert_grids_identical(
            &want,
            &got,
            &Region3::whole(dims),
            &format!("diamond pool reuse round {round}"),
        );
    }
    assert!(
        rt.grid_pool::<f64>().free_grids() <= 1,
        "repeated diamond solves must recycle one B buffer, not allocate per solve"
    );
}
