//! Property-based and reuse tests for the persistent worker runtime.
//!
//! The contract: a solve on the *shared, oversized* runtime reused
//! across many solves is bitwise identical to the same solve on a fresh
//! one-shot runtime sized for the method (what `solve_with` builds per
//! call), and both equal the sequential oracle; a solve on a runtime
//! neither spawns workers nor builds a team of its own.

use std::sync::OnceLock;

use proptest::prelude::*;

use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, Universe};
use temporal_blocking::runtime::Runtime;
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::{
    solve_with, solve_with_on, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, PipelineConfig,
    StencilOp, SyncMode, VarCoeff7,
};

/// One shared runtime for every proptest case: bigger than any case
/// needs, so subset dispatch and cross-case reuse are exercised too.
fn shared_runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::with_threads(8))
}

/// Every parallel method, on the shared persistent runtime, must equal
/// its result on a fresh one-shot runtime bitwise — for random geometry,
/// team shape, and operator.
fn assert_shared_matches_one_shot<Op: StencilOp<f64>>(
    op: &Op,
    dims: Dims3,
    seed: u64,
    sweeps: usize,
    team_size: usize,
    n_teams: usize,
    upt: usize,
) -> Result<(), TestCaseError> {
    let initial: Grid3<f64> = init::random(dims, seed);
    let cfg = PipelineConfig {
        team_size,
        n_teams,
        updates_per_thread: upt,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: true,
    };
    prop_assert!(cfg.validate(dims).is_ok(), "strategy must keep cfg valid");
    let threads = cfg.threads();
    let methods: Vec<(&str, Method)> = vec![
        (
            "par",
            Method::Parallel {
                threads,
                streaming_stores: false,
            },
        ),
        (
            "par-nt",
            Method::Parallel {
                threads,
                streaming_stores: true,
            },
        ),
        ("pipelined", Method::Pipelined(cfg.clone())),
        ("compressed", Method::PipelinedCompressed(cfg)),
        ("wavefront", Method::Wavefront { threads }),
    ];
    let rt = shared_runtime();
    for (name, m) in methods {
        let (one_shot, _) = solve_with(op, initial.clone(), sweeps, m.clone()).unwrap();
        let (on_rt, _) = solve_with_on(rt, op, initial.clone(), sweeps, m).unwrap();
        let mismatch = norm::first_mismatch(&one_shot, &on_rt, &Region3::whole(dims));
        prop_assert!(
            mismatch.is_none(),
            "{} via {name}: shared-runtime result diverged at {mismatch:?}",
            op.name()
        );
    }
    // And both equal the sequential oracle.
    let (oracle, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
    let (on_rt, _) = solve_with_on(
        rt,
        op,
        initial,
        sweeps,
        Method::Parallel {
            threads,
            streaming_stores: false,
        },
    )
    .unwrap();
    prop_assert!(
        norm::first_mismatch(&oracle, &on_rt, &Region3::whole(dims)).is_none(),
        "{}: shared-runtime result diverged from the sequential oracle",
        op.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Random dims × team shape × sweep count × operator: shared
    /// runtime ≡ one-shot runtime ≡ sequential oracle, bitwise.
    #[test]
    fn runtime_executors_bitwise_identical(
        nx in 10usize..22,
        ny in 10usize..22,
        nz in 10usize..22,
        seed in 0u64..1000,
        sweeps in 1usize..10,
        team_size in 1usize..3,
        n_teams in 1usize..3,
        upt in 1usize..3,
        which_op in 0usize..4,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        match which_op {
            0 => assert_shared_matches_one_shot(&Jacobi6, dims, seed, sweeps, team_size, n_teams, upt)?,
            1 => assert_shared_matches_one_shot(&Jacobi7::heat(0.1), dims, seed, sweeps, team_size, n_teams, upt)?,
            2 => assert_shared_matches_one_shot(&VarCoeff7::banded(dims), dims, seed, sweeps, team_size, n_teams, upt)?,
            _ => assert_shared_matches_one_shot(&Avg27, dims, seed, sweeps, team_size, n_teams, upt)?,
        }
    }
}

/// Many solves on one runtime: deterministic results, no worker churn.
#[test]
fn many_solves_on_one_runtime_reuse_without_leaks() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = init::random(dims, 77);
    let sweeps = 6;
    let rt = Runtime::with_threads(3);
    let cfg = PipelineConfig {
        team_size: 3,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: false,
    };
    let methods = [
        Method::Parallel {
            threads: 3,
            streaming_stores: false,
        },
        Method::Pipelined(cfg.clone()),
        Method::PipelinedCompressed(cfg),
        Method::Wavefront { threads: 3 },
        Method::Diamond(DiamondConfig::with_width(3, 6)),
        Method::Sequential,
        Method::Blocked { block: [8, 8, 8] },
    ];

    // Warm one dispatch, then pin both ledgers. Sibling tests build
    // runtimes of their own concurrently, so the process-wide thread
    // count is no measure here: the runtime's own spawn ledger and this
    // thread's construction count are moved by nothing but this test.
    let (want, _) =
        solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, methods[0].clone()).unwrap();
    let spawned = rt.spawned_workers();
    let constructed = Runtime::constructed_on_this_thread();
    assert_eq!(spawned, 3, "one spawn per worker, no comm worker");

    for round in 0..10 {
        for m in &methods {
            let (got, _) =
                solve_with_on(&rt, &Jacobi6, initial.clone(), sweeps, m.clone()).unwrap();
            norm::assert_grids_identical(
                &want,
                &got,
                &Region3::whole(dims),
                &format!("round {round} via {m:?}"),
            );
        }
        assert_eq!(
            rt.spawned_workers(),
            spawned,
            "round {round}: solves on a shared runtime must not spawn workers"
        );
        assert_eq!(
            Runtime::constructed_on_this_thread(),
            constructed,
            "round {round}: solves on a shared runtime must not build a one-shot team"
        );
    }
}

/// The distributed solver (overlapped exchange, dedicated comm worker,
/// pipelined interior) on caller-provided per-rank runtimes matches the
/// serial oracle.
#[test]
fn dist_solver_on_shared_runtimes_matches_serial() {
    use temporal_blocking::dist::solver::serial_reference_op;
    use temporal_blocking::dist::{Decomposition, DistSolver, ExchangeMode, LocalExec};

    let dims = Dims3::cube(20);
    let pgrid = [2, 1, 1];
    let h = 2;
    let sweeps = 7;
    let global: Grid3<f64> = init::random(dims, 5);
    let want = serial_reference_op(&Jacobi6, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: false,
    };
    let (g, w, dec_ref, cfg_ref) = (&global, &want, &dec, &cfg);
    Universe::run(dec.ranks(), None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        // Each rank owns a persistent runtime (2 compute workers + a
        // comm worker) and runs several multi-sweep solves on it.
        let rt = Runtime::from_cpus(vec![None; 2], Some(None));
        let mut solver = DistSolver::from_global_op(
            dec_ref,
            cart.coords(),
            g,
            LocalExec::Pipelined(cfg_ref.clone()),
            Jacobi6,
        )
        .unwrap()
        .with_exchange_mode(ExchangeMode::OverlappedCommThread);
        // Split the sweeps over several calls: the runtime (and the
        // pooled staging grid) is reused across them.
        solver.run_sweeps_on(&rt, &mut cart, 3);
        solver.run_sweeps_on(&rt, &mut cart, sweeps - 3);
        if let Some(got) = solver.gather_global(&mut cart, dec_ref, g) {
            norm::assert_grids_identical(
                w,
                &got,
                &Region3::interior_of(dims),
                "dist on shared runtimes",
            );
        }
    });
}
