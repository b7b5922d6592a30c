//! Distributed end-to-end tests spanning tb-net, tb-dist and tb-stencil.

use temporal_blocking::dist::{solver, Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, norm, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, SimNet, Universe};
use temporal_blocking::stencil::config::GridScheme;
use temporal_blocking::{Avg27, Jacobi6, Jacobi7, PipelineConfig, StencilOp, SyncMode, VarCoeff7};

fn run_and_verify(
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    exec: impl Fn() -> LocalExec + Send + Sync,
) {
    let global: Grid3<f64> = init::random(dims, 2024);
    let want = solver::serial_reference_op(&Jacobi6, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    let ranks = dec.ranks();
    let (global_ref, want_ref, exec_ref) = (&global, &want, &exec);
    Universe::run(ranks, None, move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), global_ref, exec_ref(), Jacobi6)
                .unwrap();
        s.run_sweeps(&mut cart, sweeps);
        if let Some(got) = s.gather_global(&mut cart, &dec, global_ref) {
            norm::assert_grids_identical(
                want_ref,
                &got,
                &Region3::interior_of(dims),
                &format!("dist {pgrid:?} h={h}"),
            );
        }
        0
    });
}

#[test]
fn twelve_ranks_anisotropic() {
    run_and_verify(Dims3::new(26, 18, 14), [3, 2, 2], 2, 6, || LocalExec::Seq);
}

#[test]
fn deep_halo_few_ranks() {
    run_and_verify(Dims3::cube(24), [2, 1, 1], 5, 11, || LocalExec::Seq);
}

#[test]
fn hybrid_eight_ranks_pipelined() {
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: true,
    };
    run_and_verify(Dims3::cube(22), [2, 2, 2], 2, 6, move || {
        LocalExec::Pipelined(cfg.clone())
    });
}

#[test]
fn virtual_time_cluster_accumulates() {
    // Virtual clocks must be monotone and identical across ranks after a
    // final barrier, with real halo data flowing.
    let dims = Dims3::cube(16);
    let pgrid = [2, 2, 1];
    let dec = Decomposition::new(dims, pgrid, 2);
    let global: Grid3<f64> = init::random(dims, 5);
    let global_ref = &global;
    let net = SimNet::qdr_infiniband();
    let times = Universe::run(4, Some(net), move |comm| {
        let mut cart = CartComm::new(comm, pgrid);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), global_ref, LocalExec::Seq, Jacobi6)
                .unwrap();
        // Model compute: 1 us per sweep per rank (arbitrary, monotone).
        for _ in 0..3 {
            cart.comm.advance(1e-6);
            s.run_sweeps(&mut cart, 2);
        }
        cart.comm.barrier();
        cart.comm.time()
    });
    let t0 = times[0];
    assert!(t0 > 0.0);
    for t in times {
        assert!((t - t0).abs() < 1e-12, "clocks diverged: {t} vs {t0}");
    }
}

/// One operator through all three exchange modes: each gathered grid
/// must match the serial oracle and the sync-mode gather bitwise.
fn verify_overlap_op<Op: StencilOp<f64>>(
    op: Op,
    dims: Dims3,
    pgrid: [usize; 3],
    h: usize,
    sweeps: usize,
    exec: impl Fn() -> LocalExec + Send + Sync,
) {
    let global: Grid3<f64> = init::random(dims, 31415);
    let want = solver::serial_reference_op(&op, &global, sweeps);
    let dec = Decomposition::new(dims, pgrid, h);
    for mode in [
        ExchangeMode::Sync,
        ExchangeMode::Overlapped,
        ExchangeMode::OverlappedCommThread,
    ] {
        let (g, w, op_ref, exec_ref, dec_ref) = (&global, &want, &op, &exec, &dec);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(dec_ref, cart.coords(), g, exec_ref(), op_ref.clone())
                    .unwrap()
                    .with_exchange_mode(mode);
            s.run_sweeps(&mut cart, sweeps);
            if let Some(got) = s.gather_global(&mut cart, dec_ref, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!("e2e {} {mode:?} {pgrid:?} h={h}", op_ref.name()),
                );
            }
            0
        });
    }
}

#[test]
fn overlap_matrix_all_operators() {
    let dims = Dims3::new(20, 16, 14);
    verify_overlap_op(Jacobi6, dims, [2, 2, 1], 2, 5, || LocalExec::Seq);
    verify_overlap_op(Jacobi7::heat(0.11), dims, [2, 1, 2], 2, 5, || {
        LocalExec::Seq
    });
    verify_overlap_op(VarCoeff7::banded(dims), dims, [1, 2, 2], 2, 5, || {
        LocalExec::Seq
    });
    // Corner-reading operator across all eight octants: the overlapped
    // staged forwarding must deliver edge and corner ghosts exactly.
    verify_overlap_op(Avg27, Dims3::cube(18), [2, 2, 2], 2, 7, || LocalExec::Seq);
}

#[test]
fn overlap_hybrid_pipelined_twelve_ranks() {
    // The layout carries a carved-out comm core, so the comm-thread
    // mode exercises the real pinning path (best-effort on this host).
    let machine = temporal_blocking::topology::Machine::nehalem_ep();
    let layout = temporal_blocking::topology::TeamLayout::with_comm_core(&machine, 2, 1);
    assert!(layout.comm_core.is_some());
    let cfg = PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [8, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: Some(layout),
        audit: true,
    };
    verify_overlap_op(
        Jacobi6,
        Dims3::new(26, 18, 14),
        [3, 2, 2],
        2,
        6,
        move || LocalExec::Pipelined(cfg.clone()),
    );
}

#[test]
fn overlap_hides_communication_under_the_virtual_network() {
    // Same problem, three schedules: Sync exposes the full exchange
    // cost; the overlapped schedules hide it behind the modeled interior
    // compute — and both overlapped variants agree on every clock.
    let dims = Dims3::cube(20);
    let pgrid = [2, 2, 1];
    let sweeps = 8;
    let dec = Decomposition::new(dims, pgrid, 2);
    let global: Grid3<f64> = init::random(dims, 9);
    let mut per_mode = Vec::new();
    for mode in [
        ExchangeMode::Sync,
        ExchangeMode::Overlapped,
        ExchangeMode::OverlappedCommThread,
    ] {
        let (g, dec_ref) = (&global, &dec);
        let outs = Universe::run(4, Some(SimNet::qdr_infiniband()), move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(dec_ref, cart.coords(), g, LocalExec::Seq, Jacobi6)
                    .unwrap()
                    .with_exchange_mode(mode)
                    .with_virtual_compute(1e8);
            s.run_sweeps(&mut cart, sweeps);
            (cart.comm.comm_seconds(), cart.comm.time())
        });
        per_mode.push(outs);
    }
    let mean = |v: &Vec<(f64, f64)>| v.iter().map(|o| o.0).sum::<f64>() / v.len() as f64;
    let (sync, over, over_ct) = (&per_mode[0], &per_mode[1], &per_mode[2]);
    assert!(mean(sync) > 0.0, "sync must expose the exchange");
    assert!(
        mean(over) < mean(sync),
        "overlap must hide communication: {} vs {}",
        mean(over),
        mean(sync)
    );
    for (a, b) in over.iter().zip(over_ct) {
        assert!(
            (a.0 - b.0).abs() < 1e-15 && (a.1 - b.1).abs() < 1e-15,
            "comm-thread scheduling must not change virtual accounting"
        );
    }
}

#[test]
fn cluster_sim_spec_runs() {
    use temporal_blocking::dist::sim::{simulate, SimSpec};
    use temporal_blocking::model::{NetworkParams, ScalingConfig, ScalingMode};
    let out = simulate(&SimSpec {
        nodes: 8,
        cfg: ScalingConfig {
            ppn: 1,
            node_lups: 2.9e9,
            halo_h: 4,
            net: NetworkParams::qdr_infiniband(),
            mode: ScalingMode::Weak,
            base_edge: 600,
        },
        exec_edge: 18,
        exec_halo: 2,
        exec_sweeps: 4,
    });
    assert!(out.verified);
    assert_eq!(out.ranks, 8);
    assert!(out.point.glups > 0.0 && out.point.efficiency <= 1.0);
}
