//! Experiment E1 — Fig. 3 (left): single-socket and single-node
//! performance of the standard Jacobi vs pipelined temporal blocking
//! (barrier, relaxed d_u=1, relaxed d_u=4, relaxed T=1), with the §1.4
//! model predictions for T=1 and T=2.
//!
//! `--mode host` (default): measure on this machine — "socket" = one team
//! on one cache group, "node" = one team per cache group.
//! `--mode nehalem`: analytic series with the paper's machine parameters.
//! `--size N --sweeps S` override the problem.

use tb_bench::{best_of, problem, row, Args};
use tb_grid::GridPair;
use tb_model::{pipeline_speedup, roofline, MachineParams};
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{baseline, pipeline, Jacobi6, PipelineConfig, SyncMode};
use tb_topology::TeamLayout;

fn main() {
    let args = Args::parse();
    match args.mode() {
        "nehalem" => nehalem(),
        _ => host(&args),
    }
}

/// Analytic reproduction with the paper's parameters: what the models say
/// the figure should look like (measured values in the paper: standard
/// ~1500/2900 MLUP/s socket/node, pipelined up to ~50-60% faster).
fn nehalem() {
    let m = MachineParams::nehalem_ep();
    let p0 = roofline::jacobi_roofline_default(&m) / 1e6;
    println!("Fig. 3 (left) — analytic series, Nehalem EP parameters\n");
    row("series", &["socket MLUP/s".into(), "node MLUP/s".into()]);
    row(
        "standard Jacobi (Eq. 2 roofline)",
        &[format!("{p0:.0}"), format!("{:.0}", 2.0 * p0)],
    );
    for t_updates in [1usize, 2, 4] {
        let s = pipeline_speedup(&m, m.cores_per_socket, t_updates);
        row(
            &format!("pipelined model T={t_updates} (Eq. 5)"),
            &[format!("{:.0}", p0 * s), format!("{:.0}", 2.0 * p0 * s)],
        );
    }
    println!(
        "\npaper: model matches measurement at T=1 (speedup {:.2}); at larger T\n\
         execution decouples from memory bandwidth and the model overpredicts\n\
         (measured optimum T=2, +50-60% over standard).",
        pipeline_speedup(&m, m.cores_per_socket, 1)
    );
}

fn host(args: &Args) {
    let machine = tb_topology::detect::detect();
    let edge = args.get_usize("--size", tb_bench::default_edge());
    let sweeps = args.get_usize("--sweeps", 12);
    let reps = args.get_usize("--reps", 3);
    println!(
        "Fig. 3 (left) — host mode on {} ({} CPUs), {edge}^3 grid, {sweeps} sweeps, best of {reps}\n",
        machine.name,
        machine.num_cpus()
    );

    // Calibrate the model for this host.
    let params = tb_membench::calibrate_host(&machine, tb_membench::CalibrationProfile::quick());

    let socket_cpus = machine.cores_per_socket().max(1);
    let groups = machine.cache_groups().len();
    row("series", &["socket MLUP/s".into(), "node MLUP/s".into()]);

    // Standard Jacobi baseline: socket = one cache group's cores, node =
    // all cores. Both store modes are reported: the paper's testbed
    // favors non-temporal stores, but virtualized hosts often execute
    // them pathologically slowly.
    // Every team below is spawned once, outside the timed runs.
    let node_cpus = machine.num_cpus().max(1);
    let std_rt = Runtime::with_threads(node_cpus.max(socket_cpus));
    let std_rate = |threads: usize, store: StoreMode| {
        best_of(reps, || {
            let mut pair = GridPair::from_initial(problem(edge, 42));
            baseline::par_sweeps_op_on(&std_rt, &Jacobi6, &mut pair, sweeps, threads, store)
        })
    };
    for (label, store) in [
        ("standard Jacobi (NT stores)", StoreMode::Streaming),
        ("standard Jacobi (plain stores)", StoreMode::Normal),
    ] {
        let socket_std = std_rate(socket_cpus, store);
        let node_std = std_rate(node_cpus, store);
        row(
            label,
            &[
                tb_bench::fmt_mlups(&socket_std),
                tb_bench::fmt_mlups(&node_std),
            ],
        );
    }

    // Pipelined variants.
    let variants: Vec<(&str, SyncMode, usize)> = vec![
        ("pipeline w/ barrier (T=2)", SyncMode::Barrier, 2),
        (
            "pipeline relaxed d_u=1 (T=2)",
            SyncMode::Relaxed {
                dl: 1,
                du: 1,
                dt: 0,
            },
            2,
        ),
        (
            "pipeline relaxed d_u=4 (T=2)",
            SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 0,
            },
            2,
        ),
        (
            "pipeline relaxed T=1",
            SyncMode::Relaxed {
                dl: 1,
                du: 4,
                dt: 0,
            },
            1,
        ),
    ];
    // "Node" = one team per cache group; machines with a single group
    // still run two (time-shared) teams so the series exists.
    let node_teams = groups.max(2);
    let socket_rt = Runtime::new(&TeamLayout::new(&machine, socket_cpus, 1));
    let node_rt = Runtime::new(&TeamLayout::new(&machine, socket_cpus, node_teams));
    for (label, sync, upd) in variants {
        let run = |rt: &Runtime, n_teams: usize| {
            let cfg = PipelineConfig {
                team_size: socket_cpus,
                n_teams,
                updates_per_thread: upd,
                block: [edge.min(120), 20, 20],
                sync,
                scheme: GridScheme::TwoGrid,
                layout: None,
                audit: false,
            };
            best_of(reps, || {
                let mut pair = GridPair::from_initial(problem(edge, 42));
                pipeline::run_op_on(rt, &Jacobi6, &mut pair, &cfg, sweeps).expect("valid config")
            })
        };
        let socket = run(&socket_rt, 1);
        let node = run(&node_rt, node_teams);
        row(
            label,
            &[tb_bench::fmt_mlups(&socket), tb_bench::fmt_mlups(&node)],
        );
    }

    // Model predictions for this host.
    let p0 = roofline::jacobi_roofline_default(&params) / 1e6;
    for t_updates in [1usize, 2] {
        let s = pipeline_speedup(&params, socket_cpus, t_updates);
        row(
            &format!("model T={t_updates} (calibrated)"),
            &[format!("{:.1}", p0 * s), format!("{:.1}", 2.0 * p0 * s)],
        );
    }
    println!(
        "\ncalibration: Ms,1={:.1} GB/s Ms={:.1} GB/s Mc={:.1} GB/s -> max speedup {:.2}",
        params.ms1 / 1e9,
        params.ms / 1e9,
        params.mc / 1e9,
        params.max_speedup()
    );
}
