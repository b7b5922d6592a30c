//! Experiment E2 — Fig. 3 (right): influence of pipeline looseness.
//!
//! Performance of the relaxed-sync pipeline versus `d_u - d_l` for the
//! socket (one team) and node (all cache groups) configurations. The
//! paper finds d_u−d_l ∈ 0..3 all good, with ~80% gain over the
//! lock-step `d_l = d_u = 1` case on the node.
//!
//! `--size N --sweeps S --reps R` as usual.

use tb_bench::{best_of, problem, Args};
use tb_grid::GridPair;
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::{pipeline, Jacobi6, PipelineConfig, SyncMode};
use tb_topology::TeamLayout;

fn main() {
    let args = Args::parse();
    let machine = tb_topology::detect::detect();
    let edge = args.get_usize("--size", tb_bench::default_edge());
    let sweeps = args.get_usize("--sweeps", 12);
    let reps = args.get_usize("--reps", 3);
    let t = machine.cores_per_socket().max(1);
    let groups = machine.cache_groups().len().max(2);

    println!(
        "Fig. 3 (right) — performance vs d_u - d_l on {} ({edge}^3, {sweeps} sweeps)\n",
        machine.name
    );
    println!(
        "{:>8} {:>16} {:>16}",
        "d_u-d_l", "socket MLUP/s", "node MLUP/s"
    );

    // Both pinned teams are spawned once, outside the timed runs.
    let socket_rt = Runtime::new(&TeamLayout::new(&machine, t, 1));
    let node_rt = Runtime::new(&TeamLayout::new(&machine, t, groups));
    for looseness in 0..=5u64 {
        let sync = SyncMode::Relaxed {
            dl: 1,
            du: 1 + looseness,
            dt: 0,
        };
        let run = |rt: &Runtime, n_teams: usize| {
            let cfg = PipelineConfig {
                team_size: t,
                n_teams,
                updates_per_thread: 2,
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
        let node = run(&node_rt, groups);
        println!(
            "{:>8} {:>16.1} {:>16.1}",
            looseness,
            socket.mlups(),
            node.mlups()
        );
    }
    println!(
        "\npaper: optimal d_u in 1..4 with the ~120x20x20 blocks; about +80%\n\
         over lock-step (d_l=d_u=1) on the node; larger blocks would need\n\
         smaller d_u to keep blocks resident in the shared cache."
    );
}
