//! Experiment E9 — §1.5 in-text: team delay sweep.
//!
//! The delay d_t forces extra distance between the teams of the pipeline;
//! the paper measured only "a very slight impact on this architecture
//! (about 3% improvement for d_t = 8)".

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
    let teams = machine.cache_groups().len().max(2);

    println!("ablation: team delay d_t ({edge}^3, {teams} teams of {t})\n");
    println!("{:>6} {:>12}", "d_t", "MLUP/s");
    // One pinned team for every cell, spawned outside the timed runs.
    let rt = Runtime::new(&TeamLayout::new(&machine, t, teams));
    for dt in [0u64, 2, 4, 8, 16] {
        let cfg = PipelineConfig {
            team_size: t,
            n_teams: teams,
            updates_per_thread: 1,
            block: [edge.min(120), 20, 20],
            sync: SyncMode::Relaxed { dl: 1, du: 4, dt },
            scheme: GridScheme::TwoGrid,
            layout: None,
            audit: false,
        };
        if cfg.validate(tb_grid::Dims3::cube(edge)).is_err() {
            continue;
        }
        let s = best_of(reps, || {
            let mut pair = GridPair::from_initial(problem(edge, 42));
            pipeline::run_op_on(&rt, &Jacobi6, &mut pair, &cfg, sweeps).unwrap()
        });
        println!("{dt:>6} {:>12.1}", s.mlups());
    }
    println!("\npaper: ~3% improvement at d_t = 8 on Nehalem; not studied further.");
}
