//! Multi-solve reuse smoke: many solves, every executor, one runtime.
//!
//! Exercises the repeated-solve scenario the persistent runtime exists
//! for: a single worker team executes a matrix of solves (parallel
//! baseline ± streaming stores, pipelined two-grid, compressed,
//! wavefront × two operators), each verified bitwise against its
//! sequential oracle, while the process thread count is held constant —
//! proof that no executor spawns (or leaks) threads per solve anymore.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin runtime_reuse -- --rounds 5
//! ```

use tb_bench::{problem, Args};
use tb_grid::{norm, CompressedGrid, Grid3, GridPair, Region3};
use tb_runtime::Runtime;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{
    baseline, pipeline, wavefront, Avg27, Jacobi6, PipelineConfig, StencilOp, SyncMode,
};

/// Live thread count of this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        team_size: 2,
        n_teams: 1,
        updates_per_thread: 1,
        block: [16, 8, 8],
        sync: SyncMode::relaxed_default(),
        layout: None,
        audit: false,
    }
}

fn solve_matrix<Op: StencilOp<f64>>(
    rt: &Runtime,
    op: &Op,
    initial: &Grid3<f64>,
    sweeps: usize,
) -> usize {
    let dims = initial.dims();
    let mut oracle = GridPair::from_initial(initial.clone());
    baseline::seq_sweeps_op(op, &mut oracle, sweeps);
    let want = oracle.current(sweeps);
    let mut solves = 0;

    let mut check = |name: &str, got: &Grid3<f64>| {
        assert!(
            norm::first_mismatch(want, got, &Region3::whole(dims)).is_none(),
            "{name} diverged from the sequential oracle for {}",
            op.name()
        );
        solves += 1;
    };

    for store in [StoreMode::Normal, StoreMode::Streaming] {
        let mut pair = GridPair::from_initial(initial.clone());
        baseline::par_sweeps_op_on(rt, op, &mut pair, sweeps, 2, store);
        check("parallel", pair.current(sweeps));
    }
    {
        let mut pair = GridPair::from_initial(initial.clone());
        pipeline::run_op_on(rt, op, &mut pair, &cfg(), sweeps).unwrap();
        check("pipelined", pair.current(sweeps));
    }
    {
        let c = cfg();
        let mut cg = CompressedGrid::from_grid(initial, c.stages());
        pipeline::run_compressed_op_on(rt, op, &mut cg, &c, sweeps).unwrap();
        check("compressed", &cg.to_grid());
    }
    {
        let mut pair = GridPair::from_initial(initial.clone());
        wavefront::run_wavefront_op_on(rt, op, &mut pair, 2, sweeps).unwrap();
        check("wavefront", pair.current(sweeps));
    }
    solves
}

fn main() {
    let args = Args::parse();
    let rounds = args.get_usize("--rounds", 5);
    let edge = args.get_usize("--size", 24);
    let sweeps = args.get_usize("--sweeps", 6);

    let rt = Runtime::with_threads(2);
    // Warm dispatch so the worker threads exist before the baseline
    // thread count is taken.
    rt.run(2, &|_| {});
    let baseline_threads = thread_count();
    println!(
        "one runtime ({} workers), {rounds} rounds of the executor matrix on {edge}^3, \
         {sweeps} sweeps each",
        rt.threads()
    );

    let initial = problem(edge, 0xC0FFEE);
    let mut solves = 0;
    for round in 0..rounds {
        solves += solve_matrix(&rt, &Jacobi6, &initial, sweeps);
        solves += solve_matrix(&rt, &Avg27, &initial, sweeps);
        let now = thread_count();
        assert_eq!(
            now, baseline_threads,
            "thread count changed during round {round}: executors must not \
             spawn or leak threads per solve"
        );
    }

    match baseline_threads {
        Some(n) => println!(
            "all {solves} solves on one runtime verified bitwise; \
             process held steady at {n} threads"
        ),
        None => println!("all {solves} solves on one runtime verified bitwise"),
    }
}
