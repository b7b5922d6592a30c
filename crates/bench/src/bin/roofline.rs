//! Experiment E5 — Eq. 2: the bandwidth roofline for the standard Jacobi.
//!
//! Measures STREAM COPY on the host (single thread, cache group, in-cache
//! working set), derives `P0 = M_s / 16 B`, then measures the actual
//! baseline solver and reports how close it gets. Also prints the paper's
//! Nehalem numbers for reference (18.5 GB/s per socket -> 2.3 GLUP/s per
//! node expectation).

use tb_bench::{best_of, problem, Args};
use tb_grid::GridPair;
use tb_model::{roofline, MachineParams};
use tb_runtime::Runtime;
use tb_stencil::baseline;
use tb_stencil::kernel::StoreMode;
use tb_stencil::{Jacobi6, StencilOp};

fn main() {
    let args = Args::parse();
    let machine = tb_topology::detect::detect();
    let edge = args.get_usize("--size", tb_bench::default_edge());
    let sweeps = args.get_usize("--sweeps", 10);
    let reps = args.get_usize("--reps", 3);

    println!("Eq. 2 roofline on {} — {edge}^3 grid\n", machine.name);

    let params = tb_membench::calibrate_host(&machine, tb_membench::CalibrationProfile::quick());
    println!("measured bandwidths:");
    println!(
        "  M_s,1 (1 thread, memory) = {:>8.2} GB/s",
        params.ms1 / 1e9
    );
    println!("  M_s   (group,  memory)   = {:>8.2} GB/s", params.ms / 1e9);
    println!("  M_c   (group,  cache)    = {:>8.2} GB/s", params.mc / 1e9);

    // Code balance comes from the operator, not a hardcoded constant.
    let b_nt = StencilOp::<f64>::bytes_per_lup(&Jacobi6, StoreMode::Streaming);
    let b_rfo = StencilOp::<f64>::bytes_per_lup(&Jacobi6, StoreMode::Normal);
    let p0_nt = roofline::roofline_lups(&params, b_nt) / 1e6;
    let p0_rfo = roofline::roofline_lups(&params, b_rfo) / 1e6;
    println!("\nexpected baseline (one cache group):");
    println!("  with NT stores ({b_nt:.0} B/LUP):  {p0_nt:>10.1} MLUP/s");
    println!("  with RFO       ({b_rfo:.0} B/LUP):  {p0_rfo:>10.1} MLUP/s");

    let threads = machine.cores_per_socket().max(1);
    let rt = Runtime::with_threads(threads);
    for (label, store, expect) in [
        ("measured, NT stores", StoreMode::Streaming, p0_nt),
        ("measured, plain stores", StoreMode::Normal, p0_rfo),
    ] {
        let s = best_of(reps, || {
            let mut pair = GridPair::from_initial(problem(edge, 42));
            baseline::par_sweeps_op_on(&rt, &Jacobi6, &mut pair, sweeps, threads, store)
        });
        println!(
            "  {label:<24} {:>10.1} MLUP/s  ({:.0}% of roofline)",
            s.mlups(),
            100.0 * s.mlups() / expect
        );
    }

    let nehalem = MachineParams::nehalem_ep();
    println!(
        "\npaper's testbed: M_s = 18.5 GB/s/socket -> {:.2} GLUP/s expected per node (2 sockets)",
        2.0 * roofline::jacobi_roofline_default(&nehalem) / 1e9
    );
}
