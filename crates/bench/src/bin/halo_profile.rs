//! Experiment E10 — §2.2 profiling observations:
//!
//! * buffer copies (pack/unpack) cost about as much as the wire transfer
//!   — reproduced by timing `pack_region` against a full in-process
//!   exchange (which includes both ends' copies plus the channel),
//! * message aggregation: effective bandwidth of one h-layer message vs
//!   h single-layer messages.

use std::time::Instant;

use tb_bench::Args;
use tb_dist::halo::pack_region;
use tb_dist::{Decomposition, DistSolver, LocalExec};
use tb_grid::{init, Dims3, Grid3, Region3};
use tb_model::NetworkParams;
use tb_net::{CartComm, Universe};
use tb_runtime::Runtime;
use tb_stencil::Jacobi6;

fn main() {
    let args = Args::parse();
    let edge = args.get_usize("--size", 96);
    let reps = args.get_usize("--reps", 20);

    // 1. Pack cost vs exchange cost on a 2-rank decomposition.
    let dims = Dims3::cube(edge);
    let dec = Decomposition::new(dims, [2, 1, 1], 4);
    let global: Grid3<f64> = init::random(dims, 3);

    // Pack-only timing (sender-side copy).
    let local = dec.local([0, 0, 0]);
    let face = Region3::new(
        [
            local.interior.hi[0] - 4,
            local.interior.lo[1],
            local.interior.lo[2],
        ],
        [
            local.interior.hi[0],
            local.interior.hi[1],
            local.interior.hi[2],
        ],
    );
    let mut g0: Grid3<f64> = Grid3::zeroed(local.dims);
    g0.fill_region(&Region3::whole(local.dims), 1.0);
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..reps {
        bytes += pack_region(&g0, &face).len();
    }
    let pack_time = t0.elapsed().as_secs_f64() / reps as f64;
    let pack_bw = (bytes / reps) as f64 / pack_time;

    // Full exchange timing.
    let global_ref = &global;
    let times = Universe::run(2, None, move |comm| {
        let mut cart = CartComm::new(comm, [2, 1, 1]);
        let mut s =
            DistSolver::from_global_op(&dec, cart.coords(), global_ref, LocalExec::Seq, Jacobi6)
                .unwrap();
        // Sequential local execution needs no workers; one runtime
        // serves the warm-up cycle and every timed cycle (exchange +
        // updates).
        let rt = Runtime::with_threads(0);
        s.run_sweeps_on(&rt, &mut cart, 4);
        let t = Instant::now();
        for _ in 0..reps {
            s.run_sweeps_on(&rt, &mut cart, 4);
        }
        (t.elapsed().as_secs_f64() / reps as f64, s.halo_bytes_sent)
    });

    println!("halo profiling, {edge}^3 over 2 ranks, h = 4\n");
    println!(
        "pack_region: {:>10.1} MB/s ({:.1} us per 4-layer face)",
        pack_bw / 1e6,
        pack_time * 1e6
    );
    println!(
        "full cycle (exchange + 4 updates): {:.1} us; rank halo bytes sent: {}",
        times[0].0 * 1e6,
        times[0].1
    );
    println!(
        "\npaper §2.2: \"copying halo data from boundary cells to and from\n\
         intermediate message buffers causes about the same overhead as the\n\
         actual data transfer\" — in-process channels make the 'wire' a copy\n\
         too, so pack ≈ transfer holds trivially here; on a real fabric use\n\
         the model's copy_bandwidth parameter."
    );

    // 2. Message aggregation effect (model, paper parameters).
    let net = NetworkParams::qdr_infiniband();
    println!("\nmessage aggregation (QDR-IB model): one h-layer vs h 1-layer messages");
    println!(
        "{:>4} {:>10} {:>16} {:>16}",
        "L", "h", "aggregated [us]", "fragmented [us]"
    );
    for (l, h) in [(10usize, 8usize), (10, 16), (50, 8), (100, 8)] {
        let bytes_1 = l * l * 8;
        let agg = net.message_time(h * bytes_1) * 1e6;
        let frag = h as f64 * net.message_time(bytes_1) * 1e6;
        println!("{l:>4} {h:>10} {agg:>16.2} {frag:>16.2}");
    }
}
