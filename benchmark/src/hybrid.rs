//! `hybrid-2rank`: the distributed Jacobi6 solve over two in-process
//! ranks, each running the pipelined executor with multi-layer halos on
//! its own persistent runtime, in `Sync` and `Overlapped` exchange.

use std::time::{Duration, Instant};

use temporal_blocking::dist::halo::{copy_region, exchange_regions, pack_region, unpack_region};
use temporal_blocking::dist::solver::serial_reference_op;
use temporal_blocking::dist::{Decomposition, DistSolver, ExchangeMode, LocalExec};
use temporal_blocking::grid::{init, Dims3, Grid3, Region3};
use temporal_blocking::net::{CartComm, ReduceOp, Universe};
use temporal_blocking::{Jacobi6, PipelineConfig, Runtime};

use crate::ops::pipe_config;
use crate::stats::{geomean, median};
use crate::sys::grid_hash;
use crate::{metric, sampled, Ctx, Outcome};

pub const RANKS: usize = 2;
/// Process grid: the two ranks split z.
pub const PGRID: [usize; 3] = [1, 1, 2];
pub const GLOBAL_EDGE: usize = 256;
/// Halo width: ghost layers per exchange (one exchange per `HALO`
/// sweeps of the radius-1 operator).
pub const HALO: usize = 4;
pub const SWEEPS: usize = 16;
const MODES: [(ExchangeMode, &str); 2] = [
    (ExchangeMode::Sync, "hybrid_sync"),
    (ExchangeMode::Overlapped, "hybrid_overlap"),
];

/// Threads per rank: half the host each, at least one.
pub fn threads_per_rank(nproc: usize) -> usize {
    (nproc / RANKS).max(1)
}

/// The rank-local pipelined configuration: `t·T` stages fill the halo.
fn local_exec(tpr: usize) -> LocalExec {
    LocalExec::Pipelined(PipelineConfig {
        updates_per_thread: (HALO / tpr).max(1),
        ..pipe_config(tpr)
    })
}

/// One timed rank-group solve as rank 0 saw it.
struct Sample {
    mode: usize,
    /// Wall time of the whole rank group (barrier to barrier).
    group_s: f64,
    /// Per-rank elapsed time inside `run_sweeps_on`.
    rank_s: Vec<f64>,
    halo_bytes: u64,
    verified: bool,
}

/// Run one round of every mode, or rounds until `deadline`, inside one
/// universe. Rank 0 decides when to stop; all ranks follow.
fn solve_rounds(
    ctx: &Ctx,
    runtimes: &[Runtime],
    dec: &Decomposition,
    global: &Grid3<f64>,
    oracle: u64,
    sweeps: usize,
    deadline: Option<Instant>,
) -> Vec<Sample> {
    let tpr = runtimes[0].threads();
    let per_rank = Universe::run(RANKS, None, |comm| {
        let rank = comm.rank();
        let rt = &runtimes[rank];
        let mut cart = CartComm::new(comm, PGRID);
        let mut samples = Vec::new();
        loop {
            for (mi, &(mode, _)) in MODES.iter().enumerate() {
                let group = ctx.tracer.next_id();
                let solver = DistSolver::from_global_op(
                    dec,
                    cart.coords(),
                    global,
                    local_exec(tpr),
                    Jacobi6,
                );
                let mut solver = match solver {
                    Ok(s) => s.with_exchange_mode(mode),
                    Err(e) => panic!("decomposition rejected: {e}"),
                };
                cart.comm.barrier();
                let t0 = Instant::now();
                ctx.tracer.span("dist.run_sweeps_on", None, group, |_| {
                    solver.run_sweeps_on(rt, &mut cart, sweeps)
                });
                let mine = t0.elapsed().as_secs_f64();
                cart.comm.barrier();
                let group_s = t0.elapsed().as_secs_f64();
                if rank == 0 {
                    ctx.tracer.record(
                        "hybrid.solve",
                        None,
                        group,
                        t0,
                        t0 + Duration::from_secs_f64(group_s),
                    );
                }
                let rank_s = cart.comm.gather_f64(mine);
                let halo = cart
                    .comm
                    .allreduce_f64(solver.halo_bytes_sent as f64, ReduceOp::Sum);
                let gathered = ctx.tracer.span("dist.gather_global", None, group, |_| {
                    solver.gather_global(&mut cart, dec, global)
                });
                if let Some(g) = gathered {
                    samples.push(Sample {
                        mode: mi,
                        group_s,
                        rank_s,
                        halo_bytes: halo as u64,
                        verified: grid_hash(g.as_slice()) == oracle,
                    });
                }
            }
            let more = rank == 0 && deadline.is_some_and(|d| Instant::now() < d);
            if cart
                .comm
                .allreduce_f64(f64::from(u8::from(more)), ReduceOp::Max)
                == 0.0
            {
                break;
            }
        }
        samples
    });
    per_rank.into_iter().flatten().collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tpr = threads_per_rank(ctx.nproc);
    let mut out = Outcome {
        threads: RANKS * tpr,
        ..Outcome::default()
    };
    let edge = ctx.size(GLOBAL_EDGE, 24);
    let sweeps = ctx.size(SWEEPS, 8);
    let dims = Dims3::cube(edge);
    let dec = Decomposition::new(dims, PGRID, HALO);
    let global: Grid3<f64> = init::random(dims, ctx.seed_for(0));
    let oracle = grid_hash(serial_reference_op(&Jacobi6, &global, sweeps).as_slice());
    out.notes.push(format!(
        "hybrid: {edge}^3 f64 over {RANKS} ranks {PGRID:?}, {tpr} thread(s) per rank, \
         pipelined T={}, halo {HALO}, {sweeps} sweeps per solve",
        (HALO / tpr).max(1)
    ));

    // Epochs: set up (one pinned runtime per rank, then one warm-up
    // round), then timed rounds until the epoch's time is up.
    let mut setup_times = Vec::new();
    let mut samples = Vec::new();
    let mut fresh = 0;
    for _ in 0..ctx.epochs() {
        let t_setup = Instant::now();
        let runtimes: Vec<Runtime> = (0..RANKS)
            .map(|r| {
                let cpus = (0..tpr).map(|i| Some((r * tpr + i) % ctx.nproc)).collect();
                Runtime::from_cpus(cpus, None)
            })
            .collect();
        for s in solve_rounds(ctx, &runtimes, &dec, &global, oracle, sweeps, None) {
            out.tally.check(s.verified, || {
                format!("warm-up {} diverged", MODES[s.mode].1)
            });
        }
        setup_times.push(t_setup.elapsed().as_secs_f64());
        let pool_fresh = || -> u64 {
            runtimes
                .iter()
                .map(|rt| rt.grid_pool::<f64>().fresh_allocations())
                .sum()
        };
        let fresh_before = pool_fresh();
        let deadline = ctx.epoch_deadline();
        samples.extend(solve_rounds(
            ctx,
            &runtimes,
            &dec,
            &global,
            oracle,
            sweeps,
            Some(deadline),
        ));
        fresh += pool_fresh() - fresh_before;
    }
    out.setup_s = median(&setup_times);
    for s in &samples {
        out.tally.check(s.verified, || {
            format!("{} gather differs from the serial oracle", MODES[s.mode].1)
        });
    }

    let updates = (Region3::interior_of(dims).count() * sweeps) as f64;
    let mut rates = Vec::new();
    let mut times = Vec::new();
    for (mi, &(_, name)) in MODES.iter().enumerate() {
        let t: Vec<f64> = samples
            .iter()
            .filter(|s| s.mode == mi && s.verified)
            .map(|s| s.group_s)
            .collect();
        let med = median(&t);
        rates.push(updates / med / 1e6);
        times.push(med * 1e3);
        out.named.push(sampled(
            format!("mlups.{name}"),
            updates / med / 1e6,
            "MLUP/s",
            t.len(),
        ));
    }
    out.e2e
        .push(sampled("mlups", geomean(&rates), "MLUP/s", samples.len()));
    out.e2e.push(sampled(
        "latency_p50_ms",
        geomean(&times),
        "ms",
        samples.len(),
    ));

    if ctx.tracer.enabled() {
        let skew: Vec<f64> = samples
            .iter()
            .map(|s| {
                let max = s.rank_s.iter().copied().fold(f64::MIN, f64::max);
                let min = s.rank_s.iter().copied().fold(f64::MAX, f64::min);
                max / min
            })
            .collect();
        let halo = samples.first().map_or(f64::NAN, |s| s.halo_bytes as f64);
        out.layers.extend([
            metric("dist.halo_bytes_per_sweep", halo / sweeps as f64, "B"),
            sampled("dist.rank_skew", median(&skew), "ratio", skew.len()),
            metric("pool.fresh_allocations", fresh as f64, "count"),
        ]);
        let (pack, unpack) = pack_probe(ctx, &dec, &global);
        out.layers.extend([
            metric("dist.pack_gbs", pack, "GB/s"),
            metric("dist.unpack_gbs", unpack, "GB/s"),
        ]);
    }
    out
}

/// Time `pack_region` / `unpack_region` over rank 0's exchange slabs
/// (payload bytes per second, median of repetitions).
pub fn pack_probe(ctx: &Ctx, dec: &Decomposition, global: &Grid3<f64>) -> (f64, f64) {
    let coords = dec.coords_of(0);
    let local = dec.local(coords);
    let mut g = Grid3::<f64>::zeroed(local.dims);
    copy_region(global, &local.region, &mut g, &Region3::whole(local.dims));
    let mut slabs = Vec::new();
    for d in 0..3 {
        for dir in [-1i64, 1] {
            let peer = coords[d] as i64 + dir;
            if peer < 0 || peer >= PGRID[d] as i64 {
                continue; // physical boundary: nothing to exchange
            }
            let (send, recv) = exchange_regions(&local.owned, &local.region, d, dir, dec.h());
            slabs.push((local.to_local(&send), local.to_local(&recv)));
        }
    }
    let reps = ctx.size(20, 3);
    let (mut pack_s, mut unpack_s) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let payloads: Vec<_> = slabs.iter().map(|(s, _)| pack_region(&g, s)).collect();
        pack_s.push(t0.elapsed().as_secs_f64());
        bytes = payloads.iter().map(|p| p.len()).sum();
        let t0 = Instant::now();
        for ((_, r), p) in slabs.iter().zip(&payloads) {
            unpack_region(&mut g, r, p);
        }
        unpack_s.push(t0.elapsed().as_secs_f64());
    }
    let gbs = |s: &[f64]| bytes as f64 / median(s) / 1e9;
    (gbs(&pack_s), gbs(&unpack_s))
}
