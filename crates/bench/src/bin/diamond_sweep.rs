//! Diamond vs pipelined vs wavefront throughput across team sizes —
//! the perf artifact of the wavefront-diamond scheme.
//!
//! For each team size the three temporal-blocking schemes advance the
//! same problem on one persistent runtime, each both through the
//! explicitly vectorized row kernels (`simd: on`) and pinned to the
//! scalar path via [`ScalarPath`] (`simd: off`); every run is bitwise-
//! verified against its own sequential oracle before its MLUP/s number
//! is trusted. The problem *scales with the team*: `--size` is the
//! one-worker edge and team `t` runs edge `≈ (size³·t)^(1/3)` — fixed
//! work per worker, so the sweep measures scheme scaling instead of
//! strong-scaling a problem that starves wider teams of tiles (the
//! artifact the fixed-size sweep showed as throughput *falling* with
//! teams). The diamond cells honor `--threads-per-tile` (MWD: that
//! many workers cooperate inside each tile) wherever it divides the
//! team. Emits `BENCH_diamond.json`, including per-team flags for
//! where diamond matches or beats the wavefront comparator and the
//! team-1 SIMD-over-scalar speedup.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin diamond_sweep -- --size 64 --sweeps 12
//! cargo run --release -p tb-bench --bin diamond_sweep -- --smoke --threads-per-tile 2
//! ```

use std::io::Write as _;

use tb_bench::{problem, warmed_best_of, Args};
use tb_grid::{norm, Grid3, GridPair, Region3};
use tb_runtime::Runtime;
use tb_stencil::config::GridScheme;
use tb_stencil::{
    baseline, diamond, pipeline, wavefront, DiamondConfig, Jacobi6, PipelineConfig, ScalarPath,
    StencilOp, SyncMode,
};

struct Row {
    team: usize,
    edge: usize,
    method: String,
    simd: bool,
    mlups: f64,
    verified: bool,
}

/// Edge for `team` workers holding the per-worker cell count at the
/// one-worker `base` edge: `(base³ · team)^(1/3)`, rounded.
fn scaled_edge(base: usize, team: usize) -> usize {
    ((base as f64).powi(3) * team as f64).cbrt().round() as usize
}

fn pipeline_cfg(team: usize) -> PipelineConfig {
    PipelineConfig {
        team_size: team,
        n_teams: 1,
        updates_per_thread: 1,
        block: [16, 8, 8],
        sync: SyncMode::relaxed_default(),
        scheme: GridScheme::TwoGrid,
        layout: None,
        audit: false,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    rt: &Runtime,
    team: usize,
    method: &str,
    simd: bool,
    initial: &Grid3<f64>,
    oracle: &Grid3<f64>,
    sweeps: usize,
    reps: usize,
    run: impl Fn(&Runtime, &mut GridPair<f64>) -> Result<tb_stencil::RunStats, String>,
) -> Row {
    let mut last: Option<GridPair<f64>> = None;
    let stats = warmed_best_of(reps, || {
        let mut pair = GridPair::from_initial(initial.clone());
        let s = run(rt, &mut pair).expect("valid config");
        last = Some(pair);
        s
    });
    let grid = last.expect("reps >= 1").into_current(sweeps);
    let verified = norm::first_mismatch(oracle, &grid, &Region3::whole(oracle.dims())).is_none();
    Row {
        team,
        edge: initial.dims().nx,
        method: method.to_string(),
        simd,
        mlups: stats.mlups(),
        verified,
    }
}

/// The three schemes at one (team, simd-path) point. The operator value
/// carries the path choice: `Jacobi6` rides the vectorized row kernels,
/// `ScalarPath(Jacobi6)` pins the same arithmetic to the scalar rows.
#[allow(clippy::too_many_arguments)]
fn run_schemes<Op: StencilOp<f64>>(
    rt: &Runtime,
    op: &Op,
    team: usize,
    tpt: usize,
    simd: bool,
    initial: &Grid3<f64>,
    oracle: &Grid3<f64>,
    sweeps: usize,
    reps: usize,
    width: usize,
    rows: &mut Vec<Row>,
) {
    let dia_cfg = DiamondConfig::with_width(team, width).with_threads_per_tile(tpt);
    rows.push(run_cell(
        rt,
        team,
        "diamond",
        simd,
        initial,
        oracle,
        sweeps,
        reps,
        |rt, pair| diamond::run_diamond_op_on(rt, op, pair, &dia_cfg, sweeps),
    ));
    rows.push(run_cell(
        rt,
        team,
        "pipelined",
        simd,
        initial,
        oracle,
        sweeps,
        reps,
        |rt, pair| pipeline::run_op_on(rt, op, pair, &pipeline_cfg(team), sweeps),
    ));
    rows.push(run_cell(
        rt,
        team,
        "wavefront",
        simd,
        initial,
        oracle,
        sweeps,
        reps,
        |rt, pair| wavefront::run_wavefront_op_on(rt, op, pair, team, sweeps),
    ));
    for r in rows.iter().skip(rows.len() - 3) {
        println!(
            "{:>5} {:>6} {:<12} {:>5} {:>4} {:>10.1} {:>9}",
            r.team,
            r.edge,
            r.method,
            if r.simd { "on" } else { "off" },
            tpt,
            r.mlups,
            r.verified
        );
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("--smoke");
    let edge = args.get_usize("--size", if smoke { 28 } else { 64 });
    let sweeps = args.get_usize("--sweeps", if smoke { 6 } else { 12 });
    let reps = args.get_usize("--reps", if smoke { 2 } else { 3 });
    let width = args.get_usize("--width", 8);
    let tpt = args.get_usize("--threads-per-tile", 1);
    let teams: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4] };

    println!(
        "diamond vs pipelined vs wavefront — {edge}^3 per worker (edge scales \
         with team), {sweeps} sweeps, best of {reps}, diamond width {width}, \
         threads/tile {tpt}\n"
    );
    println!(
        "{:>5} {:>6} {:<12} {:>5} {:>4} {:>10} {:>9}",
        "team", "edge", "method", "simd", "tpt", "MLUP/s", "verified"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &team in &teams {
        // Fixed work per worker: each team size gets its own problem
        // (and its own sequential oracle, since the grids differ).
        let team_edge = scaled_edge(edge, team);
        let initial = problem(team_edge, 0xD1A);
        let mut oracle_pair = GridPair::from_initial(initial.clone());
        baseline::seq_sweeps_op(&Jacobi6, &mut oracle_pair, sweeps);
        let oracle = oracle_pair.into_current(sweeps);

        let rt = Runtime::with_threads(team);
        // MWD sub-teams must divide the team; fall back to 1 elsewhere.
        let team_tpt = if team.is_multiple_of(tpt) { tpt } else { 1 };
        run_schemes(
            &rt, &Jacobi6, team, team_tpt, true, &initial, &oracle, sweeps, reps, width, &mut rows,
        );
        run_schemes(
            &rt,
            &ScalarPath(Jacobi6),
            team,
            team_tpt,
            false,
            &initial,
            &oracle,
            sweeps,
            reps,
            width,
            &mut rows,
        );
    }

    let lookup = |team: usize, method: &str, simd: bool| {
        rows.iter()
            .find(|r| r.team == team && r.method == method && r.simd == simd)
            .map(|r| r.mlups)
            .unwrap_or(0.0)
    };
    // Where does diamond at least match the wavefront comparator?
    // (Compared on the vectorized path — the configuration that ships.)
    let diamond_ge_wavefront: Vec<usize> = teams
        .iter()
        .copied()
        .filter(|&t| lookup(t, "diamond", true) >= lookup(t, "wavefront", true))
        .collect();
    // Does the explicit SIMD path pay off where it is easiest to see —
    // a single worker, no synchronization noise?
    let simd_speedup_team1 = lookup(1, "diamond", true) / lookup(1, "diamond", false).max(1e-9);
    let all_verified = rows.iter().all(|r| r.verified);

    println!(
        "\ndiamond >= wavefront on team sizes {diamond_ge_wavefront:?} \
         (of {teams:?}); team-1 diamond simd/scalar = {simd_speedup_team1:.2}x"
    );

    let json = format!(
        "{{\n  \"edge_per_worker\": {edge},\n  \"scaling\": \"fixed-work-per-team\",\n  \
         \"sweeps\": {sweeps},\n  \"reps\": {reps},\n  \
         \"width\": {width},\n  \"threads_per_tile\": {tpt},\n  \"teams\": {teams:?},\n  \
         \"diamond_ge_wavefront_teams\": {diamond_ge_wavefront:?},\n  \
         \"simd_speedup_team1\": {simd_speedup_team1:.3},\n  \
         \"all_verified\": {all_verified},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"team\": {}, \"edge\": {}, \"method\": \"{}\", \"simd\": \"{}\", \
                     \"mlups\": {:.2}, \"verified\": {}}}",
                    r.team,
                    r.edge,
                    r.method,
                    if r.simd { "on" } else { "off" },
                    r.mlups,
                    r.verified
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = args.get("--out").unwrap_or("BENCH_diamond.json");
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_diamond.json");
    println!("wrote {path}");

    assert!(
        all_verified,
        "some runs diverged from the sequential oracle"
    );
    println!(
        "all {} scheme × team × path runs matched the sequential oracle bitwise",
        rows.len()
    );
}
