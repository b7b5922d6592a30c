//! Plan-cache autotuner economics — the perf artifact of `tb-plan`.
//!
//! For each method family: a **cold tune** (enumerate candidates, score
//! with the analytic models, measure only the model-ranked top-K plus
//! the library default, persist the winner) followed by a **warm hit**
//! (replay the cached plan). Each family tunes into its own cache file
//! so the per-family winners never collide under the shared
//! `PlanKey`. Emits `BENCH_plan.json` recording cold-tune vs warm-hit
//! wall time, tuned-vs-default MLUP/s, and the pruning ratio
//! (measured / enumerated candidates). Hard-asserts the autotuner
//! contract: a warm hit performs **zero** measurements, the model
//! prunes at least half the candidate space, the tuned plan never loses
//! to the default, and every solve is bitwise-identical to the
//! sequential oracle.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin plan_sweep -- --size 40 --sweeps 8
//! cargo run --release -p tb-bench --bin plan_sweep -- --smoke
//! ```

use std::io::Write as _;
use std::time::Instant;

use tb_bench::{problem, Args};
use tb_grid::{norm, GridPair, Region3};
use tb_plan::MethodFamily;
use tb_stencil::baseline;
use temporal_blocking::{solve_tuned_with_on, tuning_runtime, Jacobi6, TuneOptions};

struct FamilyRow {
    family: &'static str,
    enumerated: usize,
    measured: usize,
    cold_ms: f64,
    warm_ms: f64,
    default_mlups: f64,
    tuned_mlups: f64,
    warm_measurements: usize,
    winner: String,
    verified: bool,
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("--smoke");
    let edge = args.get_usize("--size", if smoke { 24 } else { 40 });
    let sweeps = args.get_usize("--sweeps", if smoke { 4 } else { 8 });
    let top_k = args.get_usize("--top-k", if smoke { 3 } else { 6 });

    let machine = tb_topology::detect::detect();
    let group = machine
        .cores_per_socket()
        .clamp(2, if smoke { 2 } else { 4 });
    let layout = tb_topology::TeamLayout::new(&machine, group, 1);
    let rt = tuning_runtime(&machine, &layout, group);

    // One parameter set feeds every family's fingerprint, so membench
    // runs at most once per invocation (smoke mode skips it entirely
    // and scores with the paper's Nehalem EP parameters).
    let params = if smoke {
        tb_model::MachineParams::nehalem_ep()
    } else {
        tb_membench::calibrate_host(&machine, tb_membench::CalibrationProfile::quick())
    };

    // Fresh cache dir per invocation: the cold tune must really be cold.
    let cache_dir = std::env::temp_dir().join(format!("tb-plan-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    let initial = problem(edge, 0x91A);
    let mut oracle_pair = GridPair::from_initial(initial.clone());
    baseline::seq_sweeps_op(&Jacobi6, &mut oracle_pair, sweeps);
    let oracle = oracle_pair.into_current(sweeps);

    println!(
        "plan-cache autotuner — {edge}^3, {sweeps} sweeps, top-{top_k}, \
         {} workers, cache dir {}\n",
        rt.threads(),
        cache_dir.display()
    );
    println!(
        "{:<11} {:>5} {:>5} {:>6} {:>10} {:>9} {:>9} {:>9}  winner",
        "family", "enum", "meas", "ratio", "cold ms", "warm ms", "default", "tuned"
    );

    let mut rows: Vec<FamilyRow> = Vec::new();
    for family in MethodFamily::ALL {
        let opts = TuneOptions {
            cache_path: Some(cache_dir.join(format!("plans-{}.json", family.name()))),
            top_k,
            params: Some(params),
            families: vec![family],
            ..TuneOptions::default()
        };

        let t0 = Instant::now();
        let cold = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), sweeps, &opts);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (cold_grid, _, cold_tuned) = match cold {
            Ok(r) => r,
            Err(e) => {
                // A family can be untunable on tiny smoke grids (every
                // candidate invalid); record it and move on.
                println!("{:<11} untunable here: {e}", family.name());
                continue;
            }
        };
        let report = cold_tuned.report.as_ref().expect("cold tune reports");
        assert!(
            !cold_tuned.cache_hit,
            "{}: first tune must be cold",
            family.name()
        );

        let t1 = Instant::now();
        let (warm_grid, _, warm_tuned) =
            solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), sweeps, &opts)
                .expect("warm replay");
        let warm_ms = t1.elapsed().as_secs_f64() * 1e3;

        let verified = norm::first_mismatch(&oracle, &cold_grid, &Region3::whole(oracle.dims()))
            .is_none()
            && norm::first_mismatch(&oracle, &warm_grid, &Region3::whole(oracle.dims())).is_none();
        let default_mlups = report
            .incumbent()
            .and_then(|r| r.measured_mlups)
            .unwrap_or(0.0);
        let tuned_mlups = report
            .winner()
            .and_then(|r| r.measured_mlups)
            .unwrap_or(0.0);
        let row = FamilyRow {
            family: family.name(),
            enumerated: report.enumerated,
            measured: report.measured,
            cold_ms,
            warm_ms,
            default_mlups,
            tuned_mlups,
            warm_measurements: warm_tuned.measurements,
            winner: warm_tuned.plan.label(),
            verified,
        };
        println!(
            "{:<11} {:>5} {:>5} {:>6.2} {:>10.1} {:>9.1} {:>9.1} {:>9.1}  {}",
            row.family,
            row.enumerated,
            row.measured,
            report.pruning_ratio(),
            row.cold_ms,
            row.warm_ms,
            row.default_mlups,
            row.tuned_mlups,
            row.winner
        );

        assert!(
            warm_tuned.cache_hit,
            "{}: second solve must hit",
            family.name()
        );
        assert_eq!(
            warm_tuned.measurements,
            0,
            "{}: a warm hit costs no measurement",
            family.name()
        );
        assert!(
            !warm_tuned.calibrated,
            "{}: a warm hit runs no membench",
            family.name()
        );
        assert_eq!(
            warm_tuned.plan,
            cold_tuned.plan,
            "{}: deterministic replay",
            family.name()
        );
        assert!(
            row.tuned_mlups >= row.default_mlups,
            "{}: tuned {:.1} lost to default {:.1}",
            family.name(),
            row.tuned_mlups,
            row.default_mlups
        );
        rows.push(row);
    }
    assert!(!rows.is_empty(), "no family was tunable");

    let enumerated: usize = rows.iter().map(|r| r.enumerated).sum();
    let measured: usize = rows.iter().map(|r| r.measured).sum();
    let pruning_ratio = measured as f64 / enumerated as f64;
    let all_verified = rows.iter().all(|r| r.verified);
    let warm_measurements: usize = rows.iter().map(|r| r.warm_measurements).sum();

    println!(
        "\noverall: {measured}/{enumerated} candidates measured \
         (pruning ratio {pruning_ratio:.2}), warm hits measured {warm_measurements} trials"
    );
    assert!(
        pruning_ratio <= 0.5,
        "overall pruning ratio {pruning_ratio:.2} > 0.5: the model is not pruning"
    );

    let json = format!(
        "{{\n  \"edge\": {edge},\n  \"sweeps\": {sweeps},\n  \"top_k\": {top_k},\n  \
         \"workers\": {workers},\n  \"enumerated\": {enumerated},\n  \
         \"measured\": {measured},\n  \"pruning_ratio\": {pruning_ratio:.3},\n  \
         \"warm_measurements\": {warm_measurements},\n  \"all_verified\": {all_verified},\n  \
         \"families\": [\n{body}\n  ]\n}}\n",
        workers = rt.threads(),
        body = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"family\": \"{}\", \"enumerated\": {}, \"measured\": {}, \
                     \"cold_tune_ms\": {:.2}, \"warm_hit_ms\": {:.2}, \
                     \"default_mlups\": {:.2}, \"tuned_mlups\": {:.2}, \
                     \"tuned_over_default\": {:.3}, \"warm_measurements\": {}, \
                     \"winner\": \"{}\", \"verified\": {}}}",
                    r.family,
                    r.enumerated,
                    r.measured,
                    r.cold_ms,
                    r.warm_ms,
                    r.default_mlups,
                    r.tuned_mlups,
                    r.tuned_mlups / r.default_mlups.max(1e-9),
                    r.warm_measurements,
                    r.winner,
                    r.verified
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = args.get("--out").unwrap_or("BENCH_plan.json");
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_plan.json");
    println!("wrote {path}");

    std::fs::remove_dir_all(&cache_dir).ok();
    assert!(
        all_verified,
        "some tuned runs diverged from the sequential oracle"
    );
    assert_eq!(warm_measurements, 0, "warm hits must be measurement-free");
    println!(
        "all {} family cold+warm runs matched the sequential oracle bitwise",
        rows.len()
    );
}
