//! End-to-end contract of the plan-cache autotuner: serialization,
//! fingerprint stability, warm-hit economics, stale-entry rejection,
//! and bitwise identity of tuned solves for every operator.

use std::path::PathBuf;

use temporal_blocking::plan::{
    CacheEntry, Json, MachineFingerprint, MethodFamily, PipeParams, Plan, PlanCache, PlanKey,
    PlanMethod,
};
use temporal_blocking::prelude::*;
use temporal_blocking::{solve_tuned_with_on, solve_with, Jacobi6, Method, TuneOptions};

fn tmp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tb-plan-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Fast, deterministic tuning options: fixed machine parameters (no
/// membench), private cache file, small measurement budget.
fn quick_opts(name: &str) -> TuneOptions {
    TuneOptions {
        cache_path: Some(tmp_cache(name)),
        top_k: 3,
        params: Some(MachineParams::nehalem_ep()),
        ..TuneOptions::default()
    }
}

#[test]
fn plan_json_roundtrips_every_method_variant() {
    let pipe = PipeParams {
        team_size: 3,
        n_teams: 2,
        updates_per_thread: 2,
        block: [64, 16, 16],
        sync: SyncMode::Relaxed {
            dl: 1,
            du: 2,
            dt: 4,
        },
    };
    let methods = vec![
        PlanMethod::Parallel {
            threads: 4,
            streaming_stores: true,
        },
        PlanMethod::Pipelined(pipe.clone()),
        PlanMethod::Compressed(PipeParams {
            sync: SyncMode::Barrier,
            ..pipe
        }),
        PlanMethod::Wavefront { threads: 2 },
        PlanMethod::Diamond {
            threads: 4,
            width: 16,
            threads_per_tile: 2,
        },
    ];
    for method in methods {
        for simd in [false, true] {
            let plan = Plan {
                simd,
                ..Plan::new(method.clone())
            };
            let text = plan.to_json().to_json();
            let back = Plan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{text}");
        }
    }
}

#[test]
fn fingerprint_is_stable_across_detect_runs() {
    let params = MachineParams::nehalem_ep();
    let a = MachineFingerprint::new(&temporal_blocking::topology::detect::detect(), &params);
    let b = MachineFingerprint::new(&temporal_blocking::topology::detect::detect(), &params);
    assert_eq!(a.as_string(), b.as_string());
}

#[test]
fn second_tuned_solve_is_a_warm_hit_with_zero_measurements() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 3);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("warm-hit.json");

    let (_, _, cold) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.measurements > 0, "cold tune must measure");
    let report = cold.report.as_ref().expect("cold tune reports");
    assert!(report.pruning_ratio() <= 0.5, "{}", report.pruning_ratio());

    let (_, _, warm) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(warm.cache_hit, "second solve replays the cache");
    assert_eq!(warm.measurements, 0, "a warm hit costs no measurement");
    assert!(!warm.calibrated, "a warm hit runs no membench");
    assert!(warm.report.is_none());
    assert_eq!(warm.plan, cold.plan, "deterministic replay");
}

#[test]
fn stale_schema_cache_entries_are_rejected() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 5);
    let rt = Runtime::with_threads(2);
    let opts = quick_opts("stale-schema.json");
    let path = opts.cache_path.clone().unwrap();

    let (_, _, cold) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!cold.cache_hit);
    // Corrupt the schema version on disk: the whole file is distrusted
    // and the next solve re-tunes (then heals the file).
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"schema\":1", "\"schema\":999")).unwrap();
    let (_, _, again) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert!(!again.cache_hit, "stale schema must force a re-tune");
    assert!(again.measurements > 0);
    let (_, _, healed) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(healed.cache_hit, "the re-tune rewrote a valid cache");
}

#[test]
fn wrong_dims_cache_entries_are_rejected() {
    let dims = Dims3::cube(20);
    let params = MachineParams::nehalem_ep();
    let machine = temporal_blocking::topology::detect::detect();
    let key = PlanKey::new::<f64>(
        MachineFingerprint::new(&machine, &params),
        "jacobi6",
        dims,
        4,
    );
    // An entry recorded for other dims under this key (hand-edited
    // file): lookup refuses it.
    let mut cache = PlanCache::in_memory();
    cache.store(
        &key,
        CacheEntry {
            plan: Plan::new(PlanMethod::Wavefront { threads: 2 }),
            dims: [64, 64, 64],
            measured_mlups: 1.0,
            predicted_mlups: 1.0,
        },
    );
    assert!(cache.lookup(&key, dims, 1).is_none());
    // And a plan that no longer validates on the requested dims.
    cache.store(
        &key,
        CacheEntry {
            plan: Plan::new(PlanMethod::Diamond {
                threads: 2,
                width: 2,
                threads_per_tile: 1,
            }),
            dims: [dims.nx, dims.ny, dims.nz],
            measured_mlups: 1.0,
            predicted_mlups: 1.0,
        },
    );
    assert!(cache.lookup(&key, dims, 2).is_none());
}

#[test]
fn tuned_solves_are_bitwise_identical_to_the_oracle_for_every_operator() {
    let dims = Dims3::cube(18);
    let initial: Grid3<f64> = grid::init::random(dims, 11);
    let sweeps = 4;
    let rt = Runtime::with_threads(2);

    fn check<Op: StencilOp<f64>>(
        rt: &Runtime,
        op: &Op,
        initial: &Grid3<f64>,
        sweeps: usize,
        cache: &str,
    ) {
        let dims = initial.dims();
        let (want, _) = solve_with(op, initial.clone(), sweeps, Method::Sequential).unwrap();
        let opts = quick_opts(cache);
        for round in 0..2 {
            let (got, _, tuned) =
                solve_tuned_with_on(rt, op, initial.clone(), sweeps, &opts).unwrap();
            assert_eq!(tuned.cache_hit, round == 1);
            grid::norm::assert_grids_identical(
                &want,
                &got,
                &Region3::whole(dims),
                &format!("tuned {} ({})", op.name(), tuned.plan.label()),
            );
        }
    }
    check(&rt, &Jacobi6, &initial, sweeps, "oracle-jacobi6.json");
    check(
        &rt,
        &Jacobi7::heat(0.12),
        &initial,
        sweeps,
        "oracle-jacobi7.json",
    );
    check(
        &rt,
        &VarCoeff7::banded(dims),
        &initial,
        sweeps,
        "oracle-varcoeff7.json",
    );
    check(&rt, &Avg27, &initial, sweeps, "oracle-avg27.json");
}

#[test]
fn family_restriction_and_force_retune_are_honored() {
    let dims = Dims3::cube(20);
    let initial: Grid3<f64> = grid::init::random(dims, 9);
    let rt = Runtime::with_threads(2);
    let mut opts = quick_opts("family.json");
    opts.families = vec![MethodFamily::Wavefront];

    let (_, _, tuned) = solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), 4, &opts).unwrap();
    assert_eq!(tuned.plan.method.family(), MethodFamily::Wavefront);
    // Every measured row stayed inside the requested family (the
    // incumbent included).
    for row in &tuned.report.unwrap().rows {
        assert_eq!(row.plan.method.family(), MethodFamily::Wavefront);
    }

    opts.force_retune = true;
    let (_, _, retuned) = solve_tuned_with_on(&rt, &Jacobi6, initial, 4, &opts).unwrap();
    assert!(!retuned.cache_hit, "force_retune bypasses the cache");
    assert!(retuned.measurements > 0);
}

#[test]
fn concurrent_tuned_solves_share_one_cache_entry_and_never_corrupt_the_file() {
    // N tenants tuning the same problem against the same cache file at
    // once (the job server does exactly this from its slices) must end
    // with ONE winner entry and a parseable file — the shared in-process
    // store serializes the load-modify-save cycle that a per-caller
    // `PlanCache` used to race.
    let path = tmp_cache("concurrent.json");
    let dims = Dims3::cube(12);
    let initial: Grid3<f64> = grid::init::random(dims, 5);
    let opts = TuneOptions {
        cache_path: Some(path.clone()),
        top_k: 1,
        params: Some(MachineParams::nehalem_ep()),
        families: vec![MethodFamily::Parallel],
        ..TuneOptions::default()
    };

    let (want, _) = solve_with(&Jacobi6, initial.clone(), 3, Method::Sequential).unwrap();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let (initial, opts, want) = (initial.clone(), opts.clone(), want.clone());
            std::thread::spawn(move || {
                let rt = Runtime::with_threads(2);
                let (got, _, tuned) =
                    solve_tuned_with_on(&rt, &Jacobi6, initial, 3, &opts).unwrap();
                grid::norm::assert_grids_identical(
                    &want,
                    &got,
                    &Region3::whole(dims),
                    "concurrent tuned solve",
                );
                tuned.cache_hit
            })
        })
        .collect();
    let hits = threads
        .into_iter()
        .map(|t| t.join().expect("no tuner thread may panic"))
        .filter(|hit| *hit)
        .count();

    // Exactly one entry made it to disk, and the file parses cleanly.
    let on_disk = PlanCache::load(&path);
    assert_eq!(
        on_disk.len(),
        1,
        "six racing tuners must collapse to one winner entry"
    );
    // Every thread either tuned or hit the single shared entry; a rerun
    // is now warm for everyone.
    let rt = Runtime::with_threads(2);
    let (_, _, tuned) = solve_tuned_with_on(&rt, &Jacobi6, initial, 3, &opts).unwrap();
    assert!(tuned.cache_hit, "after the race the cache must be warm");
    assert_eq!(tuned.measurements, 0);
    let _ = hits; // any count 0..=5 is legal; ordering is the OS's call
}
