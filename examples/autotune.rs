//! Plan-cache autotuning, the mechanized version of the paper's hand
//! search ("The optimal choices reported here have been obtained
//! experimentally", §1.5): enumerate every method family's candidate
//! space, score the candidates with the analytic models, measure only
//! the model-ranked top few, and persist the winner — the next run
//! replays it from the cache with zero measurements.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use temporal_blocking::plan::{PlanCache, TuneRow};
use temporal_blocking::prelude::*;
use temporal_blocking::{grid, solve_tuned_with_on, tuning_runtime, TuneOptions};

fn main() {
    let dims = temporal_blocking::cube_for_memory_budget(48);
    let sweeps = 8;
    let machine = temporal_blocking::topology::detect::detect();

    // One persistent worker team for the whole tuning session: every
    // measured trial (plus the calibration, which needs a full cache
    // group) shares these workers. `tuning_runtime` grows the pinned
    // layout when needed instead of degrading to unpinned threads —
    // keeping the layout's placement and any carved-out comm core.
    let base = PipelineConfig::for_machine(&machine, 1, 1);
    let layout = base
        .layout
        .clone()
        .unwrap_or_else(|| TeamLayout::new(&machine, base.team_size, base.n_teams));
    let rt = tuning_runtime(&machine, &layout, machine.cores_per_socket());

    println!("autotuning {dims} ({sweeps} sweeps) on {}", machine.name);
    println!(
        "persistent runtime: {} pinned workers shared by every trial",
        rt.threads()
    );
    println!("plan cache: {}", PlanCache::default_path().display());

    let initial = grid::init::random::<f64>(dims, 1);
    let opts = TuneOptions::default();
    let (_, stats, tuned) =
        solve_tuned_with_on(&rt, &Jacobi6, initial.clone(), sweeps, &opts).unwrap();

    if tuned.cache_hit {
        println!("\nwarm hit: replayed cached plan with zero measurements");
        println!("plan: {}", tuned.plan.label());
        println!("solve: {:.1} MLUP/s", stats.mlups());
        println!("(delete the cache file or set force_retune to tune afresh)");
        return;
    }

    let report = tuned.report.as_ref().expect("cold tune reports");
    println!(
        "\ncold tune: {} candidates enumerated, {} measured (pruning ratio {:.2})",
        report.enumerated,
        report.measured,
        report.pruning_ratio()
    );
    if tuned.calibrated {
        println!("calibrated the host with membench (cached for next time)");
    }

    println!(
        "\n{:>44} {:>12} {:>12}",
        "candidate", "model MLUP/s", "MLUP/s"
    );
    let fmt_row = |r: &TuneRow| {
        let measured = match r.measured_mlups {
            Some(m) => format!("{m:.1}"),
            None => "pruned".to_string(),
        };
        println!(
            "{:>44} {:>12.1} {:>12}{}",
            r.plan.label(),
            r.predicted_mlups,
            measured,
            if r.incumbent { "  (default)" } else { "" }
        );
    };
    for row in &report.rows {
        fmt_row(row);
    }
    if let Some(err) = report.mean_model_error() {
        println!("\nmean model error over measured rows: {:.0}%", err * 100.0);
    }

    println!(
        "\nwinner: {} at {:.1} MLUP/s",
        tuned.plan.label(),
        stats.mlups()
    );
    if let (Some(win), Some(inc)) = (report.winner(), report.incumbent()) {
        let speedup = win.measured_mlups.unwrap_or(0.0) / inc.measured_mlups.unwrap_or(1.0);
        println!("tuned vs default ({}): {speedup:.2}x", inc.plan.label());
    }
    println!("the winner is persisted — rerun this example for a zero-measurement warm hit");
    println!("(the paper's optimum on Nehalem EP was T=2, blocks ~120x20x20, d_u in 1..4 — §1.5)");
}
