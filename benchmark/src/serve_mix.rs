//! `serve-mix`: a `serve::Server` (default config, deadline policy)
//! under a mixed job stream — an open loop at a fixed arrival rate, then
//! a burst of the same jobs behind the bounded queue.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use temporal_blocking::grid::{init, Dims3, Grid3, Real};
use temporal_blocking::prelude::*;
use temporal_blocking::{solve_with, Method, TuneOptions};

use crate::ops::{self, HEAT_K};
use crate::stats::{median, percentile};
use crate::{metric, sampled, Ctx, Metric, Outcome, Tally};

/// Open-loop arrival rate (jobs/s): a workload constant, never derived
/// per run. About a quarter to a half of the burst capacity measured on
/// the reference host (80-200 jobs/s depending on neighbour load), so
/// the open loop stays below saturation even when the host is slow.
pub const OPEN_RATE_HZ: f64 = 40.0;
/// Nominal burst capacity (jobs/s) that sizes the burst phase; the burst
/// then takes as long as the server needs.
pub const BURST_SIZING_HZ: f64 = 150.0;
/// The latency limit of `slo_miss_frac`, from scheduled send time.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Deadline carried by `Latency`-class jobs.
pub const LATENCY_DEADLINE: Duration = Duration::from_millis(50);
/// Sweeps per job.
pub const JOB_SWEEPS: usize = 8;
/// Job templates in the catalogue.
pub const CATALOGUE: usize = 40;
/// Share of `--seconds` given to the open loop; the burst is sized for
/// the rest.
const OPEN_SHARE: f64 = 0.5;
const EDGES: [usize; 5] = [32, 48, 64, 80, 96];
const FIXED: [&str; 5] = [
    "parallel",
    "pipelined",
    "wavefront",
    "diamond",
    "sequential",
];

/// One catalogue entry: a job shape plus its seeded payload and the
/// oracle fingerprint of its result.
struct Template {
    op: JobOp,
    payload: JobPayload,
    priority: Priority,
    method: JobMethod,
    tuned: bool,
    oracle: u64,
}

impl Template {
    fn spec(&self, tag: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            self.op,
            self.payload.clone(),
            JOB_SWEEPS,
            self.method.clone(),
        )
        .with_priority(self.priority);
        if self.priority == Priority::Latency {
            spec = spec.with_deadline(LATENCY_DEADLINE);
        }
        spec.tag = tag;
        spec
    }
}

/// The workload-constant job shapes: all four operators, five edges,
/// f64 and f32, mixed priorities, one in eight tuned.
fn catalogue(ctx: &Ctx, slice_threads: usize, tune: &TuneOptions) -> Vec<Template> {
    let ops = [
        JobOp::Jacobi6,
        JobOp::Jacobi7Heat(HEAT_K),
        JobOp::VarCoeff7Banded,
        JobOp::Avg27,
    ];
    let edges: &[usize] = if ctx.args.smoke { &[12, 16] } else { &EDGES };
    (0..CATALOGUE)
        .map(|i| {
            let op = ops[i % 4];
            let dims = Dims3::cube(edges[(i / 4) % edges.len()]);
            let seed = ctx.seed_for(1000 + i as u64);
            let payload = if i < CATALOGUE / 2 {
                JobPayload::F64(init::random(dims, seed))
            } else {
                JobPayload::F32(init::random(dims, seed))
            };
            let priority = match i % 5 {
                0 => Priority::Latency,
                4 => Priority::Batch,
                _ => Priority::Normal,
            };
            let tuned = i % 8 == 3;
            let method = if tuned {
                JobMethod::Tuned(tune.clone())
            } else {
                JobMethod::Fixed(ops::method(FIXED[(i / 3) % FIXED.len()], slice_threads))
            };
            let oracle = oracle_fingerprint(op, &payload);
            Template {
                op,
                payload,
                priority,
                method,
                tuned,
                oracle,
            }
        })
        .collect()
}

fn oracle_fingerprint(op: JobOp, payload: &JobPayload) -> u64 {
    fn run<T: Real>(op: JobOp, g: &Grid3<T>) -> Grid3<T> {
        let g = g.clone();
        let m = Method::Sequential;
        match op {
            JobOp::Jacobi6 => solve_with(&Jacobi6, g, JOB_SWEEPS, m),
            JobOp::Jacobi7Heat(k) => solve_with(&Jacobi7::heat(k), g, JOB_SWEEPS, m),
            JobOp::VarCoeff7Banded => {
                let d = g.dims();
                solve_with(&VarCoeff7::<T>::banded(d), g, JOB_SWEEPS, m)
            }
            _ => solve_with(&Avg27, g, JOB_SWEEPS, m),
        }
        .expect("oracle solve")
        .0
    }
    match payload {
        JobPayload::F64(g) => JobPayload::F64(run(op, g)).fingerprint(),
        JobPayload::F32(g) => JobPayload::F32(run(op, g)).fingerprint(),
    }
}

/// splitmix64: the benchmark's own seeded stream for job order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` template indices: the catalogue reshuffled every pass.
fn job_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng(seed);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let mut pass: Vec<usize> = (0..CATALOGUE).collect();
        for i in (1..pass.len()).rev() {
            pass.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        order.extend(pass);
    }
    order.truncate(n);
    order
}

/// A submitted job on its way to the collector.
struct InFlight {
    handle: JobHandle,
    template: usize,
    scheduled: Instant,
    submitted: Instant,
}

/// What the collector learned about one finished job.
#[derive(Default)]
struct PhaseStats {
    latency_ms: Vec<f64>,
    admission_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    egress_ms: Vec<f64>,
    completed_at: Option<Instant>,
    cell_updates: u64,
    pool_fresh: u64,
    tuned: usize,
    tuned_hits: usize,
    slo_misses: usize,
}

impl PhaseStats {
    fn extend(&mut self, other: PhaseStats) {
        self.latency_ms.extend(other.latency_ms);
        self.admission_ms.extend(other.admission_ms);
        self.queue_ms.extend(other.queue_ms);
        self.service_ms.extend(other.service_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.egress_ms.extend(other.egress_ms);
        self.completed_at = self.completed_at.max(other.completed_at);
        self.cell_updates += other.cell_updates;
        self.pool_fresh += other.pool_fresh;
        self.tuned += other.tuned;
        self.tuned_hits += other.tuned_hits;
        self.slo_misses += other.slo_misses;
    }
}

/// Wait for every job, verify it, and account its phases.
fn collect(
    ctx: &Ctx,
    rx: mpsc::Receiver<InFlight>,
    templates: &[Template],
    tally: &mut Tally,
) -> PhaseStats {
    let mut st = PhaseStats::default();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for job in rx {
        let InFlight {
            handle,
            template,
            scheduled,
            submitted,
        } = job;
        let t = &templates[template];
        let outcome = handle.wait();
        let (_, r) = match outcome {
            Ok(ok) => ok,
            Err(e) => {
                tally.check(false, || format!("job template {template}: {e}"));
                st.slo_misses += 1;
                continue;
            }
        };
        let warm_tune_ok = r.tuned.as_ref().is_none_or(|tj| tj.measurements == 0);
        tally.check(r.verify_hash == t.oracle && warm_tune_ok, || {
            format!(
                "job template {template} ({} {:?}): hash match {}, warm tune measurements ok {}",
                r.op,
                r.dims,
                r.verify_hash == t.oracle,
                warm_tune_ok
            )
        });
        // Latency counts from the scheduled send time: a generator stall
        // delays every later job and must show.
        let done = submitted + r.latency();
        let latency = ms(done.saturating_duration_since(scheduled));
        st.latency_ms.push(latency);
        if latency > LATENCY_LIMIT_MS {
            st.slo_misses += 1;
        }
        st.admission_ms.push(ms(r.admission_wait));
        st.queue_ms.push(ms(r.queue_wait));
        st.service_ms.push(ms(r.service));
        st.ingest_ms.push(ms(r.ingest));
        st.egress_ms.push(ms(r.egress));
        st.cell_updates += r.cell_updates;
        st.pool_fresh += r.pool_fresh;
        if let Some(tj) = &r.tuned {
            st.tuned += 1;
            st.tuned_hits += usize::from(tj.cache_hit);
        }
        st.completed_at = st.completed_at.max(Some(done));
        if ctx.tracer.enabled() {
            trace_job(ctx, &r, scheduled, submitted, done);
        }
        debug_assert!(t.tuned == r.tuned.is_some());
    }
    st
}

/// Rebuild a job's phases as spans from its report.
fn trace_job(ctx: &Ctx, r: &JobReport, scheduled: Instant, submitted: Instant, done: Instant) {
    let tr = &ctx.tracer;
    let group = r.job_id;
    let root = tr.record("serve.job", None, group, scheduled, done);
    tr.record(
        "serve.generator_lag",
        Some(root),
        group,
        scheduled,
        submitted,
    );
    let admitted = submitted + r.admission_wait;
    tr.record(
        "serve.admission_wait",
        Some(root),
        group,
        submitted,
        admitted,
    );
    let started = admitted + r.queue_wait;
    tr.record("serve.queue_wait", Some(root), group, admitted, started);
    let finished = started + r.service;
    let service = tr.record("serve.service", Some(root), group, started, finished);
    tr.record(
        "serve.ingest",
        Some(service),
        group,
        started,
        started + r.ingest,
    );
    tr.record(
        "serve.egress",
        Some(service),
        group,
        finished - r.egress,
        finished,
    );
}

/// Submit `order` through the server: open loop at `rate` (non-blocking
/// submits at fixed times) or, with `rate = None`, a burst of blocking
/// submits. Returns the phase stats, generator lags and queue lengths.
fn drive(
    ctx: &Ctx,
    server: &Server,
    templates: &[Template],
    order: &[usize],
    rate: Option<f64>,
    tally: &mut Tally,
) -> (PhaseStats, Vec<f64>, Vec<f64>, usize) {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut lags = Vec::with_capacity(order.len());
    let mut queue_lens = Vec::with_capacity(order.len());
    let mut rejected = 0;
    let mut collector_tally = Tally::default();
    let stats = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(ctx, rx, templates, &mut collector_tally));
        let t0 = Instant::now();
        for (j, &ti) in order.iter().enumerate() {
            // Build the request before its send time, so payload copies
            // are not charged as generator lag.
            let spec = templates[ti].spec(j as u64);
            let scheduled = match rate {
                Some(hz) => t0 + Duration::from_secs_f64(j as f64 / hz),
                None => Instant::now(),
            };
            sleep_until(scheduled);
            let submitted = Instant::now();
            lags.push((submitted - scheduled).as_secs_f64() * 1e3);
            queue_lens.push(server.queue_len() as f64);
            let admitted = match rate {
                Some(_) => server.submit(spec),
                None => server.submit_blocking(spec, Duration::from_secs(60)),
            };
            match admitted {
                Ok(handle) => {
                    let job = InFlight {
                        handle,
                        template: ti,
                        scheduled,
                        submitted,
                    };
                    tx.send(job).expect("collector alive");
                }
                Err(_) => {
                    rejected += 1;
                    tally.check(false, || format!("job {j} rejected at admission"));
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let mut st = stats;
    st.slo_misses += rejected;
    tally.merge(collector_tally);
    (st, lags, queue_lens, rejected)
}

fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // A fresh plan cache per run: no warm plan leaks in from the
    // environment or from an earlier run.
    let cache_path = ctx.args.out_dir.join(format!(
        "plan-cache-serve-{}-{}.json",
        ctx.args.seed,
        std::process::id()
    ));
    let tune = TuneOptions {
        cache_path: Some(cache_path.clone()),
        ..TuneOptions::default()
    };
    let cfg = ServerConfig {
        policy: SchedPolicy::Deadline,
        ..ServerConfig::default()
    };

    // The slice geometry, read from a server built and dropped untimed.
    let probe = Server::new(&ctx.machine, cfg.clone());
    let slice_threads = probe.slices().iter().map(|s| s.threads).min().unwrap_or(1);
    out.threads = probe.slices().iter().map(|s| s.threads).sum();
    let slices = probe.slices().len();
    drop(probe);
    let templates = catalogue(ctx, slice_threads, &tune);
    // Job counts are whole passes over the catalogue, so every run serves
    // the same multiset of jobs; the seed only orders the open loop (the
    // burst runs the catalogue in its fixed order).
    let passes = |jobs_per_s: f64, share: f64| {
        ((jobs_per_s * ctx.args.seconds * share / CATALOGUE as f64).round() as usize).max(1)
    };
    let open_order = job_order(
        ctx.seed_for(7),
        CATALOGUE * passes(OPEN_RATE_HZ, OPEN_SHARE),
    );
    let burst_order: Vec<usize> = (0..CATALOGUE * passes(BURST_SIZING_HZ, 1.0 - OPEN_SHARE))
        .map(|j| j % CATALOGUE)
        .collect();
    let epochs = ctx.epochs();
    let (open_chunk, burst_chunk) = (
        open_order.len().div_ceil(epochs),
        burst_order.len().div_ceil(epochs),
    );
    out.notes.push(format!(
        "serve: {slices} slice(s) x {slice_threads} threads, {CATALOGUE} job templates, \
         {} open-loop jobs at {OPEN_RATE_HZ} jobs/s, {} burst jobs, latency limit \
         {LATENCY_LIMIT_MS} ms, {JOB_SWEEPS} sweeps per job",
        open_order.len(),
        burst_order.len()
    ));

    // Epochs: set up (server construction plus one closed-loop pass over
    // the catalogue: pool warm-up, cold tunes into an emptied plan
    // cache), then an open loop at the fixed rate, then the same jobs as
    // a burst behind the bounded queue.
    let mut setup_times = Vec::new();
    let (mut open, mut burst) = (PhaseStats::default(), PhaseStats::default());
    let (mut lags, mut queue_lens) = (Vec::new(), Vec::new());
    let (mut rejected, mut burst_s) = (0, 0.0);
    for (open_jobs, burst_jobs) in open_order
        .chunks(open_chunk)
        .zip(burst_order.chunks(burst_chunk))
    {
        let _ = std::fs::remove_file(&cache_path);
        let t_setup = Instant::now();
        let server = ctx.tracer.span("serve.server_new", None, 0, |_| {
            Server::new(&ctx.machine, cfg.clone())
        });
        for (i, t) in templates.iter().enumerate() {
            let outcome = server
                .submit_blocking(t.spec(i as u64), Duration::from_secs(60))
                .map(|h| h.wait());
            let ok = matches!(&outcome, Ok(Ok((_, r))) if r.verify_hash == t.oracle);
            out.tally.check(ok, || {
                format!("warm-up job template {i} failed or diverged")
            });
        }
        setup_times.push(t_setup.elapsed().as_secs_f64());

        let (o, l, q, r) = drive(
            ctx,
            &server,
            &templates,
            open_jobs,
            Some(OPEN_RATE_HZ),
            &mut out.tally,
        );
        open.extend(o);
        lags.extend(l);
        queue_lens.extend(q);
        rejected += r;
        let t_burst = Instant::now();
        let (b, _, _, r) = drive(ctx, &server, &templates, burst_jobs, None, &mut out.tally);
        let end = b.completed_at.unwrap_or_else(Instant::now);
        burst_s += end.saturating_duration_since(t_burst).as_secs_f64();
        burst.extend(b);
        rejected += r;
    }
    let _ = std::fs::remove_file(&cache_path);
    out.setup_s = median(&setup_times);

    let n_open = open.latency_ms.len();
    let p50 = median(&open.latency_ms);
    let jobs_per_s = burst.latency_ms.len() as f64 / burst_s;
    out.e2e.push(sampled(
        "mlups",
        burst.cell_updates as f64 / burst_s / 1e6,
        "MLUP/s",
        burst.latency_ms.len(),
    ));
    out.e2e.push(sampled("latency_p50_ms", p50, "ms", n_open));
    out.named.extend([
        sampled(
            "latency_p99_ms",
            percentile(&open.latency_ms, 99.0),
            "ms",
            n_open,
        ),
        sampled(
            "slo_miss_frac",
            open.slo_misses as f64 / open_order.len() as f64,
            "frac",
            open_order.len(),
        ),
        sampled("jobs_per_s", jobs_per_s, "1/s", burst.latency_ms.len()),
    ]);

    if ctx.tracer.enabled() {
        let all = |f: fn(&PhaseStats) -> &Vec<f64>| -> Vec<f64> {
            f(&open).iter().chain(f(&burst)).copied().collect()
        };
        let tuned = open.tuned + burst.tuned;
        let hits = open.tuned_hits + burst.tuned_hits;
        out.layers.extend(serve_layers(
            &all(|s| &s.admission_ms),
            &all(|s| &s.queue_ms),
            &all(|s| &s.service_ms),
            &all(|s| &s.ingest_ms),
            &all(|s| &s.egress_ms),
            &queue_lens,
            &lags,
        ));
        out.layers.extend([
            metric(
                "serve.pool_fresh",
                (open.pool_fresh + burst.pool_fresh) as f64,
                "count",
            ),
            sampled(
                "serve.tuned_hit_frac",
                hits as f64 / tuned.max(1) as f64,
                "frac",
                tuned,
            ),
            metric("serve.rejected", rejected as f64, "count"),
        ]);
    }
    out
}

fn serve_layers(
    admission: &[f64],
    queue: &[f64],
    service: &[f64],
    ingest: &[f64],
    egress: &[f64],
    queue_lens: &[f64],
    lags: &[f64],
) -> Vec<Metric> {
    let n = service.len();
    vec![
        sampled("serve.admission_wait_p50_ms", median(admission), "ms", n),
        sampled("serve.queue_wait_p50_ms", median(queue), "ms", n),
        sampled("serve.queue_wait_p99_ms", percentile(queue, 99.0), "ms", n),
        sampled("serve.service_p50_ms", median(service), "ms", n),
        sampled("serve.service_p99_ms", percentile(service, 99.0), "ms", n),
        sampled("serve.ingest_p50_ms", median(ingest), "ms", n),
        sampled("serve.egress_p50_ms", median(egress), "ms", n),
        sampled(
            "serve.queue_len_p99",
            percentile(queue_lens, 99.0),
            "count",
            queue_lens.len(),
        ),
        sampled(
            "serve.gen_lag_p99_ms",
            percentile(lags, 99.0),
            "ms",
            lags.len(),
        ),
    ]
}
