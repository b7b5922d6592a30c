//! The strategy IR: [`Method`], the one name of an execution strategy,
//! and the serializable [`Plan`] around it.
//!
//! A `Method` pins down *everything* an executor needs to reproduce a
//! solver run — which executor, and all of its parameters (`T`, block,
//! `d_u` sync mode, diamond width, MWD sub-team, team shape). A `Plan`
//! adds the SIMD path, in the spirit of Patus strategies: a small data
//! program over the `auto`-tunable parameters, separated from the
//! stencil itself. Plans round-trip through JSON (see [`crate::json`])
//! so winners can be persisted by the [`crate::cache`] and replayed
//! without re-tuning.

use tb_grid::Dims3;
use tb_stencil::{DiamondConfig, PipelineConfig, SyncMode};

use crate::json::Json;

/// Method families: the five tunable ones ([`MethodFamily::ALL`]) plus
/// the sequential oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MethodFamily {
    /// Sequential sweeps, plain or spatially blocked (the oracle; never
    /// enumerated by the tuner).
    Sequential,
    /// Thread-parallel standard sweeps (the baseline).
    Parallel,
    /// Pipelined temporal blocking on two grids.
    Pipelined,
    /// Pipelined temporal blocking on a compressed grid.
    Compressed,
    /// Wavefront temporal blocking.
    Wavefront,
    /// Wavefront-diamond temporal blocking (incl. MWD sub-teams).
    Diamond,
}

impl MethodFamily {
    /// The tunable families, in the tuner's order.
    pub const ALL: [MethodFamily; 5] = [
        MethodFamily::Parallel,
        MethodFamily::Pipelined,
        MethodFamily::Compressed,
        MethodFamily::Wavefront,
        MethodFamily::Diamond,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MethodFamily::Sequential => "sequential",
            MethodFamily::Parallel => "parallel",
            MethodFamily::Pipelined => "pipelined",
            MethodFamily::Compressed => "compressed",
            MethodFamily::Wavefront => "wavefront",
            MethodFamily::Diamond => "diamond",
        }
    }
}

/// Solver selection: one arm per executor, carrying all of its
/// parameters. The facade's `solve*` functions take it directly, and a
/// [`Plan`] stores it.
#[derive(Clone, PartialEq, Debug)]
pub enum Method {
    /// Plain sequential sweeps (the verification oracle).
    Sequential,
    /// Sequential sweeps with spatial blocking.
    Blocked { block: [usize; 3] },
    /// Thread-parallel standard sweeps (the paper's baseline).
    Parallel {
        threads: usize,
        streaming_stores: bool,
    },
    /// Pipelined temporal blocking (the paper's contribution, §1.3).
    Pipelined(PipelineConfig),
    /// Pipelined temporal blocking on a compressed grid (§1.3).
    PipelinedCompressed(PipelineConfig),
    /// Wavefront temporal blocking (the paper's ref. 2, comparator).
    Wavefront { threads: usize },
    /// Wavefront-diamond temporal blocking (Malas, Hager et al. 2015):
    /// diamond tiles along z × time, no wind-up/wind-down waste, one
    /// width knob instead of block sizes and sync distances.
    Diamond(DiamondConfig),
}

impl Method {
    pub fn family(&self) -> MethodFamily {
        match self {
            Method::Sequential | Method::Blocked { .. } => MethodFamily::Sequential,
            Method::Parallel { .. } => MethodFamily::Parallel,
            Method::Pipelined(_) => MethodFamily::Pipelined,
            Method::PipelinedCompressed(_) => MethodFamily::Compressed,
            Method::Wavefront { .. } => MethodFamily::Wavefront,
            Method::Diamond(_) => MethodFamily::Diamond,
        }
    }

    /// Compute workers the method occupies (0 for the sequential
    /// methods, which run on the calling thread).
    pub fn threads(&self) -> usize {
        match self {
            Method::Sequential | Method::Blocked { .. } => 0,
            Method::Parallel { threads, .. } | Method::Wavefront { threads } => *threads,
            Method::Pipelined(cfg) | Method::PipelinedCompressed(cfg) => cfg.threads(),
            Method::Diamond(cfg) => cfg.threads,
        }
    }

    /// Check the method against a concrete problem (`radius` is the
    /// stencil operator's). The facade runs this before every solve, and
    /// every cached plan passes through it before use, so a stale or
    /// hand-edited cache can never produce an invalid run.
    pub fn validate(&self, dims: Dims3, radius: usize) -> Result<(), String> {
        let interior = || {
            if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 {
                return Err(format!("grid {dims} has no interior"));
            }
            Ok(())
        };
        match self {
            Method::Sequential => Ok(()),
            Method::Blocked { block } => {
                if block.contains(&0) {
                    return Err("block edges must be >= 1".into());
                }
                interior()
            }
            Method::Parallel { threads, .. } => {
                if *threads == 0 {
                    return Err("threads must be >= 1".into());
                }
                Ok(())
            }
            Method::Wavefront { threads } => {
                if *threads == 0 {
                    return Err("wavefront needs at least one thread".into());
                }
                interior()
            }
            Method::Pipelined(cfg) | Method::PipelinedCompressed(cfg) => cfg.validate(dims),
            Method::Diamond(cfg) => cfg.validate(dims, radius),
        }
    }
}

/// One reified execution plan. The JSON form stores every tunable
/// parameter; a pipeline's `layout` pins and the `audit` switches are
/// not stored (placement belongs to the runtime that replays the plan).
#[derive(Clone, PartialEq, Debug)]
pub struct Plan {
    pub method: Method,
    /// Route through the vectorized row kernels (`true`) or pin the
    /// scalar path. Bitwise-identical either way; throughput differs.
    pub simd: bool,
}

impl Plan {
    /// Plan for a method on the vectorized row kernels.
    pub fn new(method: Method) -> Self {
        Plan { method, simd: true }
    }

    /// Serialize to the JSON tree.
    pub fn to_json(&self) -> Json {
        let method = match &self.method {
            Method::Sequential => Json::obj(vec![("kind", Json::str("sequential"))]),
            Method::Blocked { block } => Json::obj(vec![
                ("kind", Json::str("blocked")),
                ("block", block_json(block)),
            ]),
            Method::Parallel {
                threads,
                streaming_stores,
            } => Json::obj(vec![
                ("kind", Json::str("parallel")),
                ("threads", Json::usize(*threads)),
                ("streaming_stores", Json::Bool(*streaming_stores)),
            ]),
            Method::Pipelined(cfg) => pipe_json("pipelined", cfg),
            Method::PipelinedCompressed(cfg) => pipe_json("compressed", cfg),
            Method::Wavefront { threads } => Json::obj(vec![
                ("kind", Json::str("wavefront")),
                ("threads", Json::usize(*threads)),
            ]),
            Method::Diamond(cfg) => Json::obj(vec![
                ("kind", Json::str("diamond")),
                ("threads", Json::usize(cfg.threads)),
                ("width", Json::usize(cfg.width)),
                ("threads_per_tile", Json::usize(cfg.threads_per_tile)),
            ]),
        };
        Json::obj(vec![("method", method), ("simd", Json::Bool(self.simd))])
    }

    /// Parse a plan back out of the JSON tree. Keys this layout does not
    /// use (such as the `exchange` mode older caches stored) are ignored.
    pub fn from_json(v: &Json) -> Result<Plan, String> {
        let m = v.get("method").ok_or("plan: missing method")?;
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("plan: missing method.kind")?;
        let threads = |j: &Json| {
            j.get("threads")
                .and_then(Json::as_usize)
                .ok_or_else(|| "plan: missing threads".to_string())
        };
        let method = match kind {
            "sequential" => Method::Sequential,
            "blocked" => Method::Blocked {
                block: block_from_json(m)?,
            },
            "parallel" => Method::Parallel {
                threads: threads(m)?,
                streaming_stores: m
                    .get("streaming_stores")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
            "pipelined" => Method::Pipelined(pipe_from_json(m)?),
            "compressed" => Method::PipelinedCompressed(pipe_from_json(m)?),
            "wavefront" => Method::Wavefront {
                threads: threads(m)?,
            },
            "diamond" => Method::Diamond(DiamondConfig {
                threads: threads(m)?,
                width: m
                    .get("width")
                    .and_then(Json::as_usize)
                    .ok_or("plan: missing width")?,
                threads_per_tile: m
                    .get("threads_per_tile")
                    .and_then(Json::as_usize)
                    .unwrap_or(1),
                audit: false,
            }),
            other => return Err(format!("plan: unknown method kind {other:?}")),
        };
        Ok(Plan {
            method,
            simd: v.get("simd").and_then(Json::as_bool).unwrap_or(true),
        })
    }

    /// One-line human-readable description for reports and logs.
    pub fn label(&self) -> String {
        let base = match &self.method {
            Method::Sequential => "sequential".to_string(),
            Method::Blocked { block } => format!("blocked block={block:?}"),
            Method::Parallel {
                threads,
                streaming_stores,
            } => format!(
                "parallel threads={threads}{}",
                if *streaming_stores { " nt" } else { "" }
            ),
            Method::Pipelined(cfg) => pipe_label("pipelined", cfg),
            Method::PipelinedCompressed(cfg) => pipe_label("compressed", cfg),
            Method::Wavefront { threads } => format!("wavefront threads={threads}"),
            Method::Diamond(cfg) => format!(
                "diamond threads={} w={} tpt={}",
                cfg.threads, cfg.width, cfg.threads_per_tile
            ),
        };
        if self.simd {
            base
        } else {
            format!("{base} simd=off")
        }
    }
}

fn pipe_label(kind: &str, cfg: &PipelineConfig) -> String {
    let sync = match cfg.sync {
        SyncMode::Barrier => "barrier".to_string(),
        SyncMode::Relaxed { dl, du, dt } => format!("dl={dl},du={du},dt={dt}"),
    };
    format!(
        "{kind} t={} n={} T={} block={:?} {sync}",
        cfg.team_size, cfg.n_teams, cfg.updates_per_thread, cfg.block
    )
}

fn block_json(block: &[usize; 3]) -> Json {
    Json::Arr(block.iter().map(|&b| Json::usize(b)).collect())
}

fn block_from_json(m: &Json) -> Result<[usize; 3], String> {
    let block_arr = m
        .get("block")
        .and_then(Json::as_arr)
        .ok_or("plan: missing block")?;
    if block_arr.len() != 3 {
        return Err("plan: block must have 3 edges".into());
    }
    let mut block = [0usize; 3];
    for (slot, v) in block.iter_mut().zip(block_arr) {
        *slot = v.as_usize().ok_or("plan: bad block edge")?;
    }
    Ok(block)
}

fn pipe_json(kind: &str, cfg: &PipelineConfig) -> Json {
    let sync = match cfg.sync {
        SyncMode::Barrier => Json::obj(vec![("mode", Json::str("barrier"))]),
        SyncMode::Relaxed { dl, du, dt } => Json::obj(vec![
            ("mode", Json::str("relaxed")),
            ("dl", Json::num(dl as f64)),
            ("du", Json::num(du as f64)),
            ("dt", Json::num(dt as f64)),
        ]),
    };
    Json::obj(vec![
        ("kind", Json::str(kind)),
        ("team_size", Json::usize(cfg.team_size)),
        ("n_teams", Json::usize(cfg.n_teams)),
        ("updates_per_thread", Json::usize(cfg.updates_per_thread)),
        ("block", block_json(&cfg.block)),
        ("sync", sync),
    ])
}

fn pipe_from_json(m: &Json) -> Result<PipelineConfig, String> {
    let field = |k: &str| {
        m.get(k)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("plan: missing {k}"))
    };
    let block = block_from_json(m)?;
    let sync = match m.get("sync") {
        None => SyncMode::relaxed_default(),
        Some(s) => match s.get("mode").and_then(Json::as_str) {
            Some("barrier") => SyncMode::Barrier,
            Some("relaxed") => SyncMode::Relaxed {
                dl: s.get("dl").and_then(Json::as_u64).unwrap_or(1),
                du: s.get("du").and_then(Json::as_u64).unwrap_or(4),
                dt: s.get("dt").and_then(Json::as_u64).unwrap_or(0),
            },
            other => return Err(format!("plan: unknown sync mode {other:?}")),
        },
    };
    Ok(PipelineConfig {
        team_size: field("team_size")?,
        n_teams: field("n_teams")?,
        updates_per_thread: field("updates_per_thread")?,
        block,
        sync,
        layout: None,
        audit: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(sync: SyncMode) -> PipelineConfig {
        PipelineConfig {
            team_size: 4,
            n_teams: 2,
            updates_per_thread: 2,
            block: [120, 20, 20],
            sync,
            ..PipelineConfig::small()
        }
    }

    pub(crate) fn sample_plans() -> Vec<Plan> {
        let relaxed = SyncMode::Relaxed {
            dl: 1,
            du: 4,
            dt: 8,
        };
        let mut plans = vec![
            Plan::new(Method::Parallel {
                threads: 8,
                streaming_stores: true,
            }),
            Plan::new(Method::Pipelined(pipe(relaxed))),
            Plan::new(Method::Pipelined(pipe(SyncMode::Barrier))),
            Plan::new(Method::PipelinedCompressed(pipe(relaxed))),
            Plan::new(Method::Wavefront { threads: 4 }),
            Plan::new(Method::Diamond(
                DiamondConfig::with_width(4, 16).with_threads_per_tile(2),
            )),
        ];
        plans.push(Plan {
            simd: false,
            ..plans[5].clone()
        });
        plans.push(Plan::new(Method::Sequential));
        plans.push(Plan::new(Method::Blocked { block: [7, 5, 3] }));
        plans
    }

    #[test]
    fn json_roundtrip_every_variant() {
        let plans = sample_plans();
        // Every `Method` variant is covered.
        let variants: std::collections::HashSet<_> = plans
            .iter()
            .map(|p| std::mem::discriminant(&p.method))
            .collect();
        assert_eq!(variants.len(), 7);
        for plan in plans {
            let text = plan.to_json().to_json();
            let back = Plan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{text}");
        }
    }

    #[test]
    fn configs_reconstruct() {
        let plans = sample_plans();
        let Method::Pipelined(cfg) = &plans[1].method else {
            panic!("two-grid pipeline expected: {:?}", plans[1].method);
        };
        assert_eq!(cfg.stages(), 16);
        assert!(matches!(
            plans[3].method,
            Method::PipelinedCompressed(ref c) if c.stages() == 16
        ));
        let Method::Diamond(dia) = &plans[5].method else {
            panic!("diamond expected: {:?}", plans[5].method);
        };
        assert_eq!((dia.threads, dia.width, dia.threads_per_tile), (4, 16, 2));
        assert!(matches!(plans[0].method, Method::Parallel { .. }));
        // Parsed configs carry no pins and no auditor.
        let text = plans[1].to_json().to_json();
        let back = Plan::from_json(&Json::parse(&text).unwrap()).unwrap();
        let Method::Pipelined(cfg) = back.method else {
            panic!("pipelined kind must parse back to a two-grid pipeline");
        };
        assert!(cfg.layout.is_none() && !cfg.audit);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let plans = sample_plans();
        // 16-stage pipeline cannot fit a 10^3 grid.
        assert!(plans[1].method.validate(Dims3::cube(10), 1).is_err());
        assert!(plans[1].method.validate(Dims3::cube(64), 1).is_ok());
        // Diamond width below 2R is rejected by the diamond validator.
        let m = Method::Diamond(DiamondConfig::with_width(2, 2));
        assert!(m.validate(Dims3::cube(20), 2).is_err());
        assert!(m.validate(Dims3::cube(20), 1).is_ok());
        let z = Method::Parallel {
            threads: 0,
            streaming_stores: false,
        };
        assert_eq!(
            z.validate(Dims3::cube(20), 1).unwrap_err(),
            "threads must be >= 1"
        );
        let w = Method::Wavefront { threads: 2 };
        assert!(w.validate(Dims3::new(2, 10, 10), 1).is_err());
        assert!(w.validate(Dims3::cube(10), 1).is_ok());
        // The sequential oracle runs anywhere; blocked needs real blocks.
        assert!(Method::Sequential.validate(Dims3::cube(2), 1).is_ok());
        let b = Method::Blocked { block: [4, 0, 4] };
        assert!(b.validate(Dims3::cube(20), 1).is_err());
        let b = Method::Blocked { block: [4, 4, 4] };
        assert!(b.validate(Dims3::cube(20), 1).is_ok());
        assert!(b.validate(Dims3::new(20, 2, 20), 1).is_err());
    }

    #[test]
    fn family_and_threads() {
        let plans = sample_plans();
        assert_eq!(plans[0].method.family().name(), "parallel");
        assert_eq!(plans[0].method.threads(), 8);
        assert_eq!(plans[1].method.threads(), 8); // 4 x 2 teams
        assert_eq!(plans[3].method.family(), MethodFamily::Compressed);
        assert_eq!(plans[5].method.family(), MethodFamily::Diamond);
        assert_eq!(plans[5].method.threads(), 4);
        for seq in &plans[7..] {
            assert_eq!(seq.method.family(), MethodFamily::Sequential);
            assert_eq!(seq.method.threads(), 0);
        }
        assert_eq!(MethodFamily::ALL.len(), 5);
        assert!(!MethodFamily::ALL.contains(&MethodFamily::Sequential));
    }

    #[test]
    fn labels_are_informative() {
        let plans = sample_plans();
        assert!(plans[1].label().contains("T=2"));
        assert!(plans[6].label().contains("simd=off"));
        assert_eq!(plans[7].label(), "sequential");
        assert!(plans[8].label().contains("[7, 5, 3]"));
    }
}
