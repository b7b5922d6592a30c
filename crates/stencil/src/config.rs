//! Configuration of the pipelined temporal blocking executors.

use tb_grid::Dims3;
use tb_sync::SyncMode;
use tb_topology::{Machine, TeamLayout};

/// Grid storage strategy for the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GridScheme {
    /// Two grids A/B written in turn (Fig. 1 of the paper).
    #[default]
    TwoGrid,
    /// Single "compressed" grid with alternating ±(1,1,1) shifts (§1.3).
    Compressed,
}

/// Full parameter set of a pipelined run. The paper's notation:
/// `t` = [`PipelineConfig::team_size`], `n` = [`PipelineConfig::n_teams`],
/// `T` = [`PipelineConfig::updates_per_thread`], `d_l`/`d_u`/`d_t` live
/// inside [`PipelineConfig::sync`], block size `b_x×b_y×b_z` in
/// [`PipelineConfig::block`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Threads per team (`t`); a team shares one cache group.
    pub team_size: usize,
    /// Number of teams (`n`); one per cache group.
    pub n_teams: usize,
    /// Consecutive updates each thread applies to a block (`T`).
    pub updates_per_thread: usize,
    /// Spatial block edges `[b_x, b_y, b_z]`.
    pub block: [usize; 3],
    /// Barrier or relaxed synchronization.
    pub sync: SyncMode,
    /// Storage scheme.
    pub scheme: GridScheme,
    /// Optional CPU pinning layout; `None` leaves threads unpinned.
    pub layout: Option<TeamLayout>,
    /// Run the debug region auditor (serializes claims; test/debug only).
    pub audit: bool,
}

impl PipelineConfig {
    /// A small, always-valid configuration for quick starts and tests.
    pub fn small() -> Self {
        Self {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [32, 8, 8],
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            layout: None,
            audit: false,
        }
    }

    /// The paper's best-performing socket configuration scaled to an
    /// arbitrary machine: one team per cache group is the *node* config;
    /// pass `n_teams = 1` for the socket experiment.
    pub fn for_machine(machine: &Machine, n_teams: usize, updates_per_thread: usize) -> Self {
        let groups = machine.cache_groups();
        let team_size = groups.first().map(|g| g.len()).unwrap_or(1).max(1);
        let n_teams = n_teams.clamp(1, groups.len().max(1));
        Self {
            team_size,
            n_teams,
            updates_per_thread,
            block: [120, 20, 20], // paper §1.5 optimum on 600^3
            sync: SyncMode::relaxed_default(),
            scheme: GridScheme::TwoGrid,
            layout: Some(TeamLayout::new(machine, team_size, n_teams)),
            audit: false,
        }
    }

    /// Total pipeline threads `n * t`.
    pub fn threads(&self) -> usize {
        self.team_size * self.n_teams
    }

    /// A one-shot [`tb_runtime::Runtime`] for this config: one worker
    /// per pipeline thread, pinned per [`PipelineConfig::layout`] when
    /// present. The facade's one-shot `solve_with` builds one of these
    /// per pipelined call; repeated solves should build a runtime once
    /// and share it.
    pub fn one_shot_runtime(&self) -> tb_runtime::Runtime {
        match &self.layout {
            Some(layout) if layout.threads() == self.threads() => {
                tb_runtime::Runtime::from_cpus(layout.cpus.clone(), None)
            }
            _ => tb_runtime::Runtime::with_threads(self.threads()),
        }
    }

    /// Total pipeline stages per team sweep, `n * t * T`.
    pub fn stages(&self) -> usize {
        self.threads() * self.updates_per_thread
    }

    /// Validate against a grid. Returns a human-readable complaint.
    ///
    /// The key geometric constraint (see `pipeline::plan`): every block
    /// edge must be at least the total stage count, or the per-stage
    /// diagonal shift would push interior block boundaries out of order.
    pub fn validate(&self, dims: Dims3) -> Result<(), String> {
        if self.team_size == 0 || self.n_teams == 0 || self.updates_per_thread == 0 {
            return Err("team_size, n_teams, updates_per_thread must be >= 1".into());
        }
        if self.block.contains(&0) {
            return Err("block edges must be >= 1".into());
        }
        if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 {
            return Err(format!("grid {dims} has no interior"));
        }
        let stages = self.stages();
        let interior = [dims.nx - 2, dims.ny - 2, dims.nz - 2];
        for (d, &int_d) in interior.iter().enumerate() {
            let b = self.block[d].min(int_d);
            if b < stages {
                return Err(format!(
                    "block edge {} (dim {d}, clamped to interior {int_d}) is smaller \
                     than the pipeline depth n*t*T = {stages}; enlarge blocks or \
                     reduce teams/updates",
                    self.block[d]
                ));
            }
        }
        if let SyncMode::Relaxed { dl, du, .. } = self.sync {
            if dl < 1 {
                return Err("d_l must be >= 1".into());
            }
            if du < dl {
                return Err("d_u must be >= d_l".into());
            }
        }
        if let Some(layout) = &self.layout {
            if layout.threads() != self.threads() {
                return Err(format!(
                    "layout has {} threads but config needs {}",
                    layout.threads(),
                    self.threads()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        let c = PipelineConfig::small();
        assert_eq!(c.threads(), 2);
        assert_eq!(c.stages(), 2);
        c.validate(Dims3::cube(34)).unwrap();
    }

    #[test]
    fn paper_node_config() {
        let m = Machine::nehalem_ep();
        let c = PipelineConfig::for_machine(&m, 2, 2);
        assert_eq!(c.team_size, 4);
        assert_eq!(c.n_teams, 2);
        assert_eq!(c.threads(), 8);
        assert_eq!(c.stages(), 16);
        c.validate(Dims3::cube(600)).unwrap();
    }

    #[test]
    fn too_deep_pipeline_rejected() {
        let mut c = PipelineConfig::small();
        c.updates_per_thread = 64;
        let err = c.validate(Dims3::cube(34)).unwrap_err();
        assert!(err.contains("pipeline depth"), "{err}");
    }

    #[test]
    fn degenerate_grid_rejected() {
        let c = PipelineConfig::small();
        assert!(c.validate(Dims3::new(2, 10, 10)).is_err());
    }

    #[test]
    fn bad_sync_rejected() {
        let mut c = PipelineConfig::small();
        c.sync = SyncMode::Relaxed {
            dl: 2,
            du: 1,
            dt: 0,
        };
        assert!(c.validate(Dims3::cube(34)).unwrap_err().contains("d_u"));
    }

    #[test]
    fn mismatched_layout_rejected() {
        let mut c = PipelineConfig::small();
        c.layout = Some(TeamLayout::new(&Machine::flat(8), 4, 2));
        assert!(c.validate(Dims3::cube(34)).unwrap_err().contains("layout"));
    }

    #[test]
    fn n_teams_clamped_to_cache_groups() {
        let m = Machine::nehalem_ep();
        let c = PipelineConfig::for_machine(&m, 99, 1);
        assert_eq!(c.n_teams, 2);
    }
}
