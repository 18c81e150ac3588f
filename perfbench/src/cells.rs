//! The benchmark's workloads: fixed sets of `(benchmark, policy)` cells on
//! the Table I baseline system, and the code that runs one cell.

use std::time::Instant;

use ptw_core::sched::SchedulerKind;
use ptw_sim::{RunResult, System, SystemConfig};
use ptw_workloads::{build_with_large_pages, BenchmarkId, Scale};

/// One simulation: a Table II benchmark under one walk-scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub benchmark: BenchmarkId,
    pub policy: SchedulerKind,
    pub scale: Scale,
}

impl Cell {
    /// Stable key naming the cell in reports and in `expected.tsv`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.benchmark.abbrev(),
            policy_key(self.policy),
            self.scale.label()
        )
    }

    /// The Table I baseline configured for this cell's policy.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::paper_baseline().with_scheduler(self.policy)
    }
}

fn policy_key(policy: SchedulerKind) -> &'static str {
    match policy {
        SchedulerKind::Fcfs => "fcfs",
        SchedulerKind::SimtAware => "simt",
        _ => "other",
    }
}

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The six irregular benchmarks under SIMT-aware, medium scale.
    IrregularSimt,
    /// The same six cells under FCFS: the control for scheduler changes.
    IrregularFcfs,
    /// The six regular benchmarks under SIMT-aware, paper scale.
    RegularPaper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IrregularSimt,
        Workload::IrregularFcfs,
        Workload::RegularPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IrregularSimt => "irregular-simt",
            Workload::IrregularFcfs => "irregular-fcfs",
            Workload::RegularPaper => "regular-paper",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's cells, in the order every pass runs them.
    pub fn cells(self) -> Vec<Cell> {
        let (set, policy, scale) = match self {
            Workload::IrregularSimt => (
                BenchmarkId::IRREGULAR,
                SchedulerKind::SimtAware,
                Scale::Medium,
            ),
            Workload::IrregularFcfs => (BenchmarkId::IRREGULAR, SchedulerKind::Fcfs, Scale::Medium),
            Workload::RegularPaper => {
                (BenchmarkId::REGULAR, SchedulerKind::SimtAware, Scale::Paper)
            }
        };
        set.iter()
            .map(|&benchmark| Cell {
                benchmark,
                policy,
                scale,
            })
            .collect()
    }
}

/// Host timings and result of one cell run.
#[derive(Debug)]
pub struct CellRun {
    pub result: RunResult,
    /// `build_with_large_pages` alone.
    pub build_s: f64,
    /// `build_with_large_pages` plus `System::try_new`.
    pub setup_s: f64,
    /// `System::try_run`.
    pub run_s: f64,
    /// `Workload::expected_instructions` of the built workload.
    pub expected_instructions: u64,
}

/// A cell's system, built but not yet run, and its set-up timings.
struct SetUp {
    system: System,
    build_s: f64,
    setup_s: f64,
    expected_instructions: u64,
}

/// `build_with_large_pages` plus `System::try_new`, timed.
fn set_up(cell: Cell, seed: u64) -> Result<SetUp, String> {
    let cfg = cell.config();
    let t = Instant::now();
    let workload = build_with_large_pages(
        cell.benchmark,
        cell.scale,
        seed,
        cfg.topology.large_page_permille,
    );
    let build_s = t.elapsed().as_secs_f64();
    let expected_instructions = workload.expected_instructions();
    let system = System::try_new(cfg, workload).map_err(|e| format!("config rejected: {e}"))?;
    Ok(SetUp {
        system,
        build_s,
        setup_s: t.elapsed().as_secs_f64(),
        expected_instructions,
    })
}

/// Set-up alone, timed as [`run_cell`] times it; the system is dropped
/// unrun.
pub fn setup_only(cell: Cell, seed: u64) -> Result<f64, String> {
    Ok(set_up(cell, seed)?.setup_s)
}

/// Builds and runs one cell exactly as `ptw_sim::run_benchmark` does,
/// timing set-up and simulation apart.
pub fn run_cell(cell: Cell, seed: u64) -> Result<CellRun, String> {
    let set = set_up(cell, seed)?;
    let t = Instant::now();
    let result = set.system.try_run().map_err(|e| format!("run failed: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    Ok(CellRun {
        result,
        build_s: set.build_s,
        setup_s: set.setup_s,
        run_s,
        expected_instructions: set.expected_instructions,
    })
}
