//! Output checks: exact per-cell fingerprints on the development seed and
//! run invariants on every seed.

use ptw_sim::RunResult;

use crate::cells::{Cell, CellRun};

/// The development seed, the one `RunSpec::new` and the golden metrics use.
pub const GOLDEN_SEED: u64 = 0xC0FFEE;

/// A second seed never used while the benchmark was tuned. Every claim made
/// with this benchmark must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E;

/// Expected per-cell results on [`GOLDEN_SEED`], one line per cell:
/// `<cell key> <sim cycles> <fingerprint>`. Regenerate with
/// `perfbench record` (never to make a failing check pass).
const EXPECTED: &str = include_str!("../expected.tsv");

/// One expected line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub key: String,
    pub cycles: u64,
    pub fingerprint: u64,
}

/// Parses `expected.tsv` (blank lines and `#` comments allowed).
pub fn parse_expected(text: &str) -> Result<Vec<Expected>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [key, cycles, fp] = f[..] else {
                return Err(format!("malformed expected line: {l}"));
            };
            Ok(Expected {
                key: key.to_owned(),
                cycles: cycles
                    .parse()
                    .map_err(|e| format!("bad cycles in `{l}`: {e}"))?,
                fingerprint: u64::from_str_radix(fp, 16)
                    .map_err(|e| format!("bad fingerprint in `{l}`: {e}"))?,
            })
        })
        .collect()
}

/// The expected table compiled into the benchmark.
pub fn expected_table() -> Vec<Expected> {
    parse_expected(EXPECTED).expect("expected.tsv is well-formed")
}

/// FNV-1a over the little-endian words of every simulated `RunResult`
/// field.
///
/// `events` is left out on purpose: it counts the simulator's own work
/// (fusing events changes it and nothing else), so a pure simulator
/// speed-up may move it. It is still checked for identity across passes.
pub fn fingerprint(r: &RunResult) -> u64 {
    let m = &r.metrics;
    let io = &r.iommu;
    let mem = &r.mem;
    let mut words: Vec<u64> = vec![
        m.cycles,
        m.instructions,
        m.cu_stall_cycles,
        m.walk_requests,
        m.walks_performed,
        m.work_hist.overflow(),
        m.interleaved_fraction.to_bits(),
        m.mean_first_latency.to_bits(),
        m.mean_last_latency.to_bits(),
        m.mean_latency_gap.to_bits(),
        m.mean_epoch_wavefronts.to_bits(),
        m.l2_tlb_accesses,
        m.instructions_with_walks,
        m.multi_walk_instructions,
        io.walk_requests,
        io.walks_performed,
        io.merged_completions,
        io.total_walk_accesses,
        io.peak_pending as u64,
        io.total_walk_latency,
        io.completed_requests,
        io.large_walks_performed,
        io.large_completed_requests,
        io.large_total_walk_latency,
        r.iommu_imbalance.to_bits(),
        r.gpu_tlb_large_hits,
        mem.data_requests,
        mem.walk_requests,
        mem.row_hits,
        mem.row_conflicts,
        mem.total_latency,
        mem.completed,
        mem.peak_queue_depth,
        mem.peak_busy_banks,
        mem.queue_depth_cycles,
        mem.busy_bank_cycles,
        mem.observed_cycles,
        r.gpu_l1_tlb_hit_rate.to_bits(),
        r.gpu_l2_tlb_hit_rate.to_bits(),
        r.l1_cache_hit_rate.to_bits(),
        r.l2_cache_hit_rate.to_bits(),
        r.finish_spread.to_bits(),
    ];
    words.extend_from_slice(m.work_hist.counts());
    words.extend_from_slice(&r.per_iommu_walks);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Invariants that hold for any seed. Returns the first violation.
pub fn invariants(run: &CellRun) -> Result<(), String> {
    let r = &run.result;
    if r.iommu.completed_requests != r.iommu.walk_requests {
        return Err(format!(
            "iommu.completed_requests {} != iommu.walk_requests {}",
            r.iommu.completed_requests, r.iommu.walk_requests
        ));
    }
    let submitted = r.mem.data_requests + r.mem.walk_requests;
    if r.mem.completed != submitted {
        return Err(format!(
            "mem.completed {} != data_requests + walk_requests {submitted}",
            r.mem.completed
        ));
    }
    if r.metrics.instructions != run.expected_instructions {
        return Err(format!(
            "instructions {} != expected_instructions {}",
            r.metrics.instructions, run.expected_instructions
        ));
    }
    if r.metrics.cycles == 0 {
        return Err("zero simulated cycles".to_owned());
    }
    Ok(())
}

/// Compares one cell's result on the development seed with its expected
/// line.
pub fn against_expected(cell: Cell, r: &RunResult, table: &[Expected]) -> Result<(), String> {
    let key = cell.key();
    let Some(e) = table.iter().find(|e| e.key == key) else {
        return Err(format!("no expected value recorded for {key}"));
    };
    let fp = fingerprint(r);
    if r.metrics.cycles != e.cycles || fp != e.fingerprint {
        return Err(format!(
            "{key}: got cycles {} fingerprint {fp:016x}, expected cycles {} fingerprint {:016x}",
            r.metrics.cycles, e.cycles, e.fingerprint
        ));
    }
    Ok(())
}

/// Tracks each cell's fingerprint (with `events`) across the passes of one
/// run; every pass must reproduce the first exactly.
#[derive(Debug, Default)]
pub struct PassIdentity {
    first: Vec<(String, u64, u64)>,
}

impl PassIdentity {
    pub fn observe(&mut self, cell: Cell, r: &RunResult) -> Result<(), String> {
        let key = cell.key();
        let fp = fingerprint(r);
        match self.first.iter().find(|(k, _, _)| *k == key) {
            None => {
                self.first.push((key, fp, r.events));
                Ok(())
            }
            Some(&(_, fp0, ev0)) if fp0 == fp && ev0 == r.events => Ok(()),
            Some(&(_, fp0, ev0)) => Err(format!(
                "{key}: pass result differs from the first pass \
                 (fingerprint {fp:016x} vs {fp0:016x}, events {} vs {ev0})",
                r.events
            )),
        }
    }
}

/// Checks one finished cell: invariants always, the expected table on the
/// development seed, and identity with earlier passes. The error names the
/// cell.
pub fn check_cell(
    cell: Cell,
    seed: u64,
    run: &CellRun,
    table: &[Expected],
    identity: &mut PassIdentity,
) -> Result<(), String> {
    invariants(run).map_err(|e| format!("{}: {e}", cell.key()))?;
    if seed == GOLDEN_SEED {
        against_expected(cell, &run.result, table)?;
    }
    identity.observe(cell, &run.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{run_cell, Workload};
    use ptw_core::sched::SchedulerKind;
    use ptw_workloads::{BenchmarkId, Scale};

    fn small_cell() -> Cell {
        Cell {
            benchmark: BenchmarkId::Mvt,
            policy: SchedulerKind::SimtAware,
            scale: Scale::Small,
        }
    }

    #[test]
    fn expected_table_covers_every_cell() {
        let table = expected_table();
        for w in Workload::ALL {
            for cell in w.cells() {
                assert!(
                    table.iter().any(|e| e.key == cell.key()),
                    "{} has no expected line",
                    cell.key()
                );
            }
        }
    }

    #[test]
    fn a_perturbed_expected_value_is_caught_and_names_the_cell() {
        let cell = small_cell();
        let run = run_cell(cell, GOLDEN_SEED).expect("small cell runs");
        invariants(&run).expect("invariants hold");
        let exact = Expected {
            key: cell.key(),
            cycles: run.result.metrics.cycles,
            fingerprint: fingerprint(&run.result),
        };
        against_expected(cell, &run.result, std::slice::from_ref(&exact))
            .expect("exact expected value passes");

        let off_by_one_cycle = Expected {
            cycles: exact.cycles + 1,
            ..exact.clone()
        };
        let err = against_expected(cell, &run.result, &[off_by_one_cycle]).unwrap_err();
        assert!(err.contains(&cell.key()), "{err}");

        let flipped_bit = Expected {
            fingerprint: exact.fingerprint ^ 1,
            ..exact.clone()
        };
        assert!(against_expected(cell, &run.result, &[flipped_bit]).is_err());

        // A perturbed result (one field changed) is caught as well.
        let mut perturbed = run.result.clone();
        perturbed.mem.row_hits += 1;
        assert!(against_expected(cell, &perturbed, &[exact]).is_err());

        // ... and so is a run that breaks an invariant.
        let mut broken = run_cell(cell, GOLDEN_SEED).expect("small cell runs");
        broken.result.mem.completed -= 1;
        let err = invariants(&broken).unwrap_err();
        assert!(err.contains("mem.completed"), "{err}");
    }

    #[test]
    fn pass_identity_flags_a_changed_pass() {
        let cell = small_cell();
        let run = run_cell(cell, 7).expect("small cell runs");
        let mut id = PassIdentity::default();
        id.observe(cell, &run.result).expect("first pass");
        id.observe(cell, &run.result).expect("identical pass");
        let mut other = run.result.clone();
        other.events += 1;
        let err = id.observe(cell, &other).unwrap_err();
        assert!(err.contains(&cell.key()), "{err}");
    }

    #[test]
    fn expected_lines_parse_and_reject_garbage() {
        let t = parse_expected("# c\nXSB/simt/medium 12 ff\n\n").unwrap();
        assert_eq!(t[0].cycles, 12);
        assert_eq!(t[0].fingerprint, 0xff);
        assert!(parse_expected("XSB/simt/medium 12").is_err());
        assert!(parse_expected("XSB/simt/medium x ff").is_err());
    }
}
