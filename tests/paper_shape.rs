//! The direction of the paper's Figure 8, asserted at small scale.
//!
//! The golden-metrics tests pin every simulated bit, so a legitimate
//! re-bless could still move a result the wrong way unnoticed. This test
//! is the scientific tripwire: it checks the claims themselves, on the
//! same cells `figures fig8 --scale small` reports (seed 0xC0FFEE).
//!
//! * SIMT-aware beats FCFS by at least 5% on MVT, ATX, NW, BIC and GEV
//!   (measured 1.12, 1.12, 1.79, 1.12, 1.12).
//! * The six regular benchmarks stay within 2% of FCFS (all measure 1.00).
//! * XSB, which the paper classes as irregular, measures 0.98 here, not a
//!   gain: its random gathers leave no reuse for SIMT-aware scheduling to
//!   protect (EXPERIMENTS.md, Figure 8). It gets its own bound, so that a
//!   change which turned it into a real loss would still be caught.

use ptw_core::sched::SchedulerKind;
use ptw_sim::runner::Lab;
use ptw_workloads::{BenchmarkId, Scale};

fn speedup(lab: &mut Lab, id: BenchmarkId) -> f64 {
    lab.try_speedup(id, SchedulerKind::SimtAware, SchedulerKind::Fcfs)
        .unwrap_or_else(|| panic!("{id}: a run failed"))
}

#[test]
fn simt_aware_over_fcfs_has_figure_8_shape() {
    let mut lab = Lab::new(Scale::Small, 0xC0FFEE);
    for id in BenchmarkId::IRREGULAR {
        let s = speedup(&mut lab, id);
        if id == BenchmarkId::Xsb {
            assert!(
                (0.95..=1.05).contains(&s),
                "XSB: {s:.3}x left the near-neutral band [0.95, 1.05]"
            );
        } else {
            assert!(s >= 1.05, "{id}: SIMT-aware gains only {s:.3}x over FCFS");
        }
    }
    for id in BenchmarkId::REGULAR {
        let s = speedup(&mut lab, id);
        assert!(
            (0.98..=1.02).contains(&s),
            "{id}: regular app moved to {s:.3}x under SIMT-aware"
        );
    }
}
