//! Sample statistics and process clocks.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least `min(10, (n-1)/2)` samples
/// above it: its value, its percentile rank in `[0, 100]` and the number
/// of samples above it.
///
/// With 21 or more samples this is the 11th largest: the highest
/// percentile backed by ten samples beyond it. Shorter runs cannot back
/// any percentile with ten samples, so the requirement shrinks to half
/// the other samples, which makes it the upper median.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = ((n - 1) / 2).min(10);
    let rank = n - 1 - beyond;
    let pct = if n == 1 {
        50.0
    } else {
        100.0 * rank as f64 / (n - 1) as f64
    };
    (v[rank], pct, beyond)
}

/// Latency of one step of [`core_ghz`]'s chain, in core cycles: a 64-bit
/// `imul` (3) and a dependent `add` (1) on x86-64 cores since Nehalem
/// and Zen.
const CHAIN_STEP_CYCLES: f64 = 4.0;

/// The host core clock right now, in GHz: a chain of dependent
/// multiply-adds, timed against the OS clock, whose latency does not
/// depend on caches or memory. The fastest of three short samples, so
/// that an interrupt landing in one does not count. Off x86-64 the
/// chain is compiled Rust and the value is only proportional to the
/// clock.
///
/// The host this benchmark targets is a shared VM without a PMU whose
/// clock follows its neighbours' load, so this is how a run converts
/// wall time into core cycles.
pub fn core_ghz() -> f64 {
    const STEPS: u64 = 250_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let mut x = std::hint::black_box(1u64);
        let k = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..STEPS {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: register-only arithmetic: no memory, stack or flags
            // the compiler relies on are touched.
            unsafe {
                std::arch::asm!(
                    "imul {x}, {k}",
                    "add {x}, 1",
                    x = inout(reg) x,
                    k = in(reg) k,
                    options(pure, nomem, nostack),
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                x = std::hint::black_box(x.wrapping_mul(k).wrapping_add(1));
            }
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_secs_f64());
    }
    STEPS as f64 * CHAIN_STEP_CYCLES / best * 1e-9
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User plus system CPU time this process has consumed, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which is all this benchmark targets), and
    // the clock id is a valid constant, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_when_it_can() {
        let xs: Vec<f64> = (0..30).map(f64::from).collect();
        let (v, pct, beyond) = tail(&xs);
        assert_eq!(beyond, 10);
        assert_eq!(v, 19.0); // 20..=29 lie beyond it
        assert!((pct - 100.0 * 19.0 / 29.0).abs() < 1e-12);
        // Three passes: one beyond it, the median.
        assert_eq!(tail(&[5.0, 1.0, 3.0]).0, 3.0);
        assert_eq!(tail(&[4.0, 1.0, 3.0, 2.0]).0, 3.0);
        assert_eq!(tail(&[2.0]).0, 2.0);
    }

    #[test]
    fn process_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > t0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn core_clock_is_a_plausible_frequency() {
        let ghz = core_ghz();
        assert!((0.3..10.0).contains(&ghz), "core clock {ghz} GHz");
    }
}
