//! Per-layer replay: a cell's own traffic pushed through each layer
//! crate's public API, with host time taken around every call batch.
//!
//! `System` makes these calls internally and exposes no timing, so this
//! replay is the benchmark's only outside view of host time per layer. It
//! builds the cell's workload from the same seed and drives the same
//! components `System` wires up (GPU TLBs, IOMMU, data caches, DRAM
//! controller, event queue) with the Table I configuration. It is not a
//! timing-exact simulation: wavefronts advance in lock-step rounds (one
//! instruction each), a round's walks drain before its data phase, and
//! PTE reads are submitted when the walker starts rather than one PWC
//! latency later. The front end (instructions, coalesced pages and lines)
//! is exact, because every wavefront's instruction stream is independent
//! of timing; what queues and caches see downstream is representative
//! of, not identical to, the real run. Modelled caches start empty, as
//! they do in the real run.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ptw_core::iommu::{CompletedTranslation, Iommu, MemRead, TranslationOutcome};
use ptw_gpu::{coalesce_split, InstructionStream};
use ptw_mem::cache::{Cache, Mshr, MshrOutcome};
use ptw_mem::controller::{MemCompletion, MemReqId, MemSource, MemoryController};
use ptw_pagetable::PageWalkCache;
use ptw_sim::engine::EventQueue;
use ptw_tlb::Tlb;
use ptw_types::addr::{LineAddr, PhysFrame, VirtAddr, VirtPage};
use ptw_types::ids::{InstrId, InstrIdAllocator, WalkerId, WavefrontId};
use ptw_types::time::Cycle;
use ptw_workloads::build_with_large_pages;

use crate::cells::Cell;

/// The timed call sites of the replay, one per reported `*_ns` metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Workload::next_instruction_into`, per call.
    Instr,
    /// `coalesce_split`, per instruction.
    Coalesce,
    /// GPU L1/L2 TLB `lookup`/`lookup_sized` (fills included), per lookup.
    TlbLookup,
    /// `Iommu::translate_sized`, per call.
    Translate,
    /// `Iommu::start_walkers_into`, per walk started.
    Start,
    /// `Iommu::memory_done_into`, per call.
    Step,
    /// `PageTable::walk_path`, per walked page.
    WalkPath,
    /// `PageWalkCache::estimate_sized`, per probe.
    PwcProbe,
    /// `MemoryController::submit`, per request.
    Submit,
    /// `MemoryController::advance_into`, per completed request.
    Advance,
    /// Data-cache `access`/`fill` and the L2 MSHR (with
    /// `AddressSpace::translate_data`), per cache access.
    CacheAccess,
    /// `EventQueue::schedule` plus `pop_bucket_into`, per event.
    Event,
}

impl Op {
    pub const ALL: [Op; 12] = [
        Op::Instr,
        Op::Coalesce,
        Op::TlbLookup,
        Op::Translate,
        Op::Start,
        Op::Step,
        Op::WalkPath,
        Op::PwcProbe,
        Op::Submit,
        Op::Advance,
        Op::CacheAccess,
        Op::Event,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Instr => "workloads.instr_ns",
            Op::Coalesce => "gpu.coalesce_ns",
            Op::TlbLookup => "tlb.lookup_ns",
            Op::Translate => "core.translate_ns",
            Op::Start => "core.start_ns",
            Op::Step => "core.step_ns",
            Op::WalkPath => "pagetable.walk_path_ns",
            Op::PwcProbe => "pagetable.pwc_probe_ns",
            Op::Submit => "mem.submit_ns",
            Op::Advance => "mem.advance_ns",
            Op::CacheAccess => "cache.access_ns",
            Op::Event => "engine.event_ns",
        }
    }
}

/// A span timestamp in ticks: the time-stamp counter on x86-64, where
/// reading the OS clock costs several times more and the replay takes
/// millions of spans; nanoseconds since first use elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; every x86-64 CPU has it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Ticks per nanosecond, measured once against the OS clock over 50 ms.
pub fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let (t0, k0) = (Instant::now(), ticks());
        while t0.elapsed() < Duration::from_millis(50) {
            std::hint::spin_loop();
        }
        let (ns, k) = (t0.elapsed().as_nanos() as f64, ticks());
        (k - k0) as f64 / ns
    })
}

/// Host ticks and operation counts per [`Op`], plus the number of timing
/// spans taken.
#[derive(Clone, Debug, Default)]
pub struct LayerClock {
    ticks: [u64; Op::ALL.len()],
    ops: [u64; Op::ALL.len()],
    spans: [u64; Op::ALL.len()],
}

impl LayerClock {
    /// Closes a span opened at tick `t0` that performed `ops` operations.
    #[inline]
    fn add(&mut self, op: Op, t0: u64, ops: u64) {
        let i = op as usize;
        self.ticks[i] += ticks().wrapping_sub(t0);
        self.ops[i] += ops;
        self.spans[i] += 1;
    }

    pub fn ops(&self, op: Op) -> u64 {
        self.ops[op as usize]
    }

    pub fn spans(&self) -> u64 {
        self.spans.iter().sum()
    }

    /// Nanoseconds per operation, with the calibrated cost of an empty
    /// span (`span_ns`) removed from every span taken.
    pub fn ns_per_op(&self, op: Op, span_ns: f64) -> f64 {
        let i = op as usize;
        if self.ops[i] == 0 {
            return 0.0;
        }
        let ns = self.ticks[i] as f64 / ticks_per_ns();
        (ns - span_ns * self.spans[i] as f64).max(0.0) / self.ops[i] as f64
    }

    pub fn absorb(&mut self, other: &LayerClock) {
        for i in 0..Op::ALL.len() {
            self.ticks[i] += other.ticks[i];
            self.ops[i] += other.ops[i];
            self.spans[i] += other.spans[i];
        }
    }
}

/// Volumes of one replayed cell. The front-end ones (all but the two
/// arrival counts) equal the real run's, since instruction streams do not
/// depend on timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Wavefronts; each makes one last, empty `next_instruction_into` call.
    pub wavefronts: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Coalesced pages: the real run's GPU L1 TLB lookups.
    pub pages: u64,
    /// Coalesced lines: the real run's L1 data-cache accesses.
    pub lines: u64,
    /// IOMMU arrivals (`Iommu::translate_sized` calls).
    pub arrivals: u64,
    /// Arrivals that found every walker busy: the ones on which a
    /// score-based policy probes the PWC and rescores.
    pub busy_arrivals: u64,
}

/// Cost of one empty span (open plus [`LayerClock::add`]), in ns, as the
/// median of several calibration batches.
pub fn calibrate_span_ns() -> f64 {
    const N: u32 = 200_000;
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let mut clock = LayerClock::default();
            let t = ticks();
            for _ in 0..N {
                let s = ticks();
                clock.add(Op::Instr, std::hint::black_box(s), 0);
            }
            std::hint::black_box(&clock);
            ticks().wrapping_sub(t) as f64 / ticks_per_ns() / f64::from(N)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Who waits for an IOMMU translation: the instruction's slot in the
/// current round.
type Token = u32;

/// Replays one cell, accumulating into `clock`. Returns the cell's
/// volumes.
pub fn replay_cell(cell: Cell, seed: u64, clock: &mut LayerClock) -> ReplayStats {
    let cfg = cell.config();
    let mut workload = build_with_large_pages(
        cell.benchmark,
        cell.scale,
        seed,
        cfg.topology.large_page_permille,
    );
    let g = cfg.gpu;
    let cus = g.cus;
    let n_wf = workload.wavefronts() as usize;

    let mut l1_tlbs: Vec<Tlb> = (0..cus).map(|_| Tlb::new(cfg.gpu_l1_tlb)).collect();
    let mut l2_tlb = Tlb::new(cfg.gpu_l2_tlb);
    let mut iommu: Iommu<Token> = Iommu::new(cfg.iommu);
    let mut probe_pwc = PageWalkCache::new(cfg.iommu.pwc);
    let mut l1_caches: Vec<Cache> = (0..cus).map(|_| Cache::new(cfg.l1_cache)).collect();
    let mut l2_cache = Cache::new(cfg.l2_cache);
    let mut mshr: Mshr<usize> = Mshr::new();
    let mut mem = MemoryController::new(cfg.dram.clone(), cfg.mem_policy);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut ids = InstrIdAllocator::new();

    // Per-slot buffers of the round: slot i is active wavefront i.
    let mut active: Vec<u32> = (0..n_wf as u32).collect();
    let mut addrs: Vec<Vec<VirtAddr>> = vec![Vec::new(); n_wf];
    let mut pages: Vec<Vec<VirtPage>> = vec![Vec::new(); n_wf];
    let mut lines: Vec<Vec<VirtAddr>> = vec![Vec::new(); n_wf];
    let mut instrs: Vec<InstrId> = Vec::with_capacity(n_wf);
    let mut issued: Vec<bool> = vec![false; n_wf];
    let mut misses: Vec<(u32, VirtPage)> = Vec::new();
    let mut hits: Vec<(u32, VirtPage, PhysFrame, bool)> = Vec::new();
    let mut reads: Vec<MemRead> = Vec::new();
    let mut walk_reads: Vec<(MemReqId, WalkerId)> = Vec::new();
    let mut completions: Vec<MemCompletion> = Vec::new();
    let mut done: Vec<CompletedTranslation<Token>> = Vec::new();
    let mut data_lines: Vec<LineAddr> = Vec::new();
    let mut waiters: Vec<usize> = Vec::new();
    let mut event_times: Vec<Cycle> = Vec::new();
    let mut batch: Vec<u32> = Vec::new();

    let mut now = Cycle::ZERO;
    let walkers = cfg.iommu.walkers;
    let mut stats = ReplayStats {
        wavefronts: n_wf as u64,
        ..ReplayStats::default()
    };

    while !active.is_empty() {
        // Workloads: one instruction per active wavefront.
        let t = ticks();
        for (slot, &wf) in active.iter().enumerate() {
            issued[slot] = workload.next_instruction_into(WavefrontId(wf), &mut addrs[slot]);
        }
        clock.add(Op::Instr, t, active.len() as u64);
        let mut keep = 0;
        for (slot, &ok) in issued[..active.len()].iter().enumerate() {
            if ok {
                active.swap(keep, slot);
                addrs.swap(keep, slot);
                keep += 1;
            }
        }
        active.truncate(keep);
        if active.is_empty() {
            break;
        }
        let round = active.len();
        instrs.clear();
        instrs.extend((0..round).map(|_| ids.next_id()));
        stats.instructions += round as u64;

        // GPU front end: coalescing.
        let t = ticks();
        for slot in 0..round {
            coalesce_split(&addrs[slot], &mut pages[slot], &mut lines[slot]);
        }
        clock.add(Op::Coalesce, t, round as u64);

        // GPU TLBs: per-CU L1, then the shared L2.
        let t = ticks();
        let mut lookups = 0u64;
        for slot in 0..round {
            let cu = active[slot] as usize % cus;
            for &page in &pages[slot] {
                lookups += 1;
                if l1_tlbs[cu].lookup(page).is_some() {
                    continue;
                }
                lookups += 1;
                match l2_tlb.lookup_sized(page) {
                    Some((frame, large)) => fill_tlb(&mut l1_tlbs[cu], page, frame, large),
                    None => misses.push((slot as u32, page)),
                }
            }
        }
        clock.add(Op::TlbLookup, t, lookups);
        for slot in 0..round {
            stats.pages += pages[slot].len() as u64;
            stats.lines += lines[slot].len() as u64;
            event_times.push(now + g.compute_delay);
            event_times.extend((0..pages[slot].len() as u64).map(|k| now + g.l1_tlb_cycles + k));
        }

        // Page table and PWC, probed on every IOMMU arrival.
        let table = workload.space().table();
        let t = ticks();
        for &(_, page) in &misses {
            std::hint::black_box(probe_pwc.estimate_sized(page, table.page_size_of(page)));
        }
        clock.add(Op::PwcProbe, t, misses.len() as u64);
        let t = ticks();
        for &(_, page) in &misses {
            std::hint::black_box(table.walk_path(page));
        }
        clock.add(Op::WalkPath, t, misses.len() as u64);

        // IOMMU arrivals, each followed by a walker kick as in `System`:
        // the first arrivals of a round find idle walkers and start walks
        // at once; later ones find every walker busy, so score-based
        // policies probe the PWC and rescore on arrival.
        for &(slot, page) in &misses {
            let size = table.page_size_of(page);
            if iommu.busy_walkers() == walkers {
                stats.busy_arrivals += 1;
            }
            let t = ticks();
            let outcome = iommu.translate_sized(page, size, instrs[slot as usize], slot, now);
            clock.add(Op::Translate, t, 1);
            match outcome {
                TranslationOutcome::Hit { frame, large, .. } => {
                    hits.push((slot, page, frame, large))
                }
                TranslationOutcome::WalkPending if iommu.can_start() => {
                    let before = reads.len();
                    let t = ticks();
                    iommu.start_walkers_into(table, now, &mut reads);
                    clock.add(Op::Start, t, (reads.len() - before) as u64);
                }
                TranslationOutcome::WalkPending => {}
            }
        }
        stats.arrivals += misses.len() as u64;
        if !hits.is_empty() {
            let t = ticks();
            for &(slot, page, frame, large) in &hits {
                let cu = active[slot as usize] as usize % cus;
                fill_tlb(&mut l1_tlbs[cu], page, frame, large);
                fill_tlb(&mut l2_tlb, page, frame, large);
            }
            clock.add(Op::TlbLookup, t, 0);
            hits.clear();
        }
        event_times.extend(misses.iter().map(|_| now + g.iommu_hop_cycles));
        misses.clear();

        // Walks and their PTE reads, overlapping the previous round's data
        // lines, until DRAM is empty: a wavefront's next instruction waits
        // for its data, so no more than two rounds of traffic overlap.
        loop {
            if iommu.can_start() {
                let before = reads.len();
                let t = ticks();
                iommu.start_walkers_into(table, now, &mut reads);
                clock.add(Op::Start, t, (reads.len() - before) as u64);
            }
            submit_walk_reads(&mut mem, &mut reads, &mut walk_reads, now, clock);
            if mem.outstanding() == 0 {
                assert!(walk_reads.is_empty(), "PTE read lost by DRAM");
                assert_eq!(
                    iommu.pending(),
                    0,
                    "walks pending with no PTE read in flight"
                );
                break;
            }
            drain_once(
                &mut mem,
                &mut now,
                &mut completions,
                clock,
                &mut event_times,
            );
            if completions.iter().any(|c| c.source == MemSource::PageWalk) {
                let t = ticks();
                let mut steps = 0u64;
                for c in &completions {
                    if c.source != MemSource::PageWalk {
                        continue;
                    }
                    let pos = walk_reads
                        .iter()
                        .position(|&(id, _)| id == c.id)
                        .expect("PTE read completion without a walker");
                    let (_, walker) = walk_reads.swap_remove(pos);
                    steps += 1;
                    if let Some(next) = iommu.memory_done_into(walker, now, &mut done) {
                        reads.push(next);
                    }
                }
                clock.add(Op::Step, t, steps);
                submit_walk_reads(&mut mem, &mut reads, &mut walk_reads, now, clock);
            }
            if !done.is_empty() {
                for ct in &done {
                    probe_pwc_complete(&mut probe_pwc, table, ct.page);
                }
                let t = ticks();
                for ct in &done {
                    let cu = active[ct.waiter as usize] as usize % cus;
                    fill_tlb(&mut l1_tlbs[cu], ct.page, ct.frame, ct.large);
                    fill_tlb(&mut l2_tlb, ct.page, ct.frame, ct.large);
                }
                clock.add(Op::TlbLookup, t, 0);
                done.clear();
            }
            data_done(
                &completions,
                &mut mshr,
                &mut l1_caches,
                &mut l2_cache,
                &mut waiters,
                clock,
            );
        }

        // Data phase: caches, MSHR, DRAM submits.
        let space = workload.space();
        let t = ticks();
        let mut accesses = 0u64;
        for slot in 0..round {
            let cu = active[slot] as usize % cus;
            for &va in &lines[slot] {
                let line = space.translate_data(va).line();
                accesses += 1;
                if l1_caches[cu].access(line) {
                    continue;
                }
                accesses += 1;
                if l2_cache.access(line) {
                    l1_caches[cu].fill(line);
                } else if mshr.register(line, cu) == MshrOutcome::Allocated {
                    data_lines.push(line);
                }
            }
        }
        clock.add(Op::CacheAccess, t, accesses);
        event_times
            .extend((0..round).map(|slot| now + g.l1_cache_cycles + lines[slot].len() as u64));
        let t = ticks();
        for &line in &data_lines {
            mem.submit(line, MemSource::Data, now);
        }
        clock.add(Op::Submit, t, data_lines.len() as u64);
        data_lines.clear();

        // Event queue: this round's events, scheduled and drained.
        let t = ticks();
        let floor = queue.now();
        for (k, &at) in event_times.iter().enumerate() {
            queue.schedule(at.max(floor), k as u32);
        }
        while queue.pop_bucket_into(&mut batch).is_some() {
            std::hint::black_box(&batch);
            batch.clear();
        }
        clock.add(Op::Event, t, event_times.len() as u64);
        event_times.clear();
    }

    // Data still in DRAM after the last round.
    while mem.outstanding() > 0 {
        drain_once(
            &mut mem,
            &mut now,
            &mut completions,
            clock,
            &mut event_times,
        );
        data_done(
            &completions,
            &mut mshr,
            &mut l1_caches,
            &mut l2_cache,
            &mut waiters,
            clock,
        );
    }
    stats
}

/// Submits the PTE reads in `reads` (draining it), remembering which
/// walker waits for each.
fn submit_walk_reads(
    mem: &mut MemoryController,
    reads: &mut Vec<MemRead>,
    walk_reads: &mut Vec<(MemReqId, WalkerId)>,
    now: Cycle,
    clock: &mut LayerClock,
) {
    if reads.is_empty() {
        return;
    }
    let t = ticks();
    for r in reads.iter() {
        walk_reads.push((
            mem.submit(r.addr.line(), MemSource::PageWalk, now),
            r.walker,
        ));
    }
    clock.add(Op::Submit, t, reads.len() as u64);
    reads.clear();
}

/// Advances DRAM to its next completion time, collecting completions.
fn drain_once(
    mem: &mut MemoryController,
    now: &mut Cycle,
    completions: &mut Vec<MemCompletion>,
    clock: &mut LayerClock,
    event_times: &mut Vec<Cycle>,
) {
    completions.clear();
    let next = mem
        .next_event_time()
        .expect("outstanding DRAM requests have a next event");
    *now = (*now).max(next);
    let t = ticks();
    mem.advance_into(*now, completions);
    clock.add(Op::Advance, t, completions.len() as u64);
    event_times.extend(completions.iter().map(|c| c.at));
}

/// Data-line completions: MSHR release and cache fills.
fn data_done(
    completions: &[MemCompletion],
    mshr: &mut Mshr<usize>,
    l1_caches: &mut [Cache],
    l2_cache: &mut Cache,
    waiters: &mut Vec<usize>,
    clock: &mut LayerClock,
) {
    if !completions.iter().any(|c| c.source == MemSource::Data) {
        return;
    }
    let t = ticks();
    for c in completions {
        if c.source != MemSource::Data {
            continue;
        }
        mshr.complete_into(c.line, waiters);
        l2_cache.fill(c.line);
        for &cu in waiters.iter() {
            l1_caches[cu].fill(c.line);
        }
        waiters.clear();
    }
    clock.add(Op::CacheAccess, t, 0);
}

fn fill_tlb(tlb: &mut Tlb, page: VirtPage, frame: PhysFrame, large: bool) {
    if large {
        tlb.fill_large(page, PhysFrame::new(frame.raw() - page.large_offset()));
    } else {
        tlb.fill(page, frame);
    }
}

/// Warms the standalone probe PWC with a finished walk, as the IOMMU's own
/// PWC is warmed, so later probes see realistic hit rates. Untimed.
fn probe_pwc_complete(pwc: &mut PageWalkCache, table: &ptw_pagetable::PageTable, page: VirtPage) {
    if let Some(plan) = pwc.begin_walk(table, page) {
        pwc.complete_walk(&plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{run_cell, Workload};
    use ptw_core::sched::SchedulerKind;
    use ptw_workloads::{BenchmarkId, Scale};

    #[test]
    fn small_scale_replay_reaches_every_layer_with_exact_front_end() {
        for w in Workload::ALL {
            for mut cell in w.cells() {
                cell.scale = Scale::Small;
                let mut clock = LayerClock::default();
                let stats = replay_cell(cell, 3, &mut clock);
                for op in Op::ALL {
                    assert!(clock.ops(op) > 0, "{}: {} ran no op", cell.key(), op.name());
                }
                let real = run_cell(cell, 3).expect("small cell runs");
                assert_eq!(
                    stats.instructions,
                    real.result.metrics.instructions,
                    "{}",
                    cell.key()
                );
                assert_eq!(clock.ops(Op::Instr), stats.instructions + stats.wavefronts);
                assert_eq!(clock.ops(Op::Translate), stats.arrivals);
            }
        }
    }

    #[test]
    fn simt_aware_replay_scores_arrivals_that_find_every_walker_busy() {
        for benchmark in BenchmarkId::IRREGULAR {
            let cell = Cell {
                benchmark,
                policy: SchedulerKind::SimtAware,
                scale: Scale::Small,
            };
            let stats = replay_cell(cell, 3, &mut LayerClock::default());
            assert!(
                stats.busy_arrivals > 0,
                "{}: all {} arrivals found an idle walker",
                cell.key(),
                stats.arrivals
            );
        }
    }

    #[test]
    fn replay_depends_only_on_the_seed() {
        let cell = Cell {
            benchmark: BenchmarkId::Xsb,
            policy: SchedulerKind::SimtAware,
            scale: Scale::Small,
        };
        let (mut a, mut b, mut c) = Default::default();
        let fa = replay_cell(cell, 11, &mut a);
        let fb = replay_cell(cell, 11, &mut b);
        replay_cell(cell, 12, &mut c);
        assert_eq!((fa.pages, fa.lines), (fb.pages, fb.lines));
        for op in Op::ALL {
            assert_eq!(a.ops(op), b.ops(op), "{}", op.name());
        }
        assert_ne!(
            (a.ops(Op::Translate), a.ops(Op::Submit)),
            (c.ops(Op::Translate), c.ops(Op::Submit))
        );
    }

    #[test]
    fn span_calibration_is_positive_and_small() {
        let ns = calibrate_span_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "{ns}");
    }
}
