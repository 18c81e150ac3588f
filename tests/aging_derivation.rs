//! Randomized check of the candidate index's derived aging counts.
//!
//! [`CandidateIndex`] keeps no per-entry bypass counter: it tracks only
//! the oldest eligible entry's count plus per-handle carries (see the
//! `index` module docs). This test drives a [`WalkBuffer`] and its index
//! through the IOMMU's own mutation sequence — arrivals, picks, walk
//! starts that block a page, completions that drain a page — and keeps a
//! brute-force counter per entry with the paper's semantics: +1 for every
//! pick of a younger entry while this one is eligible. After every step,
//! every eligible entry's derived count must equal its brute-force count,
//! and the index's starved pick must be the oldest entry the brute force
//! calls starved.
//!
//! The window is small (6) so the buffer outgrows it, and the threshold is
//! 40 so starvation fires constantly. One pick in five ignores starvation,
//! as FCFS and Random do, so counts also run past the threshold.

use std::collections::HashMap;

use ptw_core::request::WalkRequest;
use ptw_core::{CandidateIndex, WalkBuffer};
use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;

const WINDOW: usize = 6;
const THRESHOLD: u64 = 40;
const PAGES: u64 = 128;

struct Model {
    buf: WalkBuffer<()>,
    index: CandidateIndex,
    /// Pages with a walk in flight (the IOMMU's inflight set).
    inflight: Vec<u64>,
    /// Brute-force bypass count per live handle.
    bypassed: HashMap<u32, u64>,
    next_seq: u64,
}

impl Model {
    fn eligible(&self, h: u32) -> bool {
        !self.inflight.contains(&self.buf.get(h).page.raw())
    }

    /// Eligible in-window handles, oldest first.
    fn candidates(&self) -> Vec<u32> {
        self.buf
            .iter()
            .take(WINDOW)
            .map(|(h, _)| h)
            .filter(|&h| self.eligible(h))
            .collect()
    }

    fn push(&mut self, page: u64, instr: u32) {
        let h = self.buf.push(WalkRequest {
            page: VirtPage::new(page),
            instr: InstrId::new(instr),
            seq: self.next_seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score: 1 + instr,
            bypassed: 0,
            waiter: (),
        });
        self.next_seq += 1;
        let blocked = self.inflight.contains(&page);
        self.index.on_push(&self.buf, h, blocked);
        self.bypassed.insert(h, 0);
    }

    fn remove(&mut self, h: u32) {
        self.index.pre_remove(&self.buf, h);
        self.buf.remove(h);
        self.index.finish_remove(&self.buf);
        self.bypassed.remove(&h);
    }

    /// Picks `chosen` and starts its walk, as `Iommu::start_walkers` does.
    fn pick(&mut self, chosen: u32) {
        let seq = self.buf.get(chosen).seq;
        let older: Vec<u32> = self
            .buf
            .iter()
            .take_while(|(_, r)| r.seq < seq)
            .map(|(h, _)| h)
            .filter(|&h| self.eligible(h))
            .collect();
        for h in older {
            *self.bypassed.get_mut(&h).unwrap() += 1;
        }
        self.index.on_pick(&self.buf, chosen);
        let page = self.buf.get(chosen).page.raw();
        self.remove(chosen);
        self.inflight.push(page);
        self.index.block_page(&self.buf, page);
    }

    /// Completes the walk of `page`, draining its same-page entries.
    fn complete(&mut self, page: u64) {
        self.inflight.retain(|&p| p != page);
        while let Some(h) = self.index.page_first(page) {
            self.remove(h);
        }
    }

    fn check(&self, step: usize) {
        for ((h, r), derived) in self.buf.iter().zip(self.index.bypass_counts(&self.buf)) {
            if self.eligible(h) {
                assert_eq!(
                    derived, self.bypassed[&h],
                    "step {step}: derived bypass count of seq {}",
                    r.seq
                );
            }
        }
        let starved = self
            .candidates()
            .into_iter()
            .find(|h| self.bypassed[h] >= THRESHOLD);
        assert_eq!(
            self.index.starved_head(),
            starved,
            "step {step}: starved pick"
        );
    }
}

#[test]
fn derived_bypass_counts_match_per_entry_counters() {
    let mut starved_picks = 0;
    let mut past_threshold = 0;
    for seed in [0xA61E_0001u64, 0xA61E_0002, 0xA61E_0003] {
        let mut rng = SplitMix64::new(seed);
        let mut m = Model {
            buf: WalkBuffer::new(),
            index: CandidateIndex::new(WINDOW, THRESHOLD),
            inflight: Vec::new(),
            bypassed: HashMap::new(),
            next_seq: 0,
        };
        for step in 0..10_000 {
            match rng.next_below(10) {
                // Arrivals outpace service so the buffer stays deep.
                0..=4 if m.buf.len() < 48 => {
                    for _ in 0..=rng.next_below(3) {
                        m.push(rng.next_below(PAGES), rng.next_below(5) as u32);
                    }
                }
                5..=7 if m.inflight.len() < 8 => {
                    let cands = m.candidates();
                    if cands.is_empty() {
                        continue;
                    }
                    let honors = rng.next_below(5) != 0;
                    let chosen = match m.index.starved_head() {
                        Some(h) if honors => {
                            starved_picks += 1;
                            h
                        }
                        // Pass over the oldest candidate whenever possible.
                        _ if cands.len() > 1 => cands[1 + rng.index(cands.len() - 1)],
                        _ => cands[0],
                    };
                    m.pick(chosen);
                }
                _ => {
                    if !m.inflight.is_empty() {
                        let page = m.inflight[rng.index(m.inflight.len())];
                        m.complete(page);
                    }
                }
            }
            m.check(step);
            past_threshold += m.bypassed.values().filter(|&&b| b > THRESHOLD).count();
            if step % 61 == 0 {
                let inflight: Vec<(u64, usize)> = m.inflight.iter().map(|&p| (p, 0)).collect();
                m.index.validate(&m.buf, &inflight);
            }
        }
    }
    // Coverage floor: both aging regimes must actually occur.
    assert!(starved_picks > 150, "only {starved_picks} starved picks");
    assert!(past_threshold > 0, "no count ever ran past the threshold");
}
