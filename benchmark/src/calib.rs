//! Machine-speed calibration.
//!
//! The sandbox is a small VM on a shared host. For minutes at a time it runs
//! this kind of work 10–40 % slower — a neighbour on the sibling hardware
//! thread, or the host taking the virtual CPU away — and every wall-clock
//! timing of a run moves with it: ten runs of one binary on one seed spread by
//! more than the largest bound the driver accepts. No statistic taken inside a
//! run removes that, because the whole run is slow.
//!
//! So every run measures the machine as well as the program. A fixed
//! **reference kernel** — code of the benchmark's own, which calls nothing of
//! the crates under measurement and, once built, allocates nothing — is run
//! in short bursts between the ops of the workload, for a fixed share of the
//! time. The mean burst time says how fast the machine was during the phase,
//! and every end-to-end timing is reported **at the nominal machine speed**:
//! multiplied by `NOMINAL_BURST_S / mean burst`. A change to the program
//! cannot move the factor, since the kernel does not run the program; a slow
//! minute of the host moves the raw timing and the factor together.
//!
//! What the kernel is made of was chosen by what follows the machine. A serial
//! multiply chain and dependent reads across 32 MB kept their speed while the
//! engine's ops lost a third of theirs; hashing into a cache-resident map,
//! sorting, formatting and copying inside the caches — busy pipelines, as the
//! engine's are — slowed down in step with the ops.

use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// The mean burst time on the otherwise idle sandbox the bounds in
/// `BENCHMARK.json` were set on. Only a scale: it makes calibrated timings
/// read like wall-clock timings on a quiet machine.
pub const NOMINAL_BURST_S: f64 = 0.20e-3;

/// Share of a measured phase spent in the reference kernel.
const SHARE: f64 = 0.06;

/// Bursts run before and after one repetition of set-up or restart.
pub const BURSTS_AROUND: usize = 100;

/// A burst counts for at most this many median bursts (~10 ms) in the mean: a
/// time slice given to someone else in the middle of a burst is part of the
/// machine's speed and must count in full, or the mean is blind to a stolen
/// CPU; a stall of a second is an accident of this run.
const CAP: f64 = 50.0;

const MAP_OPS: u64 = 4_000;
const SORTED: usize = 4_096;
const COPIED: usize = 256 << 10;
const FORMATTED: u64 = 1_000;

/// One client's reference kernel and the burst times it has taken.
pub struct Calibrator {
    x: u64,
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
    buf: Vec<u8>,
    text: String,
    /// Seconds per burst.
    pub bursts: Vec<f64>,
    /// Seconds spent in bursts so far.
    pub spent: f64,
}

impl Calibrator {
    /// Allocates everything the kernel will ever use (~0.7 MB), and none of
    /// it through a burst, so the kernel's speed does not depend on what the
    /// program has done to the heap.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            x: 88_172_645_463_325_252,
            map: HashMap::with_capacity(2 * MAP_OPS as usize),
            keys: vec![0; SORTED],
            buf: vec![1; 2 * COPIED],
            text: String::with_capacity(32 * FORMATTED as usize),
            bursts: Vec::with_capacity(1 << 16),
            spent: 0.0,
        };
        c.run(8);
        c.bursts.clear();
        c.spent = 0.0;
        c
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    pub fn burst(&mut self) {
        let t0 = Instant::now();
        self.map.clear();
        for _ in 0..MAP_OPS {
            let k = self.next();
            *self.map.entry(k % (MAP_OPS * 3 / 2)).or_insert(0) += k;
        }
        for i in 0..SORTED {
            self.keys[i] = self.next();
        }
        self.keys.sort_unstable();
        self.text.clear();
        for i in 0..FORMATTED {
            let _ = write!(self.text, "k{}", self.keys[i as usize] ^ i);
        }
        for _ in 0..4 {
            self.buf.copy_within(..COPIED, COPIED);
            self.buf[0] = self.buf[2 * COPIED - 1].wrapping_add(1);
        }
        self.x ^= self.map.len() as u64 ^ self.text.len() as u64 ^ u64::from(self.buf[0]);
        let secs = t0.elapsed().as_secs_f64();
        self.bursts.push(secs);
        self.spent += secs;
    }

    pub fn run(&mut self, bursts: usize) {
        for _ in 0..bursts {
            self.burst();
        }
    }

    /// Runs bursts until they make up [`SHARE`] of `elapsed` seconds of a
    /// phase (bursts included), so that the bursts are spread over the phase
    /// as its time is, whatever the length of its ops.
    pub fn keep_up(&mut self, elapsed: f64) {
        while self.spent < SHARE * elapsed {
            self.burst();
        }
    }
}

/// `NOMINAL_BURST_S / mean burst` (each burst capped at [`CAP`] medians):
/// what a timing is multiplied by, and a rate divided by, to be reported at
/// the nominal machine speed. Above one on a machine faster than nominal.
pub fn speed(bursts: &[f64]) -> f64 {
    let cap = CAP * crate::stats::median(bursts).expect("a phase runs at least one burst");
    let mean = bursts.iter().map(|b| b.min(cap)).sum::<f64>() / bursts.len() as f64;
    NOMINAL_BURST_S / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_up_spends_its_share_and_no_more() {
        let mut c = Calibrator::new();
        assert!(c.bursts.is_empty(), "warm-up bursts are not kept");
        c.keep_up(0.5);
        assert!(c.spent >= SHARE * 0.5 && c.spent < SHARE * 0.5 + 0.05);
        let n = c.bursts.len();
        c.keep_up(0.5);
        assert_eq!(c.bursts.len(), n, "already at its share");
    }

    #[test]
    fn speed_is_nominal_over_the_capped_mean() {
        let n = NOMINAL_BURST_S;
        assert_eq!(speed(&[2.0 * n; 3]), 0.5);
        // One stall among a hundred bursts counts as `CAP` bursts, not 1000.
        let mut bursts = vec![n; 99];
        bursts.push(1000.0 * n);
        let expected = 100.0 / (99.0 + CAP);
        assert!((speed(&bursts) - expected).abs() < 1e-12);
    }
}
