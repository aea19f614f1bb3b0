//! The host's pace: how fast this host runs right now, read off a fixed
//! reference kernel that belongs to the benchmark, not to the simulator.
//!
//! The host the benchmark was sized on is a shared VM. Its speed drifts
//! by tens of percent over minutes as other guests load the machine:
//! the same binary read 2.8k and 4.9k cells/s on `paper_sweep` on
//! different days, and ten runs of the same code spread by 0.22–0.44
//! (quartile distance over median) when every gated timing was a raw
//! wall. That is wider than any bound a gated metric may have. So every
//! timed round is bracketed by reference samples, and the gated timings
//! are divided by the host's slowdown during the round: the geometric
//! mean of the samples just before and just after it, relative to
//! [`NOMINAL_S`]. A change to the simulator moves the round and not the
//! reference, so it shows in full; drift moves both and largely cancels.
//!
//! The kernel's CPU parts are a hash table rebuilt with small
//! allocations (the allocator and hashing path every session exercises)
//! and a pointer chase through an L2-sized buffer. Of the candidates
//! logged beside the workloads (a floating-point chain, pointer chases
//! sized for L2, L3 and DRAM, Triad on one and two threads, page
//! faults), that pair kept the flattest ratio to a dry-run sweep: paired
//! round by round over 20–40 s windows, it cut the sweep's quartile
//! spread from 0.08–0.12 to 0.015–0.05. Functional runs add a Triad
//! part (see [`Pacer::cpu_and_memory`]). `README.md` has the numbers.

use crate::{inputs, stats, stopwatch};
use std::collections::HashMap;
use std::hint::black_box;

/// Wall of one run of the CPU parts of the reference kernel on the
/// sizing host when it was quiet; a paced timing reads in seconds of
/// that host.
pub const NOMINAL_S: f64 = 0.0056;

/// Kernel runs per reference sample.
const SAMPLES: usize = 3;

/// Distinct keys and inserts of the hashing part.
const KEYS: u64 = 4096;
const INSERTS: u64 = 20_000;

/// Bytes and steps of the pointer chase (within a 4 MiB L2).
const CHASE_BYTES: usize = 512 << 10;
const CHASE_STEPS: usize = 500_000;

/// Bytes of each array of the memory part: its Triad streams three,
/// 48 MiB, more than the shared L3 keeps for one guest.
const TRIAD_BYTES: usize = 16 << 20;

/// Wall of one Triad pass of the memory part on the quiet sizing host.
const NOMINAL_TRIAD_S: f64 = 0.0032;

/// A timing and the host's slowdown while it was taken.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    pub wall: f64,
    /// The reference kernel's wall over its quiet wall: above 1 when the
    /// host ran slow.
    pub slowdown: f64,
}

impl Paced {
    /// The wall in seconds of the quiet sizing host.
    pub fn paced(&self) -> f64 {
        self.wall / self.slowdown
    }

    /// One timing made of several, each with its own slowdown.
    pub fn sum(parts: &[Paced]) -> Paced {
        let wall: f64 = parts.iter().map(|p| p.wall).sum();
        let paced: f64 = parts.iter().map(Paced::paced).sum();
        Paced {
            wall,
            slowdown: wall / paced,
        }
    }
}

/// Times work between reference samples.
pub struct Pacer {
    /// Successor table of a single cycle through the chase buffer.
    chase: Vec<u32>,
    /// Arrays `a`, `b`, `c` of the memory part's Triad `a = b + 0.4·c`,
    /// when the paced work streams DRAM.
    triad: Option<[Vec<f64>; 3]>,
    /// Slowdown measured at the end of the last timing.
    last: f64,
}

impl Pacer {
    /// A pacer for work that stays in the CPU and its caches: dry runs.
    pub fn cpu() -> Pacer {
        Pacer::new(None)
    }

    /// A pacer for work that also streams DRAM: functional runs. In
    /// five-pass runs simulated from a log of `live_unstructured` scheme
    /// runs, the CPU parts alone cut the quartile spread only from 0.17
    /// to 0.15; with a one-thread Triad as a third part, to 0.07. The
    /// bandwidth other guests leave free moves these runs, and only a
    /// part that streams memory sees it. The sweep tracked worse with one.
    pub fn cpu_and_memory() -> Pacer {
        let n = TRIAD_BYTES / 8;
        Pacer::new(Some([vec![0.0; n], vec![1.0; n], vec![2.0; n]]))
    }

    fn new(triad: Option<[Vec<f64>; 3]>) -> Pacer {
        let n = CHASE_BYTES / 4;
        let order = inputs::permutation(n, 0x7061_6365); // "pace"
        let mut chase = vec![0u32; n];
        for i in 0..n {
            chase[order[i]] = order[(i + 1) % n] as u32;
        }
        let mut p = Pacer {
            chase,
            triad,
            last: 1.0,
        };
        p.sample(); // warm-up: page in the buffers and the code
        p.last = p.sample();
        p
    }

    /// Bytes of the buffers the pacer keeps resident, which
    /// `peak_rss_mb` leaves out.
    pub fn resident_bytes(&self) -> u64 {
        let triad = self.triad.as_ref().map_or(0, |_| 3 * TRIAD_BYTES);
        (std::mem::size_of_val(self.chase.as_slice()) + triad) as u64
    }

    /// The host's slowdown: the median of [`SAMPLES`] runs of the
    /// reference kernel, so one stalled run does not pace a whole round.
    fn sample(&mut self) -> f64 {
        let runs: Vec<f64> = (0..SAMPLES).map(|_| self.run_kernel()).collect();
        stats::median(&runs)
    }

    /// One run of the reference kernel: the slowdown it reads.
    fn run_kernel(&mut self) -> f64 {
        let (_, hash_s) = stopwatch(|| black_box(hash_part()));
        let (_, chase_s) = stopwatch(|| black_box(self.chase_part()));
        let cpu = (hash_s * chase_s).sqrt() / NOMINAL_S;
        match &mut self.triad {
            None => cpu,
            Some([a, b, c]) => {
                let (_, triad_s) = stopwatch(|| triad(a, b, c));
                (cpu * triad_s / NOMINAL_TRIAD_S).sqrt()
            }
        }
    }

    /// Time `f`, with the host's slowdown around it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Paced) {
        let before = self.last;
        let (r, wall) = stopwatch(f);
        self.last = self.sample();
        let slowdown = (before * self.last).sqrt();
        (r, Paced { wall, slowdown })
    }

    fn chase_part(&self) -> u32 {
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.chase[i as usize];
        }
        i
    }
}

/// BabelStream's Triad on one thread.
fn triad(a: &mut [f64], b: &[f64], c: &[f64]) {
    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
        *x = y + 0.4 * z;
    }
    black_box(a);
}

/// Build a hash table of short vectors and keys formatted as strings.
fn hash_part() -> u64 {
    let mut table: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut acc = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        let v = table.entry(key).or_insert_with(|| Vec::with_capacity(4));
        v.push(((x >> 11) as f64).sqrt().ln_1p());
        if v.len() > 8 {
            v.clear();
        }
        acc = acc.wrapping_add(v.len() as u64);
        acc = acc.wrapping_add(format!("{key}:{i}").len() as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_paced_sum_keeps_each_parts_slowdown() {
        let parts = [
            Paced {
                wall: 2.0,
                slowdown: 2.0,
            },
            Paced {
                wall: 1.0,
                slowdown: 0.5,
            },
        ];
        let s = Paced::sum(&parts);
        assert_eq!(s.wall, 3.0);
        assert!((s.paced() - 3.0).abs() < 1e-12, "1 s + 2 s of quiet host");
    }

    #[test]
    fn each_pacer_brackets_each_timing() {
        for (mut p, resident) in [
            (Pacer::cpu(), CHASE_BYTES),
            (Pacer::cpu_and_memory(), CHASE_BYTES + 3 * TRIAD_BYTES),
        ] {
            assert_eq!(p.resident_bytes(), resident as u64);
            let (r, t) = p.time(|| 7);
            assert_eq!(r, 7);
            assert!(t.slowdown.is_finite() && t.slowdown > 0.0, "{t:?}");
            assert!(t.paced() >= 0.0);
        }
    }
}
