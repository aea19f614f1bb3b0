//! The host's memory roof: BabelStream's Triad (`a = b + s·c`) in plain
//! Rust over arrays that together span 4× the last-level cache, on all
//! `nproc` threads and on one. `execute.roof_frac` divides the simulator's
//! computed bandwidth by the first, measured in the same run.

use crate::host;

/// Cache size assumed when the host does not report one.
const FALLBACK_LLC: u64 = 128 << 20;

/// Timed Triad passes per thread count; the best one is the roof, as
/// BabelStream reports it.
const PASSES: usize = 5;

pub struct Roof {
    pub llc_bytes: u64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    pub triad_gbps: f64,
    pub triad_1t_gbps: f64,
}

pub fn probe() -> Roof {
    let llc_bytes = host::llc_bytes().unwrap_or(FALLBACK_LLC);
    let len = (4 * llc_bytes).div_ceil(3 * 8) as usize;
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let threads = host::nproc();
    // Initialise in parallel so each chunk's pages are first touched by
    // the thread that streams them.
    chunked(&mut a, &mut b, &mut c, threads, |a, b, c| {
        a.fill(0.0);
        b.fill(1.0);
        c.fill(2.0);
    });
    let triad_gbps = best_gbps(&mut a, &mut b, &mut c, threads);
    let triad_1t_gbps = best_gbps(&mut a, &mut b, &mut c, 1);
    assert!(
        a.iter().step_by(4099).all(|&x| x == 1.0 + 0.4 * 2.0),
        "triad result is wrong"
    );
    Roof {
        llc_bytes,
        array_bytes: (len * 8) as u64,
        triad_gbps,
        triad_1t_gbps,
    }
}

fn best_gbps(a: &mut [f64], b: &mut [f64], c: &mut [f64], threads: usize) -> f64 {
    let bytes = 3.0 * std::mem::size_of_val(a) as f64;
    (0..PASSES)
        .map(|_| {
            let t = std::time::Instant::now();
            chunked(a, b, c, threads, |a, b, c| {
                for ((x, &y), &z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                    *x = y + 0.4 * z;
                }
            });
            std::hint::black_box(&a[0]);
            bytes / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Run `f` over matching chunks of the three arrays on `threads` threads.
fn chunked(
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    threads: usize,
    f: impl Fn(&mut [f64], &mut [f64], &mut [f64]) + Sync,
) {
    let chunk = a.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            let f = &f;
            s.spawn(move || f(a, b, c));
        }
    });
}
