//! # babelstream — the memory-bandwidth yardstick (paper Table 1)
//!
//! BabelStream (Deakin et al.) measures attainable memory bandwidth with
//! five kernels over three large arrays: Copy (`c = a`), Mul (`b = s·c`),
//! Add (`c = a + b`), Triad (`a = b + s·c`), and Dot (`sum a·b`), plus
//! Nstream (`a += b + s·c`). The paper uses the Triad figure on each
//! platform as the denominator of "achieved architectural efficiency".
//!
//! This implementation runs the kernels through the simulated SYCL
//! runtime: functionally (validated element values) at whatever size the
//! caller picks, and with simulated timing from the platform models.

use parkit::global_pool;
use sycl_sim::{Kernel, KernelFootprint, Precision, Session};

/// Default array length (2^25 doubles/array, the BabelStream default).
pub const DEFAULT_N: usize = 1 << 25;

/// BabelStream guidance: arrays must total at least 4× the last-level
/// cache, or the benchmark measures the cache instead of DRAM. Returns
/// the per-array length honouring that rule for a platform.
pub fn table1_len(platform: &sycl_sim::Platform) -> usize {
    let min_total = 4.0 * platform.llc().size_bytes;
    let per_array = (min_total / 3.0 / 8.0).ceil() as usize;
    per_array.max(DEFAULT_N)
}

/// The BabelStream kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    Copy,
    Mul,
    Add,
    Triad,
    Dot,
    Nstream,
}

impl StreamKernel {
    /// All kernels in BabelStream order.
    pub fn all() -> [StreamKernel; 6] {
        [
            StreamKernel::Copy,
            StreamKernel::Mul,
            StreamKernel::Add,
            StreamKernel::Triad,
            StreamKernel::Dot,
            StreamKernel::Nstream,
        ]
    }

    /// Kernel label as BabelStream prints it.
    pub fn label(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Mul => "Mul",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
            StreamKernel::Dot => "Dot",
            StreamKernel::Nstream => "Nstream",
        }
    }

    /// Arrays moved per element (reads + writes), BabelStream accounting.
    pub fn arrays_moved(self) -> f64 {
        match self {
            StreamKernel::Copy | StreamKernel::Mul | StreamKernel::Dot => 2.0,
            StreamKernel::Add | StreamKernel::Triad | StreamKernel::Nstream => 3.0,
        }
    }

    /// FLOPs per element.
    pub fn flops(self) -> f64 {
        match self {
            StreamKernel::Copy => 0.0,
            StreamKernel::Mul => 1.0,
            StreamKernel::Add => 1.0,
            StreamKernel::Triad => 2.0,
            StreamKernel::Dot => 2.0,
            StreamKernel::Nstream => 3.0,
        }
    }
}

/// The classic scalar (BabelStream uses 0.4).
pub const SCALAR: f64 = 0.4;

/// A BabelStream instance bound to a session.
pub struct BabelStream {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl BabelStream {
    /// Allocate and initialise the three arrays (a=0.1, b=0.2, c=0.0, as
    /// in the reference implementation).
    pub fn new(n: usize) -> Self {
        BabelStream {
            n,
            a: vec![0.1; n],
            b: vec![0.2; n],
            c: vec![0.0; n],
        }
    }

    /// A pricing-only instance: footprints use `n` but no memory is
    /// allocated. Pair with a dry-run session.
    pub fn dry(n: usize) -> Self {
        BabelStream {
            n,
            a: Vec::new(),
            b: Vec::new(),
            c: Vec::new(),
        }
    }

    /// Array length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when zero-length (degenerate).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn kernel(&self, k: StreamKernel) -> Kernel {
        let bytes = k.arrays_moved() * 8.0 * self.n as f64;
        let mut fp = KernelFootprint::streaming(
            k.label(),
            self.n as u64,
            bytes,
            k.flops() * self.n as f64,
            Precision::F64,
        );
        if k == StreamKernel::Dot {
            fp.reductions = 1;
        }
        Kernel::new(fp)
    }

    /// Run one kernel once; returns the Dot result (0.0 otherwise, and
    /// on a dry session, which prices the launch and runs no body).
    pub fn run(&mut self, session: &Session, k: StreamKernel) -> f64 {
        let kernel = self.kernel(k);
        let n = self.n;
        let (a, b, c) = (&mut self.a, &mut self.b, &mut self.c);
        session.launch(&kernel, || {
            if !session.executes() {
                return 0.0;
            }
            match k {
                StreamKernel::Copy => par_map(c, |i| a[i]),
                StreamKernel::Mul => par_map(b, |i| SCALAR * c[i]),
                StreamKernel::Add => par_map(c, |i| a[i] + b[i]),
                StreamKernel::Triad => par_map(a, |i| b[i] + SCALAR * c[i]),
                StreamKernel::Nstream => {
                    global_pool().for_each_chunk(a, 1 << 14, |start, chunk| {
                        for (i, x) in chunk.iter_mut().enumerate() {
                            *x += b[start + i] + SCALAR * c[start + i];
                        }
                    });
                }
                StreamKernel::Dot => {
                    return global_pool().reduce(
                        n,
                        1 << 14,
                        0.0,
                        |x, y| x + y,
                        |r| r.map(|i| a[i] * b[i]).sum::<f64>(),
                    );
                }
            }
            0.0
        })
    }

    /// Run the full suite `reps` times (BabelStream default is 100) and
    /// return per-kernel best-case bandwidth in bytes/s plus the final
    /// Dot value for validation.
    pub fn benchmark(&mut self, session: &Session, reps: usize) -> (Vec<(StreamKernel, f64)>, f64) {
        let mut dot = 0.0;
        let mut out = Vec::new();
        for k in StreamKernel::all() {
            session.reset();
            for _ in 0..reps.max(1) {
                dot = self.run(session, k);
            }
            let bytes = k.arrays_moved() * 8.0 * self.n as f64 * reps.max(1) as f64;
            out.push((k, bytes / session.elapsed()));
        }
        (out, dot)
    }

    /// The Triad bandwidth (Table 1's figure) in bytes/s.
    pub fn triad_bandwidth(session: &Session, n: usize, reps: usize) -> f64 {
        let mut bs = if session.executes() {
            BabelStream::new(n)
        } else {
            BabelStream::dry(n)
        };
        session.reset();
        for _ in 0..reps.max(1) {
            bs.run(session, StreamKernel::Triad);
        }
        StreamKernel::Triad.arrays_moved() * 8.0 * n as f64 * reps.max(1) as f64 / session.elapsed()
    }
}

/// Parallel elementwise map into `dst`.
fn par_map(dst: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    global_pool().for_each_chunk(dst, 1 << 14, |start, chunk| {
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = f(start + i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn session(p: PlatformId, tc: Toolchain) -> Session {
        Session::create(SessionConfig::new(p, tc).app("babelstream")).unwrap()
    }

    #[test]
    fn kernels_compute_correct_values() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let n = 10_000;
        let mut bs = BabelStream::new(n);
        bs.run(&s, StreamKernel::Copy); // c = a = 0.1
        assert_eq!(bs.c[17], 0.1);
        bs.run(&s, StreamKernel::Mul); // b = 0.4*c = 0.04
        assert!((bs.b[17] - 0.04).abs() < 1e-15);
        bs.run(&s, StreamKernel::Add); // c = a + b = 0.14
        assert!((bs.c[17] - 0.14).abs() < 1e-15);
        bs.run(&s, StreamKernel::Triad); // a = b + 0.4*c = 0.096
        assert!((bs.a[17] - 0.096).abs() < 1e-15);
        let dot = bs.run(&s, StreamKernel::Dot); // sum a*b
        assert!((dot - 0.096 * 0.04 * n as f64).abs() < 1e-9);
        bs.run(&s, StreamKernel::Nstream); // a += b + 0.4c = 0.096+0.096
        assert!((bs.a[17] - 0.192).abs() < 1e-15);
    }

    #[test]
    fn triad_bandwidth_reproduces_table1_within_10pct() {
        // Table 1 (GB/s): MI250X 1290, A100 1310, Max 803, Xeon 296,
        // Genoa-X 561, Altra 167 — measured with native toolchains.
        let cases = [
            (PlatformId::Mi250x, Toolchain::NativeHip, 1290.0),
            (PlatformId::A100, Toolchain::NativeCuda, 1310.0),
            (PlatformId::Max1100, Toolchain::Dpcpp, 803.0),
            (PlatformId::Xeon8360Y, Toolchain::MpiOpenMp, 296.0),
            (PlatformId::GenoaX, Toolchain::MpiOpenMp, 561.0),
            (PlatformId::Altra, Toolchain::OpenMp, 167.0),
        ];
        for (p, tc, expect) in cases {
            let s =
                Session::create(SessionConfig::new(p, tc).app("babelstream").dry_run()).unwrap();
            let n = table1_len(s.platform());
            let bw = BabelStream::triad_bandwidth(&s, n, 10) / 1e9;
            assert!(
                (bw - expect).abs() / expect < 0.10,
                "{p:?}: {bw:.0} GB/s vs Table 1 {expect:.0}"
            );
        }
    }

    #[test]
    fn benchmark_returns_all_six_kernels() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let mut bs = BabelStream::new(4096);
        let (rows, _) = bs.benchmark(&s, 3);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|(_, bw)| *bw > 0.0));
    }

    #[test]
    fn accounting_metadata() {
        assert_eq!(StreamKernel::Triad.arrays_moved(), 3.0);
        assert_eq!(StreamKernel::Dot.arrays_moved(), 2.0);
        assert_eq!(StreamKernel::Copy.flops(), 0.0);
        assert_eq!(StreamKernel::all().len(), 6);
    }
}
