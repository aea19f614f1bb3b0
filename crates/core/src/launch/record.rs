//! Layer 1 — **record**: turn a kernel into a [`LaunchNode`] without
//! taking any lock. A node is the kernel snapshot plus its precomputed
//! pricing fingerprint; both the eager path and [`LaunchGraph`](crate::LaunchGraph)
//! recording go through here.

use crate::kernel::Kernel;
use std::hash::{Hash, Hasher};

/// The hasher behind the pricing-cache keys: one rotate, xor and
/// multiply per word (FxHash's step). It resists no adversary and need
/// not: the cache verifies every hit field by field, so two inputs that
/// share a key cost a re-price, never a wrong price. The ledger digests
/// are pinned and keep `DefaultHasher`.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const K: u64 = 0xf135_7aea_2e62_a9c5;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunks")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the high bits best mixed; rotate them down,
    /// where a hash table picks its bucket.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Hash every pricing-relevant field of a kernel (f64s by bit pattern).
/// The session variant/toolchain/platform are fixed per session, so they
/// are not part of the key.
pub(crate) fn fingerprint(kernel: &Kernel) -> u64 {
    use machine_model::AccessProfile;
    let mut h = KeyHasher::default();
    let fp = &kernel.footprint;
    fp.name.hash(&mut h);
    fp.items.hash(&mut h);
    fp.effective_bytes.to_bits().hash(&mut h);
    fp.flops.to_bits().hash(&mut h);
    fp.transcendentals.to_bits().hash(&mut h);
    (fp.precision as u8).hash(&mut h);
    match &fp.access {
        AccessProfile::Streamed => 0u8.hash(&mut h),
        AccessProfile::Stencil(s) => {
            1u8.hash(&mut h);
            s.domain.hash(&mut h);
            s.radius.hash(&mut h);
            s.dats_read.hash(&mut h);
            s.dats_written.hash(&mut h);
        }
        AccessProfile::Indirect(i) => {
            2u8.hash(&mut h);
            i.from_size.hash(&mut h);
            i.to_size.hash(&mut h);
            i.arity.to_bits().hash(&mut h);
            i.locality.to_bits().hash(&mut h);
            i.indirect_bytes_per_item.to_bits().hash(&mut h);
        }
    }
    match &fp.atomics {
        None => 0u8.hash(&mut h),
        Some(a) => {
            1u8.hash(&mut h);
            a.updates.hash(&mut h);
            (a.kind == machine_model::AtomicKind::NativeFp).hash(&mut h);
        }
    }
    fp.reductions.hash(&mut h);
    let t = &kernel.traits;
    [
        t.stride_one_inner,
        t.indirect_writes,
        t.complex_body,
        t.hard_on_neon,
    ]
    .hash(&mut h);
    kernel.nd_shape.hash(&mut h);
    h.finish()
}

/// How a recorded launch accesses one dataset — the declared mode, not
/// an observation. Mirrors the DSL argument kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

/// One declared per-dat access of a recorded launch. `dat` is the
/// shadow-registry id (0 = anonymous: no shadow was current when the
/// dataset was created, so the access cannot be tracked across launches).
#[derive(Debug, Clone, Copy)]
pub struct DatAccess {
    pub dat: u32,
    pub mode: AccessMode,
    /// Declared stencil radius of the reads; writes are own-point.
    pub radius: [usize; 3],
    /// Bytes per element, for modelled-traffic estimates.
    pub elem_bytes: f64,
}

impl DatAccess {
    /// Does this access read the dat (plain or as part of an RMW)?
    pub fn reads(&self) -> bool {
        matches!(self.mode, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Does this access write the dat?
    pub fn writes(&self) -> bool {
        matches!(self.mode, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Does this access write a named dat (id ≠ 0)? Only such a write
    /// changes residency: anonymous dats share id 0 and are never
    /// tracked.
    pub(crate) fn writes_named(&self) -> bool {
        self.dat != 0 && self.writes()
    }

    /// Does this access read beyond the own point?
    pub fn stencil(&self) -> bool {
        self.radius != [0; 3]
    }
}

/// Declarative metadata captured alongside a recorded launch. It never
/// enters the pricing fingerprint or the ledger — it exists purely for
/// static analysis over the recorded graph (`graphlint`).
///
/// `opaque` marks launches whose access list is *not* exhaustive (op2
/// indirect loops with anonymous args, or plain [`GraphBuilder::launch`](crate::GraphBuilder::launch)
/// calls that declared nothing). Opaque launches suppress dat-level
/// hazard lints and break fusion chains — the analyzer must not claim
/// knowledge it does not have.
#[derive(Debug, Clone)]
pub struct LaunchMeta {
    pub accesses: Vec<DatAccess>,
    /// Iteration range, inclusive-exclusive, as the DSL declared it.
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    /// op2 race-resolution scheme label ("atomics", "global", "hier").
    pub scheme: Option<&'static str>,
    pub opaque: bool,
}

impl LaunchMeta {
    /// A fully-declared launch: `accesses` is the complete access set.
    pub fn new(accesses: Vec<DatAccess>, lo: [i64; 3], hi: [i64; 3]) -> LaunchMeta {
        LaunchMeta {
            accesses,
            lo,
            hi,
            scheme: None,
            opaque: false,
        }
    }

    /// A launch the analyzer must treat as touching unknown data.
    pub fn opaque() -> LaunchMeta {
        LaunchMeta {
            accesses: Vec::new(),
            lo: [0; 3],
            hi: [0; 3],
            scheme: None,
            opaque: true,
        }
    }

    /// Tag with the op2 scheme label.
    pub fn with_scheme(mut self, scheme: &'static str) -> LaunchMeta {
        self.scheme = Some(scheme);
        self
    }

    /// True when every access is identified well enough for dat-level
    /// dataflow (non-opaque, at least one access, no anonymous ids).
    pub fn transparent(&self) -> bool {
        !self.opaque && !self.accesses.is_empty() && self.accesses.iter().all(|a| a.dat != 0)
    }
}

/// A recorded launch: an owned kernel snapshot plus its pricing
/// fingerprint. Building one touches no session state, so recording can
/// happen outside every lock.
#[derive(Debug, Clone)]
pub struct LaunchNode {
    pub(crate) kernel: Kernel,
    pub(crate) key: u64,
}

impl LaunchNode {
    /// Take `kernel` as the snapshot and precompute its fingerprint.
    pub fn new(kernel: Kernel) -> LaunchNode {
        LaunchNode {
            key: fingerprint(&kernel),
            kernel,
        }
    }

    /// The recorded kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The pricing-cache key this node will be priced under.
    pub fn fingerprint(&self) -> u64 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_snapshot_carries_the_kernel_fingerprint() {
        let k = Kernel::streaming("copy", 1 << 10, 2.0 * 8.0 * 1024.0, 0.0);
        let n = LaunchNode::new(k.clone());
        assert_eq!(n.fingerprint(), fingerprint(&k));
        assert_eq!(n.kernel().footprint.name, "copy");
    }

    #[test]
    fn fingerprint_separates_shape_and_name() {
        use machine_model::{
            AccessProfile, AtomicKind, AtomicProfile, IndirectProfile, Precision, StencilProfile,
        };
        let a = Kernel::streaming("k", 1 << 10, 1e4, 0.0);
        let b = Kernel::streaming("k", 1 << 12, 1e4, 0.0);
        let c = Kernel::streaming("j", 1 << 10, 1e4, 0.0);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));

        // Each small field, changed alone, changes the key.
        let atomics = |kind| {
            Some(AtomicProfile {
                updates: 1 << 10,
                kind,
            })
        };
        let mut base = a.clone();
        base.footprint.atomics = atomics(AtomicKind::CasLoop);
        let vary = |f: &dyn Fn(&mut Kernel)| {
            let mut k = base.clone();
            f(&mut k);
            k
        };
        let variants = [
            vary(&|k| k.footprint.precision = Precision::F32),
            vary(&|k| {
                k.footprint.access = AccessProfile::Stencil(StencilProfile {
                    domain: [0; 3],
                    radius: [0; 3],
                    dats_read: 0,
                    dats_written: 0,
                })
            }),
            vary(&|k| {
                k.footprint.access = AccessProfile::Indirect(IndirectProfile {
                    from_size: 0,
                    to_size: 0,
                    arity: 0.0,
                    locality: 0.0,
                    indirect_bytes_per_item: 0.0,
                })
            }),
            vary(&|k| k.footprint.atomics = None),
            vary(&|k| k.footprint.atomics = atomics(AtomicKind::NativeFp)),
            vary(&|k| k.traits.stride_one_inner ^= true),
            vary(&|k| k.traits.indirect_writes ^= true),
            vary(&|k| k.traits.complex_body ^= true),
            vary(&|k| k.traits.hard_on_neon ^= true),
            vary(&|k| k.nd_shape = Some([0; 3])),
            vary(&|k| k.footprint.reductions = 1),
        ];
        let key = fingerprint(&base);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fingerprint(v), key, "variant {i} kept the base key");
        }
        let mut keys: Vec<u64> = variants.iter().map(fingerprint).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len(), "every variant has its own key");
    }
}
