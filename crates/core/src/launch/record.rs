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
