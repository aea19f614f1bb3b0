//! Facts about the host the benchmark reports beside its numbers.

/// Threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache in bytes, as the kernel reports it
/// (the largest `level` under cpu0's cache directory). `None` when the
/// host does not say.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parse a sysfs cache size such as `107520K` or `4M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_cache_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(105 << 20));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
    }
}
