//! Host facts for the run header and process-level metrics.

use std::path::Path;

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Order-dependent 64-bit hash of a slice of grid values: equal iff the
/// grids are bitwise equal (up to hash collisions). Unlike an
/// order-independent checksum it also catches permuted cells.
pub fn grid_hash<T: temporal_blocking::grid::Real>(values: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h = (h ^ v.to_f64().to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sees_order_and_bits() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [2.0f64, 1.0, 3.0];
        assert_ne!(grid_hash(&a), grid_hash(&b));
        assert_eq!(grid_hash(&a), grid_hash(&[1.0f64, 2.0, 3.0]));
        assert_ne!(grid_hash(&[0.0f64]), grid_hash(&[-0.0f64]));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
