//! The host reference kernel `R`.
//!
//! Timed audits on this class of host drift slowly with the memory
//! system: an allocation- and hash-heavy loop swings by a quarter while
//! a pure-ALU loop holds within a few percent. `R` is a fixed
//! allocation- and hash-heavy job, run just before each timed call, so
//! the ratio of the call's time to `R`'s removes most of that drift.
//!
//! It uses the standard library only: nothing the benchmarked code
//! changes can change `R` (a unit test checks this file's imports).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Keys built, inserted and looked up per run: about 60 ms on a
/// 2-vCPU x86-64 host.
pub const KEYS: u64 = 40_000;

/// Builds and drops a `HashMap` and a `BTreeMap` of `keys` string keys
/// with string values, and returns a checksum of the lookups.
pub fn kernel(keys: u64) -> u64 {
    // A fixed-key SipHash: the same work in every process.
    let mut hashed: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered: BTreeMap<String, String> = BTreeMap::new();
    for i in 0..keys {
        let scrambled = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let key = format!("req-{scrambled:08x}-{i}");
        ordered.insert(key.clone(), format!("value {i} of {keys}"));
        hashed.insert(key, i);
    }
    let mut sum = 0u64;
    for i in (0..keys).step_by(3) {
        let scrambled = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let key = format!("req-{scrambled:08x}-{i}");
        sum = sum.wrapping_add(hashed[&key]);
        sum = sum.wrapping_add(ordered[&key].len() as u64);
    }
    black_box((hashed, ordered));
    sum
}

/// Runs the kernel once at its benchmark size.
pub fn run() -> u64 {
    black_box(kernel(black_box(KEYS)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(500), kernel(500));
        assert_ne!(kernel(500), kernel(600));
    }

    /// `R` must measure the host, not the code under test: every path
    /// this file names is in `std`.
    #[test]
    fn kernel_uses_only_std() {
        let src = include_str!("refkernel.rs");
        let code = &src[..src.find("#[cfg(test)]").expect("test module")];
        for line in code.lines().map(str::trim) {
            if let Some(path) = line.strip_prefix("use ") {
                assert!(path.starts_with("std::"), "non-std import: {line}");
            }
            assert!(!line.contains("crate::"), "workspace path: {line}");
        }
        for name in ["karousos", "kem", "kvstore", "apps", "workload", "obs"] {
            let mentions = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| *w == name)
                .count();
            assert_eq!(mentions, 0, "{name} named in the reference kernel");
        }
    }
}
