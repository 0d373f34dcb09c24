//! A hasher for the program's own dense integer keys.

use std::hash::{BuildHasherDefault, Hasher};

/// Hashes one integer key with a multiplication (Fibonacci hashing).
///
/// Object and transaction ids are the program's own dense integers, so
/// a map keyed by them needs no SipHash. Maps using it are point-looked-up,
/// or sorted before any iteration whose order reaches a result.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The [`IntHasher`] builder, the hasher parameter of an integer-keyed
/// `HashMap`.
pub type IntHash = BuildHasherDefault<IntHasher>;
