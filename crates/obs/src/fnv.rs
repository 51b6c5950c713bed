//! FNV-1a hashing for cheap dataset fingerprints.
//!
//! The run manifest wants a stable identity for "the dataset this run
//! analyzed" without hashing gigabytes: callers fold in record counts,
//! ids, and timestamps. FNV-1a is deterministic across platforms and
//! needs no dependencies — exactly what a provenance fingerprint needs
//! (it is **not** a cryptographic hash).

/// 64-bit FNV-1a incremental hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds one little-endian `u64` into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds one `i64` into the state.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fnv64::new();
        assert_eq!(
            h.finish(),
            0xcbf2_9ce4_8422_2325,
            "empty input = offset basis"
        );
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv64::new();
        h2.write_bytes(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn order_sensitive_and_deterministic() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
        let mut d = Fnv64::new();
        d.write_i64(-1);
        assert_ne!(d.finish(), Fnv64::new().finish());
    }
}
