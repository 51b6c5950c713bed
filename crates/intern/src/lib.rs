//! Typed string-interning pools for low-cardinality log vocabulary.
//!
//! A 2000-day log archive repeats the same small vocabulary millions of
//! times: a handful of message templates, queue names, component names.
//! Materializing each occurrence as an owned `String` costs one heap
//! allocation per field and turns every comparison, group-by, and join
//! key into a string hash. This crate vendors the standard answer from
//! log-template mining systems: intern each distinct string once into an
//! append-only [`Pool`] and carry a `u32` symbol everywhere else, so
//! equality is an integer compare and a record is `Copy`-sized.
//!
//! # Typed symbols
//!
//! Raw `u32` symbols from different pools must never be cross-compared,
//! so the public surface is the [`intern_pool!`] macro, which mints a
//! newtype bound to its own process-wide pool:
//!
//! ```
//! bgq_intern::intern_pool! {
//!     /// An interned queue name.
//!     pub struct QueueName
//! }
//!
//! let a = QueueName::intern("prod-capability");
//! let b: QueueName = "prod-capability".into();
//! assert_eq!(a, b);                      // u32 compare, no hashing
//! assert_eq!(a.as_str(), "prod-capability");
//! assert_eq!(QueueName::default().as_str(), ""); // symbol 0 is ""
//! ```
//!
//! # Invariants
//!
//! * **Dedup** — `intern(s) == intern(t)` iff `s == t`; symbol equality
//!   *is* string equality, which is why replacing a `String` field with
//!   its symbol cannot change any analysis result.
//! * **Symbol 0 is the empty string** in every pool, so `Default` needs
//!   no pool access.
//! * **Append-only, process-lifetime** — interned strings are leaked
//!   (`&'static str`), so `as_str` borrows for `'static` and never
//!   locks twice. Pools must therefore only hold *bounded-vocabulary*
//!   values (templates, names, rendered catalog messages), never
//!   unbounded per-record payloads; memory is bounded by the
//!   vocabulary, not the record count.
//! * **Order-independent semantics** — symbol *values* depend on intern
//!   order and must never leak into results; `Ord` compares the
//!   resolved strings so sort orders are reproducible across runs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock};

/// Word-wise FNV-1a hasher for the pool's lookup map.
///
/// Pool keys are short trusted log vocabulary (not attacker-controlled),
/// so SipHash's DoS resistance buys nothing here while costing most of
/// the lookup time on the bulk re-intern path (snapshot reload hashes
/// every distinct rendered message once per load). Mixing eight bytes
/// per multiply keeps hashing a small fraction of the probe cost.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // FNV's low bits are weakly mixed (they never see the high
        // bits), and similar keys — rendered messages off one template —
        // would cluster in the table's low-bit bucket index. One
        // SplitMix64-style avalanche fixes the distribution for the
        // price of two multiplies per key.
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            hash = (hash ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(PRIME);
        }
        let mut tail = u64::from(bytes.len() as u8);
        for &b in chunks.remainder() {
            tail = tail << 8 | u64::from(b);
        }
        self.0 = (hash ^ tail).wrapping_mul(PRIME);
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// An untyped intern pool. Use through [`intern_pool!`], which ties one
/// static `Pool` to a symbol newtype; the raw API is public so the
/// macro expansion (and tests) can reach it.
pub struct Pool {
    state: OnceLock<Mutex<PoolState>>,
}

struct PoolState {
    /// Resolves a string to its symbol. Keys borrow the leaked entries
    /// in `strings`, so the map itself allocates only its table.
    lookup: HashMap<&'static str, u32, FnvBuild>,
    /// `strings[sym]` resolves a symbol; index 0 is always `""`.
    strings: Vec<&'static str>,
}

impl PoolState {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = u32::try_from(self.strings.len()).expect("intern pool overflow");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.strings.push(leaked);
        self.lookup.insert(leaked, sym);
        sym
    }
}

impl Pool {
    /// Creates an empty pool (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        Pool {
            state: OnceLock::new(),
        }
    }

    fn state(&self) -> &Mutex<PoolState> {
        self.state.get_or_init(|| {
            let mut lookup = HashMap::with_hasher(FnvBuild::default());
            lookup.insert("", 0);
            Mutex::new(PoolState {
                lookup,
                strings: vec![""],
            })
        })
    }

    /// Interns `s`, returning its stable symbol. The first sighting of
    /// a distinct string leaks one copy; every later call is a hash
    /// lookup with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the pool exceeds `u32::MAX` distinct strings (a pool
    /// holding unbounded values is a misuse of this crate).
    pub fn intern(&self, s: &str) -> u32 {
        self.state().lock().expect("intern pool poisoned").intern(s)
    }

    /// Interns a batch of strings under a single pool lock, returning
    /// one symbol per input in order.
    ///
    /// Bulk loaders (the columnar snapshot reader re-interning a
    /// segment's whole string table) call this instead of paying one
    /// lock round-trip per string.
    ///
    /// # Panics
    ///
    /// Panics as [`Pool::intern`] does on pool overflow.
    pub fn intern_all(&self, strs: &[&str]) -> Vec<u32> {
        let mut state = self.state().lock().expect("intern pool poisoned");
        strs.iter().map(|s| state.intern(s)).collect()
    }

    /// Resolves a symbol produced by [`Pool::intern`].
    ///
    /// # Panics
    ///
    /// Panics on a symbol this pool never produced (impossible through
    /// the typed newtypes).
    #[must_use]
    pub fn resolve(&self, sym: u32) -> &'static str {
        let state = self.state().lock().expect("intern pool poisoned");
        state.strings[sym as usize]
    }

    /// Number of distinct strings interned so far (≥ 1: the empty
    /// string is pre-interned as symbol 0).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state().lock().expect("intern pool poisoned").strings.len()
    }

    /// `false`: every pool holds at least the empty string.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

/// Mints a `Copy` symbol newtype backed by its own process-wide
/// [`Pool`].
///
/// The generated type exposes `intern`, `intern_all`, `as_str`,
/// `pool_len`, and
/// implements `From<&str>`/`From<String>`, `Display`/`Debug` (the
/// resolved text), `Default` (the empty string), `PartialEq`/`Eq`/
/// `Hash` by symbol, and `PartialOrd`/`Ord` by resolved string (so
/// orderings never depend on intern order).
#[macro_export]
macro_rules! intern_pool {
    ($(#[$meta:meta])* $vis:vis struct $Name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        $vis struct $Name(u32);

        impl $Name {
            fn pool() -> &'static $crate::Pool {
                static POOL: $crate::Pool = $crate::Pool::new();
                &POOL
            }

            /// Interns `s` into this type's pool.
            #[must_use]
            $vis fn intern(s: &str) -> Self {
                $Name(Self::pool().intern(s))
            }

            /// Interns a batch under one pool lock (see
            /// [`Pool::intern_all`]), one symbol per input in order.
            ///
            /// [`Pool::intern_all`]: $crate::Pool::intern_all
            #[must_use]
            $vis fn intern_all(strs: &[&str]) -> Vec<Self> {
                Self::pool().intern_all(strs).into_iter().map($Name).collect()
            }

            /// The interned text.
            #[must_use]
            $vis fn as_str(self) -> &'static str {
                Self::pool().resolve(self.0)
            }

            /// `true` for the empty-string symbol.
            #[must_use]
            $vis fn is_empty(self) -> bool {
                self.0 == 0
            }

            /// Distinct strings interned into this pool so far.
            #[must_use]
            $vis fn pool_len() -> usize {
                Self::pool().len()
            }
        }

        impl From<&str> for $Name {
            fn from(s: &str) -> Self {
                Self::intern(s)
            }
        }

        impl From<String> for $Name {
            fn from(s: String) -> Self {
                Self::intern(&s)
            }
        }

        impl AsRef<str> for $Name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }

        impl ::std::fmt::Display for $Name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl ::std::fmt::Debug for $Name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!(stringify!($Name), "({:?})"), self.as_str())
            }
        }

        // By resolved string, not by symbol: symbol values depend on
        // intern order, which must never leak into analysis results.
        impl PartialOrd for $Name {
            fn partial_cmp(&self, other: &Self) -> Option<::std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $Name {
            fn cmp(&self, other: &Self) -> ::std::cmp::Ordering {
                if self.0 == other.0 {
                    ::std::cmp::Ordering::Equal
                } else {
                    self.as_str().cmp(other.as_str())
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    intern_pool! {
        /// Test symbol type.
        pub struct TestSym
    }

    #[test]
    fn dedup_and_resolve() {
        let a = TestSym::intern("hello");
        let b = TestSym::intern("hello");
        let c = TestSym::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn symbol_zero_is_empty_string() {
        assert_eq!(TestSym::default().as_str(), "");
        assert!(TestSym::default().is_empty());
        assert_eq!(TestSym::intern(""), TestSym::default());
        assert!(!TestSym::intern("x").is_empty());
    }

    #[test]
    fn ord_follows_string_order_not_intern_order() {
        // Interned in reverse lexicographic order on purpose.
        let z = TestSym::intern("zzz-ord");
        let a = TestSym::intern("aaa-ord");
        assert!(a < z, "ordering must compare text, not symbol values");
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn conversions_and_display() {
        let s: TestSym = "via-from".into();
        assert_eq!(s.to_string(), "via-from");
        assert_eq!(format!("{s:?}"), "TestSym(\"via-from\")");
        let owned: TestSym = String::from("via-owned").into();
        assert_eq!(owned.as_ref(), "via-owned");
    }

    #[test]
    fn intern_all_matches_one_at_a_time() {
        let batch = TestSym::intern_all(&["batch-a", "batch-b", "batch-a", ""]);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], TestSym::intern("batch-a"));
        assert_eq!(batch[1], TestSym::intern("batch-b"));
        assert_eq!(batch[2], batch[0]);
        assert_eq!(batch[3], TestSym::default());
        assert_eq!(TestSym::intern_all(&[]), Vec::new());
    }

    #[test]
    fn fnv_hasher_is_deterministic_and_spreads() {
        use std::hash::{Hash, Hasher};
        let hash_of = |s: &str| {
            let mut h = crate::FnvHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of("alpha"), hash_of("alpha"));
        assert_ne!(hash_of("alpha"), hash_of("alphb"));
        assert_ne!(hash_of(""), hash_of("\0"));
        // Split writes must chain like a single write of the whole key.
        let mut split = crate::FnvHasher::default();
        split.write(b"alp");
        split.write(b"ha");
        let mut whole = crate::FnvHasher::default();
        whole.write(b"alpha");
        assert_ne!(split.finish(), 0);
        assert_ne!(whole.finish(), 0);
    }

    #[test]
    fn pool_len_counts_distinct_only() {
        // A pool of its own: the other tests intern into `TestSym`'s
        // pool concurrently, so its length moves under this test.
        intern_pool! {
            struct CountSym
        }
        let one = CountSym::intern("distinct-1");
        let again = CountSym::intern_all(&["distinct-1", "distinct-2"]);
        assert_eq!(again[0], one);
        assert!(!again[1].is_empty());
        // "" plus the two distinct strings.
        assert_eq!(CountSym::pool_len(), 3);
        // Every pool holds at least "", however many tests share it.
        assert!(TestSym::pool_len() >= 1);
    }

    #[test]
    fn pools_are_independent_per_type() {
        intern_pool! {
            struct OtherSym
        }
        let a = TestSym::intern("shared-text");
        let b = OtherSym::intern_all(&["unshared"])[0];
        // Different pools assign symbols independently; only the text
        // matters for resolution.
        assert_eq!(a.as_str(), "shared-text");
        assert_eq!(b.as_str(), "unshared");
        assert!(!b.is_empty());
        // OtherSym's pool holds "" plus what this test interned — it
        // never sees TestSym's vocabulary.
        assert_eq!(OtherSym::pool_len(), 2);
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| TestSym::intern(&format!("concurrent-{}", (i + t) % 10)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<TestSym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all {
            for sym in row {
                assert!(sym.as_str().starts_with("concurrent-"));
            }
        }
        // Ten distinct strings → ten distinct symbols, however the
        // threads raced.
        let mut seen: Vec<TestSym> = all.into_iter().flatten().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 10);
    }
}
