//! Deterministic result cache: canonical spec keys and a sharded LRU of
//! byte-exact response payloads.
//!
//! ## Why caching is safe here
//!
//! The paper's WAIT-FREE-GATHER executions are fully determined by the
//! adversary schedule, and the engine fixes that schedule with the spec's
//! seed: a served run is a *pure function* of its validated
//! [`ScenarioSpec`] (DESIGN.md §11's bit-identity contract is exactly
//! this statement, enforced end-to-end by `tests/service_roundtrip.rs`).
//! A cache over pure functions cannot serve a wrong answer — only the
//! same bytes the engine would have produced. So the cache stores the
//! *rendered* payloads (`RunMetrics::to_jsonl` lines, full NDJSON trace
//! bodies) and hands them back byte-identical, behind an [`Arc`] so a hit
//! is served without copying.
//!
//! ## Keys
//!
//! [`spec_key`] = FNV-1a (64-bit) over a domain tag plus
//! [`ScenarioSpec::canonical_bytes`]. Canonicalisation lives in the
//! parser, so JSON key order and whitespace never reach the hash; the tag
//! separates run-line keys from trace-body keys for the same spec. FNV is
//! not collision-resistant against adversaries, but a collision here
//! costs a wrong *cached* payload only if two admissible specs collide in
//! 64 bits — with the cache bounded at thousands of entries the birthday
//! bound keeps the accidental-collision probability around 1e-12, and a
//! client who attacks their own cache key space only poisons answers to
//! the colliding spec.
//!
//! ## Structure
//!
//! Lock-striped: `SHARDS` independent `Mutex<HashMap>` shards selected
//! by key bits, so concurrent event-loop shards and dispatcher lanes
//! rarely contend on the same stripe. Each shard runs its own LRU by
//! monotonic touch tick; eviction scans the shard for the stalest entry —
//! O(entries/shard), which is noise next to the millisecond-scale
//! simulation that precedes every insert.

use crate::spec::ScenarioSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lock stripes (power of two; key bits select the stripe).
const SHARDS: usize = 16;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Which payload family a key addresses (same spec, different bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// One `RunMetrics::to_jsonl` line (the `/v1/run` unit).
    Run,
    /// One full NDJSON trace body (the `/v1/trace` unit).
    Trace,
}

/// The cache key for `spec`'s payload of kind `kind`: FNV-1a over a
/// domain tag and the spec's canonical bytes. Invariant under JSON
/// member order / whitespace / number spelling (the parser canonicalises
/// before bytes are produced); distinct across any field that changes
/// the run (seed, faults, δ bits, ...).
pub fn spec_key(spec: &ScenarioSpec, kind: KeyKind) -> u64 {
    let mut hash = FNV_OFFSET;
    let tag: u8 = match kind {
        KeyKind::Run => b'r',
        KeyKind::Trace => b't',
    };
    for &byte in std::iter::once(&tag).chain(spec.canonical_bytes().iter()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

struct Entry {
    payload: Arc<Vec<u8>>,
    stored: Instant,
    touched: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// A successful lookup: the stored bytes plus their age.
pub struct Hit {
    /// The byte-exact payload (shared, not copied).
    pub payload: Arc<Vec<u8>>,
    /// Whole seconds since the payload was stored (the `Age` header).
    pub age_secs: u64,
}

/// Counter snapshot for the `/v1/metrics` exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a stored payload.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Configured capacity (0 = disabled).
    pub capacity: u64,
}

impl CacheCounters {
    /// Hit fraction of all lookups so far (0 before the first lookup).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, lock-striped LRU of rendered response payloads.
///
/// Capacity 0 disables the cache: every lookup misses without counting,
/// every insert is dropped — the `GATHER_CACHE_ENTRIES=0` escape hatch
/// for workloads that are never repeated (or for A/B-ing the cache away).
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` payloads (0 disables).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            per_shard: capacity.div_ceil(SHARDS),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Is the cache disabled (capacity 0)?
    pub fn disabled(&self) -> bool {
        self.capacity == 0
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // The low bits feed the in-shard HashMap; take high bits here so
        // the two selectors stay independent.
        &self.shards[(key >> 59) as usize % SHARDS]
    }

    /// Looks `key` up, counting a hit or miss (disabled caches miss
    /// silently — a permanent 0% would drown the ratio gauge in noise).
    pub fn lookup(&self, key: u64) -> Option<Hit> {
        if self.disabled() {
            return None;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.touched = tick;
                let hit = Hit {
                    payload: Arc::clone(&entry.payload),
                    age_secs: entry.stored.elapsed().as_secs(),
                };
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `payload` under `key`, evicting the shard's
    /// least-recently-touched entry when the stripe is full. Re-inserting
    /// an existing key refreshes the entry (same bytes by the determinism
    /// argument, so this is only a timestamp refresh).
    pub fn insert(&self, key: u64, payload: Arc<Vec<u8>>) {
        if self.disabled() {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            if let Some(&stalest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k)
            {
                shard.map.remove(&stalest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                payload,
                stored: Instant::now(),
                touched: tick,
            },
        );
    }

    /// Counter snapshot for the metrics exposition.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
                .sum(),
            capacity: self.capacity as u64,
        }
    }
}

/// Default cache capacity: `GATHER_CACHE_ENTRIES` when set (0 disables),
/// else 4096 entries — at the service's 1 MiB body cap a pathological
/// all-trace working set stays bounded, and typical run lines are ~300
/// bytes.
///
/// # Panics
///
/// On an unparsable `GATHER_CACHE_ENTRIES` (same fail-fast contract as
/// `GATHER_THREADS`: a typoed operator override must not silently fall
/// back to the default).
pub fn default_entries() -> usize {
    match std::env::var("GATHER_CACHE_ENTRIES") {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            panic!("GATHER_CACHE_ENTRIES must be a non-negative integer, got {v:?}")
        }),
        Err(_) => 4096,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn key_of(body: &str) -> u64 {
        let spec = ScenarioSpec::from_json(&Json::parse(body).unwrap()).unwrap();
        spec_key(&spec, KeyKind::Run)
    }

    #[test]
    fn key_is_invariant_under_json_reordering_and_whitespace() {
        // Property over a deterministic grid: render each spec's fields in
        // several member orders and whitespace styles, plus equivalent
        // number spellings — all must hash identically.
        let mut checked = 0;
        for seed in [0u64, 7, 123_456_789] {
            for (n, faults) in [(8, 0), (12, 3), (16, 5)] {
                for delta in ["0.05", "5e-2", "0.050"] {
                    let fields = [
                        String::from("\"workload\":\"class\""),
                        String::from("\"class\":\"QR\""),
                        format!("\"n\":{n}"),
                        format!("\"seed\":{seed}"),
                        format!("\"faults\":{faults}"),
                        format!("\"delta\":{delta}"),
                        String::from("\"max_rounds\":1000"),
                    ];
                    let canonical = key_of(&format!("{{{}}}", fields.join(",")));
                    // Reversed member order.
                    let mut rev = fields.to_vec();
                    rev.reverse();
                    assert_eq!(canonical, key_of(&format!("{{{}}}", rev.join(","))));
                    // Rotated order with scattered whitespace.
                    let rotated: Vec<_> = fields[3..].iter().chain(&fields[..3]).cloned().collect();
                    assert_eq!(
                        canonical,
                        key_of(&format!("{{\n  {}\n}}", rotated.join(" ,\n\t ")))
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 27, "grid actually exercised");
    }

    #[test]
    fn key_ignores_defaulted_vs_explicit_fields() {
        // Omitting a field and spelling out its default are the same spec.
        let d = ScenarioSpec::default();
        assert_eq!(
            key_of("{}"),
            key_of(&format!(
                "{{\"workload\":\"class\",\"class\":\"A\",\"n\":{},\"seed\":{},\"delta\":{:?}}}",
                d.n, d.seed, d.delta
            ))
        );
    }

    #[test]
    fn key_is_distinct_across_run_relevant_fields() {
        let base = key_of("{}");
        for (variant, body) in [
            ("seed", r#"{"seed":1}"#),
            ("faults", r#"{"faults":1}"#),
            ("delta", r#"{"delta":0.0500000001}"#),
            ("n", r#"{"n":9}"#),
            ("max_rounds", r#"{"max_rounds":59999}"#),
            ("class", r#"{"class":"QR"}"#),
            ("scheduler", r#"{"scheduler":"round-robin"}"#),
            ("motion", r#"{"motion":"delta"}"#),
            ("workload", r#"{"workload":"scatter"}"#),
        ] {
            assert_ne!(base, key_of(body), "{variant} must change the key");
        }
        // Pairwise distinctness across a seed × faults × delta grid.
        let mut keys = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for faults in 0..4usize {
                for delta in ["0.01", "0.02", "0.05"] {
                    assert!(
                        keys.insert(key_of(&format!(
                            "{{\"seed\":{seed},\"faults\":{faults},\"delta\":{delta}}}"
                        ))),
                        "collision at seed={seed} faults={faults} delta={delta}"
                    );
                }
            }
        }
        assert_eq!(keys.len(), 8 * 4 * 3);
    }

    #[test]
    fn run_and_trace_keys_differ_for_the_same_spec() {
        let spec = ScenarioSpec::default();
        assert_ne!(
            spec_key(&spec, KeyKind::Run),
            spec_key(&spec, KeyKind::Trace)
        );
    }

    #[test]
    fn lookup_insert_and_counters() {
        let cache = ResultCache::new(64);
        assert!(cache.lookup(1).is_none());
        cache.insert(1, Arc::new(b"payload".to_vec()));
        let hit = cache.lookup(1).expect("stored entry hits");
        assert_eq!(hit.payload.as_slice(), b"payload");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (1, 1, 0, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.capacity, 64);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_per_shard() {
        // Force every key into one stripe by fixing the high bits the
        // shard selector reads; per-shard budget = ceil(32/16) = 2.
        let cache = ResultCache::new(32);
        let key = |i: u64| i; // high bits zero -> all in shard 0
        cache.insert(key(1), Arc::new(vec![1]));
        cache.insert(key(2), Arc::new(vec![2]));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(key(1)).is_some());
        cache.insert(key(3), Arc::new(vec![3]));
        assert!(cache.lookup(key(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(key(1)).is_some(), "recently touched survives");
        assert!(cache.lookup(key(3)).is_some(), "new entry present");
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = ResultCache::new(32);
        cache.insert(5, Arc::new(vec![5]));
        cache.insert(5, Arc::new(vec![5]));
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions), (1, 0));
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let cache = ResultCache::new(0);
        assert!(cache.disabled());
        cache.insert(1, Arc::new(vec![1]));
        assert!(cache.lookup(1).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (0, 0, 0));
        assert_eq!(c.hit_ratio(), 0.0);
    }

    #[test]
    fn age_reflects_storage_time() {
        let cache = ResultCache::new(8);
        cache.insert(9, Arc::new(vec![9]));
        let hit = cache.lookup(9).unwrap();
        assert_eq!(hit.age_secs, 0, "age in whole seconds starts at 0");
    }
}
