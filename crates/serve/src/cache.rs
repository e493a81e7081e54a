//! A sharded cache for mapping results with pluggable eviction.
//!
//! This is the "cache" step of the request lifecycle documented in
//! `docs/ARCHITECTURE.md`; the keys it stores are the canonical
//! [`CacheKey`](crate::service::CacheKey)s the router also hashes for
//! shard placement.
//!
//! The cache is split into independently locked shards; a key is assigned to
//! a shard by its hash, so concurrent requests for different keys rarely
//! contend on the same mutex.  Each shard keeps a hash map from the key's
//! hash to a slot index plus an intrusive doubly-linked recency list over a
//! slot arena, giving O(1) lookup, touch and insert without per-entry
//! allocation after the arena has grown to capacity.  One `DefaultHasher`
//! pass over a key's bytes picks its shard and keys that shard's map (which
//! hashes the 8-byte digest again with its own random keys), and the
//! `*_hashed` methods take that hash precomputed with an equality test, so
//! a caller can look a key up by a borrowed view of it that hashes alike;
//! keys whose hashes collide share a chain, and equality is always checked
//! against the stored key.
//!
//! Two eviction policies share that structure (see [`EvictionPolicy`]):
//!
//! * **LRU** (default): evict the recency-list tail, O(1).  This is the
//!   byte-stable policy every golden transcript is pinned to.
//! * **GDSF** (Greedy-Dual, size/frequency-flattened to *cost*): each entry
//!   carries an integer recompute cost; its priority is `clock + cost`,
//!   refreshed on every hit, and eviction removes the minimum-priority entry
//!   (least recently used among ties), advancing the shard clock to the
//!   evicted priority.  Expensive-to-recompute entries (a multilevel viem
//!   mapping at ~45 ms) therefore outlive floods of cheap ones (rank-local
//!   mappings at ~1 ms) until the clock ages them out.  With uniform costs
//!   the priority order collapses to recency order, so GDSF degenerates to
//!   *exactly* LRU — the property tests pin that equivalence.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const NIL: usize = usize::MAX;

/// The hash [`ShardedLru`] places and finds a key by: one `DefaultHasher`
/// pass, so a borrowed view whose `Hash` feeds the hasher the same stream
/// finds the owned key.
pub fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Which entry a full shard evicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least recently used entry (the default; byte-stable with
    /// every existing golden transcript).
    #[default]
    Lru,
    /// Greedy-Dual: evict the entry with the smallest `clock + cost`
    /// priority, so high-recompute-cost entries are retained longer.
    Gdsf,
}

impl EvictionPolicy {
    /// Parses a policy name as spelled on the CLI (`--eviction {lru,gdsf}`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "lru" => Some(EvictionPolicy::Lru),
            "gdsf" => Some(EvictionPolicy::Gdsf),
            _ => None,
        }
    }
}

struct Slot<K, V> {
    key: K,
    value: V,
    /// [`hash_of`] the key.
    hash: u64,
    /// The next slot whose key has the same hash (`NIL` ends the chain).
    same: usize,
    /// Recompute cost, set at insert time (GDSF only; 1 under LRU).
    cost: u64,
    /// Greedy-Dual priority `clock_at_last_use + cost` (unused under LRU).
    h: u64,
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    /// Key hash → the first slot of its chain.  The map hashes the digest
    /// again with its own random keys, so requests crafted to share the
    /// digest's bits cannot pile up in one probe sequence.
    map: HashMap<u64, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
    policy: EvictionPolicy,
    /// GDSF aging clock: the priority of the last evicted entry (monotone).
    clock: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            policy,
            clock: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The slot holding the key of hash `hash` that `eq` accepts.
    fn find(&self, hash: u64, mut eq: impl FnMut(&K) -> bool) -> Option<usize> {
        let mut idx = *self.map.get(&hash)?;
        while idx != NIL {
            if eq(&self.slots[idx].key) {
                return Some(idx);
            }
            idx = self.slots[idx].same;
        }
        None
    }

    /// Takes slot `idx` out of its hash chain.
    fn unindex(&mut self, idx: usize) {
        let (hash, same) = (self.slots[idx].hash, self.slots[idx].same);
        let head = self.map[&hash];
        if head == idx {
            if same == NIL {
                self.map.remove(&hash);
            } else {
                self.map.insert(hash, same);
            }
            return;
        }
        let mut prev = head;
        while self.slots[prev].same != idx {
            prev = self.slots[prev].same;
        }
        self.slots[prev].same = same;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, hash: u64, eq: impl FnMut(&K) -> bool) -> Option<(V, bool)> {
        let idx = self.find(hash, eq)?;
        let was_mru = self.head == idx;
        if self.policy == EvictionPolicy::Gdsf {
            // a hit re-earns the entry its full cost above the current clock
            self.slots[idx].h = self.clock.saturating_add(self.slots[idx].cost);
        }
        self.unlink(idx);
        self.push_front(idx);
        Some((self.slots[idx].value.clone(), was_mru))
    }

    /// The eviction victim for a full shard: the recency tail under LRU, the
    /// minimum-priority slot under GDSF.  The tail-to-head scan keeps the
    /// *first* (most tail-ward) slot among equal priorities, so with uniform
    /// costs — where priorities are non-increasing from head to tail — the
    /// victim is exactly the LRU tail.
    fn victim(&self) -> usize {
        match self.policy {
            EvictionPolicy::Lru => self.tail,
            EvictionPolicy::Gdsf => {
                let mut best = self.tail;
                let mut idx = self.tail;
                while idx != NIL {
                    if self.slots[idx].h < self.slots[best].h {
                        best = idx;
                    }
                    idx = self.slots[idx].prev;
                }
                best
            }
        }
    }

    fn insert(&mut self, hash: u64, key: K, value: V, cost: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.find(hash, |k| *k == key) {
            self.slots[idx].value = value;
            self.slots[idx].cost = cost;
            self.slots[idx].h = self.clock.saturating_add(cost);
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.len() == self.capacity {
            // evict the policy's victim and reuse its slot
            let victim = self.victim();
            debug_assert_ne!(victim, NIL);
            if self.policy == EvictionPolicy::Gdsf {
                // age the shard: everything cheaper than the victim is gone,
                // so future entries start from its priority
                self.clock = self.clock.max(self.slots[victim].h);
            }
            self.unlink(victim);
            self.unindex(victim);
            self.free.push(victim);
        }
        // priced after any eviction, so the clock advance is reflected
        let h = self.clock.saturating_add(cost);
        let slot = Slot {
            key,
            value,
            hash,
            same: self.map.get(&hash).copied().unwrap_or(NIL),
            cost,
            h,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(hash, idx);
        self.push_front(idx);
    }

    fn keys_mru_first(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.slots[idx].key.clone());
            idx = self.slots[idx].next;
        }
        out
    }

    fn entries_lru_first(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        let mut idx = self.tail;
        while idx != NIL {
            out.push((self.slots[idx].key.clone(), self.slots[idx].value.clone()));
            idx = self.slots[idx].prev;
        }
        out
    }
}

/// Cache hit/miss counters (monotonic, for diagnostics and the load
/// generator's hit-rate report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `get` calls that found the key.
    pub hits: u64,
    /// Number of `get` calls that missed.
    pub misses: u64,
    /// Number of resident entries across all shards.
    pub len: usize,
}

/// A thread-safe, sharded cache (LRU by default, GDSF via
/// [`ShardedLru::with_policy`]).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates an LRU cache holding at most `capacity` entries spread over
    /// `shards` shards (each shard holds `ceil(capacity / shards)`, so the
    /// effective total is `shards * ceil(capacity / shards)`).  A capacity
    /// of 0 disables caching entirely (every `get` misses); the shard count
    /// is clamped to at least 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_policy(capacity, shards, EvictionPolicy::Lru)
    }

    /// Like [`ShardedLru::new`] with an explicit eviction policy.
    pub fn with_policy(capacity: usize, shards: usize, policy: EvictionPolicy) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard, policy)))
                .collect(),
            policy,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The eviction policy this cache was built with.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The shard index a key belongs to (stable for the cache's lifetime;
    /// exposed so tests can construct single-shard workloads).
    pub fn shard_of(&self, key: &K) -> usize {
        self.shard_of_hash(hash_of(key))
    }

    /// The shard index of a key whose [`hash_of`] is `hash`.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        (hash as usize) % self.shards.len()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_tracking_mru(key).map(|(v, _)| v)
    }

    /// Like [`ShardedLru::get`], but also reports whether the key was
    /// *already* most recently used in its shard before this lookup.  The
    /// persistence layer uses this to skip touch records that would replay
    /// as no-ops — for a hot key hit in a loop, only the first touch ever
    /// reaches the log.
    pub fn get_tracking_mru(&self, key: &K) -> Option<(V, bool)> {
        self.get_tracking_mru_hashed(hash_of(key), |k| k == key)
    }

    /// [`ShardedLru::get_tracking_mru`] of the key whose [`hash_of`] is
    /// `hash` and that `eq` accepts: a lookup by a borrowed view of the
    /// key, hashed once.
    pub fn get_tracking_mru_hashed(
        &self,
        hash: u64,
        eq: impl FnMut(&K) -> bool,
    ) -> Option<(V, bool)> {
        let shard = &self.shards[self.shard_of_hash(hash)];
        let got = shard.lock().expect("cache shard poisoned").get(hash, eq);
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Marks `key` most recently used if present, without counting towards
    /// the hit/miss statistics.  Used when replaying a persisted touch
    /// record: the recency effect must be reproduced, but the replay is not
    /// request traffic.  Returns whether the key was resident.
    pub fn touch(&self, key: &K) -> bool {
        let hash = hash_of(key);
        let shard = &self.shards[self.shard_of_hash(hash)];
        shard
            .lock()
            .expect("cache shard poisoned")
            .get(hash, |k| k == key)
            .is_some()
    }

    /// The value of `key` if resident, without bumping recency or counting
    /// towards the hit/miss statistics.  The absorb path (skipping entries
    /// the backend already holds) and the write-through log (copying a
    /// just-computed entry to the other replicas) read through this, so
    /// neither perturbs eviction order.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.peek_hashed(hash_of(key), |k| k == key)
    }

    /// [`ShardedLru::peek`] of the key whose [`hash_of`] is `hash` and that
    /// `eq` accepts.
    pub fn peek_hashed(&self, hash: u64, eq: impl FnMut(&K) -> bool) -> Option<V> {
        let shard = self.shards[self.shard_of_hash(hash)]
            .lock()
            .expect("cache shard poisoned");
        shard
            .find(hash, eq)
            .map(|idx| shard.slots[idx].value.clone())
    }

    /// Inserts (or refreshes) `key` with a unit recompute cost, evicting the
    /// shard's policy victim if the shard is full.  Under LRU the cost is
    /// ignored; under GDSF this is shorthand for the cheapest cost class.
    pub fn insert(&self, key: K, value: V) {
        self.insert_with_cost(key, value, 1);
    }

    /// Inserts (or refreshes) `key` carrying an explicit recompute cost.
    /// Under GDSF the cost scales retention (priority `clock + cost`); under
    /// LRU it is ignored, so callers can pass real costs unconditionally.
    pub fn insert_with_cost(&self, key: K, value: V, cost: u64) {
        let hash = hash_of(&key);
        let shard = &self.shards[self.shard_of_hash(hash)];
        shard
            .lock()
            .expect("cache shard poisoned")
            .insert(hash, key, value, cost);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.len(),
        }
    }

    /// The keys of one shard, most recently used first (diagnostics; used by
    /// the LRU ordering tests).
    pub fn shard_keys_mru_first(&self, shard: usize) -> Vec<K> {
        self.shards[shard]
            .lock()
            .expect("cache shard poisoned")
            .keys_mru_first()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The `(key, value)` pairs of one shard, least recently used first,
    /// without touching recency.  Re-inserting the pairs of every shard in
    /// this order into an empty cache of the same geometry reproduces the
    /// exact per-shard contents *and* recency order — the write-behind
    /// persistence layer compacts its log this way, and the reload property
    /// test uses it as the oracle.
    pub fn shard_entries_lru_first(&self, shard: usize) -> Vec<(K, V)> {
        self.shards[shard]
            .lock()
            .expect("cache shard poisoned")
            .entries_lru_first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_shard(capacity: usize) -> ShardedLru<u64, u64> {
        ShardedLru::new(capacity, 1)
    }

    #[test]
    fn lru_evicts_least_recently_used_in_order() {
        let c = single_shard(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.shard_keys_mru_first(0), vec![3, 2, 1]);
        // touching 1 protects it; 2 becomes LRU
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.shard_keys_mru_first(0), vec![1, 3, 2]);
        c.insert(4, 40);
        assert_eq!(c.get(&2), None, "2 was LRU and must be evicted");
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.get(&4), Some(40));
        assert_eq!(c.len(), 3);
        // continued inserts evict in exact recency order: 1, 3, 4 ...
        c.insert(5, 50);
        assert_eq!(c.get(&1), None);
        c.insert(6, 60);
        assert_eq!(c.get(&3), None);
        assert_eq!(c.shard_keys_mru_first(0), vec![6, 5, 4]);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let c = single_shard(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh: 1 becomes MRU with the new value
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c = single_shard(2);
        assert!(c.is_empty());
        c.insert(1, 1);
        c.get(&1);
        c.get(&1);
        c.get(&9);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
    }

    #[test]
    fn capacity_is_split_across_shards() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(8, 4);
        assert_eq!(c.num_shards(), 4);
        for k in 0..1000u64 {
            c.insert(k, k);
        }
        // each shard holds at most ceil(8/4) = 2 entries
        assert!(c.len() <= 8);
        for shard in 0..4 {
            assert!(c.shard_keys_mru_first(shard).len() <= 2);
        }
    }

    #[test]
    fn get_tracking_mru_reports_prior_recency() {
        let c = single_shard(3);
        c.insert(1, 10);
        c.insert(2, 20);
        // 2 is MRU: its hit reports was_mru and changes nothing
        assert_eq!(c.get_tracking_mru(&2), Some((20, true)));
        // 1 is not MRU: its hit reports !was_mru and promotes it
        assert_eq!(c.get_tracking_mru(&1), Some((10, false)));
        assert_eq!(c.get_tracking_mru(&1), Some((10, true)));
        assert_eq!(c.get_tracking_mru(&9), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn shard_entries_lru_first_reproduces_the_cache_when_replayed() {
        let c = single_shard(3);
        for (k, v) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            c.insert(k, v);
        }
        c.get(&2); // touch: recency becomes MRU [2, 4, 3]
        let dump = c.shard_entries_lru_first(0);
        assert_eq!(dump, vec![(3, 30), (4, 40), (2, 20)]);
        // dumping must not have touched recency
        assert_eq!(c.shard_keys_mru_first(0), vec![2, 4, 3]);
        // replaying the dump into a fresh cache reproduces order and values
        let fresh = single_shard(3);
        for (k, v) in dump {
            fresh.insert(k, v);
        }
        assert_eq!(fresh.shard_keys_mru_first(0), c.shard_keys_mru_first(0));
        assert_eq!(fresh.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let c = single_shard(0);
        c.insert(1, 1);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    /// A key whose hash reads only its first half, so keys sharing it
    /// collide on the whole 64-bit hash.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Colliding(u64, u64);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    #[test]
    fn colliding_hashes_chain_and_compare_the_stored_keys() {
        let c: ShardedLru<Colliding, u64> = ShardedLru::new(3, 1);
        for k in 0..3 {
            c.insert(Colliding(7, k), k);
        }
        assert_eq!(hash_of(&Colliding(7, 0)), hash_of(&Colliding(7, 2)));
        for k in 0..3 {
            assert_eq!(c.peek(&Colliding(7, k)), Some(k));
        }
        assert_eq!(c.get(&Colliding(7, 9)), None);
        // evicting from the middle, the head and the tail of a chain
        c.get(&Colliding(7, 0));
        c.insert(Colliding(8, 0), 10); // evicts (7, 1)
        assert_eq!(c.peek(&Colliding(7, 1)), None);
        assert_eq!(c.peek(&Colliding(7, 0)), Some(0));
        assert_eq!(c.peek(&Colliding(7, 2)), Some(2));
        c.insert(Colliding(8, 1), 11); // evicts (7, 2)
        c.insert(Colliding(8, 2), 12); // evicts (7, 0)
        assert_eq!(c.len(), 3);
        for k in 0..3 {
            assert_eq!(c.peek(&Colliding(7, k)), None);
            assert_eq!(c.get(&Colliding(8, k)), Some(10 + k));
        }
        // a lookup by hash and predicate finds what the owned key finds
        let hash = hash_of(&Colliding(8, 1));
        assert_eq!(c.shard_of_hash(hash), c.shard_of(&Colliding(8, 1)));
        assert_eq!(
            c.get_tracking_mru_hashed(hash, |k| k.1 == 1),
            Some((11, false))
        );
        assert_eq!(c.peek_hashed(hash, |k| k.1 == 5), None);
    }

    fn gdsf_shard(capacity: usize) -> ShardedLru<u64, u64> {
        ShardedLru::with_policy(capacity, 1, EvictionPolicy::Gdsf)
    }

    /// With uniform costs, GDSF priorities are non-increasing from MRU to
    /// LRU, so the minimum-priority victim is always the recency tail —
    /// i.e. GDSF degenerates to exactly LRU.  Replays a mixed workload on
    /// both policies and checks every observable step.
    #[test]
    fn gdsf_with_uniform_cost_is_exactly_lru() {
        let lru = single_shard(3);
        let gdsf = gdsf_shard(3);
        // deterministic mixed workload: inserts, re-inserts, touches, misses
        let ops: &[(u8, u64)] = &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 1),
            (0, 4), // evicts
            (1, 2), // miss on both
            (0, 5),
            (1, 3),
            (0, 1), // refresh of a resident key
            (0, 6),
            (1, 4),
            (0, 7),
        ];
        for &(kind, k) in ops {
            match kind {
                0 => {
                    lru.insert(k, k * 10);
                    gdsf.insert_with_cost(k, k * 10, 7); // uniform, non-unit
                }
                _ => {
                    assert_eq!(lru.get(&k), gdsf.get(&k), "divergence touching {k}");
                }
            }
            assert_eq!(
                lru.shard_keys_mru_first(0),
                gdsf.shard_keys_mru_first(0),
                "recency order diverged after op on {k}"
            );
        }
    }

    /// A single expensive entry (cost 1000, the ~45 ms viem class) must
    /// survive a flood of cheap entries (cost 1, the ~1 ms rank-local
    /// class) that overflows the shard many times over.
    #[test]
    fn gdsf_retains_expensive_entry_under_cheap_flood() {
        let c = gdsf_shard(4);
        c.insert_with_cost(100, 1, 1000);
        for k in 0..32u64 {
            c.insert_with_cost(k, k, 1);
        }
        assert_eq!(c.get(&100), Some(1), "expensive entry was evicted");
        // under LRU the same flood evicts it immediately
        let lru = single_shard(4);
        lru.insert_with_cost(100, 1, 1000); // cost ignored
        for k in 0..32u64 {
            lru.insert_with_cost(k, k, 1);
        }
        assert_eq!(lru.get(&100), None);
    }

    /// The clock ages idle expensive entries out: every eviction advances
    /// the shard clock to the victim's priority, so cheap-but-active
    /// entries eventually out-rank an expensive entry that is never hit
    /// again — GDSF is not a pin.
    #[test]
    fn gdsf_clock_eventually_ages_out_an_idle_expensive_entry() {
        let c = gdsf_shard(2);
        c.insert_with_cost(100, 1, 5);
        // each cheap insert evicts the previous cheap one, walking the
        // clock up by 1 per eviction until it passes the idle entry
        for k in 0..16u64 {
            c.insert_with_cost(k, k, 1);
        }
        assert_eq!(c.get(&100), None, "idle expensive entry must age out");
    }

    /// A hit re-earns an expensive entry its full priority, resetting the
    /// aging countdown.
    #[test]
    fn gdsf_hit_refreshes_priority() {
        let c = gdsf_shard(2);
        c.insert_with_cost(100, 1, 5);
        for round in 0..6u64 {
            for k in 0..3u64 {
                c.insert_with_cost(200 + round * 3 + k, k, 1);
            }
            assert_eq!(
                c.get(&100),
                Some(1),
                "refreshed entry evicted in round {round}"
            );
        }
    }
}
