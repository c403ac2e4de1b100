//! The daemon's two-level answer cache.
//!
//! **Level 1 — [`ConfigCache`].**  Keyed by the [`WireScenario`] itself
//! (every field of it is model-relevant): one entry per configuration ever
//! queried, holding the rebuilt [`Scenario`], the configuration's
//! [`ScenarioModel`] and its fingerprint digest.  The cache keeps one base
//! scenario per network and derives every configuration on that network
//! (`S7` under two disciplines, say) from it with
//! [`WireScenario::scenario_on`], so they all share the base's topology
//! value and the spectrum the base carries ([`ScenarioSpectrum::build`]).  The expensive half of a solve is paid
//! once per *network*, prewarming's rate grids included, and the model's
//! step kernel once per configuration — never per query.  The
//! configuration space is small (four families × tabled sizes × four
//! disciplines × a handful of `V`/`M` values), so this level is unbounded.
//!
//! **Level 2 — [`SolveCache`].**  Keyed by (fingerprint digest, exact rate
//! bits): the canonical encoded answer of every solve, with a per-entry hit
//! counter, under an LRU byte budget.  Every entry is a cold solve, the
//! same bytes [`star_workloads::ModelBackend`] encodes for the point, so a
//! hit answers any query verbatim without breaking the daemon's
//! byte-identity contract.
//!
//! **Concurrency.**  Both levels own their synchronisation.  The config
//! cache is read-mostly (six-ish configurations serve millions of queries),
//! so [`ConfigCache::resolve`] takes a shared read lock on the hit path and
//! upgrades to a write lock only to build a new entry.  The solve cache is
//! write-heavy (every miss inserts), so [`ShardedSolveCache`] splits it into
//! independently locked shards picked by the fingerprint digest — all rates
//! of one configuration land on one shard — each with its own byte budget
//! and counters that [`ShardedSolveCache::stats`] aggregates losslessly.  A
//! miss is a [`ShardedSolveCache::lookup`] then a
//! [`ShardedSolveCache::insert`] of the solved answer; two connections missing the same key at once each
//! solve it and store the same bytes, since the cold solve is deterministic.

use std::collections::{BTreeMap, HashMap};

use serde_json::Value;
use star_workloads::{Scenario, ScenarioModel, ScenarioSpectrum, TopologyKind, WireScenario};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One resolved configuration: the rebuilt scenario and its model, ready to
/// answer any rate.
#[derive(Debug)]
pub struct ConfigEntry {
    /// The configuration's [`WireScenario::fingerprint`] digest, computed
    /// once when the entry is built: the solve cache's key and shard pick.
    pub fingerprint: u64,
    /// The batch scenario this configuration denotes, carrying the spectrum
    /// every configuration on the same network shares.
    pub scenario: Scenario,
    /// The configuration's model on that spectrum, built once and shared by
    /// every miss; `None` when the analytical model does not cover the
    /// configuration.
    pub model: Option<ScenarioModel>,
}

/// The maps behind [`ConfigCache`], guarded together by one `RwLock`.
#[derive(Debug, Default)]
struct ConfigMaps {
    by_config: HashMap<WireScenario, Arc<ConfigEntry>>,
    /// One base scenario per network (family and size), which every
    /// configuration on the network is derived from: it holds the shared
    /// topology and spectrum.
    by_network: HashMap<(TopologyKind, usize), Scenario>,
}

/// Level 1: wire scenario → configuration, with per-network sharing of the
/// topology value and spectrum build.
///
/// Synchronisation is internal and read-mostly: a hit takes only a shared
/// read lock, so concurrent connections resolving known configurations
/// never serialise on this level; a miss upgrades to the write lock (with a
/// double-check, so racing first sights build once) and pays the spectrum
/// and model builds there — rare, the configuration space is tiny.
#[derive(Debug, Default)]
pub struct ConfigCache {
    maps: RwLock<ConfigMaps>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConfigCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The configuration for a wire scenario, building topology and
    /// spectrum only on first sight of the network, and the model only on
    /// first sight of the configuration.
    pub fn resolve(&self, wire: &WireScenario) -> Arc<ConfigEntry> {
        if let Some(entry) = self.maps.read().expect("config cache poisoned").by_config.get(wire) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(entry);
        }
        let mut maps = self.maps.write().expect("config cache poisoned");
        // double-check: another connection may have built it while this one
        // waited for the write lock
        if let Some(entry) = maps.by_config.get(wire) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(entry);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let base = maps.by_network.entry((wire.kind, wire.size)).or_insert_with(|| wire.scenario());
        let scenario = wire.scenario_on(base);
        let model = ScenarioModel::build(&scenario, &ScenarioSpectrum::build(&scenario));
        let fingerprint = wire.fingerprint().finish();
        let entry = Arc::new(ConfigEntry { fingerprint, scenario, model });
        maps.by_config.insert(*wire, Arc::clone(&entry));
        entry
    }

    /// Counters as a JSON object (`entries`/`networks`/`hits`/`misses`).
    #[must_use]
    pub fn stats(&self) -> Value {
        let maps = self.maps.read().expect("config cache poisoned");
        Value::Object(vec![
            ("entries".to_string(), Value::from(maps.by_config.len())),
            ("networks".to_string(), Value::from(maps.by_network.len())),
            ("hits".to_string(), Value::from(self.hits.load(Ordering::Relaxed))),
            ("misses".to_string(), Value::from(self.misses.load(Ordering::Relaxed))),
        ])
    }
}

/// What a [`SolveCache::lookup`] answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// The exact (configuration, rate) pair is cached: the stored answer,
    /// verbatim, with the entry's hit count after this hit.
    Hit {
        /// The canonical encoded answer.
        payload: String,
        /// Times this entry has been served, including now.
        hits: u64,
    },
    /// Not cached; solve it.
    Miss,
}

#[derive(Debug)]
struct SolveEntry {
    payload: String,
    hits: u64,
    stamp: u64,
}

/// (fingerprint digest, rate bits).
type SolveKey = (u64, u64);

/// Level 2: the LRU-budgeted answer cache.  See the [module docs](self).
#[derive(Debug)]
pub struct SolveCache {
    budget_bytes: usize,
    used_bytes: usize,
    entries: HashMap<SolveKey, SolveEntry>,
    /// Recency order: stamp → key (stamps are unique and monotonic).
    lru: BTreeMap<u64, SolveKey>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Approximate heap cost of one cached solve, for the byte budget: the
/// payload and a fixed allowance for the keys and map overheads.
fn entry_cost(payload: &str) -> usize {
    payload.len() + 128
}

impl SolveCache {
    /// A cache evicting least-recently-used answers beyond `budget_bytes`
    /// of (approximate) heap use.  The most recent answer always stays,
    /// however small the budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks up (configuration, rate), counting the outcome and refreshing
    /// recency on hits.
    pub fn lookup(&mut self, fingerprint: u64, rate: f64) -> Lookup {
        let key = (fingerprint, rate.to_bits());
        let fresh = self.stamp();
        let Some(entry) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return Lookup::Miss;
        };
        entry.hits += 1;
        self.hits += 1;
        let old = std::mem::replace(&mut entry.stamp, fresh);
        let payload = entry.payload.clone();
        let hits = entry.hits;
        self.lru.remove(&old);
        self.lru.insert(fresh, key);
        Lookup::Hit { payload, hits }
    }

    /// Stores a solved answer's canonical payload.  Re-inserting a key
    /// replaces the old entry.
    pub fn insert(&mut self, fingerprint: u64, rate: f64, payload: String) {
        let key = (fingerprint, rate.to_bits());
        let cost = entry_cost(&payload);
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.stamp);
            self.used_bytes -= entry_cost(&old.payload);
        }
        let stamp = self.stamp();
        self.entries.insert(key, SolveEntry { payload, hits: 0, stamp });
        self.lru.insert(stamp, key);
        self.used_bytes += cost;
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.budget_bytes && self.entries.len() > 1 {
            let (&stamp, _) = self.lru.iter().next().expect("lru tracks every entry");
            let key = self.lru.remove(&stamp).expect("stamp just observed");
            let entry = self.entries.remove(&key).expect("entries track every lru stamp");
            self.used_bytes -= entry_cost(&entry.payload);
            self.evictions += 1;
        }
    }

    /// Number of cached answers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters behind [`Self::stats`], as plain numbers — what the
    /// sharded cache sums across shards.
    #[must_use]
    pub fn counters(&self) -> SolveCounters {
        SolveCounters {
            entries: self.entries.len() as u64,
            bytes: self.used_bytes as u64,
            budget_bytes: self.budget_bytes as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Counters as a JSON object (`entries`/`bytes`/`budget_bytes`/`hits`/
    /// `misses`/`evictions`).
    #[must_use]
    pub fn stats(&self) -> Value {
        self.counters().to_value()
    }
}

/// One solve-cache level's counters as plain numbers: a single shard's, or
/// (summed field by field) the whole sharded cache's.  The aggregate is
/// lossless — every counter is a sum, `entries`/`bytes` partition over
/// shards by key, and `budget_bytes` sums to the configured total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// Cached answers held.
    pub entries: u64,
    /// Approximate heap bytes used.
    pub bytes: u64,
    /// Byte budget.
    pub budget_bytes: u64,
    /// Lookups answered verbatim.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
}

impl SolveCounters {
    /// Field-by-field sum.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            entries: self.entries + other.entries,
            bytes: self.bytes + other.bytes,
            budget_bytes: self.budget_bytes + other.budget_bytes,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }

    /// The counters as the JSON object the `stats` wire reply carries.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("entries".to_string(), Value::from(self.entries)),
            ("bytes".to_string(), Value::from(self.bytes)),
            ("budget_bytes".to_string(), Value::from(self.budget_bytes)),
            ("hits".to_string(), Value::from(self.hits)),
            ("misses".to_string(), Value::from(self.misses)),
            ("evictions".to_string(), Value::from(self.evictions)),
        ])
    }
}

/// One shard: a [`SolveCache`] and its insert counter, under one lock.
#[derive(Debug)]
struct ShardInner {
    cache: SolveCache,
    /// Answers stored (by misses and by prewarming).
    inserted: u64,
}

#[derive(Debug)]
struct Shard {
    inner: Mutex<ShardInner>,
    /// Lock acquisitions that found the shard lock already held.
    contended: AtomicU64,
}

impl Shard {
    fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(ShardInner { cache: SolveCache::new(budget_bytes), inserted: 0 }),
            contended: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("solve shard poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(poison)) => {
                panic!("solve shard poisoned: {poison}")
            }
        }
    }
}

/// Level 2, scaled out: N independently locked [`SolveCache`] shards.  The
/// fingerprint digest picks the shard, so all rates of one configuration
/// share a shard; the total byte budget splits evenly across shards (each
/// shard runs its own LRU within `budget / N`).  See the
/// [module docs](self).
#[derive(Debug)]
pub struct ShardedSolveCache {
    shards: Vec<Shard>,
}

impl ShardedSolveCache {
    /// `shards` independently locked shards (at least one) splitting
    /// `budget_bytes` evenly.
    #[must_use]
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = budget_bytes.div_ceil(shards);
        Self { shards: (0..shards).map(|_| Shard::new(per_shard)).collect() }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding every rate of a configuration.  The fingerprint
    /// is a byte-wise FNV-1a digest, whose low `k` bits depend only on the
    /// low `k` bits of each input byte, so configurations differing in `M`
    /// by a power of two would share a shard under a plain remainder;
    /// folding the high half in first mixes in every input bit.
    fn shard(&self, fingerprint: u64) -> &Shard {
        let mixed = fingerprint ^ (fingerprint >> 32);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Looks up (configuration, rate) on its shard: a hit answers
    /// verbatim, a miss is the caller's to solve and [`Self::insert`].
    pub fn lookup(&self, fingerprint: u64, rate: f64) -> Lookup {
        self.shard(fingerprint).lock().cache.lookup(fingerprint, rate)
    }

    /// Stores a solved answer (a miss's, or prewarming's).
    pub fn insert(&self, fingerprint: u64, rate: f64, payload: String) {
        let mut inner = self.shard(fingerprint).lock();
        inner.cache.insert(fingerprint, rate, payload);
        inner.inserted += 1;
    }

    /// Total cached answers across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().cache.len()).sum()
    }

    /// Whether nothing is cached anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each shard's counters, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<SolveCounters> {
        self.shards.iter().map(|shard| shard.lock().cache.counters()).collect()
    }

    /// A consistent snapshot: locks every shard (in index order), sums the
    /// counters, and runs `with` while all shards are pinned — so a stats
    /// reply can combine this level with others without interleaving
    /// mid-update counts.  The JSON keeps the flat [`SolveCounters`]
    /// fields and adds `shards` / `inserted` / `contended`.
    pub fn snapshot<T>(&self, with: impl FnOnce() -> T) -> (Value, T) {
        let guards: Vec<MutexGuard<'_, ShardInner>> = self.shards.iter().map(Shard::lock).collect();
        let extra = with();
        let mut total = SolveCounters::default();
        let mut inserted = 0u64;
        for guard in &guards {
            total = total.merge(guard.cache.counters());
            inserted += guard.inserted;
        }
        drop(guards);
        let contended: u64 =
            self.shards.iter().map(|shard| shard.contended.load(Ordering::Relaxed)).sum();
        let Value::Object(mut fields) = total.to_value() else {
            unreachable!("counters encode as an object")
        };
        fields.push(("shards".to_string(), Value::from(self.shards.len())));
        fields.push(("inserted".to_string(), Value::from(inserted)));
        fields.push(("contended".to_string(), Value::from(contended)));
        (Value::Object(fields), extra)
    }

    /// Aggregate counters as a JSON object; see [`Self::snapshot`].
    #[must_use]
    pub fn stats(&self) -> Value {
        self.snapshot(|| ()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_prewarmed_pool_builds_one_spectrum_per_network() {
        // the pool's six networks, two of them under a second configuration
        let prewarm =
            crate::prewarm::parse_prewarm_list("pool,star:5:nbc:7,hypercube:7:nhop:9").unwrap();
        let config = crate::ServeConfig { prewarm, prewarm_rates: 2, ..Default::default() };
        let daemon = crate::Daemon::bind(config).unwrap();
        assert_eq!(daemon.prewarmed().map(|report| report.configs), Some(8));
        let state = daemon.state();
        let maps = state.configs.maps.read().unwrap();
        assert_eq!((maps.by_config.len(), maps.by_network.len()), (8, 6));
        for (wire, entry) in &maps.by_config {
            assert_eq!(entry.fingerprint, wire.fingerprint().finish());
            let base = &maps.by_network[&(wire.kind, wire.size)];
            assert!(
                Arc::ptr_eq(
                    ScenarioSpectrum::build(base).spectrum(),
                    ScenarioSpectrum::build(&entry.scenario).spectrum()
                ),
                "{} holds its own spectrum",
                entry.scenario.label()
            );
        }
    }
}
