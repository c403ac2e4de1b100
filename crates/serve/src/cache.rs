//! The daemon's two-level answer cache.
//!
//! **Level 1 — [`ConfigCache`].**  Keyed by the [`WireScenario`]
//! fingerprint (the same [`star_exec::RunFingerprint`] hex that stamps
//! shard partial headers): one entry per configuration ever queried,
//! holding the rebuilt [`Scenario`], the `Arc`-shared [`ScenarioSpectrum`]
//! and the configuration's [`ScenarioModel`].  Entries of different
//! configurations on the same network (`S7` under two disciplines, say)
//! share one topology value and one spectrum build, so the expensive half
//! of a solve is paid once per *network*, and the model's step kernel once
//! per configuration — never per query.  The
//! configuration space is small (four families × tabled sizes × four
//! disciplines × a handful of `V`/`M` values), so this level is unbounded.
//!
//! **Level 2 — [`SolveCache`].**  Keyed by (fingerprint hex, exact rate
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
//! independently locked shards keyed by the fingerprint hash — all rates of
//! one configuration land on one shard — each with its own byte budget and
//! counters that [`ShardedSolveCache::stats`] aggregates losslessly.  Shards
//! also run **single-flight admission** ([`ShardedSolveCache::admit`]): the
//! first miss on a (configuration, rate) key becomes the *leader* and owes
//! the solve; concurrent misses on the same key become *followers* that wait
//! on the leader's [`Flight`] instead of racing redundant solves through the
//! shard lock.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde_json::Value;
use star_workloads::{Scenario, ScenarioModel, ScenarioSpectrum, WireScenario};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

/// One resolved configuration: the rebuilt scenario, its shared spectrum
/// and its model, ready to answer any rate.
#[derive(Debug)]
pub struct ConfigEntry {
    /// The configuration fingerprint, as the canonical 16-hex-digit string.
    pub fingerprint: String,
    /// The batch scenario this configuration denotes.
    pub scenario: Scenario,
    /// The topology's spectrum build, shared by every query and every
    /// configuration on the same network.
    pub spectrum: Arc<ScenarioSpectrum>,
    /// The configuration's model on that spectrum, built once and shared by
    /// every miss; `None` when the analytical model does not cover the
    /// configuration.
    pub model: Option<ScenarioModel>,
}

/// The maps behind [`ConfigCache`], guarded together by one `RwLock`.
#[derive(Debug, Default)]
struct ConfigMaps {
    by_fingerprint: HashMap<String, Arc<ConfigEntry>>,
    /// First scenario seen per network label, holding the shared topology
    /// `Arc`, next to the network's one spectrum build.
    by_network: HashMap<String, (Scenario, Arc<ScenarioSpectrum>)>,
}

/// Level 1: fingerprint → configuration, with per-network sharing of the
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
        let fingerprint = wire.fingerprint().to_hex();
        if let Some(entry) =
            self.maps.read().expect("config cache poisoned").by_fingerprint.get(&fingerprint)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(entry);
        }
        let mut maps = self.maps.write().expect("config cache poisoned");
        // double-check: another connection may have built it while this one
        // waited for the write lock
        if let Some(entry) = maps.by_fingerprint.get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(entry);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let label = wire.network_label();
        let (base, spectrum) = maps.by_network.entry(label).or_insert_with(|| {
            let scenario = wire.scenario();
            let spectrum = Arc::new(ScenarioSpectrum::build(&scenario));
            (scenario, spectrum)
        });
        let scenario = wire.scenario_on(base.topology());
        let model = ScenarioModel::build(&scenario, spectrum);
        let entry = Arc::new(ConfigEntry {
            fingerprint: fingerprint.clone(),
            scenario,
            spectrum: Arc::clone(spectrum),
            model,
        });
        maps.by_fingerprint.insert(fingerprint, Arc::clone(&entry));
        entry
    }

    /// Counters as a JSON object (`entries`/`networks`/`hits`/`misses`).
    #[must_use]
    pub fn stats(&self) -> Value {
        let maps = self.maps.read().expect("config cache poisoned");
        Value::Object(vec![
            ("entries".to_string(), Value::from(maps.by_fingerprint.len())),
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

/// (interned fingerprint, rate bits): every key of one configuration
/// shares the fingerprint's one allocation.
type SolveKey = (Arc<str>, u64);

/// Level 2: the LRU-budgeted answer cache.  See the [module docs](self).
#[derive(Debug)]
pub struct SolveCache {
    budget_bytes: usize,
    used_bytes: usize,
    entries: HashMap<SolveKey, SolveEntry>,
    /// Recency order: stamp → key (stamps are unique and monotonic).
    lru: BTreeMap<u64, SolveKey>,
    /// Every fingerprint seen, shared by the keys above.  Bounded by the
    /// configuration space, like the config cache.
    fingerprints: HashSet<Arc<str>>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Approximate heap cost of one cached solve, for the byte budget: two
/// fingerprint lengths, the payload and a fixed allowance for map overheads.
fn entry_cost(fingerprint: &str, payload: &str) -> usize {
    2 * fingerprint.len() + payload.len() + 96
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
            fingerprints: HashSet::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The key of (`fingerprint`, `rate`), holding the fingerprint's
    /// interned copy (allocated on first sight).
    fn key(&mut self, fingerprint: &str, rate: f64) -> SolveKey {
        let shared = match self.fingerprints.get(fingerprint) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared: Arc<str> = Arc::from(fingerprint);
                self.fingerprints.insert(Arc::clone(&shared));
                shared
            }
        };
        (shared, rate.to_bits())
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks up (configuration, rate), counting the outcome and refreshing
    /// recency on hits.
    pub fn lookup(&mut self, fingerprint: &str, rate: f64) -> Lookup {
        let key = self.key(fingerprint, rate);
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
    pub fn insert(&mut self, fingerprint: &str, rate: f64, payload: String) {
        let key = self.key(fingerprint, rate);
        let cost = entry_cost(fingerprint, &payload);
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.stamp);
            self.used_bytes -= entry_cost(fingerprint, &old.payload);
        }
        let stamp = self.stamp();
        self.entries.insert(key.clone(), SolveEntry { payload, hits: 0, stamp });
        self.lru.insert(stamp, key);
        self.used_bytes += cost;
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.budget_bytes && self.entries.len() > 1 {
            let (&stamp, _) = self.lru.iter().next().expect("lru tracks every entry");
            let key = self.lru.remove(&stamp).expect("stamp just observed");
            let entry = self.entries.remove(&key).expect("entries track every lru stamp");
            self.used_bytes -= entry_cost(&key.0, &entry.payload);
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
    /// Lookups that missed (including ones later coalesced onto a flight).
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

/// One in-flight solve's key: (fingerprint hex, rate bits).
type FlightKey = (String, u64);

#[derive(Debug)]
enum FlightState {
    /// The leader is still solving.
    Pending,
    /// The leader published its canonical encoded answer.
    Done(String),
    /// The leader died (panic / dropped token) without an answer.
    Aborted,
}

/// A single-flight rendezvous: one leader solves, any number of followers
/// [`wait`](Self::wait) for the published answer instead of re-solving.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }

    fn is_pending(&self) -> bool {
        matches!(*self.state.lock().expect("flight poisoned"), FlightState::Pending)
    }

    /// Resolves the flight exactly once; later calls are no-ops.
    fn publish(&self, payload: Option<String>) {
        let mut state = self.state.lock().expect("flight poisoned");
        if matches!(*state, FlightState::Pending) {
            *state = match payload {
                Some(payload) => FlightState::Done(payload),
                None => FlightState::Aborted,
            };
            self.cv.notify_all();
        }
    }

    /// Blocks until the leader resolves the flight.  `None` means the
    /// leader aborted: the follower must fall back to solving itself.
    #[must_use]
    pub fn wait(&self) -> Option<String> {
        let mut state = self.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Pending => state = self.cv.wait(state).expect("flight poisoned"),
                FlightState::Done(payload) => return Some(payload.clone()),
                FlightState::Aborted => return None,
            }
        }
    }
}

/// The leader's obligation to resolve its [`Flight`].  Pass it back to
/// [`ShardedSolveCache::complete`] with the solved answer; dropping it
/// without completing (a panicking solve, say) aborts the flight so
/// followers unblock and self-solve instead of hanging forever.
#[derive(Debug)]
pub struct FlightToken {
    key: FlightKey,
    flight: Arc<Flight>,
    done: bool,
}

impl Drop for FlightToken {
    fn drop(&mut self) {
        if !self.done {
            self.flight.publish(None);
        }
    }
}

/// What [`ShardedSolveCache::admit`] decided for one query.
#[derive(Debug)]
pub enum Admission {
    /// Cached: the stored answer, verbatim.
    Hit {
        /// The canonical encoded answer.
        payload: String,
        /// Times this entry has been served, including now.
        hits: u64,
    },
    /// First miss on this (configuration, rate): the caller owes the solve
    /// and must [`complete`](ShardedSolveCache::complete) the token.
    Lead {
        /// The obligation to publish the answer (or abort on drop).
        token: FlightToken,
    },
    /// Another caller is already solving this exact key: wait on its
    /// flight instead of re-solving.
    Follow {
        /// The leader's flight; [`Flight::wait`] yields the answer.
        flight: Arc<Flight>,
    },
}

/// One shard: a [`SolveCache`] plus its in-flight solves, under one lock,
/// with admission counters.
#[derive(Debug)]
struct ShardInner {
    cache: SolveCache,
    flights: HashMap<FlightKey, Arc<Flight>>,
    /// Answers stored (via flights, prewarming, or fallback inserts).
    inserted: u64,
    /// Misses that joined an existing flight instead of re-solving.
    coalesced: u64,
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
            inner: Mutex::new(ShardInner {
                cache: SolveCache::new(budget_bytes),
                flights: HashMap::new(),
                inserted: 0,
                coalesced: 0,
            }),
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

/// Level 2, scaled out: N independently locked [`SolveCache`] shards with
/// single-flight admission.  The fingerprint hash picks the shard, so all
/// rates of one configuration share a shard; the total byte budget splits
/// evenly across shards (each shard runs its own LRU within `budget / N`).  See the [module docs](self).
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

    /// FNV-1a over the fingerprint hex — stable, dependency-free, and
    /// well mixed over the 16-hex-digit alphabet.
    fn shard_index(&self, fingerprint: &str) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in fingerprint.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    fn shard(&self, fingerprint: &str) -> &Shard {
        &self.shards[self.shard_index(fingerprint)]
    }

    /// Admits one query: a cache hit answers verbatim; the first miss on a
    /// (configuration, rate) key becomes the leader and owes the solve;
    /// concurrent misses on the same key follow the leader's flight.
    /// Atomic per key — exactly one caller holds a live [`FlightToken`] at
    /// a time.
    pub fn admit(&self, fingerprint: &str, rate: f64) -> Admission {
        let mut inner = self.shard(fingerprint).lock();
        if let Lookup::Hit { payload, hits } = inner.cache.lookup(fingerprint, rate) {
            return Admission::Hit { payload, hits };
        }
        let key: FlightKey = (fingerprint.to_string(), rate.to_bits());
        if let Some(flight) = inner.flights.get(&key) {
            // a flight whose leader aborted stays in the map until someone
            // re-misses; that someone replaces it below
            if flight.is_pending() {
                let flight = Arc::clone(flight);
                inner.coalesced += 1;
                return Admission::Follow { flight };
            }
        }
        let flight = Arc::new(Flight::new());
        inner.flights.insert(key.clone(), Arc::clone(&flight));
        Admission::Lead { token: FlightToken { key, flight, done: false } }
    }

    /// Stores the leader's answer, retires its flight, and wakes every
    /// follower with the same payload.
    pub fn complete(&self, mut token: FlightToken, payload: String) {
        {
            let mut inner = self.shard(&token.key.0).lock();
            let rate = f64::from_bits(token.key.1);
            inner.cache.insert(&token.key.0, rate, payload.clone());
            inner.inserted += 1;
            if inner.flights.get(&token.key).is_some_and(|f| Arc::ptr_eq(f, &token.flight)) {
                inner.flights.remove(&token.key);
            }
        }
        token.done = true;
        token.flight.publish(Some(payload));
    }

    /// Stores an answer outside any flight — prewarming, and followers
    /// falling back after an aborted flight.
    pub fn insert(&self, fingerprint: &str, rate: f64, payload: String) {
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
    /// fields and adds `shards` / `inserted` / `coalesced` / `contended`.
    pub fn snapshot<T>(&self, with: impl FnOnce() -> T) -> (Value, T) {
        let guards: Vec<MutexGuard<'_, ShardInner>> = self.shards.iter().map(Shard::lock).collect();
        let extra = with();
        let mut total = SolveCounters::default();
        let mut inserted = 0u64;
        let mut coalesced = 0u64;
        for guard in &guards {
            total = total.merge(guard.cache.counters());
            inserted += guard.inserted;
            coalesced += guard.coalesced;
        }
        drop(guards);
        let contended: u64 =
            self.shards.iter().map(|shard| shard.contended.load(Ordering::Relaxed)).sum();
        let Value::Object(mut fields) = total.to_value() else {
            unreachable!("counters encode as an object")
        };
        fields.push(("shards".to_string(), Value::from(self.shards.len())));
        fields.push(("inserted".to_string(), Value::from(inserted)));
        fields.push(("coalesced".to_string(), Value::from(coalesced)));
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
    use star_workloads::{Discipline, TopologyKind};

    fn wire(discipline: Discipline, vc: usize) -> WireScenario {
        WireScenario {
            kind: TopologyKind::Star,
            size: 5,
            discipline,
            virtual_channels: vc,
            message_length: 32,
        }
    }

    #[test]
    fn config_cache_shares_spectra_per_network_and_hits_per_fingerprint() {
        let cache = ConfigCache::new();
        let a = cache.resolve(&wire(Discipline::EnhancedNbc, 6));
        let b = cache.resolve(&wire(Discipline::EnhancedNbc, 6));
        assert!(Arc::ptr_eq(&a, &b), "same fingerprint must be one entry");
        let c = cache.resolve(&wire(Discipline::Nbc, 7));
        assert_ne!(a.fingerprint, c.fingerprint);
        // different configurations, one network: topology and spectrum shared
        assert!(Arc::ptr_eq(&a.spectrum, &c.spectrum));
        assert!(Arc::ptr_eq(&a.scenario.topology(), &c.scenario.topology()));
        let stats = cache.stats();
        assert_eq!(stats.get("entries").unwrap().as_u64(), Some(2));
        assert_eq!(stats.get("networks").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn hits_replay_the_stored_payload_and_reinserts_replace_it() {
        let mut cache = SolveCache::new(1 << 20);
        cache.insert("aaaa", 0.004, "{\"first\":1}".to_string());
        assert_eq!(cache.lookup("aaaa", 0.005), Lookup::Miss);
        // the hit counter climbs with every verbatim replay…
        for hits in 1..=2 {
            assert_eq!(
                cache.lookup("aaaa", 0.004),
                Lookup::Hit { payload: "{\"first\":1}".to_string(), hits }
            );
        }
        // …and a re-insert replaces the entry, counter included
        cache.insert("aaaa", 0.004, "{\"second\":2}".to_string());
        assert_eq!(
            cache.lookup("aaaa", 0.004),
            Lookup::Hit { payload: "{\"second\":2}".to_string(), hits: 1 }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn every_key_of_a_configuration_shares_one_fingerprint_allocation() {
        let mut cache = SolveCache::new(1 << 20);
        for rate in [0.001, 0.002, 0.003] {
            cache.insert("f", rate, "x".to_string());
        }
        let _ = cache.lookup("f", 0.004);
        cache.insert("g", 0.001, "x".to_string());
        assert_eq!(cache.fingerprints.len(), 2);
        let shared = cache.fingerprints.get("f").unwrap();
        let of_f: Vec<&Arc<str>> = cache
            .entries
            .keys()
            .map(|(f, _)| f)
            .chain(cache.lru.values().map(|(f, _)| f))
            .filter(|f| &***f == "f")
            .collect();
        // three entries and their three recency slots
        assert_eq!(of_f.len(), 3 + 3);
        assert!(of_f.iter().all(|f| Arc::ptr_eq(f, shared)));
    }

    #[test]
    fn lru_budget_evicts_cold_entries_first_and_keeps_the_newest() {
        let one = entry_cost("ffffffffffffffff", "x");
        let mut cache = SolveCache::new(3 * one + one / 2);
        cache.insert("ffffffffffffffff", 0.001, "x".to_string());
        cache.insert("ffffffffffffffff", 0.002, "x".to_string());
        cache.insert("ffffffffffffffff", 0.003, "x".to_string());
        assert_eq!(cache.len(), 3);
        // touch 0.001 so 0.002 is the least recently used…
        assert!(matches!(cache.lookup("ffffffffffffffff", 0.001), Lookup::Hit { .. }));
        cache.insert("ffffffffffffffff", 0.004, "x".to_string());
        assert_eq!(cache.len(), 3);
        // …and is the one evicted
        assert_eq!(cache.lookup("ffffffffffffffff", 0.002), Lookup::Miss);
        assert!(matches!(cache.lookup("ffffffffffffffff", 0.001), Lookup::Hit { .. }));
        // a budget below one entry still holds exactly the newest answer
        let mut tiny = SolveCache::new(1);
        tiny.insert("ffffffffffffffff", 0.001, "x".to_string());
        tiny.insert("ffffffffffffffff", 0.002, "y".to_string());
        assert_eq!(tiny.len(), 1);
        assert!(matches!(tiny.lookup("ffffffffffffffff", 0.002), Lookup::Hit { .. }));
        assert!(tiny.stats().get("evictions").unwrap().as_u64().unwrap() >= 1);
        assert!(!tiny.is_empty());
    }

    /// 16-hex-digit fingerprints (the real key shape) that land on
    /// distinct shards of a 4-shard cache.
    fn distinct_shard_fingerprints(cache: &ShardedSolveCache, want: usize) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for i in 0..10_000u64 {
            let fp = format!("{i:016x}");
            if seen.insert(cache.shard_index(&fp)) {
                out.push(fp);
                if out.len() == want {
                    return out;
                }
            }
        }
        panic!("could not find {want} fingerprints on distinct shards");
    }

    #[test]
    fn sharded_budget_is_per_shard_and_stats_aggregate_losslessly() {
        let one = entry_cost("ffffffffffffffff", "x");
        // 4 shards, 2-entries-ish each: the whole cache could hold ~8, but
        // one configuration's shard alone holds only ~2
        let cache = ShardedSolveCache::new(4 * (2 * one + one / 2), 4);
        assert_eq!(cache.shard_count(), 4);
        let fps = distinct_shard_fingerprints(&cache, 2);
        for i in 0..4 {
            let rate = 0.001 * (i + 1) as f64;
            cache.insert(&fps[0], rate, "x".to_string());
        }
        // the overloaded shard evicted down to its own budget even though
        // the total budget had room to spare
        let per_shard = cache.shard_stats();
        let loaded = cache.shard_index(&fps[0]);
        assert_eq!(per_shard[loaded].entries, 2, "per-shard LRU holds ~2 entries");
        assert!(per_shard[loaded].evictions >= 2);
        cache.insert(&fps[1], 0.001, "x".to_string());
        assert!(matches!(cache.admit(&fps[1], 0.001), Admission::Hit { hits: 1, .. }));
        // aggregate stats are exactly the field-by-field sum of the shards
        let sum =
            cache.shard_stats().into_iter().fold(SolveCounters::default(), SolveCounters::merge);
        let stats = cache.stats();
        for (key, got) in [
            ("entries", sum.entries),
            ("bytes", sum.bytes),
            ("budget_bytes", sum.budget_bytes),
            ("hits", sum.hits),
            ("misses", sum.misses),
            ("evictions", sum.evictions),
        ] {
            assert_eq!(stats.get(key).unwrap().as_u64(), Some(got), "aggregate {key}");
        }
        assert_eq!(stats.get("shards").unwrap().as_u64(), Some(4));
        assert_eq!(stats.get("inserted").unwrap().as_u64(), Some(5));
        assert_eq!(cache.len(), sum.entries as usize);
        assert!(!cache.is_empty());
    }

    #[test]
    fn single_flight_race_two_threads_one_solve() {
        let cache = Arc::new(ShardedSolveCache::new(1 << 20, 4));
        let fp = "00000000000000aa";
        // leader admits first and holds its token across the follower's
        // admission — the deterministic version of two connections racing
        let Admission::Lead { token } = cache.admit(fp, 0.004) else {
            panic!("first miss must lead");
        };
        let follower = {
            let cache = Arc::clone(&cache);
            let Admission::Follow { flight } = cache.admit(fp, 0.004) else {
                panic!("concurrent same-key miss must follow, not re-solve");
            };
            std::thread::spawn(move || flight.wait())
        };
        cache.complete(token, "{\"answer\":1}".to_string());
        assert_eq!(follower.join().unwrap(), Some("{\"answer\":1}".to_string()));
        let stats = cache.stats();
        assert_eq!(stats.get("inserted").unwrap().as_u64(), Some(1), "exactly one solve stored");
        assert_eq!(stats.get("coalesced").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("entries").unwrap().as_u64(), Some(1));
        // and the answer now serves hits verbatim
        let Admission::Hit { payload, hits } = cache.admit(fp, 0.004) else {
            panic!("completed flight must have populated the cache");
        };
        assert_eq!((payload.as_str(), hits), ("{\"answer\":1}", 1));
    }

    #[test]
    fn aborted_leaders_unblock_followers_and_are_replaced() {
        let cache = ShardedSolveCache::new(1 << 20, 2);
        let fp = "00000000000000bb";
        let Admission::Lead { token } = cache.admit(fp, 0.004) else {
            panic!("first miss must lead");
        };
        let Admission::Follow { flight } = cache.admit(fp, 0.004) else {
            panic!("second miss must follow");
        };
        drop(token); // leader dies without an answer
        assert_eq!(flight.wait(), None, "followers get the abort, not a hang");
        // the stale aborted flight is replaced: the next miss leads again
        assert!(matches!(cache.admit(fp, 0.004), Admission::Lead { .. }));
    }
}
