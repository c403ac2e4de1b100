//! The serve daemon's two cache levels through the facade's public API:
//! the solve cache's LRU byte budget and its exact byte accounting, the
//! configuration cache's per-network spectrum sharing, and the sharded
//! cache keeping every rate of a configuration on one shard, spreading
//! configurations across shards and aggregating its shards' counters
//! losslessly.

use std::sync::Arc;

use star_wormhole::serve::{ConfigCache, Lookup, ShardedSolveCache, SolveCache, SolveCounters};
use star_wormhole::{Discipline, ScenarioSpectrum, TopologyKind, WireScenario};

/// What one cached answer charges against the byte budget: its payload and
/// a fixed 128-byte allowance for keys and map overheads.
fn cost(payload: &str) -> u64 {
    payload.len() as u64 + 128
}

fn star5(discipline: Discipline, virtual_channels: usize) -> WireScenario {
    WireScenario {
        kind: TopologyKind::Star,
        size: 5,
        discipline,
        virtual_channels,
        message_length: 32,
    }
}

/// The shard of an `shards`-shard cache that a fingerprint lands on, read
/// back from which shard counted the probe's miss.
fn home_shard(shards: usize, fingerprint: u64) -> usize {
    let cache = ShardedSolveCache::new(1 << 20, shards);
    assert_eq!(cache.lookup(fingerprint, 0.001), Lookup::Miss);
    let per_shard = cache.shard_stats();
    let homes: Vec<usize> = (0..shards).filter(|&i| per_shard[i].misses > 0).collect();
    assert_eq!(homes.len(), 1, "one probe, one shard: {per_shard:?}");
    homes[0]
}

/// Checks that the aggregate stats are the field-by-field sum of the
/// shards' counters, plus the shard count and the insert counter.
fn assert_aggregates_losslessly(cache: &ShardedSolveCache, shards: u64, inserted: u64) {
    let sum = cache.shard_stats().into_iter().fold(SolveCounters::default(), SolveCounters::merge);
    let stats = cache.stats();
    let count = |key| stats.get(key).and_then(serde_json::Value::as_u64);
    for (key, want) in [
        ("entries", sum.entries),
        ("bytes", sum.bytes),
        ("budget_bytes", sum.budget_bytes),
        ("hits", sum.hits),
        ("misses", sum.misses),
        ("evictions", sum.evictions),
    ] {
        assert_eq!(count(key), Some(want), "aggregate {key}");
    }
    assert_eq!(count("shards"), Some(shards));
    assert_eq!(count("inserted"), Some(inserted));
    assert_eq!(cache.len() as u64, sum.entries);
    assert_eq!(cache.is_empty(), sum.entries == 0);
}

#[test]
fn lru_eviction_follows_recency_under_the_byte_budget() {
    let small = "x".repeat(72);
    let one = cost(&small);
    let mut cache = SolveCache::new((3 * one + one / 2) as usize);
    assert!(cache.is_empty());
    for rate in [0.001, 0.002, 0.003] {
        cache.insert(7, rate, small.clone());
    }
    assert_eq!((cache.len(), cache.counters().bytes), (3, 3 * one));
    // touch 0.001, so 0.002 is the least recently used…
    assert!(matches!(cache.lookup(7, 0.001), Lookup::Hit { hits: 1, .. }));
    cache.insert(7, 0.004, small.clone());
    // …and is the one evicted
    assert_eq!(cache.lookup(7, 0.002), Lookup::Miss);
    assert_eq!(cache.len(), 3);
    for rate in [0.001, 0.003, 0.004] {
        assert!(matches!(cache.lookup(7, rate), Lookup::Hit { .. }), "rate {rate}");
    }
    // a payload worth two small ones evicts the two least recent: the
    // lookups above left 0.001 oldest, then 0.003
    let large = "y".repeat(2 * small.len() + 128);
    cache.insert(7, 0.005, large.clone());
    assert_eq!(cache.lookup(7, 0.001), Lookup::Miss);
    assert_eq!(cache.lookup(7, 0.003), Lookup::Miss);
    assert!(matches!(cache.lookup(7, 0.004), Lookup::Hit { .. }));
    let counters = cache.counters();
    assert_eq!((counters.entries, counters.evictions), (2, 3));
    assert_eq!(counters.bytes, one + cost(&large));
    assert!(counters.bytes <= counters.budget_bytes);
    // a budget below one entry still holds exactly the newest answer
    let mut tiny = SolveCache::new(1);
    tiny.insert(7, 0.001, "a".to_string());
    tiny.insert(7, 0.002, "b".to_string());
    assert_eq!(tiny.lookup(7, 0.001), Lookup::Miss);
    assert_eq!(tiny.lookup(7, 0.002), Lookup::Hit { payload: "b".to_string(), hits: 1 });
    let counters = tiny.counters();
    assert_eq!((counters.entries, counters.bytes, counters.evictions), (1, cost("b"), 1));
    assert!(!tiny.is_empty());
}

#[test]
fn a_reinsert_replaces_the_payload_and_keeps_the_accounting_exact() {
    let mut cache = SolveCache::new(1 << 20);
    cache.insert(0xaaaa, 0.004, "{\"first\":1}".to_string());
    cache.insert(0xbbbb, 0.004, "{\"other\":3}".to_string());
    // the same rate under another fingerprint is another key
    assert_eq!(cache.lookup(0xaaaa, 0.005), Lookup::Miss);
    for hits in 1..=2 {
        assert_eq!(
            cache.lookup(0xaaaa, 0.004),
            Lookup::Hit { payload: "{\"first\":1}".to_string(), hits }
        );
    }
    let longer = "{\"second\":2,\"padding\":\"xxxxxxxx\"}".to_string();
    cache.insert(0xaaaa, 0.004, longer.clone());
    // the entry, its hit counter and its charge are all replaced
    assert_eq!(cache.lookup(0xaaaa, 0.004), Lookup::Hit { payload: longer.clone(), hits: 1 });
    let counters = cache.counters();
    assert_eq!(counters.entries, 2);
    assert_eq!(counters.bytes, cost(&longer) + cost("{\"other\":3}"));
    assert_eq!(counters.evictions, 0);
}

#[test]
fn two_configurations_on_one_network_share_one_spectrum() {
    let cache = ConfigCache::new();
    let a = cache.resolve(&star5(Discipline::EnhancedNbc, 6));
    let b = cache.resolve(&star5(Discipline::EnhancedNbc, 6));
    assert!(Arc::ptr_eq(&a, &b), "one configuration is one entry");
    let c = cache.resolve(&star5(Discipline::Nbc, 7));
    assert_ne!(a.fingerprint, c.fingerprint);
    assert_eq!(c.fingerprint, star5(Discipline::Nbc, 7).fingerprint().finish());
    let spectrum = |scenario| ScenarioSpectrum::build(scenario).spectrum().clone();
    assert!(Arc::ptr_eq(&spectrum(&a.scenario), &spectrum(&c.scenario)));
    assert!(Arc::ptr_eq(&a.scenario.topology(), &c.scenario.topology()));
    // another network builds its own
    let q = cache.resolve(&WireScenario {
        kind: TopologyKind::Hypercube,
        size: 5,
        ..star5(Discipline::Nbc, 7)
    });
    assert!(!Arc::ptr_eq(&spectrum(&a.scenario), &spectrum(&q.scenario)));
    let stats = cache.stats();
    let count = |key| stats.get(key).and_then(serde_json::Value::as_u64);
    assert_eq!(
        (count("entries"), count("networks"), count("hits"), count("misses")),
        (Some(3), Some(2), Some(1), Some(3))
    );
}

#[test]
fn a_configurations_lookups_and_inserts_land_on_one_shard() {
    let configs = ConfigCache::new();
    let entry = configs.resolve(&star5(Discipline::EnhancedNbc, 6));
    let cache = ShardedSolveCache::new(1 << 20, 4);
    assert_eq!(cache.shard_count(), 4);
    let rates = [0.001, 0.002, 0.003];
    for rate in rates {
        assert_eq!(cache.lookup(entry.fingerprint, rate), Lookup::Miss);
        cache.insert(entry.fingerprint, rate, format!("{{\"rate\":{rate}}}"));
    }
    // re-inserting a key, as two connections racing one miss do, keeps one
    // entry serving the same bytes
    cache.insert(entry.fingerprint, 0.002, "{\"rate\":0.002}".to_string());
    assert_eq!(
        cache.lookup(entry.fingerprint, 0.002),
        Lookup::Hit { payload: "{\"rate\":0.002}".to_string(), hits: 1 }
    );
    let per_shard = cache.shard_stats();
    let touched: Vec<&SolveCounters> = per_shard.iter().filter(|s| s.misses > 0).collect();
    assert_eq!(touched.len(), 1, "one configuration touched {touched:?}");
    assert_eq!((touched[0].entries, touched[0].misses, touched[0].hits), (3, 3, 1));
    assert_aggregates_losslessly(&cache, 4, 4);
    assert_eq!(cache.len(), 3);
}

#[test]
fn each_shard_keeps_its_own_share_of_the_budget() {
    let one = cost("x");
    // 4 shards of about two entries each: the whole cache could hold eight,
    // but one configuration's shard holds two
    let cache = ShardedSolveCache::new((4 * (2 * one + one / 2)) as usize, 4);
    assert!(cache.is_empty());
    for i in 1..=4 {
        cache.insert(11, 0.001 * f64::from(i), "x".to_string());
    }
    let per_shard = cache.shard_stats();
    let loaded: Vec<&SolveCounters> = per_shard.iter().filter(|s| s.entries > 0).collect();
    assert_eq!(loaded.len(), 1);
    assert_eq!((loaded[0].entries, loaded[0].evictions, loaded[0].bytes), (2, 2, 2 * one));
    // a configuration on another shard is stored, and hit, within that
    // shard's own budget
    let other = (12..).find(|&fp| home_shard(4, fp) != home_shard(4, 11)).unwrap();
    cache.insert(other, 0.001, "x".to_string());
    assert!(matches!(cache.lookup(other, 0.001), Lookup::Hit { hits: 1, .. }));
    assert!(matches!(cache.lookup(11, 0.004), Lookup::Hit { hits: 1, .. }));
    assert_eq!(cache.lookup(11, 0.001), Lookup::Miss);
    let per_shard = cache.shard_stats();
    assert_eq!(per_shard.iter().filter(|s| s.hits > 0).count(), 2);
    assert_eq!(per_shard[home_shard(4, other)].evictions, 0);
    assert_eq!(
        cache.stats().get("budget_bytes").and_then(serde_json::Value::as_u64),
        Some(4 * (2 * one + one / 2))
    );
    assert!(!cache.is_empty());
    assert_aggregates_losslessly(&cache, 4, 5);
}

#[test]
fn configurations_differing_by_a_power_of_two_spread_across_shards() {
    // FNV-1a's low bits see only the low bits of each input byte, so these
    // would all share a shard if the pick read the digest's low bits alone
    let configs = ConfigCache::new();
    let shard_of = |scenario: WireScenario| home_shard(8, configs.resolve(&scenario).fingerprint);
    let by_length: Vec<usize> = [16, 32, 64]
        .into_iter()
        .map(|message_length| {
            shard_of(WireScenario { message_length, ..star5(Discipline::EnhancedNbc, 6) })
        })
        .collect();
    assert!(
        by_length.iter().any(|&s| s != by_length[0]),
        "M=16/32/64 all on shard {}",
        by_length[0]
    );
    let by_channels: Vec<usize> =
        [6, 14, 22].into_iter().map(|vc| shard_of(star5(Discipline::EnhancedNbc, vc))).collect();
    assert!(
        by_channels.iter().any(|&s| s != by_channels[0]),
        "V=6/14/22 all on shard {}",
        by_channels[0]
    );
}
