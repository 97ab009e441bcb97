//! Consistent-hash ring for shard routing.
//!
//! Each backend contributes `replicas` virtual nodes — FNV-1a points of
//! `"{addr}#{replica}"` — sorted on a ring of `u64` hash space.  A key
//! routes to the owner of the first point at or after it (wrapping), so
//! adding one shard to an `N`-shard ring remaps only the key ranges the
//! new shard's points capture, about `1/(N+1)` of the space, and every
//! other key keeps its shard and therefore its warm `SolveContext`s.
//! Unhealthy shards are skipped by walking forward to the next point
//! owned by a healthy one, which spreads a dead shard's keys across the
//! survivors instead of dumping them onto a single neighbour.

use std::collections::{HashMap, VecDeque};

use tsc_jobs::fnv1a_bytes;
use tsc_rng::finalize;

/// Default virtual nodes per shard: enough that the largest shard's
/// share stays within a few ten percent of fair for small `N`.
pub const DEFAULT_REPLICAS: usize = 64;

/// An immutable consistent-hash ring over shard indices `0..n`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard index)`, sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Build a ring with `replicas` virtual nodes per shard.  Shard
    /// identity is its address string, so rebuilding with the same
    /// backends yields the same ring.
    #[must_use]
    pub fn build(backends: &[String], replicas: usize) -> HashRing {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(backends.len() * replicas);
        for (shard, addr) in backends.iter().enumerate() {
            for replica in 0..replicas {
                // FNV-1a on the short, near-identical strings concentrates
                // its entropy in the low bits, which clusters raw points on
                // the ring (one shard was measured owning ~60 % of a
                // 4-shard keyspace); the SplitMix64 finalizer's avalanche
                // spreads them uniformly.
                let point = finalize(fnv1a_bytes(format!("{addr}#{replica}").as_bytes()));
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: backends.len(),
        }
    }

    /// Number of shards the ring was built over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`, skipping shards for which `healthy`
    /// returns false.  `None` when the ring is empty or no shard is
    /// healthy.
    #[must_use]
    pub fn route(&self, key: u64, healthy: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|(p, _)| *p < key);
        // Walk at most one full revolution, wrapping at the end.
        for offset in 0..self.points.len() {
            let (_, shard) = self.points[(start + offset) % self.points.len()];
            if healthy(shard) {
                return Some(shard);
            }
        }
        None
    }
}

/// Consistent hashing **with bounded loads** (after Mirrokni, Thorup &
/// Zadimoghaddam): a sticky key → shard table layered over a
/// [`HashRing`] that caps every shard's share of *distinct keys* at
/// `ceil(c · keys / healthy_shards)` with `c = 1.25`.
///
/// Plain consistent hashing balances the *keyspace*, not a given key
/// set: a dozen hot operator keys routinely land 6/4/1/1 on a
/// four-shard ring, and the heavy shard's context pool thrashes while
/// its neighbours idle.  The bounded table keeps a key on its ring-home
/// shard when that shard is under the cap and walks the ring forward
/// otherwise, then pins the choice so the key's warm contexts stay
/// put.  Topology changes stay cheap: an ejected shard's keys are
/// reassigned (among the survivors, still bounded) on their next
/// arrival, and keys never migrate merely because another key was
/// added.
///
/// The table is capacity-bounded and evicted CLOCK-wise (a touched
/// entry gets a second chance), so an adversarial stream of one-shot
/// keys cannot grow it without bound — and at `capacity` well above the
/// hot working set, recurring keys are effectively never evicted.
#[derive(Debug)]
pub struct BoundedTable {
    /// key → (shard, touched-since-last-sweep).
    assigned: HashMap<u64, (usize, bool)>,
    /// Insertion order for CLOCK eviction.
    order: VecDeque<u64>,
    /// Distinct assigned keys per shard.
    per_shard: Vec<usize>,
    capacity: usize,
    /// The `c` in `ceil(c · keys / shards)`.
    expansion: f64,
}

/// Default expansion factor: each shard may hold at most 25 % more than
/// its fair share of distinct keys.
pub const DEFAULT_EXPANSION: f64 = 1.25;

/// Default table capacity — far above any realistic hot working set.
pub const DEFAULT_TABLE_CAPACITY: usize = 4096;

impl BoundedTable {
    /// An empty table over `shards` backends.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, expansion: f64) -> BoundedTable {
        BoundedTable {
            assigned: HashMap::new(),
            order: VecDeque::new(),
            per_shard: vec![0; shards],
            capacity: capacity.max(1),
            expansion: expansion.max(1.0),
        }
    }

    /// Distinct keys currently assigned to `shard`.
    #[must_use]
    pub fn keys_on(&self, shard: usize) -> usize {
        self.per_shard.get(shard).copied().unwrap_or(0)
    }

    /// Route `key`, keeping it on its pinned shard while that shard is
    /// healthy, and otherwise (re)assigning it to the first healthy
    /// shard at or after its ring point that is under the load bound —
    /// falling back to the plain ring choice when every healthy shard
    /// is at the bound.  Returns `(shard, overflowed)` where
    /// `overflowed` is true when the bound pushed the key off its
    /// ring-home shard; `None` when no shard is healthy.
    pub fn route(
        &mut self,
        ring: &HashRing,
        key: u64,
        healthy: impl Fn(usize) -> bool,
    ) -> Option<(usize, bool)> {
        if let Some(&(shard, _)) = self.assigned.get(&key) {
            if healthy(shard) {
                if let Some(entry) = self.assigned.get_mut(&key) {
                    entry.1 = true;
                }
                return Some((shard, false));
            }
            self.unassign(key);
        }

        let healthy_count = (0..self.per_shard.len()).filter(|&s| healthy(s)).count();
        if healthy_count == 0 {
            return None;
        }
        let bound = ((self.expansion * (self.assigned.len() + 1) as f64 / healthy_count as f64)
            .ceil() as usize)
            .max(1);
        let home = ring.route(key, &healthy)?;
        let shard = ring
            .route(key, |s| healthy(s) && self.per_shard[s] < bound)
            .unwrap_or(home);
        self.assign(key, shard);
        Some((shard, shard != home))
    }

    fn assign(&mut self, key: u64, shard: usize) {
        // CLOCK eviction: pop untouched entries from the front, give
        // touched ones a second chance.  Bounded by the queue length so
        // an all-touched table still evicts.
        let mut sweeps = self.order.len();
        while self.assigned.len() >= self.capacity && sweeps > 0 {
            sweeps -= 1;
            let Some(old) = self.order.pop_front() else {
                break;
            };
            match self.assigned.get_mut(&old) {
                Some((_, touched)) if *touched => {
                    *touched = false;
                    self.order.push_back(old);
                }
                Some(_) => self.unassign(old),
                None => {} // stale entry for an already-removed key
            }
        }
        if self.assigned.insert(key, (shard, false)).is_none() {
            self.order.push_back(key);
            self.per_shard[shard] += 1;
        }
    }

    fn unassign(&mut self, key: u64) {
        if let Some((shard, _)) = self.assigned.remove(&key) {
            self.per_shard[shard] = self.per_shard[shard].saturating_sub(1);
        }
        // The stale `order` entry (if any) is skipped lazily by
        // `assign`'s sweep when its key no longer resolves.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_rng::Rng64;

    fn backends(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut rng = Rng64::seed_from_u64(0x41B5);
        for _ in 0..1000 {
            let key = rng.next_u64();
            let a = ring.route(key, |_| true).expect("non-empty ring");
            let b = ring.route(key, |_| true).expect("non-empty ring");
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn empty_and_all_unhealthy_rings_route_nowhere() {
        let empty = HashRing::build(&[], DEFAULT_REPLICAS);
        assert_eq!(empty.route(7, |_| true), None);
        let ring = HashRing::build(&backends(3), DEFAULT_REPLICAS);
        assert_eq!(ring.route(7, |_| false), None);
    }

    #[test]
    fn unhealthy_shards_spread_keys_across_survivors() {
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut rng = Rng64::seed_from_u64(0xD0A1);
        let mut moved: [u64; 4] = [0; 4];
        let mut total = 0u64;
        for _ in 0..4000 {
            let key = rng.next_u64();
            let owner = ring.route(key, |_| true).expect("healthy ring");
            if owner != 0 {
                continue;
            }
            total += 1;
            let fallback = ring.route(key, |s| s != 0).expect("survivors");
            assert_ne!(fallback, 0);
            moved[fallback] += 1;
        }
        // Shard 0's keys should land on all three survivors, not one.
        assert!(total > 100, "sample captured {total} shard-0 keys");
        for (shard, count) in moved.iter().enumerate().skip(1) {
            assert!(
                *count > 0,
                "shard {shard} inherited none of shard 0's keys: {moved:?}"
            );
        }
    }

    #[test]
    fn adding_a_shard_remaps_about_one_over_n_plus_one() {
        // Property-test over seeded keys: growing the ring from N to N+1
        // shards must remap only the share the new shard captures —
        // about 1/(N+1) — and never move a key between two old shards.
        for n in [2usize, 4, 8] {
            let before = HashRing::build(&backends(n), DEFAULT_REPLICAS);
            let after = HashRing::build(&backends(n + 1), DEFAULT_REPLICAS);
            let mut rng = Rng64::seed_from_u64(0x5EED ^ n as u64);
            let samples = 8000u64;
            let mut remapped = 0u64;
            for _ in 0..samples {
                let key = rng.next_u64();
                let old = before.route(key, |_| true).expect("old ring");
                let new = after.route(key, |_| true).expect("new ring");
                if old != new {
                    assert_eq!(
                        new, n,
                        "a remapped key must land on the new shard, not shuffle \
                         between old shards (key moved {old} -> {new})"
                    );
                    remapped += 1;
                }
            }
            let fraction = remapped as f64 / samples as f64;
            let fair = 1.0 / (n as f64 + 1.0);
            assert!(
                fraction < 2.5 * fair,
                "N={n}: remapped {fraction:.3}, fair share {fair:.3}"
            );
            assert!(
                fraction > 0.2 * fair,
                "N={n}: remapped {fraction:.3} — suspiciously little; \
                 the new shard is not taking its share"
            );
        }
    }

    #[test]
    fn bounded_table_caps_distinct_keys_per_shard() {
        // Property-test: for any seeded key set, no shard ever holds
        // more than ceil(1.25 · keys / shards) distinct keys — even
        // when plain ring routing would pile most keys onto one shard.
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut rng = Rng64::seed_from_u64(0xB07D);
        for trial in 0..50 {
            let n_keys = 4 + (trial % 29);
            let mut table = BoundedTable::new(4, DEFAULT_TABLE_CAPACITY, DEFAULT_EXPANSION);
            let keys: Vec<u64> = (0..n_keys).map(|_| rng.next_u64()).collect();
            for &key in &keys {
                table.route(&ring, key, |_| true).expect("healthy ring");
            }
            let bound = (DEFAULT_EXPANSION * n_keys as f64 / 4.0).ceil() as usize;
            for shard in 0..4 {
                assert!(
                    table.keys_on(shard) <= bound,
                    "trial {trial}: shard {shard} holds {} of {n_keys} keys, bound {bound}",
                    table.keys_on(shard)
                );
            }
        }
    }

    #[test]
    fn bounded_table_is_sticky_across_replays() {
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut table = BoundedTable::new(4, DEFAULT_TABLE_CAPACITY, DEFAULT_EXPANSION);
        let mut rng = Rng64::seed_from_u64(0x57CC);
        let keys: Vec<u64> = (0..24).map(|_| rng.next_u64()).collect();
        let first: Vec<usize> = keys
            .iter()
            .map(|&k| table.route(&ring, k, |_| true).expect("ring").0)
            .collect();
        // Replaying the keys (in any interleaving) never moves one.
        for round in 0..3 {
            for (i, &key) in keys.iter().enumerate().skip(round % 2) {
                let (shard, overflowed) = table.route(&ring, key, |_| true).expect("ring");
                assert_eq!(shard, first[i], "key {i} migrated on replay");
                assert!(!overflowed, "a pinned key must not count as overflow");
            }
        }
    }

    #[test]
    fn bounded_table_reassigns_ejected_shards_keys_within_bound() {
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut table = BoundedTable::new(4, DEFAULT_TABLE_CAPACITY, DEFAULT_EXPANSION);
        let mut rng = Rng64::seed_from_u64(0xE1EC);
        let keys: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let before: Vec<usize> = keys
            .iter()
            .map(|&k| table.route(&ring, k, |_| true).expect("ring").0)
            .collect();
        assert!(before.contains(&0), "seed must place some keys on shard 0");

        // Eject shard 0: its keys reassign among survivors; keys on
        // healthy shards stay put.
        let after: Vec<usize> = keys
            .iter()
            .map(|&k| table.route(&ring, k, |s| s != 0).expect("survivors").0)
            .collect();
        for (i, (&old, &new)) in before.iter().zip(&after).enumerate() {
            assert_ne!(new, 0, "key {i} still routed to the ejected shard");
            if old != 0 {
                assert_eq!(old, new, "key {i} moved despite its shard being healthy");
            }
        }
        let bound = (DEFAULT_EXPANSION * keys.len() as f64 / 3.0).ceil() as usize;
        for shard in 1..4 {
            assert!(table.keys_on(shard) <= bound, "survivor {shard} over bound");
        }

        // Readmission: already-reassigned keys keep their new homes
        // (stability beats strict ring affinity).
        for (i, &key) in keys.iter().enumerate() {
            let (shard, _) = table.route(&ring, key, |_| true).expect("ring");
            assert_eq!(shard, after[i], "key {i} flapped back after readmission");
        }
    }

    #[test]
    fn bounded_table_capacity_evicts_one_shot_keys_first() {
        let ring = HashRing::build(&backends(2), DEFAULT_REPLICAS);
        let mut table = BoundedTable::new(2, 8, DEFAULT_EXPANSION);
        let mut rng = Rng64::seed_from_u64(0xCAFE);
        // Pin four hot keys and touch them (second route marks them).
        let hot: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let homes: Vec<usize> = hot
            .iter()
            .map(|&k| table.route(&ring, k, |_| true).expect("ring").0)
            .collect();
        for &k in &hot {
            table.route(&ring, k, |_| true);
        }
        // Flood with one-shot keys well past capacity, re-touching the
        // hot set as a real workload would.
        for _ in 0..100 {
            table.route(&ring, rng.next_u64(), |_| true);
            for &k in &hot {
                table.route(&ring, k, |_| true);
            }
        }
        assert!(table.assigned.len() <= 8, "table grew past capacity");
        for (i, &k) in hot.iter().enumerate() {
            assert_eq!(
                table.assigned.get(&k).map(|&(s, _)| s),
                Some(homes[i]),
                "hot key {i} was evicted or migrated under one-shot flood"
            );
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::build(&backends(4), DEFAULT_REPLICAS);
        let mut rng = Rng64::seed_from_u64(0xBA1A);
        let mut counts = [0u64; 4];
        let samples = 8000;
        for _ in 0..samples {
            counts[ring.route(rng.next_u64(), |_| true).expect("ring")] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            let share = *count as f64 / f64::from(samples);
            assert!(
                (0.10..0.45).contains(&share),
                "shard {shard} owns {share:.3} of the keyspace: {counts:?}"
            );
        }
    }
}
