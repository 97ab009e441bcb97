//! LRU pools for per-geometry service state.
//!
//! Two levels, both capped by `--pool-cap` (0 disables both, for no-pool
//! A/B benchmarking):
//!
//! * [`ContextPool`] — [`SolveContext`]s keyed by the operator
//!   fingerprint (solve endpoint) or the canonical request body
//!   (flow/pillars).  A pooled context carries the assembled operator,
//!   the multigrid hierarchy, and the recent solutions a re-solve starts
//!   from, for one geometry, so a repeat solve skips assembly and
//!   hierarchy construction.
//! * The *stack cache* (an [`LruPool`]`<String, StackEntry>`) — the built
//!   mesh/problem of `POST /v1/solve` bodies, keyed by **operator
//!   identity**: the string whose FNV-1a is the request's affinity key
//!   (`solve-operator\n{operator canonical}`), the key shard routing and
//!   batch grouping already use.  Utilization is left out of the key:
//!   it enters the stack through the power maps only, so a hit at
//!   another utilization repaints them ([`stack::repower`]) instead of
//!   rebuilding the stack (pillar map, homogenization, mesh).  Each
//!   entry also carries its operator fingerprint and signature, computed
//!   once at build, so a hit hashes nothing before the context checkout.
//!
//! Every pool routes on a 64-bit hash but stores the **full key**
//! beside each entry and equality-checks it on every take.  The hash is
//! a routing hint, not an identity: a 64-bit collision between two
//! distinct geometries used to alias their pooled state (handing one
//! stack's warm-start field and hierarchy to another), which the full
//! comparison now degrades to an ordinary miss.
//!
//! `take`/`checkout` *remove* the entry — state is owned by exactly one
//! worker at a time, so two concurrent solves on the same geometry get
//! distinct copies rather than a shared lock.
//!
//! [`stack::repower`]: tsc_core::stack::repower

use crate::locks::{rank, RankedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tsc_core::stack::Stack3d;
use tsc_thermal::transient::TransientRun;
use tsc_thermal::{operator_fingerprint, OperatorSignature, SolveContext};

/// Outcome of a checkout, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkout {
    Hit,
    Miss,
}

/// LRU routed by a `u64` hash and validated by a full key `K`.  The
/// backing store is a `Vec` in recency order (most recent at the back);
/// pool caps are small (tens), so linear scans beat a hash map +
/// intrusive list in both code size and constant factor.
pub struct LruPool<K, T> {
    cap: usize,
    entries: RankedMutex<Vec<(u64, K, T)>>,
    /// Entries currently checked out under a [`Pinned`] guard — live
    /// session state that the LRU must not count against its capacity
    /// (it is not *in* the pool) but operators still want to see.
    pinned: AtomicUsize,
}

impl<K: PartialEq, T> LruPool<K, T> {
    /// `cap == 0` disables the pool entirely: every take misses and puts
    /// are dropped.
    pub fn new(cap: usize) -> Self {
        LruPool {
            cap,
            entries: RankedMutex::new(Vec::new(), rank::POOL_ENTRIES, "LruPool.entries"),
            pinned: AtomicUsize::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Entries currently held out of the pool by [`Pinned`] guards.
    pub fn pinned(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Wrap `value` in a pinning guard: the value stays owned by the
    /// caller for as long as the guard lives and is returned to the pool
    /// by the guard's `Drop` — on clean close, early return, *and* panic
    /// unwind alike, so an abruptly disconnected session can never leak
    /// its checked-out state.  The pin is counted in
    /// [`LruPool::pinned`] until the guard resolves.
    pub fn pin(&self, hash: u64, key: K, value: T) -> Pinned<'_, K, T> {
        self.pinned.fetch_add(1, Ordering::Relaxed);
        Pinned {
            pool: self,
            hash,
            key: Some(key),
            value: Some(value),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the entry for `hash`, if pooled **and** its
    /// stored full key equals `key` — a hash collision is a miss, never
    /// an alias.
    pub fn take(&self, hash: u64, key: &K) -> Option<T> {
        if self.cap == 0 {
            return None;
        }
        let mut entries = self.entries.lock();
        let i = entries
            .iter()
            .position(|(h, k, _)| *h == hash && k == key)?;
        Some(entries.remove(i).2)
    }

    /// Insert (or refresh) `hash`/`key`.  Evicts least-recently-used
    /// entries when over capacity; returns the number of evictions.
    pub fn put(&self, hash: u64, key: K, value: T) -> usize {
        if self.cap == 0 {
            return 0;
        }
        let mut entries = self.entries.lock();
        // Replace any entry another worker put for the same key while we
        // held ours — keeping the newest state is the better reuse.  A
        // colliding hash with a *different* full key is left alone (it
        // is someone else's state, not a stale copy of ours).
        if let Some(i) = entries.iter().position(|(h, k, _)| *h == hash && *k == key) {
            entries.remove(i);
        }
        entries.push((hash, key, value));
        let mut evicted = 0;
        while entries.len() > self.cap {
            entries.remove(0);
            evicted += 1;
        }
        evicted
    }
}

/// RAII checkout of pooled state.  Holds the value by ownership for the
/// guard's lifetime (sessions hold it across many steps of socket I/O —
/// no pool lock is held while pinned) and returns it to the pool on
/// `Drop`.  [`Pinned::discard`] consumes the guard without the put-back,
/// for state known to be poisoned.
pub struct Pinned<'p, K: PartialEq, T> {
    pool: &'p LruPool<K, T>,
    hash: u64,
    key: Option<K>,
    value: Option<T>,
}

impl<K: PartialEq, T> std::ops::Deref for Pinned<'_, K, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value
            .as_ref()
            .expect("pinned value present until drop")
    }
}

impl<K: PartialEq, T> std::ops::DerefMut for Pinned<'_, K, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value
            .as_mut()
            .expect("pinned value present until drop")
    }
}

impl<K: PartialEq, T> Pinned<'_, K, T> {
    /// Drop the pinned state instead of returning it to the pool.
    pub fn discard(mut self) {
        self.key = None;
        self.value = None;
        // Drop runs next and sees the emptied slots: unpins, no put-back.
    }
}

impl<K: PartialEq, T> Drop for Pinned<'_, K, T> {
    fn drop(&mut self) {
        self.pool.pinned.fetch_sub(1, Ordering::Relaxed);
        if let (Some(key), Some(value)) = (self.key.take(), self.value.take()) {
            self.pool.put(self.hash, key, value);
        }
    }
}

/// Pooled state for one transient session: the stepped implicit scheme
/// plus the built stack it was assembled from.  The stack rides along
/// because mid-session power updates re-derive the power map from the
/// design layout (`stack::repower`) before delta-restaging the run.
pub struct TransientState {
    pub run: TransientRun,
    pub stack: Stack3d,
}

/// A built stack in the stack cache, with the operator identity the
/// context pool checks out by.  The fingerprint and signature are taken
/// once, when the stack is built: repainting power never changes them,
/// and nothing outside this crate can touch the stack's operator.
pub struct StackEntry {
    pub(crate) stack: Stack3d,
    /// [`operator_fingerprint`] of `stack.problem`: the context pool's
    /// routing hash.
    pub(crate) fingerprint: u64,
    /// The full operator identity: the context pool's validation key,
    /// shared so a checkout does not copy the conductivity grids.
    pub(crate) signature: Arc<OperatorSignature>,
    /// Bits of the `utilization_percent` whose power maps are painted
    /// on `stack`; a request at other bits repaints before it solves.
    pub(crate) painted: u64,
}

impl StackEntry {
    /// Wrap a freshly built stack painted at `utilization_percent`.
    pub(crate) fn new(stack: Stack3d, utilization_percent: f64) -> Self {
        StackEntry {
            fingerprint: operator_fingerprint(&stack.problem),
            signature: Arc::new(OperatorSignature::of(&stack.problem)),
            painted: utilization_percent.to_bits(),
            stack,
        }
    }
}

/// Full validation key of a pooled [`SolveContext`] — stored beside the
/// routing hash and compared on every checkout.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextKey {
    /// Geometry-true operator identity (`POST /v1/solve`): distinct
    /// requests that assemble the same operator share pooled state.
    Operator(Arc<OperatorSignature>),
    /// Canonical request identity (`POST /v1/flow`, `POST /v1/pillars`):
    /// endpoint + canonical JSON body.
    Canonical(String),
}

/// The [`SolveContext`] level: misses manufacture a fresh context.
pub struct ContextPool {
    inner: LruPool<ContextKey, SolveContext>,
}

impl ContextPool {
    /// `cap == 0` disables pooling entirely: every checkout is a miss and
    /// checkins are dropped.  Used for no-pool A/B benchmarking.
    pub fn new(cap: usize) -> Self {
        ContextPool {
            inner: LruPool::new(cap),
        }
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Take the context for `hash`/`key` out of the pool, or build a
    /// fresh one.
    pub fn checkout(&self, hash: u64, key: &ContextKey) -> (SolveContext, Checkout) {
        match self.inner.take(hash, key) {
            Some(ctx) => (ctx, Checkout::Hit),
            None => (SolveContext::new(), Checkout::Miss),
        }
    }

    /// Return a context to the pool.  Evicts the least-recently-used entry
    /// when over capacity; returns the number of evictions (0 or 1).
    pub fn checkin(&self, hash: u64, key: ContextKey, ctx: SolveContext) -> usize {
        self.inner.put(hash, key, ctx)
    }
}

/// Both pool levels, built together from one `--pool-cap`.
pub struct ServicePools {
    pub contexts: ContextPool,
    pub stacks: LruPool<String, StackEntry>,
    /// Transient sessions, keyed by the canonical session id (operator
    /// canonical + timestep bits).  Entries are *pinned* while a session
    /// is live, so concurrent sessions on the same geometry each own a
    /// private copy, like every other pool level.
    pub transients: LruPool<String, TransientState>,
}

impl ServicePools {
    pub fn new(cap: usize) -> Self {
        ServicePools {
            contexts: ContextPool::new(cap),
            stacks: LruPool::new(cap),
            transients: LruPool::new(cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> ContextKey {
        ContextKey::Canonical(s.to_string())
    }

    #[test]
    fn cold_checkout_misses_then_checkin_makes_it_hit() {
        let pool = ContextPool::new(2);
        let (ctx, outcome) = pool.checkout(42, &key("a"));
        assert_eq!(outcome, Checkout::Miss);
        pool.checkin(42, key("a"), ctx);
        assert_eq!(pool.len(), 1);
        let (_, outcome) = pool.checkout(42, &key("a"));
        assert_eq!(outcome, Checkout::Hit);
        // checkout removed the entry: a second checkout of the same key misses.
        let (_, outcome) = pool.checkout(42, &key("a"));
        assert_eq!(outcome, Checkout::Miss);
    }

    #[test]
    fn hash_collision_with_different_key_is_a_miss_not_an_alias() {
        // Regression (fingerprint-collision cache aliasing): two distinct
        // geometries whose 64-bit fingerprints collide must never share
        // pooled state.  Crafted here by reusing one routing hash for two
        // different full keys.
        let pool = ContextPool::new(4);
        let (ctx, _) = pool.checkout(0xDEAD_BEEF, &key("stack-a"));
        pool.checkin(0xDEAD_BEEF, key("stack-a"), ctx);
        // Same hash, different identity: must miss and must NOT remove
        // stack-a's entry.
        let (_, outcome) = pool.checkout(0xDEAD_BEEF, &key("stack-b"));
        assert_eq!(outcome, Checkout::Miss, "collision must be a miss");
        assert_eq!(pool.len(), 1, "the colliding entry must survive");
        let (_, outcome) = pool.checkout(0xDEAD_BEEF, &key("stack-a"));
        assert_eq!(outcome, Checkout::Hit, "the real owner still hits");
    }

    fn stack_entry(lateral_cells: usize) -> StackEntry {
        use tsc_core::beol::BeolProperties;
        use tsc_core::stack::{self, StackConfig};
        let config = StackConfig::uniform(
            2,
            BeolProperties::conventional(),
            tsc_thermal::Heatsink::two_phase(),
        )
        .with_lateral_cells(lateral_cells);
        let design = tsc_designs::gemmini::memory_tier();
        StackEntry::new(stack::build(&design, &config), 100.0)
    }

    #[test]
    fn stack_cache_collision_is_a_miss_for_operator_entries() {
        let pool: LruPool<String, StackEntry> = LruPool::new(4);
        pool.put(7, "solve-operator\na".into(), stack_entry(6));
        assert!(
            pool.take(7, &"solve-operator\nb".to_string()).is_none(),
            "collision must be a miss"
        );
        assert_eq!(pool.len(), 1, "the colliding entry must survive");
        let hit = pool
            .take(7, &"solve-operator\na".to_string())
            .expect("the real owner still hits");
        assert_eq!(hit.fingerprint, operator_fingerprint(&hit.stack.problem));
        assert!(hit.signature.matches(&hit.stack.problem));
        assert_eq!(hit.painted, 100.0_f64.to_bits());
    }

    #[test]
    fn operator_keys_compare_signatures_not_hashes() {
        let (a, b) = (stack_entry(6), stack_entry(8));
        let pool = ContextPool::new(4);
        let key_a = ContextKey::Operator(Arc::clone(&a.signature));
        let (ctx, _) = pool.checkout(1, &key_a);
        pool.checkin(1, key_a, ctx);
        let key_b = ContextKey::Operator(Arc::clone(&b.signature));
        assert_eq!(pool.checkout(1, &key_b).1, Checkout::Miss);
        assert_eq!(pool.len(), 1, "the colliding entry must survive");
        // An equal signature in another allocation is the same operator.
        let again = ContextKey::Operator(Arc::new(OperatorSignature::of(&a.stack.problem)));
        assert_eq!(pool.checkout(1, &again).1, Checkout::Hit);
    }

    #[test]
    fn generic_pool_rejects_colliding_full_keys() {
        let pool: LruPool<String, u32> = LruPool::new(4);
        pool.put(7, "alpha".into(), 1);
        assert_eq!(pool.take(7, &"beta".to_string()), None);
        assert_eq!(pool.take(7, &"alpha".to_string()), Some(1));
    }

    #[test]
    fn put_replaces_same_key_but_keeps_colliding_neighbours() {
        let pool: LruPool<String, u32> = LruPool::new(4);
        pool.put(7, "alpha".into(), 1);
        pool.put(7, "beta".into(), 2); // collision: distinct entry
        assert_eq!(pool.len(), 2);
        pool.put(7, "alpha".into(), 3); // refresh replaces only alpha
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.take(7, &"alpha".to_string()), Some(3));
        assert_eq!(pool.take(7, &"beta".to_string()), Some(2));
    }

    #[test]
    fn lru_eviction_drops_the_oldest_key() {
        let pool = ContextPool::new(2);
        for (hash, name) in [(1u64, "a"), (2, "b"), (3, "c")] {
            let (ctx, _) = pool.checkout(hash, &key(name));
            pool.checkin(hash, key(name), ctx);
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.checkout(1, &key("a")).1,
            Checkout::Miss,
            "oldest evicted"
        );
        assert_eq!(pool.checkout(3, &key("c")).1, Checkout::Hit);
        assert_eq!(pool.checkout(2, &key("b")).1, Checkout::Hit);
    }

    #[test]
    fn touching_a_key_refreshes_its_recency() {
        let pool = ContextPool::new(2);
        for (hash, name) in [(1u64, "a"), (2, "b")] {
            let (ctx, _) = pool.checkout(hash, &key(name));
            pool.checkin(hash, key(name), ctx);
        }
        // Touch 1 so that 2 becomes the LRU victim.
        let (ctx, outcome) = pool.checkout(1, &key("a"));
        assert_eq!(outcome, Checkout::Hit);
        pool.checkin(1, key("a"), ctx);
        let (ctx, _) = pool.checkout(3, &key("c"));
        let evicted = pool.checkin(3, key("c"), ctx);
        assert_eq!(evicted, 1);
        assert_eq!(
            pool.checkout(2, &key("b")).1,
            Checkout::Miss,
            "2 was the LRU victim"
        );
        assert_eq!(pool.checkout(1, &key("a")).1, Checkout::Hit);
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = ContextPool::new(0);
        let (ctx, outcome) = pool.checkout(7, &key("z"));
        assert_eq!(outcome, Checkout::Miss);
        assert_eq!(pool.checkin(7, key("z"), ctx), 0);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.checkout(7, &key("z")).1, Checkout::Miss);
    }

    #[test]
    fn pinned_guard_counts_and_returns_on_drop() {
        let pool: LruPool<String, u32> = LruPool::new(2);
        {
            let mut pinned = pool.pin(7, "alpha".into(), 41);
            assert_eq!(pool.pinned(), 1);
            assert_eq!(pool.len(), 0, "pinned state is not in the pool");
            *pinned += 1;
            assert_eq!(*pinned, 42);
        }
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take(7, &"alpha".to_string()), Some(42));
    }

    #[test]
    fn pinned_guard_returns_even_across_panic_unwind() {
        let pool: LruPool<String, u32> = LruPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _pinned = pool.pin(3, "session".into(), 9);
            panic!("simulated session thread death");
        }));
        assert!(result.is_err());
        assert_eq!(pool.pinned(), 0, "unwind must unpin");
        assert_eq!(
            pool.take(3, &"session".to_string()),
            Some(9),
            "unwind must still return the state to the pool"
        );
    }

    #[test]
    fn discard_unpins_without_put_back() {
        let pool: LruPool<String, u32> = LruPool::new(2);
        let pinned = pool.pin(5, "poisoned".into(), 1);
        pinned.discard();
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take(5, &"poisoned".to_string()), None);
    }

    #[test]
    fn pin_works_with_zero_capacity_pool() {
        // cap 0 disables storage but sessions still need leak-proof
        // ownership: the guard must work, the final put is just a no-op.
        let pool: LruPool<String, u32> = LruPool::new(0);
        {
            let pinned = pool.pin(1, "one".into(), 1);
            assert_eq!(pool.pinned(), 1);
            assert_eq!(*pinned, 1);
        }
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take(1, &"one".to_string()), None);
    }

    #[test]
    fn generic_pool_takes_and_puts_arbitrary_state() {
        let pool: LruPool<String, String> = LruPool::new(1);
        assert!(pool.take(9, &"nine".to_string()).is_none());
        assert_eq!(pool.put(9, "nine".into(), "nine".into()), 0);
        assert_eq!(
            pool.put(10, "ten".into(), "ten".into()),
            1,
            "cap 1 evicts the older key"
        );
        assert!(pool.take(9, &"nine".to_string()).is_none());
        assert_eq!(pool.take(10, &"ten".to_string()).as_deref(), Some("ten"));
        assert!(pool.is_empty());
    }
}
