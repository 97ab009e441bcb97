//! LRU pools for per-geometry service state.
//!
//! Three pools, each capped by `--pool-cap` (0 disables all of them, for
//! no-pool A/B benchmarking):
//!
//! * `operators` — one [`OperatorEntry`] per operator of `POST /v1/solve`:
//!   the built stack (mesh, problem, layout), the utilization its power
//!   maps are painted at, and the [`SolveContext`] that carries the
//!   assembled operator, the multigrid hierarchy and the recent
//!   solutions a re-solve starts from.  The key is
//!   [`SolveRequest::operator_id`], the string whose FNV-1a is the
//!   request's shard affinity.  Utilization is left out of it: it enters
//!   the stack through the power maps only, so a hit at another
//!   utilization repaints them ([`stack::repower`]) instead of
//!   rebuilding the stack (pillar map, homogenization, mesh), and the
//!   context re-solves on its cached operator.
//! * `contexts` — [`SolveContext`]s of `POST /v1/flow` and
//!   `POST /v1/pillars`, keyed by [`ApiJob::canonical_id`].
//! * `transients` — pinned transient-session state, keyed by
//!   [`TransientRequest::session_pool_id`].
//!
//! Every pool stores the **full key** beside each entry and compares it
//! in full on every take, so two distinct keys never share state.  Caps
//! are small, so a linear scan of string compares costs no more than
//! hashing the key would.  No pool needs a geometry-level identity of its
//! own: a [`SolveContext`] re-checks the full operator snapshot before
//! every solve and re-assembles on any difference.
//!
//! `take` *removes* the entry — state is owned by exactly one worker at
//! a time, so two concurrent solves on the same geometry get distinct
//! copies rather than a shared lock.
//!
//! [`stack::repower`]: tsc_core::stack::repower
//! [`SolveRequest::operator_id`]: crate::api::SolveRequest::operator_id
//! [`ApiJob::canonical_id`]: crate::api::ApiJob::canonical_id
//! [`TransientRequest::session_pool_id`]: crate::api::TransientRequest::session_pool_id

use crate::locks::{rank, RankedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsc_core::stack::Stack3d;
use tsc_thermal::transient::TransientRun;
use tsc_thermal::SolveContext;

/// LRU keyed by a full string key.  The backing store is a `Vec` in
/// recency order (most recent at the back); pool caps are small (tens),
/// so linear scans beat a hash map + intrusive list in both code size
/// and constant factor.
pub struct LruPool<T> {
    cap: usize,
    entries: RankedMutex<Vec<(String, T)>>,
    /// Entries currently checked out under a [`Pinned`] guard — live
    /// session state that the LRU must not count against its capacity
    /// (it is not *in* the pool) but operators still want to see.
    pinned: AtomicUsize,
}

impl<T> LruPool<T> {
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
    pub fn pin(&self, key: String, value: T) -> Pinned<'_, T> {
        self.pinned.fetch_add(1, Ordering::Relaxed);
        Pinned {
            pool: self,
            key: Some(key),
            value: Some(value),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the entry whose stored key equals `key`.
    pub fn take(&self, key: &str) -> Option<T> {
        if self.cap == 0 {
            return None;
        }
        let mut entries = self.entries.lock();
        let i = entries.iter().position(|(k, _)| k == key)?;
        Some(entries.remove(i).1)
    }

    /// Insert (or refresh) `key`.  Evicts least-recently-used entries
    /// when over capacity; returns the number of evictions.
    pub fn put(&self, key: String, value: T) -> usize {
        if self.cap == 0 {
            return 0;
        }
        let mut entries = self.entries.lock();
        // Replace any entry another worker put for the same key while we
        // held ours — keeping the newest state is the better reuse.
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            entries.remove(i);
        }
        entries.push((key, value));
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
pub struct Pinned<'p, T> {
    pool: &'p LruPool<T>,
    key: Option<String>,
    value: Option<T>,
}

impl<T> std::ops::Deref for Pinned<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value
            .as_ref()
            .expect("pinned value present until drop")
    }
}

impl<T> std::ops::DerefMut for Pinned<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value
            .as_mut()
            .expect("pinned value present until drop")
    }
}

impl<T> Pinned<'_, T> {
    /// Drop the pinned state instead of returning it to the pool.
    pub fn discard(mut self) {
        self.key = None;
        self.value = None;
        // Drop runs next and sees the emptied slots: unpins, no put-back.
    }
}

impl<T> Drop for Pinned<'_, T> {
    fn drop(&mut self) {
        self.pool.pinned.fetch_sub(1, Ordering::Relaxed);
        if let (Some(key), Some(value)) = (self.key.take(), self.value.take()) {
            self.pool.put(key, value);
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

/// Everything pooled for one solve operator, taken and put back as one:
/// the built stack, the utilization painted on it, and the context that
/// solves on it.
pub struct OperatorEntry {
    pub(crate) stack: Stack3d,
    /// Bits of the `utilization_percent` whose power maps are painted
    /// on `stack`; a request at other bits repaints before it solves.
    pub(crate) painted: u64,
    pub(crate) ctx: SolveContext,
}

impl OperatorEntry {
    /// Wrap a freshly built stack painted at `utilization_percent`, with
    /// a fresh context.
    pub(crate) fn new(stack: Stack3d, utilization_percent: f64) -> Self {
        OperatorEntry {
            stack,
            painted: utilization_percent.to_bits(),
            ctx: SolveContext::new(),
        }
    }
}

/// The service's pools, built together from one `--pool-cap`.
pub struct ServicePools {
    /// Solve operators, keyed by `SolveRequest::operator_id`.
    pub operators: LruPool<OperatorEntry>,
    /// Flow and pillars contexts, keyed by `ApiJob::canonical_id`.
    pub contexts: LruPool<SolveContext>,
    /// Transient sessions, keyed by the canonical session id (operator
    /// canonical + timestep bits).  Entries are *pinned* while a session
    /// is live, so concurrent sessions on the same geometry each own a
    /// private copy, like every other pool.
    pub transients: LruPool<TransientState>,
}

impl ServicePools {
    pub fn new(cap: usize) -> Self {
        ServicePools {
            operators: LruPool::new(cap),
            contexts: LruPool::new(cap),
            transients: LruPool::new(cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two keys that differ only in their last byte: the nearest thing
    /// to a collision a full string compare can see.
    const ALPHA: &str = "solve-operator\n{\"area_budget_percent\": 10}";
    const BETA: &str = "solve-operator\n{\"area_budget_percent\": 11}";

    #[test]
    fn cold_checkout_misses_then_checkin_makes_it_hit() {
        let pool: LruPool<u32> = LruPool::new(2);
        assert_eq!(pool.take("a"), None);
        pool.put("a".into(), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.take("a"), Some(1));
        // take removed the entry: a second take of the same key misses.
        assert_eq!(pool.take("a"), None);
    }

    #[test]
    fn generic_pool_rejects_colliding_full_keys() {
        let pool: LruPool<u32> = LruPool::new(4);
        pool.put(ALPHA.into(), 1);
        assert_eq!(pool.take(BETA), None);
        assert_eq!(pool.take(&ALPHA[..ALPHA.len() - 1]), None, "a prefix");
        assert_eq!(pool.len(), 1, "a miss must not remove the entry");
        assert_eq!(pool.take(ALPHA), Some(1));
    }

    #[test]
    fn put_replaces_same_key_but_keeps_colliding_neighbours() {
        let pool: LruPool<u32> = LruPool::new(4);
        pool.put(ALPHA.into(), 1);
        pool.put(BETA.into(), 2); // distinct entry
        assert_eq!(pool.len(), 2);
        pool.put(ALPHA.into(), 3); // refresh replaces only ALPHA
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.take(ALPHA), Some(3));
        assert_eq!(pool.take(BETA), Some(2));
    }

    #[test]
    fn lru_eviction_drops_the_oldest_key() {
        let pool: LruPool<u32> = LruPool::new(2);
        for (value, name) in [(1, "a"), (2, "b"), (3, "c")] {
            pool.put(name.into(), value);
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.take("a"), None, "oldest evicted");
        assert_eq!(pool.take("c"), Some(3));
        assert_eq!(pool.take("b"), Some(2));
    }

    #[test]
    fn touching_a_key_refreshes_its_recency() {
        let pool: LruPool<u32> = LruPool::new(2);
        for (value, name) in [(1, "a"), (2, "b")] {
            pool.put(name.into(), value);
        }
        // Touch "a" so that "b" becomes the LRU victim.
        let a = pool.take("a").expect("a is pooled");
        pool.put("a".into(), a);
        let evicted = pool.put("c".into(), 3);
        assert_eq!(evicted, 1);
        assert_eq!(pool.take("b"), None, "b was the LRU victim");
        assert_eq!(pool.take("a"), Some(1));
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool: LruPool<u32> = LruPool::new(0);
        assert_eq!(pool.take("z"), None);
        assert_eq!(pool.put("z".into(), 7), 0);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.take("z"), None);
    }

    #[test]
    fn pinned_guard_counts_and_returns_on_drop() {
        let pool: LruPool<u32> = LruPool::new(2);
        {
            let mut pinned = pool.pin("alpha".into(), 41);
            assert_eq!(pool.pinned(), 1);
            assert_eq!(pool.len(), 0, "pinned state is not in the pool");
            *pinned += 1;
            assert_eq!(*pinned, 42);
        }
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take("alpha"), Some(42));
    }

    #[test]
    fn pinned_guard_returns_even_across_panic_unwind() {
        let pool: LruPool<u32> = LruPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _pinned = pool.pin("session".into(), 9);
            panic!("simulated session thread death");
        }));
        assert!(result.is_err());
        assert_eq!(pool.pinned(), 0, "unwind must unpin");
        assert_eq!(
            pool.take("session"),
            Some(9),
            "unwind must still return the state to the pool"
        );
    }

    #[test]
    fn discard_unpins_without_put_back() {
        let pool: LruPool<u32> = LruPool::new(2);
        let pinned = pool.pin("poisoned".into(), 1);
        pinned.discard();
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take("poisoned"), None);
    }

    #[test]
    fn pin_works_with_zero_capacity_pool() {
        // cap 0 disables storage but sessions still need leak-proof
        // ownership: the guard must work, the final put is just a no-op.
        let pool: LruPool<u32> = LruPool::new(0);
        {
            let pinned = pool.pin("one".into(), 1);
            assert_eq!(pool.pinned(), 1);
            assert_eq!(*pinned, 1);
        }
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.take("one"), None);
    }

    #[test]
    fn generic_pool_takes_and_puts_arbitrary_state() {
        let pool: LruPool<String> = LruPool::new(1);
        assert!(pool.take("nine").is_none());
        assert_eq!(pool.put("nine".into(), "nine".into()), 0);
        assert_eq!(
            pool.put("ten".into(), "ten".into()),
            1,
            "cap 1 evicts the older key"
        );
        assert!(pool.take("nine").is_none());
        assert_eq!(pool.take("ten").as_deref(), Some("ten"));
        assert!(pool.is_empty());
    }
}
