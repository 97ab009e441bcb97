//! Lock primitives for the serving tier: unified poisoning recovery and
//! the rank-checked mutex behind the `lock-order` feature.
//!
//! **Poisoning.** Every guard in this crate is taken through
//! [`lock_or_recover`] (directly or via [`RankedMutex::lock`]). A
//! poisoned lock means some other thread panicked mid-critical-section;
//! the serving tier's invariants are all reconstructible (queues drain,
//! pools refill, tables repopulate), so recovery is always "take the
//! inner guard and keep going" — but each recovery increments a global
//! counter exported as `tsc_lock_poisoned_total`, so operators can see
//! it happened.
//!
//! **Lock ranks.** The static lock-order pass (`tsc-analyze`) proves the
//! acquisition graph acyclic for the nestings it can see; the `lock-order`
//! feature closes the dynamic gap (trait objects, callbacks, future code
//! paths) by checking an explicit total order at runtime. Each
//! [`RankedMutex`] carries a rank from the [`rank`] table; a thread-local
//! stack of held ranks asserts strictly increasing acquisition. Violations
//! panic immediately with both lock names — a deterministic failure in
//! the concurrency suites instead of a probabilistic deadlock in
//! production. With the feature off, `RankedMutex<T>` compiles to exactly
//! a `Mutex<T>` (a unit test pins the size parity) and the check costs
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Process-wide count of guards recovered from a poisoned state.
static POISONED: AtomicU64 = AtomicU64::new(0);

/// Total poisoning recoveries since process start (the
/// `tsc_lock_poisoned_total` metric).
#[must_use]
pub fn poisoned_total() -> u64 {
    POISONED.load(Ordering::Relaxed)
}

/// Takes the guard, recovering from poisoning. See the module docs for
/// why recovery is always safe in this crate.
pub fn lock_or_recover<'a, T>(lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            POISONED.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// The serving tier's lock-rank table, lower = acquired first
/// (outermost). Ranks are spaced by 10 so future locks can slot between
/// existing ones without renumbering.
///
/// The order encodes the tier's layering: routing decisions happen
/// before admission, admission before execution, execution before
/// result publication, and shutdown signalling nests inside anything
/// (it is the innermost thing any path touches while holding state).
pub mod rank {
    /// `RouterShared.table` — shard routing table (outermost).
    pub const ROUTER_TABLE: u16 = 10;
    /// `RouterShared.jobs` — job-id → shard affinity map (routing
    /// decisions precede everything else on the shard).
    pub const ROUTER_JOBS: u16 = 15;
    /// `UpstreamPool.idle` — a shard's parked keep-alive connections.  A
    /// leaf: held only to push or pop a connection, never across I/O or
    /// another lock.
    pub const ROUTER_UPSTREAM: u16 = 17;
    /// `Shared.coalesce` — in-flight request coalescing map.
    pub const COALESCE: u16 = 20;
    /// `JobsHost.table` — the optimization-job table.  Sits above the
    /// admission queue: the pump enqueues checked-out slices while
    /// holding it.
    pub const JOB_TABLE: u16 = 25;
    /// `JobQueue.inner` — admission queue state.
    pub const QUEUE_INNER: u16 = 30;
    /// `LruPool.entries` — the entries of every service pool (operators,
    /// contexts, transient sessions).  Held only to scan, take or put an
    /// entry, never across a solve or another pool's lock.
    pub const POOL_ENTRIES: u16 = 40;
    /// `Slot.result` — per-request result slot.
    pub const SLOT_RESULT: u16 = 50;
    /// `Shared.shutdown_flag` / `RouterShared.shutdown_flag` (innermost).
    pub const SHUTDOWN: u16 = 60;
}

#[cfg(feature = "lock-order")]
thread_local! {
    /// Ranks (and names, for diagnostics) of locks this thread holds,
    /// in acquisition order.
    static HELD: std::cell::RefCell<Vec<(u16, &'static str)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A `Mutex<T>` that participates in the lock-rank protocol when the
/// `lock-order` feature is on, and is bit-for-bit a plain `Mutex<T>`
/// otherwise.
pub struct RankedMutex<T> {
    inner: Mutex<T>,
    #[cfg(feature = "lock-order")]
    rank: u16,
    #[cfg(feature = "lock-order")]
    name: &'static str,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` with a rank from the [`rank`] table. `name` is used
    /// only in violation diagnostics.
    #[must_use]
    pub fn new(value: T, rank: u16, name: &'static str) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = (rank, name);
        RankedMutex {
            inner: Mutex::new(value),
            #[cfg(feature = "lock-order")]
            rank,
            #[cfg(feature = "lock-order")]
            name,
        }
    }

    /// Acquires the lock, recovering from poisoning, asserting the rank
    /// protocol first (so a violation panics even when the wrong order
    /// happens not to deadlock on this run).
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        self.check_order();
        let guard = lock_or_recover(&self.inner);
        #[cfg(feature = "lock-order")]
        HELD.with(|h| h.borrow_mut().push((self.rank, self.name)));
        RankedGuard {
            guard: Some(guard),
            #[cfg(feature = "lock-order")]
            rank: self.rank,
        }
    }

    #[cfg(feature = "lock-order")]
    fn check_order(&self) {
        HELD.with(|h| {
            if let Some(&(top_rank, top_name)) = h.borrow().last() {
                assert!(
                    self.rank > top_rank,
                    "lock-order violation: acquiring `{}` (rank {}) while holding \
                     `{}` (rank {}) — ranks must be strictly increasing; see the \
                     rank table in tsc_serve::locks",
                    self.name,
                    self.rank,
                    top_name,
                    top_rank,
                );
            }
        });
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for a [`RankedMutex`]; derefs to `T` like a `MutexGuard`.
///
/// The inner `Option` is always `Some` while the guard is live: it
/// exists so [`wait`](Self::wait)/[`wait_timeout`](Self::wait_timeout)
/// can move the std guard out into the `Condvar` and back without ever
/// releasing the rank bookkeeping slot.
pub struct RankedGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    #[cfg(feature = "lock-order")]
    rank: u16,
}

impl<'a, T> RankedGuard<'a, T> {
    /// Atomically releases the lock into `cv.wait` and re-locks on
    /// wakeup. The held-rank entry stays on the stack across the wait:
    /// conservatively, the thread still "owns" the lock slot, so a
    /// wrongly-ordered acquisition by this thread after wakeup is still
    /// caught.
    #[must_use]
    pub fn wait(mut self, cv: &Condvar) -> Self {
        let inner = self.guard.take().expect("guard live");
        self.guard = Some(match cv.wait(inner) {
            Ok(g) => g,
            Err(poisoned) => {
                POISONED.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            }
        });
        self
    }

    /// [`wait`](Self::wait) with a timeout; the boolean is true when the
    /// wait timed out.
    #[must_use]
    pub fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> (Self, bool) {
        let inner = self.guard.take().expect("guard live");
        let (guard, timed_out) = match cv.wait_timeout(inner, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(poisoned) => {
                POISONED.fetch_add(1, Ordering::Relaxed);
                let (g, t) = poisoned.into_inner();
                (g, t.timed_out())
            }
        };
        self.guard = Some(guard);
        (self, timed_out)
    }
}

impl<'a, T> std::ops::Deref for RankedGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live")
    }
}

impl<'a, T> std::ops::DerefMut for RankedGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard live")
    }
}

#[cfg(feature = "lock-order")]
impl<'a, T> Drop for RankedGuard<'a, T> {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Guards are dropped LIFO in this codebase, but don't assume
            // it: remove the matching entry wherever it sits so an
            // out-of-order drop can't corrupt the stack.
            if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recover_counts_poisonings() {
        let lock = std::sync::Arc::new(Mutex::new(0_u32));
        let before = poisoned_total();
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.lock().expect("first lock");
            panic!("poison it");
        })
        .join();
        let g = lock_or_recover(&lock);
        assert_eq!(*g, 0);
        assert!(poisoned_total() > before, "recovery must be counted");
    }

    #[test]
    fn ranked_mutex_basic_roundtrip() {
        let m = RankedMutex::new(41_u32, rank::QUEUE_INNER, "test.lock");
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn in_order_nesting_is_accepted() {
        let outer = RankedMutex::new((), rank::ROUTER_TABLE, "outer");
        let inner = RankedMutex::new((), rank::SHUTDOWN, "inner");
        let _a = outer.lock();
        let _b = inner.lock();
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn out_of_order_nesting_panics() {
        let outer = RankedMutex::new((), rank::SHUTDOWN, "held.high");
        let inner = RankedMutex::new((), rank::ROUTER_TABLE, "acquired.low");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = outer.lock();
            let _b = inner.lock();
        }));
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-order violation"),
            "unexpected panic payload: {msg}"
        );
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn rank_slot_survives_condvar_wait() {
        // After a (timed-out) wait, the guard still occupies its rank
        // slot, so a lower-rank acquisition must still panic.
        let m = RankedMutex::new(0_u32, rank::SLOT_RESULT, "waiting");
        let low = RankedMutex::new((), rank::COALESCE, "low");
        let cv = Condvar::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let g = m.lock();
            let (_g, timed_out) = g.wait_timeout(&cv, Duration::from_millis(1));
            assert!(timed_out);
            let _b = low.lock();
        }));
        assert!(
            result.is_err(),
            "low-rank acquisition after wait must panic"
        );
    }

    #[cfg(not(feature = "lock-order"))]
    #[test]
    fn compiled_out_means_plain_mutex_layout() {
        assert_eq!(
            std::mem::size_of::<RankedMutex<u8>>(),
            std::mem::size_of::<Mutex<u8>>(),
            "without the feature the wrapper must add zero bytes"
        );
        assert_eq!(
            std::mem::size_of::<RankedGuard<'static, u8>>(),
            std::mem::size_of::<Option<MutexGuard<'static, u8>>>(),
        );
    }
}
