//! Scoped-thread parallel execution engine shared by the solvers.
//!
//! The finite-volume operators are matrix-free stencils over a flat
//! `nx·ny·nz` array, so the natural unit of work distribution is the
//! **z-slab** (one `nx·ny` plane): bands of whole slabs are contiguous in
//! the flat (x-fastest) ordering, give each worker cache-friendly
//! streaming access, and make the gather-form seven-point stencil
//! race-free — every worker writes only its own band and reads its
//! neighbours' boundary slabs immutably.
//!
//! Workers are `std::thread::scope` threads spawned per parallel region.
//! That costs a few tens of microseconds per region, which is why the
//! solvers only engage the engine above a crossover problem size (see
//! [`crate::CgSolver::with_parallel_crossover`]); below it, a
//! single-band plan runs the identical code serially on the caller's
//! thread, so small problems pay nothing and results stay bitwise
//! reproducible per thread count.
//!
//! # Race checking (`--features race-check`)
//!
//! Under the `race-check` feature every parallel region is audited by
//! [`crate::race`]: the `map_mut` family re-verifies that its bands are
//! disjoint intervals, and [`ExecPlan::for_each_shared`] — the one region
//! whose write-disjointness the compiler *cannot* see — records per-band
//! read/write index sets through [`SharedSlice`] and asserts pairwise
//! write-disjointness and read/foreign-write separation after the join.
//! With a schedule-perturbation seed installed
//! ([`crate::race::set_schedule_seed`]), plans execute their bands
//! sequentially in a seed-derived permuted order instead of spawning, so
//! harnesses can prove results are independent of band ordering.

use std::ops::Range;
use tsc_geometry::Dim3;

#[cfg(feature = "race-check")]
use crate::race;

/// How a solve distributes its element-wise and stencil work.
///
/// A plan is a partition of the flat cell range into contiguous,
/// slab-aligned bands: `bands.len() == 1` means serial execution on the
/// calling thread (no spawns at all).
#[derive(Debug, Clone)]
pub(crate) struct ExecPlan {
    bands: Vec<Range<usize>>,
    /// Permuted sequential band execution order (schedule-perturbation
    /// harness only; `None` = normal spawning execution).
    #[cfg(feature = "race-check")]
    order: Option<Vec<usize>>,
}

impl ExecPlan {
    /// Builds a plan for `dim` using up to `threads` workers, falling
    /// back to serial when the problem is below `crossover` cells or
    /// fewer slabs than workers exist.
    pub(crate) fn new(dim: Dim3, threads: usize, crossover: usize) -> Self {
        let n = dim.len();
        let slab = dim.nx * dim.ny;
        let t = if threads > 1 && n >= crossover {
            threads.min(dim.nz.max(1))
        } else {
            1
        };
        let mut bands = Vec::with_capacity(t);
        let (base, rem) = (dim.nz / t, dim.nz % t);
        let mut k0 = 0;
        for b in 0..t {
            let nk = base + usize::from(b < rem);
            bands.push(k0 * slab..(k0 + nk) * slab);
            k0 += nk;
        }
        #[cfg(feature = "race-check")]
        let order = if bands.len() > 1 {
            race::schedule_seed().map(|s| race::permutation(bands.len(), s))
        } else {
            None
        };
        Self {
            bands,
            #[cfg(feature = "race-check")]
            order,
        }
    }

    /// The slab-aligned flat ranges, one per worker.
    #[cfg(test)]
    pub(crate) fn bands(&self) -> &[Range<usize>] {
        &self.bands
    }

    /// Number of workers this plan engages (1 = serial).
    pub(crate) fn threads(&self) -> usize {
        self.bands.len()
    }

    /// Runs `f` once per band with a mutable view of `out` restricted to
    /// that band, returning each band's result in band order.
    ///
    /// Serial plans call `f` inline; parallel plans fan the bands out
    /// across scoped threads. `f` receives the band's absolute flat
    /// range plus the matching sub-slice of `out` (indexed from 0).
    /// Generic over the element type so the f64 solvers and the f32
    /// mixed-precision kernels share one engine.
    pub(crate) fn map_mut<T, R, F>(&self, out: &mut [T], f: F) -> Vec<R>
    where
        T: Copy + Send + Sync,
        R: Send,
        F: Fn(Range<usize>, &mut [T]) -> R + Sync,
    {
        if self.bands.len() == 1 {
            let r = self.bands[0].clone();
            return vec![f(r.clone(), &mut out[r])];
        }
        self.run("map_mut", split_mut(out, &self.bands), f)
    }

    /// Like [`ExecPlan::map_mut`], also handing each band its own window
    /// of `parts`, which holds one slot per slab (`parts[k]` belongs to
    /// slab `k`) — per-slab reduction partials written in place into
    /// caller-owned scratch rather than returned in fresh vectors.
    pub(crate) fn map_mut_slabs<T, F>(&self, out: &mut [T], parts: &mut [f64], f: F)
    where
        T: Copy + Send + Sync,
        F: Fn(Range<usize>, &mut [T], &mut [f64]) + Sync,
    {
        let slab = out.len() / parts.len().max(1);
        if self.bands.len() == 1 {
            let r = self.bands[0].clone();
            f(r.clone(), &mut out[r], parts);
            return;
        }
        let slab_bands: Vec<Range<usize>> = self
            .bands
            .iter()
            .map(|r| r.start / slab..r.end / slab)
            .collect();
        let items = split_mut(out, &self.bands)
            .into_iter()
            .zip(split_mut(parts, &slab_bands));
        self.run("map_mut_slabs", items.collect(), |range, (chunk, p)| {
            f(range, chunk, p)
        });
    }

    /// Like [`ExecPlan::map_mut`] but with three banded mutable arrays —
    /// the fused CG update (`x`, `r`, `z`) region.
    pub(crate) fn map3_mut<T, R, F>(&self, a: &mut [T], b: &mut [T], c: &mut [T], f: F) -> Vec<R>
    where
        T: Copy + Send + Sync,
        R: Send,
        F: Fn(Range<usize>, &mut [T], &mut [T], &mut [T]) -> R + Sync,
    {
        if self.bands.len() == 1 {
            let r = self.bands[0].clone();
            return vec![f(
                r.clone(),
                &mut a[r.clone()],
                &mut b[r.clone()],
                &mut c[r],
            )];
        }
        let items = split_mut(a, &self.bands)
            .into_iter()
            .zip(split_mut(b, &self.bands))
            .zip(split_mut(c, &self.bands));
        self.run("map3_mut", items.collect(), |range, ((sa, sb), sc)| {
            f(range, sa, sb, sc)
        })
    }

    /// Runs `f` on each band's item — one scoped thread per band, or,
    /// under a schedule-perturbation seed, sequentially in the permuted
    /// order — and returns the results in band order. `items` holds one
    /// entry per band (the band's disjoint sub-slices); under
    /// `race-check` the bands' disjointness is audited as `region`.
    fn run<I, R, F>(
        &self,
        #[cfg_attr(not(feature = "race-check"), allow(unused_variables))] region: &str,
        items: Vec<I>,
        f: F,
    ) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(Range<usize>, I) -> R + Sync,
    {
        debug_assert_eq!(items.len(), self.bands.len());
        #[cfg(feature = "race-check")]
        if let Some(order) = &self.order {
            let mut slots: Vec<Option<I>> = items.into_iter().map(Some).collect();
            let results = run_permuted(order, &self.bands, |bi, range| {
                // tsc-analyze: allow(no-unwrap): `order` is a permutation,
                // so every band's item is taken exactly once.
                f(range, slots[bi].take().expect("each band runs once"))
            });
            race::enforce(race::check_intervals(
                &format!("{region} (permuted)"),
                &self.bands,
            ));
            return results;
        }
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .bands
                .iter()
                .cloned()
                .zip(items)
                .map(|(range, item)| {
                    let f = &f;
                    s.spawn(move || f(range, item))
                })
                .collect();
            handles
                .into_iter()
                // tsc-analyze: allow(no-unwrap): a worker panic must
                // propagate to the caller, not be swallowed into a
                // half-written field.
                .map(|h| h.join().expect("solver worker panicked"))
                .collect()
        });
        #[cfg(feature = "race-check")]
        race::enforce(race::check_intervals(region, &self.bands));
        results
    }

    /// Runs `f` once per band against a [`SharedSlice`] — the red-black
    /// SOR region, where disjointness of writes is by cell colour rather
    /// than by band and so cannot be expressed as sub-slice ownership.
    ///
    /// Under `race-check`, each band records its accessed indices and
    /// the region is audited after the join (see the module docs).
    #[cfg(not(feature = "race-check"))]
    pub(crate) fn for_each_shared<T, F>(&self, x: &mut [T], f: F)
    where
        T: Copy + Send + Sync,
        F: Fn(Range<usize>, &SharedSlice<'_, T>) + Sync,
    {
        let shared = SharedSlice::new(x);
        if self.bands.len() == 1 {
            f(self.bands[0].clone(), &shared);
            return;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .bands
                .iter()
                .cloned()
                .map(|range| {
                    let f = &f;
                    let shared = &shared;
                    s.spawn(move || f(range, shared))
                })
                .collect();
            for h in handles {
                // tsc-analyze: allow(no-unwrap): a worker panic must
                // propagate to the caller, not be swallowed.
                h.join().expect("solver worker panicked");
            }
        })
    }

    /// Race-checked variant: per-band `SharedSlice` views carry their
    /// own access logs, merged and audited after the region completes.
    #[cfg(feature = "race-check")]
    pub(crate) fn for_each_shared<T, F>(&self, x: &mut [T], f: F)
    where
        T: Copy + Send + Sync,
        F: Fn(Range<usize>, &SharedSlice<'_, T>) + Sync,
    {
        let shared = SharedSlice::new(x);
        if self.bands.len() == 1 {
            f(self.bands[0].clone(), &shared);
            let mut logs = vec![shared.take_log()];
            race::enforce(race::check_logs("shared region (serial)", &mut logs));
            return;
        }
        if let Some(order) = &self.order {
            let mut logs = vec![race::AccessLog::default(); self.bands.len()];
            for &bi in order {
                let view = shared.fork();
                f(self.bands[bi].clone(), &view);
                logs[bi] = view.take_log();
            }
            race::enforce(race::check_logs(
                "shared red-black region (permuted)",
                &mut logs,
            ));
            return;
        }
        let views: Vec<SharedSlice<'_, T>> = self.bands.iter().map(|_| shared.fork()).collect();
        let mut logs: Vec<race::AccessLog> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .bands
                .iter()
                .cloned()
                .zip(views)
                .map(|(range, view)| {
                    let f = &f;
                    s.spawn(move || {
                        f(range, &view);
                        view.take_log()
                    })
                })
                .collect();
            handles
                .into_iter()
                // tsc-analyze: allow(no-unwrap): a worker panic must
                // propagate to the caller, not be swallowed.
                .map(|h| h.join().expect("solver worker panicked"))
                .collect()
        });
        race::enforce(race::check_logs("shared red-black region", &mut logs));
    }
}

/// Executes every band exactly once, sequentially, in `order`, storing
/// results back into band-order slots — the schedule-perturbation
/// execution mode.
#[cfg(feature = "race-check")]
fn run_permuted<R>(
    order: &[usize],
    bands: &[Range<usize>],
    mut f: impl FnMut(usize, Range<usize>) -> R,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = bands.iter().map(|_| None).collect();
    for &bi in order {
        slots[bi] = Some(f(bi, bands[bi].clone()));
    }
    slots
        .into_iter()
        // tsc-analyze: allow(no-unwrap): `race::permutation` returns a
        // permutation of 0..bands.len(), so every slot is filled.
        .map(|r| r.expect("permutation covers every band"))
        .collect()
}

/// Splits one mutable slice into per-band sub-slices (bands must be a
/// contiguous partition starting at 0).
fn split_mut<'a, T>(mut s: &'a mut [T], bands: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bands.len());
    for r in bands {
        let (head, tail) = s.split_at_mut(r.len());
        out.push(head);
        s = tail;
    }
    debug_assert!(s.is_empty(), "bands must partition the slice");
    out
}

/// A shared view of a mutable scalar slice for stencil passes whose
/// write pattern is provably disjoint but not band-contiguous. Generic
/// over the scalar (`f64` for the PR-1 solvers, `f32` for the
/// mixed-precision kernels).
///
/// Red-black SOR writes only cells of the active colour
/// (`(i + j + k) % 2 == colour`) inside the worker's own k-band, and
/// reads only cells of the *other* colour (every stencil neighbour flips
/// parity) — no cell is ever written by two workers in the same pass,
/// and no cell is read while any worker may write it. The unsafe
/// surface is confined to this type; callers uphold the invariant above,
/// and the `race-check` feature verifies it dynamically
/// (see [`crate::race`]).
pub(crate) struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Indices this view accessed (one view per band under race-check).
    #[cfg(feature = "race-check")]
    log: core::cell::RefCell<race::AccessLog>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the pointer refers to a live `&mut [T]` (held exclusively by
// the engine for the duration of the region) and the access discipline
// is delegated to the caller per the type-level contract (disjoint
// writes, no read of a concurrently written cell), so cross-thread
// shared access through `&SharedSlice` cannot produce a data race when
// the contract holds. `T: Send + Sync` keeps non-thread-safe scalars out.
#[cfg(not(feature = "race-check"))]
unsafe impl<T: Send + Sync> Sync for SharedSlice<'_, T> {}

// SAFETY: sending the view to another thread moves only a pointer (plus
// the race-check log, which is owned data); the underlying slice outlives
// the scoped threads the engine hands the view to.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T: Copy> SharedSlice<'a, T> {
    pub(crate) fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            #[cfg(feature = "race-check")]
            log: core::cell::RefCell::new(race::AccessLog::default()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Another view of the same slice with a fresh access log — one per
    /// band, so each band's accesses are attributed to it. The aliasing
    /// contract is unchanged: all views share the region-level access
    /// discipline documented on the type.
    #[cfg(feature = "race-check")]
    fn fork(&self) -> SharedSlice<'a, T> {
        SharedSlice {
            ptr: self.ptr,
            len: self.len,
            log: core::cell::RefCell::new(race::AccessLog::default()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Extracts the access log accumulated by this view.
    #[cfg(feature = "race-check")]
    fn take_log(&self) -> race::AccessLog {
        self.log.take()
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and no concurrent writer may target `i` during this
    /// pass (guaranteed by the colour discipline).
    #[inline]
    pub(crate) unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        #[cfg(feature = "race-check")]
        self.log.borrow_mut().reads.push(i);
        // SAFETY: `i < len` per this function's contract, so the add
        // stays inside the allocation; the caller guarantees no
        // concurrent writer targets `i`.
        unsafe { *self.ptr.add(i) }
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and `i` must belong exclusively to the calling worker
    /// for this pass (own band, active colour).
    #[inline]
    pub(crate) unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        #[cfg(feature = "race-check")]
        self.log.borrow_mut().writes.push(i);
        // SAFETY: `i < len` per this function's contract, so the add
        // stays inside the allocation; the caller guarantees exclusive
        // ownership of `i` for this pass.
        unsafe { *self.ptr.add(i) = v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_and_align_to_slabs() {
        let dim = Dim3::new(3, 4, 10); // slab = 12
        let plan = ExecPlan::new(dim, 4, 0);
        assert_eq!(plan.threads(), 4);
        let mut expect_start = 0;
        for band in plan.bands() {
            assert_eq!(band.start, expect_start);
            assert_eq!(band.len() % 12, 0, "band must hold whole slabs");
            expect_start = band.end;
        }
        assert_eq!(expect_start, dim.len());
    }

    #[test]
    fn below_crossover_is_serial() {
        let dim = Dim3::new(4, 4, 4);
        let plan = ExecPlan::new(dim, 8, 1_000_000);
        assert_eq!(plan.threads(), 1);
        assert_eq!(plan.bands(), std::slice::from_ref(&(0..dim.len())));
    }

    #[test]
    fn never_more_bands_than_slabs() {
        let dim = Dim3::new(8, 8, 3);
        let plan = ExecPlan::new(dim, 16, 0);
        assert_eq!(plan.threads(), 3);
    }

    #[test]
    fn map_mut_covers_every_cell() {
        let dim = Dim3::new(2, 2, 9);
        let plan = ExecPlan::new(dim, 4, 0);
        let mut out = vec![0.0; dim.len()];
        let partials = plan.map_mut(&mut out, |range, chunk| {
            for (local, c) in range.clone().enumerate() {
                chunk[local] = c as f64;
            }
            range.len()
        });
        assert_eq!(partials.iter().sum::<usize>(), dim.len());
        for (c, v) in out.iter().enumerate() {
            assert_eq!(*v, c as f64);
        }
    }

    /// Seeded regressions for the race checker itself: deliberately
    /// break the access discipline and assert the region audit panics.
    /// A schedule seed is installed first so the bands run sequentially
    /// (permuted) — the broken pattern is then observed by the logs
    /// without ever performing a genuinely concurrent conflicting write.
    #[cfg(feature = "race-check")]
    mod seeded_regressions {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::{Mutex, MutexGuard};

        /// Serializes tests that touch the process-global schedule seed.
        static SEED_LOCK: Mutex<()> = Mutex::new(());

        /// Installs a seed for the test's duration; clears it on drop
        /// (including panics, so one test cannot poison the next).
        struct SeedGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

        fn install(seed: u64) -> SeedGuard {
            let guard = SEED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            race::set_schedule_seed(Some(seed));
            SeedGuard(guard)
        }

        impl Drop for SeedGuard {
            fn drop(&mut self) {
                race::set_schedule_seed(None);
            }
        }

        #[test]
        fn overlapping_writes_are_caught() {
            let _seed = install(11);
            let dim = Dim3::new(2, 2, 4);
            let plan = ExecPlan::new(dim, 4, 0);
            assert!(plan.threads() > 1, "need a multi-band plan");
            let mut x = vec![0.0; dim.len()];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                plan.for_each_shared(&mut x, |range, shared| {
                    // SAFETY: in-bounds; the discipline violation below
                    // is intentional and safe here because the installed
                    // seed forces sequential (permuted) execution — no
                    // two bands ever run concurrently in this test.
                    unsafe {
                        shared.set(0, 1.0); // every band writes index 0
                        for c in range {
                            shared.set(c, 2.0);
                        }
                    }
                });
            }));
            assert!(
                outcome.is_err(),
                "write/write overlap must fail the region audit"
            );
        }

        #[test]
        fn foreign_reads_are_caught() {
            let _seed = install(23);
            let dim = Dim3::new(2, 2, 4);
            let plan = ExecPlan::new(dim, 4, 0);
            assert!(plan.threads() > 1, "need a multi-band plan");
            let mut x = vec![0.0; dim.len()];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                plan.for_each_shared(&mut x, |range, shared| {
                    // SAFETY: in-bounds; sequential permuted execution
                    // (seed installed) makes the deliberate cross-band
                    // read below data-race-free in this test.
                    unsafe {
                        if range.start != 0 {
                            // Band 0 writes index 0; everyone else
                            // reading it is a read/foreign-write.
                            let _ = shared.get(0);
                        }
                        for c in range {
                            shared.set(c, 1.0);
                        }
                    }
                });
            }));
            assert!(
                outcome.is_err(),
                "read of a foreign write must fail the region audit"
            );
        }

        #[test]
        fn disciplined_region_passes_under_seed() {
            let _seed = install(37);
            let dim = Dim3::new(2, 2, 6);
            let plan = ExecPlan::new(dim, 3, 0);
            let mut x = vec![1.0; dim.len()];
            plan.for_each_shared(&mut x, |range, shared| {
                for c in range {
                    // SAFETY: bands are disjoint; each band touches only
                    // its own cells.
                    unsafe { shared.set(c, shared.get(c) + c as f64) };
                }
            });
            for (c, v) in x.iter().enumerate() {
                assert_eq!(*v, 1.0 + c as f64);
            }
        }
    }

    #[test]
    fn shared_slice_roundtrips() {
        let dim = Dim3::new(2, 2, 4);
        let plan = ExecPlan::new(dim, 2, 0);
        let mut x = vec![1.0; dim.len()];
        plan.for_each_shared(&mut x, |range, shared| {
            for c in range {
                // SAFETY: bands are disjoint; each worker touches only
                // its own band here.
                unsafe { shared.set(c, shared.get(c) + c as f64) };
            }
        });
        for (c, v) in x.iter().enumerate() {
            assert_eq!(*v, 1.0 + c as f64);
        }
    }
}
