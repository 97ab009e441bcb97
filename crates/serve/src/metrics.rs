//! Lock-cheap metrics registry with a Prometheus text exposition.
//!
//! Hot-path instrumentation is pure integer atomics: counters are
//! `AtomicU64`, gauges `AtomicI64`, and latency histograms bucket
//! microsecond integers — no float math happens on the request path.
//! Floats appear only at scrape time, when [`Metrics::render`] converts
//! microseconds to seconds and interpolates p50/p90/p99 from the bucket
//! CDF.  [`validate_exposition`] is a minimal checker for the text format,
//! shared by the test suites and the load generator.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `target` if it is currently below it (and
    /// never lowers it).  Used to mirror monotone totals owned by another
    /// data structure — the job table's lifetime counters — without
    /// double counting when several scrapers sync concurrently.
    pub fn advance_to(&self, target: u64) {
        self.0.fetch_max(target, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs) for the latency histograms.  Spans 500µs…10s, which
/// covers both cache-hit solves and cold full-mesh assemblies.
const BUCKET_BOUNDS_US: [u64; 13] = [
    500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
    2_500_000, 10_000_000,
];

/// Fixed-bound microsecond histogram.  `observe` is three relaxed atomic
/// adds; quantiles are interpolated from the bucket CDF at scrape time.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub fn observe_us(&self, us: u64) {
        for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            if us <= *bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // Values above the last bound land only in +Inf (count).
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Interpolated quantile in microseconds (`q` in [0, 1]).
    ///
    /// `None` while the histogram is empty: an empty histogram has no
    /// quantiles, and rendering a placeholder 0 would be indistinguishable
    /// from a genuine zero-latency measurement on a dashboard.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        let mut lower = 0u64;
        for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            let in_bucket = self.buckets[i].load(Ordering::Relaxed);
            let next = cumulative + in_bucket;
            if (next as f64) >= target && in_bucket > 0 {
                let into = (target - cumulative as f64) / in_bucket as f64;
                return Some(lower as f64 + into * (*bound - lower) as f64);
            }
            cumulative = next;
            lower = *bound;
        }
        // The quantile falls in the +Inf bucket (observations beyond the
        // last finite bound).  That bucket has no upper edge to
        // interpolate against, so clamp to the largest finite bound
        // rather than extrapolating an unbounded interval.
        Some(*BUCKET_BOUNDS_US.last().unwrap_or(&0) as f64)
    }

    fn render(&self, name: &str, labels: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let le = *bound as f64 / 1e6;
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let count = self.count();
        let sum = self.sum_us.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{{labels}le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!(
            "{name}_sum{{{labels_t}}} {sum}\n",
            labels_t = labels.trim_end_matches(',')
        ));
        out.push_str(&format!(
            "{name}_count{{{labels_t}}} {count}\n",
            labels_t = labels.trim_end_matches(',')
        ));
    }
}

/// Endpoints tracked with per-status request counters.
pub const ENDPOINTS: [&str; 11] = [
    "solve",
    "flow",
    "pillars",
    "batch",
    "transient",
    "jobs",
    "designs",
    "metrics",
    "healthz",
    "shutdown",
    "other",
];

/// Statuses tracked per endpoint.
pub const STATUSES: [u16; 14] = [
    200, 202, 400, 404, 405, 408, 413, 429, 431, 500, 501, 502, 503, 504,
];

/// Heavy (queued) endpoints that get latency histograms.
pub const HEAVY_ENDPOINTS: [&str; 4] = ["solve", "flow", "pillars", "batch"];

/// Admission-class labels, aligned with `Priority::index`.
pub const CLASSES: [&str; 3] = ["interactive", "batch", "background"];

fn endpoint_index(endpoint: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|e| *e == endpoint)
        .unwrap_or(ENDPOINTS.len() - 1)
}

fn status_index(status: u16) -> usize {
    STATUSES.iter().position(|s| *s == status).unwrap_or(9) // unknown → 500 slot
}

/// The service-wide metrics registry.  One instance lives in the shared
/// server state; all fields are updated with relaxed atomics.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [[Counter; STATUSES.len()]; ENDPOINTS.len()],
    latency: [Histogram; HEAVY_ENDPOINTS.len()],
    pub queue_depth: Gauge,
    pub queue_capacity: Gauge,
    pub inflight: Gauge,
    pub connections: Gauge,
    pub coalesced_total: Counter,
    pub backend_solves_total: Counter,
    pub pool_hits: Counter,
    pub pool_misses: Counter,
    pub pool_evictions: Counter,
    pub stack_cache_hits: Counter,
    pub stack_cache_misses: Counter,
    pub deadline_timeouts: Counter,
    pub rejected_queue_full: Counter,
    pub worker_panics: Counter,
    // Admission control: per-class admitted / shed counts, indexed by
    // `Priority::index` (see `CLASSES`).
    pub class_admitted: [Counter; CLASSES.len()],
    pub class_shed: [Counter; CLASSES.len()],
    // Batch endpoint rollups.
    pub batch_requests_total: Counter,
    pub batch_items_total: Counter,
    pub batch_item_errors_total: Counter,
    pub batch_groups_total: Counter,
    pub batch_group_warm_items_total: Counter,
    pub batch_affine_rescales_total: Counter,
    // SolverStats / ContextStats rollups, accumulated after each backend solve.
    pub solver_iterations: Counter,
    pub solver_matvecs: Counter,
    pub solver_cycles: Counter,
    pub ctx_operator_reuses: Counter,
    pub ctx_assemblies: Counter,
    pub ctx_hierarchy_builds: Counter,
    pub ctx_f64_fallbacks: Counter,
    pub ctx_warm_starts: Counter,
    pub ctx_projected_starts: Counter,
    // Transient session rollups (`POST /v1/transient`).
    pub transient_sessions_active: Gauge,
    pub transient_pinned: Gauge,
    pub transient_sessions_total: Counter,
    pub transient_steps_total: Counter,
    pub transient_runaway_alarms_total: Counter,
    pub transient_session_errors_total: Counter,
    pub transient_step_latency: Histogram,
    // Optimization-job rollups (`/v1/jobs`).  The terminal/eval counters
    // mirror the job table's lifetime totals via `Counter::advance_to`.
    pub jobs_active: Gauge,
    pub jobs_queued: Gauge,
    pub jobs_submitted_total: Counter,
    pub jobs_completed_total: Counter,
    pub jobs_failed_total: Counter,
    pub jobs_cancelled_total: Counter,
    pub jobs_evicted_total: Counter,
    pub jobs_rejected_table_full_total: Counter,
    pub job_slices_total: Counter,
    pub job_evals_total: Counter,
    pub job_dedup_hits_total: Counter,
}

impl Metrics {
    pub fn record_request(&self, endpoint: &str, status: u16) {
        self.requests[endpoint_index(endpoint)][status_index(status)].inc();
    }

    pub fn observe_latency_us(&self, endpoint: &str, us: u64) {
        if let Some(i) = HEAVY_ENDPOINTS.iter().position(|e| *e == endpoint) {
            self.latency[i].observe_us(us);
        }
    }

    /// Render the full Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(8192);

        out.push_str("# HELP tsc_requests_total Requests handled, by endpoint and status.\n");
        out.push_str("# TYPE tsc_requests_total counter\n");
        for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
            for (si, status) in STATUSES.iter().enumerate() {
                let n = self.requests[ei][si].get();
                if n > 0 {
                    out.push_str(&format!(
                        "tsc_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
                    ));
                }
            }
        }

        out.push_str("# HELP tsc_request_seconds End-to-end latency of queued solve endpoints.\n");
        out.push_str("# TYPE tsc_request_seconds histogram\n");
        for (i, endpoint) in HEAVY_ENDPOINTS.iter().enumerate() {
            self.latency[i].render(
                "tsc_request_seconds",
                &format!("endpoint=\"{endpoint}\","),
                &mut out,
            );
        }

        // No observations → no quantile series: a placeholder 0 s gauge
        // would read as a real measurement.  The HELP/TYPE header is also
        // withheld until at least one series exists (a sample-less TYPE is
        // invalid exposition).
        let mut quantiles = String::new();
        for (i, endpoint) in HEAVY_ENDPOINTS.iter().enumerate() {
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                if let Some(us) = self.latency[i].quantile_us(q) {
                    let seconds = us / 1e6;
                    quantiles.push_str(&format!(
                        "tsc_request_seconds_quantile{{endpoint=\"{endpoint}\",quantile=\"{label}\"}} {seconds}\n"
                    ));
                }
            }
        }
        if !quantiles.is_empty() {
            out.push_str(
                "# HELP tsc_request_seconds_quantile Latency quantiles interpolated at scrape time.\n",
            );
            out.push_str("# TYPE tsc_request_seconds_quantile gauge\n");
            out.push_str(&quantiles);
        }

        out.push_str("# HELP tsc_transient_step_seconds Per-step latency of transient sessions.\n");
        out.push_str("# TYPE tsc_transient_step_seconds histogram\n");
        self.transient_step_latency
            .render("tsc_transient_step_seconds", "", &mut out);

        let gauges: [(&str, &str, i64); 8] = [
            (
                "tsc_queue_depth",
                "Jobs waiting in the solve queue.",
                self.queue_depth.get(),
            ),
            (
                "tsc_queue_capacity",
                "Configured solve-queue capacity.",
                self.queue_capacity.get(),
            ),
            (
                "tsc_inflight_jobs",
                "Jobs currently executing on workers.",
                self.inflight.get(),
            ),
            (
                "tsc_open_connections",
                "Open client connections.",
                self.connections.get(),
            ),
            (
                "tsc_transient_sessions_active",
                "Transient streaming sessions currently open.",
                self.transient_sessions_active.get(),
            ),
            (
                "tsc_transient_pinned",
                "Transient contexts pinned out of the LRU pool by live sessions.",
                self.transient_pinned.get(),
            ),
            (
                "tsc_jobs_active",
                "Optimization jobs currently running.",
                self.jobs_active.get(),
            ),
            (
                "tsc_jobs_queued",
                "Optimization jobs admitted but waiting for a class slot.",
                self.jobs_queued.get(),
            ),
        ];
        for (name, help, value) in gauges {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }

        out.push_str(
            "# HELP tsc_admitted_total Heavy jobs admitted to the solve queue, by class.\n",
        );
        out.push_str("# TYPE tsc_admitted_total counter\n");
        for (i, class) in CLASSES.iter().enumerate() {
            out.push_str(&format!(
                "tsc_admitted_total{{class=\"{class}\"}} {}\n",
                self.class_admitted[i].get()
            ));
        }
        out.push_str("# HELP tsc_shed_total Heavy jobs refused (429) at admission, by class.\n");
        out.push_str("# TYPE tsc_shed_total counter\n");
        for (i, class) in CLASSES.iter().enumerate() {
            out.push_str(&format!(
                "tsc_shed_total{{class=\"{class}\"}} {}\n",
                self.class_shed[i].get()
            ));
        }

        let counters: [(&str, &str, u64); 39] = [
            (
                "tsc_coalesced_requests_total",
                "Requests served by piggybacking on an identical in-flight solve.",
                self.coalesced_total.get(),
            ),
            (
                "tsc_backend_solves_total",
                "Solves actually executed by the backend (post-coalescing).",
                self.backend_solves_total.get(),
            ),
            (
                "tsc_context_pool_hits_total",
                "Pool lookups that found a pooled SolveContext (solve operator entry or flow/pillars context).",
                self.pool_hits.get(),
            ),
            (
                "tsc_context_pool_misses_total",
                "Pool lookups that had to start a fresh SolveContext (solve operator entry or flow/pillars context).",
                self.pool_misses.get(),
            ),
            (
                "tsc_context_pool_evictions_total",
                "Pooled operator entries and contexts evicted by the LRU cap.",
                self.pool_evictions.get(),
            ),
            (
                "tsc_stack_cache_hits_total",
                "Solve operator-pool lookups that reused a built stack (moves with the context-pool hits).",
                self.stack_cache_hits.get(),
            ),
            (
                "tsc_stack_cache_misses_total",
                "Solve operator-pool lookups that built the stack from the design (moves with the context-pool misses).",
                self.stack_cache_misses.get(),
            ),
            (
                "tsc_deadline_timeouts_total",
                "Requests answered 504 because their deadline expired in queue.",
                self.deadline_timeouts.get(),
            ),
            (
                "tsc_rejected_queue_full_total",
                "Requests answered 429 because the solve queue was full.",
                self.rejected_queue_full.get(),
            ),
            (
                "tsc_worker_panics_total",
                "Worker jobs that panicked and were converted to 500s.",
                self.worker_panics.get(),
            ),
            (
                "tsc_solver_iterations_total",
                "Krylov iterations accumulated across backend solves.",
                self.solver_iterations.get(),
            ),
            (
                "tsc_solver_matvecs_total",
                "Operator applications accumulated across backend solves.",
                self.solver_matvecs.get(),
            ),
            (
                "tsc_solver_multigrid_cycles_total",
                "Multigrid cycles accumulated across backend solves.",
                self.solver_cycles.get(),
            ),
            (
                "tsc_context_operator_reuses_total",
                "Solves that reused an already-assembled operator.",
                self.ctx_operator_reuses.get(),
            ),
            (
                "tsc_context_assemblies_total",
                "Full operator assemblies performed by pooled contexts.",
                self.ctx_assemblies.get(),
            ),
            (
                "tsc_context_hierarchy_builds_total",
                "Multigrid hierarchies built by pooled contexts (mixed-precision solves).",
                self.ctx_hierarchy_builds.get(),
            ),
            (
                "tsc_context_f64_fallbacks_total",
                "Mixed-precision solves that finished on f64 Jacobi-CG because refinement stalled.",
                self.ctx_f64_fallbacks.get(),
            ),
            (
                "tsc_context_warm_starts_total",
                "Solves warm-started from a pooled temperature field.",
                self.ctx_warm_starts.get(),
            ),
            (
                "tsc_context_projected_starts_total",
                "Warm starts projected onto a pooled context's recent solutions.",
                self.ctx_projected_starts.get(),
            ),
            (
                "tsc_batch_requests_total",
                "POST /v1/batch envelopes accepted.",
                self.batch_requests_total.get(),
            ),
            (
                "tsc_batch_items_total",
                "Individual items carried by batch envelopes.",
                self.batch_items_total.get(),
            ),
            (
                "tsc_batch_item_errors_total",
                "Batch items that returned a per-item error.",
                self.batch_item_errors_total.get(),
            ),
            (
                "tsc_batch_groups_total",
                "Operator groups of two or more items executed by the batch endpoint.",
                self.batch_groups_total.get(),
            ),
            (
                "tsc_batch_group_warm_items_total",
                "Batch items solved as repowered warm deltas (after a group's first item).",
                self.batch_group_warm_items_total.get(),
            ),
            (
                "tsc_batch_affine_rescales_total",
                "Batch items answered by exact affine superposition of the group's \
                 two anchor solves instead of a solver run.",
                self.batch_affine_rescales_total.get(),
            ),
            (
                "tsc_transient_sessions_total",
                "Transient streaming sessions opened.",
                self.transient_sessions_total.get(),
            ),
            (
                "tsc_transient_steps_total",
                "Implicit-Euler steps executed inside transient sessions.",
                self.transient_steps_total.get(),
            ),
            (
                "tsc_transient_runaway_alarms_total",
                "ThermalRunaway alarms streamed in-band to transient sessions.",
                self.transient_runaway_alarms_total.get(),
            ),
            (
                "tsc_transient_session_errors_total",
                "Transient sessions ended by a typed in-band error event.",
                self.transient_session_errors_total.get(),
            ),
            (
                "tsc_jobs_submitted_total",
                "Optimization jobs admitted by POST /v1/jobs.",
                self.jobs_submitted_total.get(),
            ),
            (
                "tsc_jobs_completed_total",
                "Optimization jobs that finished with a result.",
                self.jobs_completed_total.get(),
            ),
            (
                "tsc_jobs_failed_total",
                "Optimization jobs that ended in a fatal error.",
                self.jobs_failed_total.get(),
            ),
            (
                "tsc_jobs_cancelled_total",
                "Optimization jobs cancelled by the client.",
                self.jobs_cancelled_total.get(),
            ),
            (
                "tsc_jobs_evicted_total",
                "Terminal job entries evicted after their TTL.",
                self.jobs_evicted_total.get(),
            ),
            (
                "tsc_jobs_rejected_table_full_total",
                "Job submissions refused because the job table was full.",
                self.jobs_rejected_table_full_total.get(),
            ),
            (
                "tsc_job_slices_total",
                "Job work slices executed by solver workers.",
                self.job_slices_total.get(),
            ),
            (
                "tsc_job_evals_total",
                "Fresh candidate evaluations performed by terminal jobs.",
                self.job_evals_total.get(),
            ),
            (
                "tsc_job_dedup_hits_total",
                "Candidate evaluations served from the fingerprint memo by terminal jobs.",
                self.job_dedup_hits_total.get(),
            ),
            (
                "tsc_lock_poisoned_total",
                "Mutex guards recovered from a poisoned state (a worker panicked \
                 mid-critical-section; state was reconstructed).",
                crate::locks::poisoned_total(),
            ),
        ];
        for (name, help, value) in counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }

        out
    }
}

/// The Prometheus text-format checker shared with the load generator:
/// re-exported from [`tsc_bench::prom`], where it can be consumed without
/// linking this crate.
pub use tsc_bench::prom::validate_exposition;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe_us(400); // all in the first bucket (≤500µs)
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.5).expect("non-empty");
        assert!(p50 > 0.0 && p50 <= 500.0, "p50 = {p50}");
        // Add a slow tail and check p99 moves into a later bucket.
        for _ in 0..5 {
            h.observe_us(90_000);
        }
        assert!(h.quantile_us(0.99).expect("non-empty") > 50_000.0);
    }

    #[test]
    fn histogram_tail_beyond_last_bound_still_counts() {
        let h = Histogram::default();
        h.observe_us(50_000_000); // beyond 10s bound → +Inf only
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(0.5).expect("non-empty") > 0.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.quantile_us(0.99), None);
        // ...and render must omit the quantile series entirely rather than
        // publishing a fake 0 s gauge.
        let m = Metrics::default();
        m.record_request("solve", 200);
        let text = m.render();
        validate_exposition(&text).expect("exposition must validate");
        assert!(
            !text.contains("tsc_request_seconds_quantile{"),
            "no quantile series while every histogram is empty"
        );
        // The histogram series themselves (all-zero buckets) still render.
        assert!(text.contains("tsc_request_seconds_bucket{endpoint=\"solve\",le=\"+Inf\"} 0"));
        m.observe_latency_us("solve", 1_000);
        let text = m.render();
        assert!(text.contains("tsc_request_seconds_quantile{endpoint=\"solve\",quantile=\"0.5\"}"));
        assert!(
            !text.contains("tsc_request_seconds_quantile{endpoint=\"flow\""),
            "flow histogram is still empty"
        );
    }

    #[test]
    fn quantile_in_overflow_bucket_clamps_to_last_finite_bound() {
        let h = Histogram::default();
        // One fast observation, nine far beyond the last finite bound: the
        // median sits in +Inf, which has no upper edge to interpolate
        // against.  It must clamp to the 10 s bound, not extrapolate.
        h.observe_us(400);
        for _ in 0..9 {
            h.observe_us(60_000_000);
        }
        let last = *BUCKET_BOUNDS_US.last().unwrap() as f64;
        assert_eq!(h.quantile_us(0.5), Some(last));
        assert_eq!(h.quantile_us(0.99), Some(last));
    }

    #[test]
    fn transient_series_render_and_validate() {
        let m = Metrics::default();
        m.record_request("transient", 200);
        m.transient_sessions_total.inc();
        m.transient_steps_total.add(3);
        m.transient_runaway_alarms_total.inc();
        m.transient_step_latency.observe_us(800);
        m.transient_sessions_active.set(1);
        m.transient_pinned.set(1);
        let text = m.render();
        validate_exposition(&text).expect("exposition must validate");
        assert!(text.contains("tsc_requests_total{endpoint=\"transient\",status=\"200\"} 1"));
        assert!(text.contains("tsc_transient_sessions_active 1"));
        assert!(text.contains("tsc_transient_pinned 1"));
        assert!(text.contains("tsc_transient_sessions_total 1"));
        assert!(text.contains("tsc_transient_steps_total 3"));
        assert!(text.contains("tsc_transient_runaway_alarms_total 1"));
        assert!(text.contains("tsc_transient_step_seconds_count{} 1"));
    }

    #[test]
    fn render_is_valid_exposition() {
        let m = Metrics::default();
        m.record_request("solve", 200);
        m.record_request("solve", 429);
        m.record_request("nonsense", 200); // falls into the "other" slot
        m.observe_latency_us("solve", 1234);
        m.queue_depth.set(3);
        m.pool_hits.add(7);
        let text = m.render();
        validate_exposition(&text).expect("exposition must validate");
        assert!(text.contains("tsc_requests_total{endpoint=\"solve\",status=\"200\"} 1"));
        assert!(text.contains("tsc_requests_total{endpoint=\"other\",status=\"200\"} 1"));
        assert!(text.contains("tsc_request_seconds_bucket{endpoint=\"solve\",le=\"+Inf\"} 1"));
        assert!(text.contains("tsc_context_pool_hits_total 7"));
        assert!(text.contains("tsc_queue_depth 3"));
    }
}
