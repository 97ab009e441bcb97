//! Verification harness for the thermal-scaffolding workspace.
//!
//! Three pillars, each exercised by this crate's test suite:
//!
//! * [`mms`] — a **method-of-manufactured-solutions oracle**: smooth
//!   analytic temperature fields with derived source terms and boundary
//!   data, injected into [`tsc_thermal::Problem`] via the per-column
//!   ambient-map hooks, so every solver's discretization order can be
//!   *measured* (`cargo test -p tsc-verify` asserts L2 order ≳ 2 across
//!   mesh refinements for Jacobi-CG, the mixed-precision multigrid
//!   path, and SOR).
//! * [`golden`] — a **golden-flow regression harness**: the paper flows
//!   run on reduced fixtures, key scalars snapshot to
//!   `tests/golden/*.json`, compared with per-field relative tolerances.
//!   `UPDATE_GOLDEN=1 cargo test -p tsc-verify` re-blesses.
//! * **fault injection** (tests behind `--features fault-inject`) —
//!   seeded [`tsc_thermal::fault`] plans corrupt solves and the suite
//!   proves every fault surfaces as a typed error, never a silently
//!   wrong `Ok`.
//!
//! The crate also exports [`assert_close!`], the shared float-comparison
//! macro used across the workspace's integration tests.

// No crate outside tsc-thermal may contain `unsafe` (enforced
// statically here and by `cargo run -p tsc-analyze`).
#![forbid(unsafe_code)]

pub mod golden;
pub mod mms;

/// True when `a` and `b` agree to relative tolerance `rel`, measured
/// against the larger magnitude (with a subnormal floor so exact zeros
/// compare equal).
#[must_use]
pub fn close_rel(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs());
    a == b || (a - b).abs() <= rel * scale
}

/// True when `a` and `b` agree to absolute tolerance `abs`.
#[must_use]
pub fn close_abs(a: f64, b: f64, abs: f64) -> bool {
    a == b || (a - b).abs() <= abs
}

/// Asserts two floats agree to a *named* tolerance.
///
/// The workspace convention for float assertions in tests: every
/// comparison states whether its tolerance is relative or absolute and
/// the failure message reports both values, the difference, and the
/// bound — no more bare `(a - b).abs() < eps` with silent semantics.
///
/// ```
/// use tsc_verify::assert_close;
/// assert_close!(100.0_f64, 100.4, rel = 5e-3);
/// assert_close!(0.0_f64, 1e-12, abs = 1e-9);
/// assert_close!(1.0_f64, 1.0, rel = 0.0, "context {}", 42);
/// ```
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr, rel = $tol:expr $(,)?) => {
        $crate::assert_close!($a, $b, rel = $tol, "values differ");
    };
    ($a:expr, $b:expr, rel = $tol:expr, $($ctx:tt)+) => {{
        let (a, b, tol): (f64, f64, f64) = ($a, $b, $tol);
        assert!(
            $crate::close_rel(a, b, tol),
            "{}: {a} vs {b} (diff {:.3e}, rel tolerance {tol:.1e} of {:.3e})",
            format_args!($($ctx)+),
            (a - b).abs(),
            a.abs().max(b.abs()),
        );
    }};
    ($a:expr, $b:expr, abs = $tol:expr $(,)?) => {
        $crate::assert_close!($a, $b, abs = $tol, "values differ");
    };
    ($a:expr, $b:expr, abs = $tol:expr, $($ctx:tt)+) => {{
        let (a, b, tol): (f64, f64, f64) = ($a, $b, $tol);
        assert!(
            $crate::close_abs(a, b, tol),
            "{}: {a} vs {b} (diff {:.3e}, abs tolerance {tol:.1e})",
            format_args!($($ctx)+),
            (a - b).abs(),
        );
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn rel_form_accepts_within_tolerance() {
        assert_close!(100.0, 100.0 + 1e-7, rel = 1e-8);
        assert_close!(-5.0, -5.0, rel = 0.0);
        assert_close!(0.0, 0.0, rel = 0.0);
    }

    #[test]
    #[should_panic(expected = "rel tolerance")]
    fn rel_form_rejects_outside_tolerance() {
        assert_close!(100.0, 101.0, rel = 1e-6);
    }

    #[test]
    fn abs_form_handles_zero_reference() {
        assert_close!(0.0, 1e-12, abs = 1e-9);
    }

    #[test]
    #[should_panic(expected = "hot cell 3")]
    fn context_appears_in_failure() {
        assert_close!(1.0, 2.0, abs = 1e-9, "hot cell {}", 3);
    }
}
