//! `tsc-analyze` — the workspace's in-repo static-analysis gate.
//!
//! The workspace is hermetic (no crates.io), so the usual correctness
//! tooling for `unsafe` parallel code — miri, loom, thread sanitizers —
//! is unavailable. This crate rebuilds the two checks the solver engine
//! actually needs, the same way the reproduction rebuilds gated EDA
//! components as verifiable synthetic equivalents:
//!
//! 1. **A source lint pass** ([`rules`]): a dependency-free Rust lexer
//!    ([`lexer`]) walked over every workspace `.rs` file ([`walk`]),
//!    enforcing the repo's safety and determinism policies — `SAFETY:`
//!    comments on every `unsafe` site, no `.unwrap()`/`.expect()` in
//!    numeric library code, no `static mut`, no float-literal `==`, no
//!    hash-ordered iteration feeding numeric reductions. Each rule is
//!    individually allow-listable with an explained
//!    `// tsc-analyze: allow(<rule>): <reason>` directive.
//!
//! 2. **A cross-file concurrency pass** ([`lockgraph`], fed by the
//!    per-function syntactic model in [`model`]): a static lock-order
//!    graph over every named lock field in the workspace with cycle
//!    detection (potential deadlocks reported as `lock-order`
//!    diagnostics carrying both acquisition chains), plus the
//!    `guard-across-await-free-blocking`, `no-alloc-hot` and
//!    `no-wallclock-numeric` lints. The static graph is cross-checked at
//!    runtime by `tsc-serve`'s `lock-order` feature (`RankedMutex`).
//!
//! 3. **A dynamic write-set race checker** (behind the `race-check`
//!    feature, implemented in `tsc-thermal::race` and driven by this
//!    crate's binary with `--race-check`): the engine records per-band
//!    read/write index sets in every parallel region and asserts
//!    pairwise write-disjointness plus read/foreign-write separation —
//!    a homegrown data-race detector for the red-black discipline —
//!    and a schedule-perturbation harness re-runs Jacobi-CG, SOR and
//!    mixed-precision multigrid solves and transient steps under
//!    permuted band execution orders asserting bitwise-identical
//!    temperature fields.
//!
//! Run `cargo run -p tsc-analyze` for the lint gate, and
//! `cargo run -p tsc-analyze --features race-check -- --race-check` for
//! the dynamic checks (CI runs both).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lockgraph;
pub mod model;
pub mod rules;
pub mod walk;

#[cfg(feature = "race-check")]
pub mod dynamic;

use rules::Violation;
use std::path::{Path, PathBuf};

/// Outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files: usize,
    /// Surviving violations as `(file, violation)` pairs, file order.
    pub violations: Vec<(PathBuf, Violation)>,
}

impl LintReport {
    /// True when the gate passes.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints every workspace file under `root`.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    for file in walk::workspace_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        let class = walk::classify(root, &file);
        report.files += 1;
        for v in rules::lint_source(&src, class) {
            report.violations.push((file.clone(), v));
        }
    }
    Ok(report)
}
