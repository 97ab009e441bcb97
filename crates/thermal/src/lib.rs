//! Chip-scale steady-state thermal simulation — the PACT/Celsius substitute.
//!
//! Solves the anisotropic steady-state heat equation `∇·(k∇T) + q = 0` on a
//! structured finite-volume mesh:
//!
//! * uniform lateral resolution (`nx × ny` cells of pitch `dx × dy`),
//!   non-uniform vertical resolution so slab interfaces of a
//!   [`tsc_geometry::LayerStack`] always coincide with cell faces;
//! * per-cell anisotropic conductivity (vertical `kz`, lateral `kxy`) —
//!   this is where thermal-dielectric layers and pillar columns enter;
//! * Robin (convective) boundaries on the bottom and/or top face modelling
//!   the attached heatsink (`G = h·A` to ambient); all side walls
//!   adiabatic, matching the PACT default used in the paper;
//! * one production solver and two references: [`CgSolver`] runs the
//!   mixed-precision path ([`Precision::Mixed`]: f64 iterative
//!   refinement over an f32 multigrid-preconditioned CG, the one
//!   multigrid hierarchy of the workspace) or f64 Jacobi-preconditioned
//!   CG ([`Precision::F64`], the oracle, which also finishes any mixed
//!   solve whose refinement stalls); red-black successive
//!   over-relaxation ([`SorSolver`]) is the independent cross-check of
//!   the oracle. Steady, transient ([`transient`]) and electrothermal
//!   ([`electrothermal`]) solves share one solve entry.
//!
//! All solvers share a scoped-thread parallel engine: matrix-free
//! stencil products and reductions chunk across z-slab bands, with
//! per-slab ordered reductions so any thread count reproduces the
//! serial arithmetic bitwise (`CgSolver::with_threads`,
//! `CgSolver::with_parallel_crossover`). Solves are divergence-safe —
//! a non-finite residual surfaces as [`SolveError::Diverged`], never as
//! an `Ok` carrying NaN temperatures — and every [`Solution`] carries a
//! full observability record ([`SolverStats`]: iteration count, matvec
//! count, assembly/solve wall time, sampled residual trajectory).
//!
//! The engine's safety and determinism claims are *checked*, not just
//! asserted: the `race-check` feature (see [`race`] when enabled, and
//! `cargo run -p tsc-analyze`) records per-band write sets in every
//! parallel region, asserts the red-black discipline dynamically, and
//! re-runs solves under permuted band schedules to prove bitwise
//! order-independence.
//!
//! # Example: a one-layer slab with a uniform source
//!
//! ```
//! use tsc_thermal::{Heatsink, Problem, CgSolver};
//! use tsc_units::{HeatFlux, Length, Temperature, ThermalConductivity};
//!
//! // 1 mm x 1 mm x 10 µm silicon slab on a two-phase heatsink,
//! // dissipating 100 W/cm² at its top surface.
//! let mut p = Problem::uniform_block(
//!     16, 16, 4,
//!     Length::from_millimeters(1.0), Length::from_millimeters(1.0),
//!     Length::from_micrometers(10.0),
//!     ThermalConductivity::new(148.0),
//! );
//! p.set_bottom_heatsink(Heatsink::two_phase());
//! p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(100.0));
//! let solution = CgSolver::new().solve(&p)?;
//! let tj = solution.temperatures.max_temperature();
//! assert!(tj > Temperature::from_celsius(100.0)); // above ambient
//! assert!(tj < Temperature::from_celsius(102.0)); // tiny rise for thin Si
//! # Ok::<(), tsc_thermal::SolveError>(())
//! ```

// The only workspace crate allowed to contain `unsafe` (the engine's
// `SharedSlice`); every unsafe operation must sit in an explicit block
// with its own SAFETY argument, enforced by `tsc-analyze`.
#![deny(unsafe_op_in_unsafe_fn)]

mod analysis;
mod builder;
mod context;
pub mod electrothermal;
mod engine;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod field;
mod heatsink;
mod kernels;
mod multigrid;
pub mod network;
mod problem;
#[cfg(feature = "race-check")]
pub mod race;
mod solver;
mod superpose;
pub mod transient;

pub use analysis::{line_profile, render_layer_ascii, EnergyBalance};
pub use builder::{SlabSpec, StackMeshBuilder};
pub use context::{ContextStats, SolveContext};
pub use field::TemperatureField;
pub use heatsink::Heatsink;
pub use problem::Problem;
pub use solver::{
    CgSolver, Precision, Solution, SolveError, SolverStats, SorSolver, DEFAULT_PARALLEL_CROSSOVER,
};
pub use superpose::{affine_family, blend_solutions, AffineFamily};
