//! Request/response model for the solve service.
//!
//! Bodies are the `tsc_bench::json` dialect.  Each heavy endpoint has a
//! typed request struct parsed from JSON with defaults and range
//! validation, a *canonical* JSON form (defaults applied, keys sorted by
//! the emitter) that is the coalescing key — two requests that differ
//! only in field order or omitted defaults coalesce onto the same
//! in-flight solve — and an executor that runs the solve through a
//! pooled [`SolveContext`] and renders the response body.

use tsc_bench::json::{Json, Pretty};
use tsc_core::beol::BeolProperties;
use tsc_core::flows::{run_flow_with, CoolingStrategy, FlowConfig};
use tsc_core::pillars::{self, PlacementConfig};
use tsc_core::stack::{self, Stack3d, StackConfig, StackSolution};
use tsc_designs::{fujitsu, gemmini, rocket, Design};
use tsc_geometry::Grid3;
use tsc_jobs::fnv1a_bytes;
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::{ContextStats, Heatsink, Solution, SolveContext};
use tsc_units::{Ratio, Temperature};

use crate::metrics::Metrics;
use crate::pool::{LruPool, OperatorEntry, ServicePools, TransientState};

/// The built-in design registry served by `GET /v1/designs` and referenced
/// by name in requests.
pub fn registry() -> &'static [(&'static str, Design)] {
    use std::sync::OnceLock;
    static REGISTRY: OnceLock<Vec<(&'static str, Design)>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            ("gemmini", gemmini::design()),
            ("gemmini-memory", gemmini::memory_tier()),
            ("rocket", rocket::design()),
            ("fujitsu", fujitsu::design()),
        ]
    })
}

fn lookup_design(name: &str) -> Result<&'static Design, String> {
    registry()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d)
        .ok_or_else(|| format!("unknown design {name:?}; see GET /v1/designs"))
}

/// The `GET /v1/designs` body (computed once — the registry is static).
pub fn designs_body() -> String {
    let items: Vec<Json> = registry()
        .iter()
        .map(|(name, design)| {
            Json::object()
                .field("name", *name)
                .field("units", design.units.len())
                .field("die_area_mm2", design.die_area().get() * 1e6)
                .field("total_power_w", design.total_power(Ratio::ONE).get())
        })
        .collect();
    Json::object().field("designs", items).pretty()
}

fn parse_heatsink(name: &str) -> Result<Heatsink, String> {
    match name {
        "two-phase" => Ok(Heatsink::two_phase()),
        "microfluidic" => Ok(Heatsink::microfluidic()),
        "forced-air" => Ok(Heatsink::forced_air()),
        other => Err(format!(
            "unknown heatsink {other:?} (two-phase | microfluidic | forced-air)"
        )),
    }
}

fn parse_strategy(name: &str) -> Result<CoolingStrategy, String> {
    match name {
        "scaffolding" => Ok(CoolingStrategy::Scaffolding),
        "vertical-only" => Ok(CoolingStrategy::VerticalOnly),
        "conventional" => Ok(CoolingStrategy::ConventionalDummyVias),
        other => Err(format!(
            "unknown strategy {other:?} (scaffolding | vertical-only | conventional)"
        )),
    }
}

fn strategy_name(strategy: CoolingStrategy) -> &'static str {
    match strategy {
        CoolingStrategy::Scaffolding => "scaffolding",
        CoolingStrategy::VerticalOnly => "vertical-only",
        CoolingStrategy::ConventionalDummyVias => "conventional",
    }
}

fn heatsink_name(hs: &Heatsink) -> &'static str {
    // Reverse lookup by the convective coefficient — the three presets
    // are the only values the parser admits.
    let h = hs.h.get();
    if (h - Heatsink::two_phase().h.get()).abs() < 1e-9 {
        "two-phase"
    } else if (h - Heatsink::microfluidic().h.get()).abs() < 1e-9 {
        "microfluidic"
    } else {
        "forced-air"
    }
}

/// Pull an integer field with range validation.
fn int_field(
    body: &Json,
    key: &str,
    default: usize,
    lo: usize,
    hi: usize,
) -> Result<usize, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_usize()
                .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
            if n < lo || n > hi {
                return Err(format!("{key} must be in [{lo}, {hi}], got {n}"));
            }
            Ok(n)
        }
    }
}

/// Pull a float field (percent-style) with range validation.
fn num_field(body: &Json, key: &str, default: f64, lo: f64, hi: f64) -> Result<f64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("{key} must be a number"))?;
            if !x.is_finite() || x < lo || x > hi {
                return Err(format!("{key} must be in [{lo}, {hi}]"));
            }
            Ok(x)
        }
    }
}

fn str_field<'a>(body: &'a Json, key: &str, default: &'a str) -> Result<&'a str, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or_else(|| format!("{key} must be a string")),
    }
}

fn design_field(body: &Json) -> Result<String, String> {
    body.get("design")
        .ok_or_else(|| "missing required field \"design\"".to_string())?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| "design must be a string".to_string())
}

/// `POST /v1/solve` — one stack solve at a fixed configuration.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    pub design: String,
    pub tiers: usize,
    pub lateral_cells: usize,
    pub utilization_percent: f64,
    pub strategy: CoolingStrategy,
    pub heatsink: Heatsink,
    pub area_budget_percent: f64,
}

impl SolveRequest {
    pub fn parse(body: &Json) -> Result<Self, String> {
        let req = SolveRequest {
            design: design_field(body)?,
            tiers: int_field(body, "tiers", 8, 1, 64)?,
            lateral_cells: int_field(body, "lateral_cells", 12, 4, 64)?,
            utilization_percent: num_field(body, "utilization_percent", 100.0, 1.0, 100.0)?,
            strategy: parse_strategy(str_field(body, "strategy", "scaffolding")?)?,
            heatsink: parse_heatsink(str_field(body, "heatsink", "two-phase")?)?,
            area_budget_percent: num_field(body, "area_budget_percent", 10.0, 0.0, 30.0)?,
        };
        lookup_design(&req.design)?;
        Ok(req)
    }

    /// Canonical JSON with defaults applied — the coalescing identity.
    pub fn canonical(&self) -> Json {
        Json::object()
            .field("design", self.design.as_str())
            .field("tiers", self.tiers)
            .field("lateral_cells", self.lateral_cells)
            .field("utilization_percent", self.utilization_percent)
            .field("strategy", strategy_name(self.strategy))
            .field("heatsink", heatsink_name(&self.heatsink))
            .field("area_budget_percent", self.area_budget_percent)
    }

    /// The canonical form *minus* the power-only knob.  Utilization
    /// enters the built stack solely through the per-tier power maps
    /// (never the operator), so two solve requests that agree on this
    /// form assemble the same operator, which needs no stack build to
    /// tell.  Batch grouping, shard routing and the operator pool key on
    /// it (see [`Self::operator_id`]).
    pub fn operator_canonical(&self) -> Json {
        Json::object()
            .field("design", self.design.as_str())
            .field("tiers", self.tiers)
            .field("lateral_cells", self.lateral_cells)
            .field("strategy", strategy_name(self.strategy))
            .field("heatsink", heatsink_name(&self.heatsink))
            .field("area_budget_percent", self.area_budget_percent)
    }

    /// The operator identity as a string: the operator pool's key, the
    /// batch grouping's, and the bytes whose FNV-1a is
    /// [`ApiJob::affinity_key`].
    pub fn operator_id(&self) -> String {
        format!("solve-operator\n{}", self.operator_canonical().pretty())
    }

    fn stack_config(&self, design: &Design) -> StackConfig {
        let config = self.power_config();
        match self.strategy {
            CoolingStrategy::Scaffolding | CoolingStrategy::VerticalOnly => {
                config.with_pillar_map(pillars::uniform_routable_map(
                    design,
                    Ratio::from_percent(self.area_budget_percent),
                    self.lateral_cells,
                ))
            }
            CoolingStrategy::ConventionalDummyVias => config,
        }
    }

    /// [`Self::stack_config`] without the pillar map, which only a build
    /// reads: all that [`stack::repower`] needs to repaint this request's
    /// power on a stack built for its operator.
    fn power_config(&self) -> StackConfig {
        let beol = match self.strategy {
            CoolingStrategy::Scaffolding => BeolProperties::scaffolded(),
            CoolingStrategy::VerticalOnly => BeolProperties::conventional(),
            CoolingStrategy::ConventionalDummyVias => {
                BeolProperties::with_dummy_fill(Ratio::from_percent(self.area_budget_percent))
            }
        };
        StackConfig::uniform(self.tiers, beol, self.heatsink)
            .with_lateral_cells(self.lateral_cells)
            .with_utilizations(self.utilizations())
    }

    /// Per-tier utilizations: the only part of [`Self::stack_config`]
    /// that differs between requests on one operator.
    fn utilizations(&self) -> Vec<Ratio> {
        vec![Ratio::from_percent(self.utilization_percent); self.tiers]
    }
}

/// `POST /v1/flow` — a full co-design flow run ([`run_flow_with`]).
#[derive(Debug, Clone)]
pub struct FlowRequest {
    pub design: String,
    pub config: FlowConfig,
}

impl FlowRequest {
    pub fn parse(body: &Json) -> Result<Self, String> {
        let defaults = FlowConfig::default();
        let config = FlowConfig {
            strategy: parse_strategy(str_field(body, "strategy", "scaffolding")?)?,
            tiers: int_field(body, "tiers", defaults.tiers, 1, 64)?,
            heatsink: parse_heatsink(str_field(body, "heatsink", "two-phase")?)?,
            t_limit: Temperature::from_celsius(num_field(
                body,
                "t_limit_celsius",
                defaults.t_limit.celsius(),
                50.0,
                200.0,
            )?),
            area_budget: Ratio::from_percent(num_field(
                body,
                "area_budget_percent",
                defaults.area_budget.percent(),
                0.0,
                30.0,
            )?),
            delay_budget: Ratio::from_percent(num_field(
                body,
                "delay_budget_percent",
                defaults.delay_budget.percent(),
                0.0,
                20.0,
            )?),
            utilization: Ratio::from_percent(num_field(
                body,
                "utilization_percent",
                100.0,
                1.0,
                100.0,
            )?),
            lateral_cells: int_field(body, "lateral_cells", defaults.lateral_cells, 4, 64)?,
        };
        let req = FlowRequest {
            design: design_field(body)?,
            config,
        };
        lookup_design(&req.design)?;
        Ok(req)
    }

    pub fn canonical(&self) -> Json {
        Json::object()
            .field("design", self.design.as_str())
            .field("strategy", strategy_name(self.config.strategy))
            .field("tiers", self.config.tiers)
            .field("heatsink", heatsink_name(&self.config.heatsink))
            .field("t_limit_celsius", self.config.t_limit.celsius())
            .field("area_budget_percent", self.config.area_budget.percent())
            .field("delay_budget_percent", self.config.delay_budget.percent())
            .field("utilization_percent", self.config.utilization.percent())
            .field("lateral_cells", self.config.lateral_cells)
    }
}

/// `POST /v1/pillars` — a pillar placement run ([`pillars::place_with`]).
#[derive(Debug, Clone)]
pub struct PillarsRequest {
    pub design: String,
    pub config: PlacementConfig,
}

impl PillarsRequest {
    pub fn parse(body: &Json) -> Result<Self, String> {
        let mut config = PlacementConfig::paper_default();
        config.tiers = int_field(body, "tiers", config.tiers, 1, 64)?;
        config.lateral_cells = int_field(body, "lateral_cells", config.lateral_cells, 4, 64)?;
        config.t_target = Temperature::from_celsius(num_field(
            body,
            "t_target_celsius",
            config.t_target.celsius(),
            50.0,
            200.0,
        )?);
        config.max_density = Ratio::from_percent(num_field(
            body,
            "max_density_percent",
            config.max_density.percent(),
            1.0,
            100.0,
        )?);
        config.heatsink = parse_heatsink(str_field(body, "heatsink", "two-phase")?)?;
        let req = PillarsRequest {
            design: design_field(body)?,
            config,
        };
        lookup_design(&req.design)?;
        Ok(req)
    }

    pub fn canonical(&self) -> Json {
        Json::object()
            .field("design", self.design.as_str())
            .field("tiers", self.config.tiers)
            .field("lateral_cells", self.config.lateral_cells)
            .field("t_target_celsius", self.config.t_target.celsius())
            .field("max_density_percent", self.config.max_density.percent())
            .field("heatsink", heatsink_name(&self.config.heatsink))
    }
}

/// `POST /v1/transient` — opens a stateful streaming session over one
/// stack: the embedded [`SolveRequest`] fixes the geometry and initial
/// power, and the session knobs bound how long the implicit scheme may
/// be stepped.
#[derive(Debug, Clone)]
pub struct TransientRequest {
    pub solve: SolveRequest,
    pub dt_seconds: f64,
    pub max_steps: u64,
    /// Peak-temperature threshold for in-band `thermal_runaway` alarms;
    /// `None` disables the detector.
    pub runaway_celsius: Option<f64>,
}

impl TransientRequest {
    pub fn parse(body: &Json) -> Result<Self, String> {
        let runaway_celsius = match body.get("runaway_celsius") {
            None => None,
            Some(_) => Some(num_field(body, "runaway_celsius", 0.0, 0.0, 1000.0)?),
        };
        Ok(TransientRequest {
            solve: SolveRequest::parse(body)?,
            dt_seconds: num_field(body, "dt_seconds", 5e-6, 1e-9, 1.0)?,
            max_steps: int_field(body, "max_steps", 100_000, 1, 10_000_000)? as u64,
            runaway_celsius,
        })
    }

    /// The pooled-state identity: the operator canonical (utilization is
    /// power-only and re-staged on reuse) plus the exact timestep bits —
    /// the shifted operator `C/Δt + A` bakes `Δt` in, so sessions with
    /// different timesteps must never share a pooled scheme.
    pub fn session_pool_id(&self) -> String {
        format!(
            "transient\n{}\ndt_bits={:016x}",
            self.solve.operator_canonical().pretty(),
            self.dt_seconds.to_bits()
        )
    }

    /// Shard-affinity key: sessions land beside the steady solves for
    /// the same operator, where the contexts are already warm.
    pub fn affinity_key(&self) -> u64 {
        fnv1a_bytes(self.solve.operator_id().as_bytes())
    }

    /// Build fresh session state: stack build and transient staging on
    /// the mixed-precision path (its multigrid hierarchy is built by the
    /// first step).
    ///
    /// # Errors
    ///
    /// `(status, message)` — staging failures map to 500.
    pub fn build_state(&self) -> Result<TransientState, (u16, String)> {
        let design = lookup_design(&self.solve.design).map_err(|e| (500, e))?;
        let stack = stack::build(design, &self.solve.stack_config(design));
        let caps = Grid3::filled(stack.problem.dim(), capacity::SILICON);
        let run = TransientRun::new(
            &stack.problem,
            &caps,
            self.dt_seconds,
            self.solve.heatsink.ambient,
        )
        .map_err(|e| (500, format!("transient staging failed: {e}")))?
        .with_multigrid();
        Ok(TransientState { run, stack })
    }

    /// Re-initialise pooled state for a new session: reset the field to
    /// this request's ambient and delta-restage this request's power.
    /// The pooled scheme shares this request's operator and timestep by
    /// key construction, so only field + rhs need replaying — the
    /// trajectory is bitwise the one a freshly built state produces.
    pub fn reuse_state(&self, state: &mut TransientState) -> Result<(), (u16, String)> {
        let design = lookup_design(&self.solve.design).map_err(|e| (500, e))?;
        state.run.reset(self.solve.heatsink.ambient);
        stack::repower(&mut state.stack, design, &self.solve.power_config());
        state
            .run
            .restage_power_delta(state.stack.problem.power_flat());
        Ok(())
    }

    /// Apply a mid-session power update: repaint the stack's power maps
    /// at `utilization_percent` and delta-restage the running scheme.
    pub fn set_power(
        &self,
        state: &mut TransientState,
        utilization_percent: f64,
    ) -> Result<(), (u16, String)> {
        let design = lookup_design(&self.solve.design).map_err(|e| (500, e))?;
        let mut dimmed = self.solve.clone();
        dimmed.utilization_percent = utilization_percent;
        stack::repower(&mut state.stack, design, &dimmed.power_config());
        state
            .run
            .restage_power_delta(state.stack.problem.power_flat());
        Ok(())
    }
}

/// A parsed heavy-endpoint request, ready for a worker.
#[derive(Debug, Clone)]
pub enum ApiJob {
    Solve(SolveRequest),
    Flow(FlowRequest),
    Pillars(PillarsRequest),
}

impl ApiJob {
    /// Parse the body for `path`, or `None` when `path` is not a heavy
    /// endpoint.
    pub fn parse(path: &str, body: &[u8]) -> Option<Result<ApiJob, String>> {
        let endpoint = match path {
            "/v1/solve" => "solve",
            "/v1/flow" => "flow",
            "/v1/pillars" => "pillars",
            _ => return None,
        };
        Some(decode_json(body).and_then(|json| ApiJob::parse_item(endpoint, &json)))
    }

    /// Parse one already-decoded JSON object for an endpoint name —
    /// shared by the single-request paths and the batch envelope.
    ///
    /// # Errors
    ///
    /// The validation message, for a 400 (or per-item error).
    pub fn parse_item(endpoint: &str, json: &Json) -> Result<ApiJob, String> {
        match endpoint {
            "solve" => SolveRequest::parse(json).map(ApiJob::Solve),
            "flow" => FlowRequest::parse(json).map(ApiJob::Flow),
            "pillars" => PillarsRequest::parse(json).map(ApiJob::Pillars),
            other => Err(format!(
                "unknown endpoint {other:?} (solve | flow | pillars)"
            )),
        }
    }

    /// The metrics endpoint label.
    pub fn endpoint(&self) -> &'static str {
        match self {
            ApiJob::Solve(_) => "solve",
            ApiJob::Flow(_) => "flow",
            ApiJob::Pillars(_) => "pillars",
        }
    }

    /// The full canonical identity: endpoint + canonical JSON.  The
    /// coalescing key, and the context pool's for flow and pillars runs.
    /// Requests that differ only in key order or omitted defaults share
    /// it.
    pub fn canonical_id(&self) -> String {
        let canonical = match self {
            ApiJob::Solve(r) => r.canonical(),
            ApiJob::Flow(r) => r.canonical(),
            ApiJob::Pillars(r) => r.canonical(),
        };
        format!("{}\n{}", self.endpoint(), canonical.pretty())
    }

    /// The operator-affinity identity: solve requests that assemble the
    /// same operator (identical geometry, utilization free) share it, so
    /// the batch endpoint runs them as one group on one pooled operator.
    /// Flow/pillars runs have no power-only delta, so their affinity is
    /// their full identity.
    pub fn affinity_id(&self) -> String {
        match self {
            ApiJob::Solve(r) => r.operator_id(),
            ApiJob::Flow(_) | ApiJob::Pillars(_) => self.canonical_id(),
        }
    }

    /// FNV-1a of [`Self::affinity_id`]: the shard router's placement on
    /// its hash ring, which keeps an operator's pooled state hot on one
    /// shard.  Only the ring reads it; every pool and group compares the
    /// identity itself.
    pub fn affinity_key(&self) -> u64 {
        fnv1a_bytes(self.affinity_id().as_bytes())
    }

    /// Execute against the service pools, recording pool and solver
    /// metrics.
    ///
    /// # Errors
    ///
    /// `(status, message)` — solver failures map to 500.
    pub fn execute(
        &self,
        pools: &ServicePools,
        metrics: &Metrics,
    ) -> Result<Pretty, (u16, String)> {
        let pool = &pools.contexts;
        match self {
            ApiJob::Solve(req) => {
                execute_solve_group(&[self], &[req], req.operator_id(), pools, metrics)
                    .pop()
                    .expect("a solve group answers every item")
            }
            ApiJob::Flow(req) => {
                let design = lookup_design(&req.design).map_err(|e| (500, e))?;
                run_pooled(pool, metrics, self.canonical_id(), |ctx| {
                    let result = run_flow_with(design, &req.config, ctx)
                        .map_err(|e| (500, format!("flow failed: {e}")))?;
                    Ok(Json::object()
                        .field("strategy", strategy_name(result.strategy))
                        .field("tiers", result.tiers)
                        .field("junction_celsius", result.junction_temperature.celsius())
                        .field(
                            "footprint_penalty_percent",
                            result.footprint_penalty.percent(),
                        )
                        .field("delay_penalty_percent", result.delay_penalty.percent())
                        .field("pillar_density_percent", result.pillar_density.percent())
                        .field("fill_slack_percent", result.fill_slack.percent())
                        .field("meets_limit", result.meets_limit)
                        .render())
                })
            }
            ApiJob::Pillars(req) => {
                let design = lookup_design(&req.design).map_err(|e| (500, e))?;
                run_pooled(pool, metrics, self.canonical_id(), |ctx| {
                    let plan = pillars::place_with(design, &req.config, ctx)
                        .map_err(|e| (500, format!("placement failed: {e}")))?;
                    Ok(match plan {
                        Some(plan) => Json::object()
                            .field("found", true)
                            .field("pillars", plan.positions.len())
                            .field("replicas", plan.replicas)
                            .field("area_penalty_percent", plan.area_penalty.percent())
                            .render(),
                        None => Json::object()
                            .field("found", false)
                            .field("reason", "max_density cannot meet the temperature target")
                            .render(),
                    })
                })
            }
        }
    }
}

/// Decode a request body as JSON: the one place the two 400 texts for a
/// body that is not UTF-8 or not JSON are written.
///
/// # Errors
///
/// The message for a 400.
pub fn decode_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    tsc_bench::json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

/// Largest number of items one `POST /v1/batch` envelope may carry.
pub const MAX_BATCH_ITEMS: usize = 256;

/// A parsed `POST /v1/batch` envelope.  Envelope-level problems (not
/// JSON, missing/empty/oversized `items`) fail the whole request;
/// item-level validation failures are carried per item so one bad item
/// never fails the batch.
pub struct BatchRequest {
    pub items: Vec<Result<ApiJob, String>>,
}

impl BatchRequest {
    /// Parse the envelope: `{"items": [{...}, ...]}`, each item an
    /// object for one heavy endpoint, selected by its optional
    /// `"endpoint"` field (`solve` default, or `flow` / `pillars`).
    ///
    /// # Errors
    ///
    /// Envelope-level validation message, for a 400.
    pub fn parse(body: &[u8]) -> Result<BatchRequest, String> {
        let json = decode_json(body)?;
        let items = BatchRequest::envelope_items(&json)?
            .iter()
            .map(BatchRequest::parse_item)
            .collect();
        Ok(BatchRequest { items })
    }

    /// Check the envelope and return its raw items.  The shard router
    /// splits envelopes through this same check, so both refuse a bad
    /// envelope with the same 400.
    ///
    /// # Errors
    ///
    /// Envelope-level validation message, for a 400.
    pub fn envelope_items(envelope: &Json) -> Result<&[Json], String> {
        let items = envelope
            .get("items")
            .ok_or_else(|| "missing required field \"items\"".to_string())?
            .as_array()
            .ok_or_else(|| "items must be an array".to_string())?;
        if items.is_empty() {
            return Err("items must not be empty".to_string());
        }
        if items.len() > MAX_BATCH_ITEMS {
            return Err(format!(
                "too many items: {} (max {MAX_BATCH_ITEMS})",
                items.len()
            ));
        }
        Ok(items)
    }

    /// Parse one envelope item for the endpoint its optional `"endpoint"`
    /// field names.
    ///
    /// # Errors
    ///
    /// The item's validation message, for its per-item 400.
    pub fn parse_item(item: &Json) -> Result<ApiJob, String> {
        let endpoint = str_field(item, "endpoint", "solve")?;
        ApiJob::parse_item(endpoint, item)
    }
}

/// Run one job with a per-item panic boundary: a panicking solve becomes
/// a per-item 500 instead of killing the worker (or the batch).
pub fn catch_execute(
    job: &ApiJob,
    pools: &ServicePools,
    metrics: &Metrics,
) -> Result<Pretty, (u16, String)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.execute(pools, metrics))) {
        Ok(result) => result,
        Err(_) => {
            metrics.worker_panics.inc();
            Err((500, "internal error: worker panicked".to_string()))
        }
    }
}

/// Execute a group of jobs that share an [`ApiJob::affinity_id`],
/// returning per-item results in order.
///
/// A group of solves (a single `/v1/solve` is a group of one) runs on
/// one pooled operator entry: its stack and `SolveContext` are taken
/// from the operator pool together (or built once), and an item at
/// another utilization than the one painted only *repaints the power
/// maps* ([`stack::repower`]) before its re-solve.  Mixed or non-solve
/// groups, solves on more than one operator (and any item after an
/// in-group panic) fall back to independent execution.  Every item has
/// its own panic boundary.
pub fn execute_group(
    jobs: &[&ApiJob],
    pools: &ServicePools,
    metrics: &Metrics,
) -> Vec<Result<Pretty, (u16, String)>> {
    let solves: Option<Vec<&SolveRequest>> = jobs
        .iter()
        .map(|job| match job {
            ApiJob::Solve(r) => Some(r),
            _ => None,
        })
        .collect();
    let grouped = solves.filter(|reqs| !reqs.is_empty()).and_then(|reqs| {
        let operator_id = reqs[0].operator_id();
        reqs[1..]
            .iter()
            .all(|r| r.operator_id() == operator_id)
            .then_some((reqs, operator_id))
    });
    let Some((reqs, operator_id)) = grouped else {
        return jobs
            .iter()
            .map(|job| catch_execute(job, pools, metrics))
            .collect();
    };

    execute_solve_group(jobs, &reqs, operator_id, pools, metrics)
}

/// Repaint `entry`'s power maps at `req`'s utilization, unless they are
/// painted there already.
fn paint(entry: &mut OperatorEntry, design: &Design, req: &SolveRequest) {
    let bits = req.utilization_percent.to_bits();
    if entry.painted != bits {
        stack::repower(&mut entry.stack, design, &req.power_config());
        entry.painted = bits;
    }
}

/// The power painted on `stack` as the affine fit reads it: the
/// device-layer cells, in flat order.  [`stack::repower`] leaves every
/// other cell at exactly `0.0`, and an exact zero changes none of the
/// fit's sums, dots or membership checks, so a fit over these cells
/// gives bitwise the anchors and coordinates of a fit over the whole
/// vector.  That is checked, not assumed: `None` (no plan, per-item
/// solves) when any other cell is not `+0.0`.
fn powered_cells(stack: &Stack3d) -> Option<Vec<f64>> {
    let power = stack.problem.power_flat();
    let dim = stack.problem.dim();
    let layer = dim.nx * dim.ny;
    let unpowered = |cells: &[f64]| cells.iter().all(|p| p.to_bits() == 0);
    let mut cells = Vec::with_capacity(layer * stack.layout.device_layers.len());
    let mut next = 0;
    for &k in &stack.layout.device_layers {
        let start = k * layer;
        if start < next || !unpowered(power.get(next..start)?) {
            return None;
        }
        next = start + layer;
        cells.extend_from_slice(power.get(start..next)?);
    }
    unpowered(&power[next..]).then_some(cells)
}

/// Paint `req`'s power on `entry` and solve it on the entry's context.
fn solve_at(
    entry: &mut OperatorEntry,
    design: &Design,
    req: &SolveRequest,
) -> Result<Solution, (u16, String)> {
    paint(entry, design, req);
    entry
        .ctx
        .solve(&entry.stack.problem, &stack::hot_loop_solver())
        .map_err(|e| (500, format!("solve failed: {e}")))
}

/// The one solve path: `jobs` are solve requests on the operator named
/// by `operator_id` (see [`execute_group`]).
fn execute_solve_group(
    jobs: &[&ApiJob],
    reqs: &[&SolveRequest],
    operator_id: String,
    pools: &ServicePools,
    metrics: &Metrics,
) -> Vec<Result<Pretty, (u16, String)>> {
    if jobs.len() >= 2 {
        metrics.batch_groups_total.inc();
    }
    let design = match lookup_design(&reqs[0].design) {
        Ok(design) => design,
        // Unreachable (validated at parse), but never panic a worker.
        Err(e) => return jobs.iter().map(|_| Err((500, e.clone()))).collect(),
    };

    // One entry per operator: every item shares its stack and context
    // and differs only in the utilization painted before its solve.  One
    // lookup moves both the context-pool and the stack-cache counters.
    let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match pools.operators.take(&operator_id) {
            Some(entry) => {
                metrics.pool_hits.inc();
                metrics.stack_cache_hits.inc();
                entry
            }
            None => {
                metrics.pool_misses.inc();
                metrics.stack_cache_misses.inc();
                let stack = stack::build(design, &reqs[0].stack_config(design));
                OperatorEntry::new(stack, reqs[0].utilization_percent)
            }
        }
    }));
    let Ok(mut entry) = taken else {
        metrics.worker_panics.inc();
        return jobs
            .iter()
            .map(|_| Err((500, "internal error: worker panicked".to_string())))
            .collect();
    };
    let before = entry.ctx.stats();

    let mut results = Vec::with_capacity(jobs.len());
    let mut poisoned = false;
    let mut superposed = false;

    // Affine fast path: within a group the operator is fixed (only
    // utilization differs, and pillar placement ignores utilization),
    // and power density is affine in utilization — so the group's power
    // vectors usually sit on one line.  Paint each item's power (cheap:
    // no mesh or operator work), fit the family on its powered cells,
    // and when membership verifies elementwise, price the whole sweep
    // with the two extreme solves plus exact superposition of everything
    // in between.
    if jobs.len() >= 3 {
        let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut powers = Vec::with_capacity(reqs.len());
            for req in reqs {
                paint(&mut entry, design, req);
                powers.push(powered_cells(&entry.stack)?);
            }
            tsc_thermal::affine_family(&powers)
        }));
        match planned {
            Ok(Some(family)) => {
                let anchors = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || -> Result<(Solution, Solution), (u16, String)> {
                        let low = solve_at(&mut entry, design, reqs[family.anchor_low])?;
                        let high = solve_at(&mut entry, design, reqs[family.anchor_high])?;
                        Ok((low, high))
                    },
                ));
                match anchors {
                    Ok(Ok((low, high))) => {
                        metrics.backend_solves_total.add(2);
                        // The high anchor rides the low anchor's operator
                        // and warm start, like any power-delta item.
                        metrics.batch_group_warm_items_total.inc();
                        for (i, req) in reqs.iter().enumerate() {
                            let solution = if i == family.anchor_low {
                                low.clone()
                            } else if i == family.anchor_high {
                                high.clone()
                            } else {
                                metrics.batch_affine_rescales_total.inc();
                                tsc_thermal::blend_solutions(&low, &high, family.alphas[i])
                            };
                            let stack_solution = StackSolution {
                                solution,
                                layout: entry.stack.layout.clone(),
                            };
                            results.push(Ok(render_solve(req, &stack_solution, entry.ctx.stats())));
                        }
                        superposed = true;
                    }
                    // Anchor solve error: stack and context are intact;
                    // fall through and let per-item solves report it.
                    Ok(Err(_)) => {}
                    Err(_) => {
                        metrics.worker_panics.inc();
                        poisoned = true;
                    }
                }
            }
            // Not an affine family — per-item solves below.
            Ok(None) => {}
            Err(_) => {
                metrics.worker_panics.inc();
                poisoned = true;
            }
        }
    }

    for (i, (job, req)) in jobs.iter().zip(reqs).enumerate() {
        if superposed {
            break;
        }
        if poisoned {
            // A panic left the shared stack/context in an unknown state;
            // finish the group on the independent path.
            results.push(catch_execute(job, pools, metrics));
            continue;
        }
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<Pretty, (u16, String)> {
                let solution = solve_at(&mut entry, design, req)?;
                let stack_solution = StackSolution {
                    solution,
                    layout: entry.stack.layout.clone(),
                };
                Ok(render_solve(req, &stack_solution, entry.ctx.stats()))
            },
        ));
        match attempt {
            Ok(result) => {
                metrics.backend_solves_total.inc();
                if i > 0 {
                    metrics.batch_group_warm_items_total.inc();
                }
                results.push(result);
            }
            Err(_) => {
                metrics.worker_panics.inc();
                results.push(Err((500, "internal error: worker panicked".to_string())));
                poisoned = true;
            }
        }
    }

    accumulate_context_delta(metrics, &before, &entry.ctx.stats());
    // A failed solve leaves the entry intact (the context revalidates
    // itself); only a panic drops it.
    if !poisoned {
        let evicted = pools.operators.put(operator_id, entry);
        metrics.pool_evictions.add(evicted as u64);
    }
    results
}

/// Take a context out of `pool` (or start a fresh one), run `body`,
/// accumulate the context's stat deltas into the metrics rollup, and put
/// the context back.
fn run_pooled<F>(
    pool: &LruPool<SolveContext>,
    metrics: &Metrics,
    key: String,
    body: F,
) -> Result<Pretty, (u16, String)>
where
    F: FnOnce(&mut SolveContext) -> Result<Pretty, (u16, String)>,
{
    let mut ctx = match pool.take(&key) {
        Some(ctx) => {
            metrics.pool_hits.inc();
            ctx
        }
        None => {
            metrics.pool_misses.inc();
            SolveContext::new()
        }
    };
    let before = ctx.stats();
    let result = body(&mut ctx);
    accumulate_context_delta(metrics, &before, &ctx.stats());
    metrics.backend_solves_total.inc();
    // Put the context back even on failure: the context revalidates
    // itself, so a failed solve cannot poison later requests.
    let evicted = pool.put(key, ctx);
    metrics.pool_evictions.add(evicted as u64);
    result
}

fn accumulate_context_delta(metrics: &Metrics, before: &ContextStats, after: &ContextStats) {
    let d = |a: usize, b: usize| (a.saturating_sub(b)) as u64;
    metrics
        .solver_iterations
        .add(d(after.total_iterations, before.total_iterations));
    metrics
        .solver_matvecs
        .add(d(after.total_matvecs, before.total_matvecs));
    metrics
        .solver_cycles
        .add(d(after.total_cycles, before.total_cycles));
    metrics
        .ctx_operator_reuses
        .add(d(after.operator_reuses, before.operator_reuses));
    metrics
        .ctx_assemblies
        .add(d(after.assemblies, before.assemblies));
    metrics
        .ctx_hierarchy_builds
        .add(d(after.hierarchy_builds, before.hierarchy_builds));
    metrics
        .ctx_f64_fallbacks
        .add(d(after.f64_fallbacks, before.f64_fallbacks));
    metrics
        .ctx_warm_starts
        .add(d(after.warm_starts, before.warm_starts));
    metrics
        .ctx_projected_starts
        .add(d(after.projected_starts, before.projected_starts));
}

fn render_solve(req: &SolveRequest, solved: &StackSolution, totals: ContextStats) -> Pretty {
    let profile: Vec<Json> = solved
        .tier_profile()
        .iter()
        .map(|t| Json::from(t.celsius()))
        .collect();
    let stats = &solved.solution.stats;
    Json::object()
        .field("design", req.design.as_str())
        .field("tiers", req.tiers)
        .field("strategy", strategy_name(req.strategy))
        .field("junction_celsius", solved.junction_temperature().celsius())
        .field("tier_profile_celsius", profile)
        .field(
            "solver",
            Json::object()
                .field("iterations", stats.iterations)
                .field("matvecs", stats.matvecs)
                .field("cycles", stats.cycles)
                .field("residual", stats.residual),
        )
        .field(
            "context",
            Json::object()
                .field("solves", totals.solves)
                .field("assemblies", totals.assemblies)
                .field("operator_reuses", totals.operator_reuses)
                .field("warm_starts", totals.warm_starts)
                .field("projected_starts", totals.projected_starts),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_SOLVE: &[u8] = br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#;

    fn parse_json(text: &str) -> Json {
        tsc_bench::json::parse(text).expect("test JSON must parse")
    }

    #[test]
    fn registry_lists_known_designs() {
        let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"gemmini"));
        assert!(names.contains(&"rocket"));
        let body = designs_body();
        let parsed = parse_json(&body);
        let designs = parsed.get("designs").and_then(Json::as_array).unwrap();
        assert_eq!(designs.len(), registry().len());
    }

    #[test]
    fn solve_request_applies_defaults_and_validates() {
        let req = SolveRequest::parse(&parse_json(r#"{"design": "gemmini"}"#)).unwrap();
        assert_eq!(req.tiers, 8);
        assert_eq!(req.lateral_cells, 12);
        assert_eq!(req.strategy, CoolingStrategy::Scaffolding);

        for bad in [
            r#"{}"#,
            r#"{"design": "nope"}"#,
            r#"{"design": "gemmini", "tiers": 0}"#,
            r#"{"design": "gemmini", "tiers": 100}"#,
            r#"{"design": "gemmini", "tiers": 2.5}"#,
            r#"{"design": "gemmini", "strategy": "magic"}"#,
            r#"{"design": "gemmini", "heatsink": "water"}"#,
            r#"{"design": "gemmini", "utilization_percent": -3}"#,
        ] {
            assert!(
                SolveRequest::parse(&parse_json(bad)).is_err(),
                "input {bad}"
            );
        }
    }

    #[test]
    fn coalesce_key_ignores_field_order_and_explicit_defaults() {
        let a = ApiJob::parse("/v1/solve", br#"{"design": "gemmini"}"#)
            .unwrap()
            .unwrap();
        let b = ApiJob::parse(
            "/v1/solve",
            br#"{"tiers": 8, "design": "gemmini", "strategy": "scaffolding"}"#,
        )
        .unwrap()
        .unwrap();
        let c = ApiJob::parse("/v1/solve", br#"{"design": "gemmini", "tiers": 6}"#)
            .unwrap()
            .unwrap();
        assert_eq!(a.canonical_id(), b.canonical_id());
        assert_ne!(a.canonical_id(), c.canonical_id());
        // Same body on a different endpoint must not collide.
        let flow = ApiJob::parse("/v1/flow", br#"{"design": "gemmini"}"#)
            .unwrap()
            .unwrap();
        assert_ne!(a.canonical_id(), flow.canonical_id());
    }

    #[test]
    fn unknown_paths_are_not_jobs() {
        assert!(ApiJob::parse("/v1/nope", b"{}").is_none());
        assert!(ApiJob::parse("/metrics", b"{}").is_none());
    }

    #[test]
    fn execute_solve_returns_parseable_body_and_updates_pool_metrics() {
        let job = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#,
        )
        .unwrap()
        .unwrap();
        let pools = ServicePools::new(4);
        let metrics = Metrics::default();
        let body = job.execute(&pools, &metrics).expect("solve should succeed");
        let parsed = parse_json(&body);
        let junction = parsed
            .get("junction_celsius")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(junction > 20.0 && junction < 400.0, "junction {junction}");
        assert_eq!(
            parsed
                .get("tier_profile_celsius")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(metrics.pool_misses.get(), 1);
        assert_eq!(metrics.pool_hits.get(), 0);
        assert_eq!(metrics.stack_cache_misses.get(), 1);
        assert_eq!(metrics.backend_solves_total.get(), 1);
        assert!(metrics.ctx_assemblies.get() >= 1);

        // A second identical execute hits both pool levels and reuses the
        // operator.
        let _ = job.execute(&pools, &metrics).expect("second solve");
        assert_eq!(metrics.pool_hits.get(), 1);
        assert_eq!(metrics.stack_cache_hits.get(), 1);
        assert!(metrics.ctx_operator_reuses.get() >= 1);
    }

    #[test]
    fn affinity_key_ignores_utilization_but_nothing_else() {
        let base = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini", "utilization_percent": 100}"#,
        )
        .unwrap()
        .unwrap();
        let dimmed = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini", "utilization_percent": 55}"#,
        )
        .unwrap()
        .unwrap();
        let resized = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini", "lateral_cells": 16}"#,
        )
        .unwrap()
        .unwrap();
        // Power-only variants share an operator; geometry changes do not.
        assert_ne!(base.canonical_id(), dimmed.canonical_id());
        assert_eq!(base.affinity_id(), dimmed.affinity_id());
        assert_eq!(base.affinity_key(), dimmed.affinity_key());
        assert_ne!(base.affinity_id(), resized.affinity_id());
        assert_ne!(base.affinity_key(), resized.affinity_key());
        // The ring's key is the FNV-1a of the identity.
        assert_eq!(
            base.affinity_key(),
            fnv1a_bytes(base.affinity_id().as_bytes())
        );
        // Flow jobs have no power-only delta: affinity is full identity.
        let flow = ApiJob::parse("/v1/flow", br#"{"design": "gemmini"}"#)
            .unwrap()
            .unwrap();
        assert_eq!(flow.affinity_id(), flow.canonical_id());
    }

    #[test]
    fn transient_request_keys_sessions_by_operator_and_dt() {
        let req = TransientRequest::parse(&parse_json(r#"{"design": "gemmini"}"#)).unwrap();
        assert_eq!(req.dt_seconds, 5e-6);
        assert_eq!(req.max_steps, 100_000);
        assert!(req.runaway_celsius.is_none());
        // Utilization is power-only: same pooled scheme, restaged on reuse.
        let dimmed = TransientRequest::parse(&parse_json(
            r#"{"design": "gemmini", "utilization_percent": 50}"#,
        ))
        .unwrap();
        assert_eq!(req.session_pool_id(), dimmed.session_pool_id());
        assert_eq!(req.affinity_key(), dimmed.affinity_key());
        // The timestep is baked into the shifted operator: different dt,
        // different pooled state — but the shard affinity still follows
        // the operator geometry.
        let slower =
            TransientRequest::parse(&parse_json(r#"{"design": "gemmini", "dt_seconds": 1e-5}"#))
                .unwrap();
        assert_ne!(req.session_pool_id(), slower.session_pool_id());
        assert_eq!(req.affinity_key(), slower.affinity_key());
        // Transient sessions share the steady-solve affinity space.
        let steady = ApiJob::parse("/v1/solve", br#"{"design": "gemmini"}"#)
            .unwrap()
            .unwrap();
        assert_eq!(req.affinity_key(), steady.affinity_key());

        for bad in [
            r#"{"design": "gemmini", "dt_seconds": 0}"#,
            r#"{"design": "gemmini", "max_steps": 0}"#,
            r#"{"design": "gemmini", "runaway_celsius": -4}"#,
            r#"{"design": "nope"}"#,
        ] {
            assert!(TransientRequest::parse(&parse_json(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn batch_parse_separates_envelope_and_item_errors() {
        // Envelope-level failures reject the whole request.
        assert!(BatchRequest::parse(b"not json").is_err());
        assert!(BatchRequest::parse(br#"{"no_items": 1}"#).is_err());
        assert!(BatchRequest::parse(br#"{"items": 3}"#).is_err());
        assert!(BatchRequest::parse(br#"{"items": []}"#).is_err());
        let oversized = format!(
            r#"{{"items": [{}]}}"#,
            vec![r#"{"design": "gemmini"}"#; MAX_BATCH_ITEMS + 1].join(",")
        );
        assert!(BatchRequest::parse(oversized.as_bytes()).is_err());

        // Item-level failures are carried per item, in order.
        let batch = BatchRequest::parse(
            br#"{"items": [
                {"design": "gemmini"},
                {"design": "nope"},
                {"endpoint": "flow", "design": "gemmini"},
                {"endpoint": "teleport"}
            ]}"#,
        )
        .expect("envelope is valid");
        assert_eq!(batch.items.len(), 4);
        assert!(batch.items[0].is_ok());
        assert!(batch.items[1].is_err());
        assert!(matches!(batch.items[2], Ok(ApiJob::Flow(_))));
        assert!(batch.items[3]
            .as_ref()
            .is_err_and(|e| e.contains("unknown endpoint")));
    }

    #[test]
    fn execute_group_runs_warm_deltas_and_isolates_failures() {
        let utils = [100.0_f64, 70.0, 40.0];
        let jobs: Vec<ApiJob> = utils
            .iter()
            .map(|u| {
                ApiJob::parse(
                    "/v1/solve",
                    format!(
                        r#"{{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                            "utilization_percent": {u}}}"#
                    )
                    .as_bytes(),
                )
                .unwrap()
                .unwrap()
            })
            .collect();
        let refs: Vec<&ApiJob> = jobs.iter().collect();
        assert!(refs
            .windows(2)
            .all(|w| w[0].affinity_id() == w[1].affinity_id()));

        let pools = ServicePools::new(4);
        let metrics = Metrics::default();
        let results = execute_group(&refs, &pools, &metrics);
        assert_eq!(results.len(), 3);
        for (i, result) in results.iter().enumerate() {
            let body = result
                .as_ref()
                .unwrap_or_else(|e| panic!("item {i}: {e:?}"));
            let junction = parse_json(body)
                .get("junction_celsius")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(junction > 20.0 && junction < 400.0, "item {i}: {junction}");
        }
        // One stack build, one context.  A pure utilization sweep is an
        // affine power family: two anchor solves (u=100 and u=40, the
        // high anchor a repowered warm delta) and the middle item
        // superposed exactly, no third solver run.
        assert_eq!(metrics.batch_groups_total.get(), 1);
        assert_eq!(metrics.batch_group_warm_items_total.get(), 1);
        assert_eq!(metrics.batch_affine_rescales_total.get(), 1);
        assert_eq!(metrics.stack_cache_misses.get(), 1);
        assert_eq!(metrics.pool_misses.get(), 1);
        assert_eq!(metrics.backend_solves_total.get(), 2);

        // Lower utilization must strictly reduce the junction temperature —
        // each item really answers with its own power map (anchors by
        // direct solve, the middle item by superposition).
        let temps: Vec<f64> = results
            .iter()
            .map(|r| {
                parse_json(r.as_ref().unwrap())
                    .get("junction_celsius")
                    .and_then(Json::as_f64)
                    .unwrap()
            })
            .collect();
        assert!(
            temps[0] > temps[1] && temps[1] > temps[2],
            "temps {temps:?}"
        );

        // The group's stack and context went back to the operator pool
        // as one entry: a follow-up solve at any utilization of the group
        // hits it and rebuilds nothing.
        let _ = jobs[0].execute(&pools, &metrics).expect("follow-up");
        assert_eq!(metrics.pool_hits.get(), 1);
        assert_eq!(metrics.stack_cache_hits.get(), 1);
        assert_eq!(metrics.stack_cache_misses.get(), 1);
        assert_eq!(metrics.ctx_assemblies.get(), 1);

        // A mixed group (solve + flow) is not groupable and falls back to
        // independent execution, still one result per job, in order.
        let flow = ApiJob::parse("/v1/flow", br#"{"design": "gemmini", "tiers": 2}"#)
            .unwrap()
            .unwrap();
        let mixed: Vec<&ApiJob> = vec![&jobs[0], &flow];
        let mixed_results = execute_group(&mixed, &pools, &metrics);
        assert_eq!(mixed_results.len(), 2);
        assert!(mixed_results.iter().all(Result::is_ok));
        assert_eq!(
            metrics.batch_groups_total.get(),
            1,
            "ungroupable jobs bypass the grouped path"
        );
    }

    fn junction(body: &str) -> f64 {
        parse_json(body)
            .get("junction_celsius")
            .and_then(Json::as_f64)
            .expect("junction field")
    }

    #[test]
    fn group_of_two_operators_answers_each_on_its_own() {
        let solve = |budget: f64| {
            ApiJob::parse(
                "/v1/solve",
                format!(
                    r#"{{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                        "area_budget_percent": {budget}}}"#
                )
                .as_bytes(),
            )
            .unwrap()
            .unwrap()
        };
        let (a, b) = (solve(10.0), solve(20.0));
        assert_ne!(a.affinity_id(), b.affinity_id());
        let alone = |job: &ApiJob| {
            let body = job
                .execute(&ServicePools::new(4), &Metrics::default())
                .expect("single solve");
            junction(&body)
        };
        let pools = ServicePools::new(4);
        let metrics = Metrics::default();
        let results = execute_group(&[&a, &b], &pools, &metrics);
        assert_eq!(results.len(), 2);
        for (job, result) in [&a, &b].into_iter().zip(&results) {
            let body = result.as_ref().expect("grouped solve");
            assert_eq!(junction(body).to_bits(), alone(job).to_bits());
        }
        assert_ne!(
            junction(results[0].as_ref().unwrap()).to_bits(),
            junction(results[1].as_ref().unwrap()).to_bits(),
            "the budgets build different operators"
        );
        assert_eq!(metrics.batch_groups_total.get(), 0, "not one group");
        assert_eq!(metrics.stack_cache_misses.get(), 2);
    }

    #[test]
    fn flow_between_two_solves_keeps_the_operator_entry() {
        // At a pool cap of 1, a flow run's context must not evict the
        // solve operator's: they live in separate pools.
        let solve = ApiJob::parse("/v1/solve", SMALL_SOLVE).unwrap().unwrap();
        let flow = ApiJob::parse(
            "/v1/flow",
            br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#,
        )
        .unwrap()
        .unwrap();
        let pools = ServicePools::new(1);
        let metrics = Metrics::default();
        solve.execute(&pools, &metrics).expect("first solve");
        flow.execute(&pools, &metrics).expect("flow");
        let assemblies = metrics.ctx_assemblies.get();
        let body = solve.execute(&pools, &metrics).expect("second solve");
        assert_eq!(metrics.pool_hits.get(), 1, "the second solve hits");
        assert_eq!(metrics.stack_cache_hits.get(), 1);
        assert_eq!(metrics.ctx_assemblies.get(), assemblies, "no re-assembly");
        let parsed = parse_json(&body);
        let context = parsed.get("context").unwrap();
        let count = |key: &str| context.get(key).and_then(Json::as_usize).unwrap();
        assert_eq!(count("solves"), 2, "the first solve's context");
        assert_eq!(count("assemblies"), 1);
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn group_config_with_item_utilization_builds_the_item_stack() {
        // The operator pool holds one stack per operator, built at the
        // first request's utilization; a request at another utilization
        // repaints it with its own power config.  That must give exactly
        // the stack the request's own config builds.
        for strategy in ["scaffolding", "vertical-only", "conventional"] {
            let item = |u: f64| {
                let body = format!(
                    r#"{{"design": "gemmini", "tiers": 3, "lateral_cells": 12,
                        "strategy": "{strategy}", "area_budget_percent": 12.5,
                        "utilization_percent": {u}}}"#
                );
                let Ok(ApiJob::Solve(req)) = ApiJob::parse("/v1/solve", body.as_bytes()).unwrap()
                else {
                    panic!("{strategy}: not a solve request");
                };
                req
            };
            let (first, other) = (item(100.0), item(72.0));
            let design = lookup_design("gemmini").unwrap();
            let mut a = stack::build(design, &first.stack_config(design));
            stack::repower(&mut a, design, &other.power_config());
            let b = stack::build(design, &other.stack_config(design));
            assert_eq!(
                bits(a.problem.power_flat().iter().copied()),
                bits(b.problem.power_flat().iter().copied()),
                "{strategy}: power"
            );
            let dim = a.problem.dim();
            assert_eq!(dim, b.problem.dim());
            let cells = || {
                (0..dim.nz).flat_map(move |k| {
                    (0..dim.ny).flat_map(move |j| (0..dim.nx).map(move |i| (i, j, k)))
                })
            };
            for (i, j, k) in cells() {
                assert_eq!(
                    a.problem.kz_at(i, j, k).get().to_bits(),
                    b.problem.kz_at(i, j, k).get().to_bits(),
                    "{strategy}: kz at ({i}, {j}, {k})"
                );
                assert_eq!(
                    a.problem.kxy_at(i, j, k).get().to_bits(),
                    b.problem.kxy_at(i, j, k).get().to_bits(),
                    "{strategy}: kxy at ({i}, {j}, {k})"
                );
            }
        }
    }

    #[test]
    fn fit_on_powered_cells_is_the_full_vector_fit() {
        let design = lookup_design("gemmini").unwrap();
        for strategy in ["scaffolding", "vertical-only", "conventional"] {
            let item = |u: f64| {
                let body = format!(
                    r#"{{"design": "gemmini", "tiers": 4, "lateral_cells": 12,
                        "strategy": "{strategy}", "utilization_percent": {u}}}"#
                );
                let Ok(ApiJob::Solve(req)) = ApiJob::parse("/v1/solve", body.as_bytes()).unwrap()
                else {
                    panic!("{strategy}: not a solve request");
                };
                req
            };
            let mut stack = stack::build(design, &item(100.0).stack_config(design));
            let (mut full, mut powered) = (Vec::new(), Vec::new());
            for u in [100.0, 35.0, 72.5, 55.0, 91.0, 12.0, 35.0] {
                stack::repower(&mut stack, design, &item(u).power_config());
                full.push(stack.problem.power_flat().to_vec());
                powered.push(powered_cells(&stack).expect("only device layers carry power"));
            }
            assert_eq!(
                powered[0].len(),
                4 * 12 * 12,
                "{strategy}: four device layers"
            );
            let whole = tsc_thermal::affine_family(&full).expect("a utilization family");
            let fit = tsc_thermal::affine_family(&powered).expect("the same family");
            assert_eq!(
                (fit.anchor_low, fit.anchor_high),
                (whole.anchor_low, whole.anchor_high),
                "{strategy}: anchors"
            );
            assert_eq!(bits(fit.alphas), bits(whole.alphas), "{strategy}: alphas");

            // Power anywhere off the device layers declines the plan.
            stack
                .problem
                .add_power(3, 5, 0, tsc_units::Power::from_watts(1e-12));
            assert!(powered_cells(&stack).is_none(), "{strategy}: handle layer");
            stack::repower(&mut stack, design, &item(50.0).power_config());
            let top = stack.problem.dim().nz - 1;
            stack
                .problem
                .add_power(0, 11, top, tsc_units::Power::from_watts(1e-12));
            assert!(powered_cells(&stack).is_none(), "{strategy}: top layer");
        }
    }

    #[test]
    fn hierarchy_builds_reach_the_exposition() {
        let job = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini", "tiers": 2, "lateral_cells": 6}"#,
        )
        .unwrap()
        .unwrap();
        let pools = ServicePools::new(2);
        let metrics = Metrics::default();
        job.execute(&pools, &metrics).expect("solves");
        metrics.record_request("solve", 200);
        // A healthy mixed solve builds the f32 hierarchy once and never
        // finishes on Jacobi-CG.
        assert_eq!(metrics.ctx_hierarchy_builds.get(), 1);
        assert_eq!(metrics.ctx_f64_fallbacks.get(), 0);
        let text = metrics.render();
        crate::validate_exposition(&text).expect("exposition must validate");
        assert!(text.contains("tsc_context_hierarchy_builds_total 1\n"));
        assert!(text.contains("tsc_context_f64_fallbacks_total 0\n"));
    }
}
