//! Golden transient-trajectory regression: a DVFS on/off utilization
//! schedule stepped through [`TransientRun`] on the Gemmini scaffolding
//! stack, with the per-step peak trajectory snapshot to
//! `tests/golden/transient_dvfs_gemmini.json`.
//!
//! Re-bless after an intentional scheme change with
//! `UPDATE_GOLDEN=1 cargo test -p tsc-verify --test golden_transient`.
//! Hotspot indices and step counters snapshot at zero tolerance; peak
//! temperatures carry the usual 0.1% relative slack so innocuous
//! arithmetic reassociation does not churn the snapshot.

use tsc_bench::json::Json;
use tsc_core::beol::BeolProperties;
use tsc_core::stack::{self, StackConfig};
use tsc_designs::gemmini;
use tsc_geometry::Grid3;
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::Heatsink;
use tsc_units::Ratio;
use tsc_verify::golden::{assert_golden, Tolerances};

/// The DVFS schedule: utilization percent and how many steps to hold it.
/// Two full on/off cycles so the snapshot covers both the heating and
/// the cooling flank of the trajectory.
const SCHEDULE: [(f64, usize); 4] = [(100.0, 6), (20.0, 6), (100.0, 6), (20.0, 6)];

const DT_SECONDS: f64 = 5e-4;

fn dvfs_config(utilization_percent: f64) -> StackConfig {
    StackConfig::uniform(4, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(8)
        .with_utilizations(vec![Ratio::from_percent(utilization_percent); 4])
}

#[test]
fn golden_transient_dvfs_gemmini() {
    let design = gemmini::design();
    let mut stack = stack::build(&design, &dvfs_config(SCHEDULE[0].0));
    let caps = Grid3::filled(stack.problem.dim(), capacity::SILICON);
    let ambient = Heatsink::two_phase().ambient;
    let mut run = TransientRun::new(&stack.problem, &caps, DT_SECONDS, ambient)
        .expect("transient staging")
        .with_multigrid();

    let mut trajectory = Vec::new();
    for (utilization, steps) in SCHEDULE {
        // Delta-restage the new power level, exactly as the streaming
        // session endpoint applies a mid-session DVFS update.
        stack::repower(&mut stack, &design, &dvfs_config(utilization));
        run.restage_power_delta(stack.problem.power_flat());
        for _ in 0..steps {
            run.step().expect("step");
            let peak = run.peak();
            trajectory.push(
                Json::object()
                    .field("step", run.steps_taken() as usize)
                    .field("utilization_percent", utilization)
                    .field("peak_celsius", peak.celsius())
                    .field(
                        "hotspot",
                        vec![
                            Json::from(peak.hotspot.i),
                            Json::from(peak.hotspot.j),
                            Json::from(peak.hotspot.k),
                        ],
                    ),
            );
        }
    }

    let peaks: Vec<f64> = trajectory
        .iter()
        .map(|s| {
            s.get("peak_celsius")
                .and_then(Json::as_f64)
                .expect("peak recorded")
        })
        .collect();
    let record = Json::object()
        .field("design", "gemmini")
        .field("dt_seconds", DT_SECONDS)
        .field("steps", run.steps_taken() as usize)
        .field("final_time_seconds", run.time_seconds())
        .field(
            "max_peak_celsius",
            peaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
        .field("final_peak_celsius", *peaks.last().expect("nonempty"))
        .field("trajectory", trajectory);

    let tolerances = Tolerances::new(1e-3)
        .field("step", 0.0)
        .field("steps", 0.0)
        .field("utilization_percent", 0.0)
        .field("dt_seconds", 0.0)
        .field("final_time_seconds", 0.0)
        .field("hotspot", 0.0);
    assert_golden("transient_dvfs_gemmini", &record, &tolerances);
}
