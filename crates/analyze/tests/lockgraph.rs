//! End-to-end tests of the cross-file concurrency pass: the gate binary
//! against the deadlock/clean fixture trees, the per-pattern
//! `no-alloc-hot` fixtures, and — the regression the serving tier
//! actually depends on — the workspace's own lock-order graph.

use std::path::Path;
use std::process::Command;
use tsc_analyze::lexer::lex;
use tsc_analyze::rules::Context;
use tsc_analyze::{lockgraph, model, walk};

fn fixture_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run the gate binary with `--root` on a fixture tree.
fn gate_on(dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tsc-analyze"))
        .arg("--root")
        .arg(dir)
        .output()
        .expect("gate binary runs")
}

#[test]
fn gate_binary_exits_nonzero_on_deadlock_cycle_fixture() {
    let out = gate_on(&fixture_dir("lockcycle"));
    assert_eq!(out.status.code(), Some(1), "cycle must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lock-order"), "stderr: {stderr}");
    assert!(
        stderr.contains("Alpha.a_state") && stderr.contains("Beta.b_state"),
        "diagnostic must name both locks: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lock-order graph: 2 node(s)"), "{stdout}");
}

#[test]
fn gate_binary_passes_the_rank_respecting_fixture() {
    let out = gate_on(&fixture_dir("lockclean"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("edge Alpha.a_state -> Beta.b_state"),
        "the consistent nesting must still appear as an edge: {stdout}"
    );
}

/// Each `no-alloc-hot` pattern has its own fixture and must fire exactly
/// once on it.
#[test]
fn alloc_hot_fixtures_fire_per_pattern() {
    for (file, expect) in [
        ("vec_new.rs", "Vec::new"),
        ("to_vec.rs", ".to_vec()"),
        ("collect.rs", ".collect()"),
        ("box_new.rs", "Box::new"),
        ("format_macro.rs", "format!"),
        ("vec_macro.rs", "vec!"),
    ] {
        let path = fixture_dir("allochot").join(file);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let lexed = lex(&src);
        let model = model::build(&lexed);
        let ctx = Context::build(&lexed.tokens, &lexed.comments);
        let hits = lockgraph::lint_no_alloc_hot(&lexed, &model, &ctx);
        assert_eq!(hits.len(), 1, "{file}: {hits:?}");
        assert!(
            hits[0].message.contains(expect),
            "{file} must flag `{expect}`: {}",
            hits[0].message
        );
    }
}

/// The serving tier's regression pin (ISSUE-8 satellite): the workspace
/// graph must contain the full serve lock set as nodes, and must be
/// acyclic — the static half of the cross-check whose dynamic half is
/// the concurrency suites under `--features lock-order`.
#[test]
fn workspace_lock_graph_covers_serve_and_is_acyclic() {
    let root = walk::workspace_root();
    let report = lockgraph::analyze_workspace(&root).expect("workspace walk");

    let names: Vec<&str> = report.nodes.iter().map(|n| n.name.as_str()).collect();
    for expected in [
        "JobQueue.inner",
        "LruPool.entries",
        "Slot.result",
        "Shared.coalesce",
        "Shared.shutdown_flag",
        "RouterShared.table",
        "RouterShared.shutdown_flag",
        "UpstreamPool.idle",
    ] {
        assert!(
            names.contains(&expected),
            "serve lock `{expected}` missing from graph nodes: {names:?}"
        );
    }

    let cycles: Vec<String> = report
        .violations
        .iter()
        .filter(|(_, v)| v.rule == "lock-order")
        .map(|(f, v)| format!("{}:{}: {}", f.display(), v.line, v.message))
        .collect();
    assert!(
        cycles.is_empty(),
        "workspace lock graph has cycles:\n{}",
        cycles.join("\n")
    );
}

/// The workspace-wide concurrency gate CI enforces: no unwaived
/// diagnostics from any of the cross-file rules.
#[test]
fn workspace_concurrency_pass_is_clean() {
    let root = walk::workspace_root();
    let report = lockgraph::analyze_workspace(&root).expect("workspace walk");
    let rendered: Vec<String> = report
        .violations
        .iter()
        .map(|(f, v)| format!("{}:{}: [{}] {}", f.display(), v.line, v.rule, v.message))
        .collect();
    assert!(report.clean(), "{}", rendered.join("\n"));
}
