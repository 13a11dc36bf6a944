//! Integration tests for the sweep engine: the parallel, cached,
//! incremental path must be bit-identical to the serial
//! `probability::exact` reference, independent of thread count and of the
//! order points were first computed in; and the JSON report layer must
//! round-trip through its own schema.

use rsbt_bench::{report, Json, ModelSpec, Report, RowMode, SweepEngine, SweepSpec, TaskSpec};
use rsbt_core::{eventual, probability};
use rsbt_random::Assignment;
use rsbt_sim::Model;
use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

// Kept deliberately small: these run in the debug profile under tier-1.
fn le_spec() -> SweepSpec {
    SweepSpec::new()
        .task(TaskSpec::fixed(LeaderElection))
        .nodes(1..=5)
        .t_cap(3)
        .bit_budget(12)
        .predicate(eventual::blackboard_eventually_solvable)
}

fn mp_spec() -> SweepSpec {
    SweepSpec::new()
        .model(ModelSpec::adversarial_ports())
        .task(TaskSpec::fixed(LeaderElection))
        .nodes(2..=4)
        .t_cap(2)
        .bit_budget(8)
        .predicate(eventual::message_passing_worst_case_solvable)
}

/// The acceptance-criterion test: the parallel engine's numbers are
/// bit-identical to the serial `probability::exact` path, for every
/// worker count, on both communication models.
#[test]
fn parallel_sweep_bit_identical_to_serial_exact() {
    for spec in [le_spec(), mp_spec()] {
        let reference = SweepEngine::new(1).sweep(&spec);
        for threads in [2usize, 4] {
            let rows = SweepEngine::new(threads).sweep(&spec);
            assert_eq!(rows.len(), reference.len(), "threads={threads}");
            for (row, reference_row) in rows.iter().zip(&reference) {
                assert_eq!(row, reference_row, "threads={threads}");
            }
        }
        // Serial ground truth: recompute every point with the plain
        // single-threaded enumerator and compare exact bit patterns.
        for row in &reference {
            let alpha = Assignment::from_group_sizes(&row.sizes).unwrap();
            let model = match row.model.as_str() {
                "blackboard" => Model::Blackboard,
                "adversarial ports" => Model::MessagePassing(rsbt_sim::PortNumbering::adversarial(
                    alpha.n(),
                    alpha.gcd_of_group_sizes() as usize,
                )),
                other => panic!("unexpected model label {other}"),
            };
            for (i, &p) in row.series.iter().enumerate() {
                let serial = probability::exact(&model, &LeaderElection, &alpha, i + 1);
                assert_eq!(
                    p.to_bits(),
                    serial.to_bits(),
                    "sizes {:?} t {}",
                    row.sizes,
                    i + 1
                );
            }
        }
    }
    // Past the tree wall: two-source profiles to k*t = 96 are exact-dp
    // rows, monotone, and thread-invariant.
    let deep = || {
        SweepSpec::new()
            .task(TaskSpec::fixed(LeaderElection))
            .nodes(3..=4)
            .t_cap(48)
            .bit_budget(126)
            .filter(|alpha| alpha.k() == 2)
    };
    let rows = SweepEngine::new(1).sweep(&deep());
    assert!(!rows.is_empty());
    assert!(
        rows.iter()
            .all(|r| r.mode == RowMode::ExactDp
                && r.k * r.series.len() > probability::TREE_EXACT_BITS)
    );
    assert!(rows.iter().all(|r| r.is_monotone()));
    assert_eq!(SweepEngine::new(4).sweep(&deep()), rows);
}

/// Cache warm-up order must not change results: an engine that computed
/// other sweeps first (overlapping points, different chunking) returns the
/// same rows as a cold engine.
#[test]
fn sweep_results_independent_of_computation_order() {
    let cold = SweepEngine::new(3).sweep(&le_spec());

    let mut warm_engine = SweepEngine::new(3);
    // Warm the cache through unrelated entry points, in a different order:
    // a 2-LE sweep (different task), a WSB sweep, then scattered one-off
    // exact() calls overlapping the LE spec's points.
    warm_engine.sweep(
        &SweepSpec::new()
            .task(TaskSpec::fixed(KLeaderElection::new(2)))
            .nodes(2..=4)
            .bit_budget(12),
    );
    warm_engine.sweep(
        &SweepSpec::new()
            .task(TaskSpec::fixed(WeakSymmetryBreaking))
            .nodes(2..=4)
            .bit_budget(12),
    );
    for sizes in [vec![2usize, 2, 1], vec![1usize, 1], vec![4usize, 1]] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        warm_engine.exact(&Model::Blackboard, &LeaderElection, &alpha, 2);
    }
    let warm = warm_engine.sweep(&le_spec());
    assert_eq!(cold, warm);
}

/// `exact()` (serial cached) and `sweep()` (parallel) must agree on shared
/// points — the cache would otherwise poison one path with the other's
/// values if they ever diverged.
#[test]
fn serial_and_sweep_paths_share_one_truth() {
    let mut engine = SweepEngine::new(4);
    let rows = engine.sweep(&le_spec());
    for row in &rows {
        let alpha = Assignment::from_group_sizes(&row.sizes).unwrap();
        for (i, &p) in row.series.iter().enumerate() {
            let via_exact = engine.exact(&Model::Blackboard, &LeaderElection, &alpha, i + 1);
            assert_eq!(p.to_bits(), via_exact.to_bits());
        }
    }
}

/// A realistic report (sweep rows + tables + notes) validates against the
/// v1 schema and survives an emit → parse round trip unchanged.
#[test]
fn report_with_sweep_rows_round_trips_through_schema() {
    let mut engine = SweepEngine::new(2);
    let rows = engine.sweep(&le_spec());
    let mut rep = Report::new("engine-test", "Engine test", "tests/engine.rs");
    rep.set_threads(engine.threads());
    rep.set_elapsed_ms(1);
    let (hits, misses, points) = engine.cache_stats();
    rep.set_cache_stats(hits, misses, points);
    let mut table = rsbt_bench::Table::new(vec!["k", "v"]);
    table.row(vec!["points".into(), points.to_string()]);
    rep.section("sweep")
        .sweep("theorem 4.1", rows)
        .table(table)
        .note("done");

    let doc = rep.to_json();
    report::validate(&doc).expect("schema-valid");
    let text = doc.to_pretty_string();
    let parsed = Json::parse(&text).expect("parses");
    assert_eq!(parsed, doc, "emit → parse must be the identity");
    report::validate(&parsed).expect("still valid after round trip");
}

/// The probability series in a report survive the JSON round trip at full
/// f64 precision (shortest round-trip float formatting).
#[test]
fn json_floats_preserve_full_precision() {
    let mut engine = SweepEngine::new(1);
    let rows = engine.sweep(&le_spec());
    let originals: Vec<Vec<f64>> = rows.iter().map(|r| r.series.clone()).collect();
    let mut rep = Report::new("prec", "t", "r");
    rep.section("s").sweep("rows", rows);
    let text = rep.to_json().to_pretty_string();
    let parsed = Json::parse(&text).unwrap();
    let sections = parsed.get("sections").and_then(Json::as_arr).unwrap();
    let sweeps = sections[0].get("sweeps").and_then(Json::as_arr).unwrap();
    let rows_json = sweeps[0].get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows_json.len(), originals.len());
    for (row, series) in rows_json.iter().zip(&originals) {
        let parsed_series = row.get("series").and_then(Json::as_arr).unwrap();
        assert_eq!(parsed_series.len(), series.len());
        for (value, &expect) in parsed_series.iter().zip(series) {
            match value {
                Json::Num(v) => assert_eq!(v.to_bits(), expect.to_bits()),
                other => panic!("series value must be a float, got {other:?}"),
            }
        }
    }
}

/// End-to-end estimator mode: an MC-bearing sweep produces a report that
/// validates against the v2 schema, round-trips, and is bit-identical
/// regardless of the engine's worker count — WSB and k-LE beyond the
/// exact budget included.
#[test]
fn mc_sweep_report_round_trips_and_is_deterministic() {
    let spec = || {
        SweepSpec::new()
            .task(TaskSpec::fixed(WeakSymmetryBreaking))
            .task(TaskSpec::fixed(KLeaderElection::new(2)))
            .nodes(4..=4)
            .t_cap(4)
            .bit_budget(6)
            .mc(rsbt_bench::McSweep {
                samples: 1_000,
                seed: 11,
            })
    };
    let mut engine = SweepEngine::new(2);
    let rows = engine.sweep(&spec());
    assert!(
        rows.iter().any(|r| r.mode == RowMode::Mc),
        "budget 6 must push some rows to the estimator"
    );
    let again = SweepEngine::new(4).sweep(&spec());
    assert_eq!(rows, again, "estimated rows must be thread-invariant");
    // Estimator mode runs bit-sliced: built-in tasks compile lane plans,
    // so no lane peels to the scalar path and the dense fallback (and the
    // scalar closed form) never run.
    let stats = engine.mc_stats();
    assert!(stats.lane_words > 0);
    assert_eq!(stats.peeled_lanes, 0);
    assert_eq!(stats.dense_scan_verdicts, 0);

    // Past the tree wall: n = 16 two-source profiles to t = 32 stay in
    // estimator mode, and their common-random-numbers series are monotone.
    let wall = SweepSpec::new()
        .task(TaskSpec::fixed(LeaderElection))
        .task(TaskSpec::fixed(KLeaderElection::new(3)))
        .task(TaskSpec::fixed(WeakSymmetryBreaking))
        .nodes(16..=16)
        .t_cap(32)
        .bit_budget(probability::TREE_EXACT_BITS)
        .filter(|alpha| alpha.k() == 2)
        .mc(rsbt_bench::McSweep {
            samples: 256,
            seed: 0x5253_4254,
        });
    let wall_rows = engine.sweep(&wall);
    assert!(!wall_rows.is_empty());
    assert!(wall_rows
        .iter()
        .all(|r| r.mode == RowMode::Mc && r.k * r.series.len() > probability::TREE_EXACT_BITS));
    assert!(wall_rows.iter().all(|r| r.is_monotone()));

    let mut rep = Report::new("mc-test", "MC engine test", "tests/engine.rs");
    rep.set_threads(engine.threads());
    rep.section("mc").sweep("estimated rows", rows);
    let doc = rep.to_json();
    report::validate(&doc).expect("v2 schema-valid");
    let parsed = Json::parse(&doc.to_pretty_string()).expect("parses");
    assert_eq!(parsed, doc, "emit → parse must be the identity");
}
