//! Tests of the benchmark itself: the traced paths reproduce the
//! untraced ones, and `BENCHMARK.json` matches the metric tables.

use std::collections::BTreeMap;

use cloudlet_core::update::UpdateServer;
use perfbench::population::{
    fabric_totals, replay_consults, run_cells, run_day, warmed_lanes, CellShape, DayShape, Probes,
};
use perfbench::search::{classified_streams, replay_user, Fingerprints, SearchTrace};
use perfbench::setup::{population_world, search_inputs, update_servers, SetupTimes};
use perfbench::workloads::WORKLOADS;
use perfbench::{END_TO_END, PER_LAYER};
use pocket_bench::workloads::peer_cell_workload;
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use querylog::generator::GeneratorConfig;

#[test]
fn stepwise_setup_builds_the_library_worlds() {
    let config = GeneratorConfig::test_scale();
    let mut times = SetupTimes::default();
    let ours = population_world(config, 3, &mut times);
    let theirs = pocket_bench::workloads::population_world(config, 3, 0.55);
    assert_eq!(ours.community, theirs.community);
    assert_eq!(ours.pairs, theirs.pairs);
    assert_eq!(ours.contents, theirs.contents);
    let ours = search_inputs(config, 3, &mut times);
    let theirs = pocket_bench::workloads::test_scale_study_inputs(3);
    assert_eq!(ours.build_month, theirs.build_month);
    assert_eq!(ours.replay_month, theirs.replay_month);
    assert_eq!(ours.contents, theirs.contents);
    assert!(times.log_gen_s > 0.0 && times.contentgen_s > 0.0);
}

#[test]
fn wrapped_and_unwrapped_frontends_give_identical_telemetry() {
    let config = GeneratorConfig::test_scale();
    let world = population_world(config, 5, &mut SetupTimes::default());
    let shape = DayShape {
        users: 3_000,
        lanes: 4,
        epochs_per_day: 24,
    };
    let plain = run_day(&world, config, 5, shape, None);
    let probes = Probes::new(shape.lanes, false);
    let traced = run_day(&world, config, 5, shape, Some(&probes));
    assert!(plain.events > 0);
    assert_eq!(plain.telemetry, traced.telemetry);
    let (serves, attempts, _) = probes.calls();
    assert_eq!(serves, traced.events, "every event reaches its lane once");
    // `serve_batch` tries the shared-read fast path, and on a decline
    // the exclusive `execute` tries it once more before `serve`.
    assert_eq!(attempts, 2 * traced.events, "two fast-path tries per event");
    assert!(perfbench::population::day_problems(&plain).is_empty());

    let cells = CellShape {
        devices: 8,
        pool: 20,
        per_device: 60,
        skew: 0.7,
        cell: 4,
    };
    let workload = peer_cell_workload(
        &world,
        cells.devices,
        cells.pool,
        cells.per_device,
        cells.skew,
        5,
    );
    let warmed = warmed_lanes(&world, cells.devices, &workload.warmup);
    let plain = run_cells(&warmed, &workload.measure, cells, None);
    let probes = Probes::new(cells.devices, true);
    let traced = run_cells(&warmed, &workload.measure, cells, Some(&probes));
    assert_eq!(plain.telemetry, traced.telemetry);
    assert_eq!(plain.fabric, traced.fabric);
    assert!(traced.fabric.consults > 0 && traced.fabric.peer_hits > 0);
    let replay = replay_consults(&traced, &probes, cells);
    assert_eq!(
        replay.replayed, traced.fabric,
        "replayed consults repeat the pass"
    );
    assert_eq!(
        fabric_totals(&traced.cells).consults,
        2 * traced.fabric.consults
    );
}

#[test]
fn decomposed_search_replay_equals_replay_user() {
    let mut times = SetupTimes::default();
    let inputs = search_inputs(GeneratorConfig::test_scale(), 8, &mut times);
    let base = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let servers: Vec<UpdateServer> = update_servers(&inputs, 3, &mut times);
    let streams = classified_streams(&inputs.replay_month);
    assert_eq!(
        streams.len(),
        inputs
            .replay_month
            .users()
            .into_iter()
            .filter(|&u| querylog::users::UserClass::classify(
                inputs.replay_month.user_stream(u).len() as u32
            )
            .is_some())
            .count()
    );
    for stream in streams.iter().take(4) {
        assert_eq!(stream[0].user, stream[stream.len() - 1].user);
        for updates in [None, Some(servers.as_slice())] {
            let expected = match updates {
                None => pocketsearch::replay::replay_user(&base, &inputs.catalog, stream),
                Some(s) => pocketsearch::replay::replay_user_with_updates(
                    &base,
                    &inputs.catalog,
                    stream,
                    s,
                ),
            };
            let mut untraced = SearchTrace::new(false);
            untraced.fingerprints = Fingerprints::Record(Vec::new());
            assert_eq!(
                replay_user(&base, &inputs, stream, updates, &mut untraced),
                expected
            );

            let Fingerprints::Record(recorded) = std::mem::take(&mut untraced.fingerprints) else {
                unreachable!()
            };
            let mut traced = SearchTrace::new(true);
            traced.fingerprints = Fingerprints::Check {
                expected: recorded,
                next: 0,
                mismatches: 0,
            };
            assert_eq!(
                replay_user(&base, &inputs, stream, updates, &mut traced),
                expected
            );
            assert_eq!(traced.failures, 0, "stepwise updates match the engine's");
            let Fingerprints::Check {
                expected: fps,
                next,
                mismatches,
            } = &traced.fingerprints
            else {
                unreachable!()
            };
            assert_eq!((*mismatches, *next), (0, fps.len()));
            assert_eq!(traced.cache.calls, u64::from(expected.total));
            if updates.is_some() {
                assert!(
                    traced.upload.calls > 0 && traced.update_ns.len() as u64 == traced.upload.calls
                );
            }
        }
    }
}

/// A JSON value, parsed by [`parse`] (just enough JSON for
/// `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
    Lit(String),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn parse(text: &str) -> Json {
    fn ws(s: &mut &[u8]) {
        while let Some(c) = s.first() {
            if !c.is_ascii_whitespace() {
                break;
            }
            *s = &s[1..];
        }
    }
    fn value(s: &mut &[u8]) -> Json {
        ws(s);
        match s[0] {
            b'{' => {
                *s = &s[1..];
                let mut map = BTreeMap::new();
                loop {
                    ws(s);
                    if s[0] == b'}' {
                        *s = &s[1..];
                        return Json::Obj(map);
                    }
                    let Json::Str(key) = value(s) else {
                        panic!("object key")
                    };
                    ws(s);
                    assert_eq!(s[0], b':');
                    *s = &s[1..];
                    assert!(map.insert(key, value(s)).is_none(), "duplicate key");
                    ws(s);
                    if s[0] == b',' {
                        *s = &s[1..];
                    }
                }
            }
            b'[' => {
                *s = &s[1..];
                let mut items = Vec::new();
                loop {
                    ws(s);
                    if s[0] == b']' {
                        *s = &s[1..];
                        return Json::Arr(items);
                    }
                    items.push(value(s));
                    ws(s);
                    if s[0] == b',' {
                        *s = &s[1..];
                    }
                }
            }
            b'"' => {
                let end = s[1..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("closing quote")
                    + 1;
                let text = std::str::from_utf8(&s[1..end]).expect("utf-8");
                assert!(!text.contains('\\'), "no escapes expected");
                *s = &s[end + 1..];
                Json::Str(text.to_owned())
            }
            _ => {
                let end = s
                    .iter()
                    .position(|c| matches!(c, b',' | b'}' | b']') || c.is_ascii_whitespace())
                    .unwrap_or(s.len());
                let text = std::str::from_utf8(&s[..end]).expect("utf-8").to_owned();
                *s = &s[end..];
                text.parse().map_or(Json::Lit(text), Json::Num)
            }
        }
    }
    let mut bytes = text.as_bytes();
    let v = value(&mut bytes);
    ws(&mut bytes);
    assert!(bytes.is_empty(), "trailing text");
    v
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = parse(&text);
    assert_eq!(
        bench.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in bench.get("workloads").arr() {
        let why = w.get("why").str();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let e2e: Vec<(&str, &str)> = bench
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| (m.get("name").str(), m.get("unit").str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let setup = &bench.get("end_to_end").arr()[1];
    assert_eq!(setup.get("better").str(), "lower");
    let bound = |m: &Json| match m.get("bound") {
        Json::Num(b) => *b,
        other => panic!("bound {other:?}"),
    };
    for m in bench.get("end_to_end").arr() {
        assert!(bound(m) > 0.0 && bound(m) <= bound(setup) && bound(setup) <= 0.25);
    }

    let layers = bench.get("per_layer").arr();
    assert_eq!(layers.len(), PER_LAYER.len());
    let latency = [
        "serve_p50_us",
        "serve_p999_us",
        "update_p50_ms",
        "update_p95_ms",
    ];
    for (json, table) in layers.iter().zip(PER_LAYER) {
        assert_eq!(json.get("name").str(), table.name);
        assert_eq!(json.get("unit").str(), table.unit);
        assert_eq!(json.get("better").str(), table.better);
        // Every layer metric names the end-to-end metric and workload
        // it should move; only the trace's self-checks move nothing.
        assert_eq!(
            table.moves().next().is_none(),
            table.name.starts_with("trace."),
            "{}",
            table.name
        );
        for (metric, workload) in table.moves() {
            assert!(
                END_TO_END.iter().any(|&(n, _)| n == metric) || latency.contains(&metric),
                "{} moves unknown metric {metric}",
                table.name
            );
            assert!(
                WORKLOADS.contains(&workload),
                "{} moves unknown workload {workload}",
                table.name
            );
        }
    }
}
