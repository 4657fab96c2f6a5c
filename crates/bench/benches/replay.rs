//! Wall-clock benches for the §6.2 trace-replay engine: per-user replay
//! throughput (the inner loop of Figures 17–19) and the serve paths.

use pocket_bench::test_scale_study_inputs;
use pocket_bench::wallclock::Bench;
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use pocketsearch::replay::replay_user;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let inputs = test_scale_study_inputs(9);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );

    // A medium-volume stream.
    let stream = inputs
        .replay_month
        .users()
        .into_iter()
        .map(|u| inputs.replay_month.user_stream(u))
        .find(|s| (40..140).contains(&s.len()))
        .expect("population has a medium user");
    bench.run("replay/one_medium_user_month", || {
        black_box(replay_user(&engine, &inputs.catalog, black_box(&stream)))
    });

    let hot = inputs.contents.pairs()[0].query_hash;
    bench.run_with_setup(
        "replay/serve_hit",
        || engine.clone(),
        |mut e| black_box(e.serve(hot)),
    );
    bench.run_with_setup(
        "replay/serve_miss",
        || engine.clone(),
        |mut e| black_box(e.serve(u64::MAX)),
    );

    bench.run("replay/engine_clone", || black_box(engine.clone()));
}
