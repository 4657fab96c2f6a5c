//! Fleet serving throughput on the wall clock.
//!
//! Times `Frontend::serve_batch` on the same Zipf `(user, query)` batch
//! in its `pr3_baseline` configuration at 1, 4 and 16 shards, the
//! pipelined front-end (coalescing + shared-read hit path) against that
//! baseline on a duplicate-heavy batch, and single `serve_one` calls.
//! The batch executes its serves inline on the calling thread, so these
//! time the serve path and the queue model, not a fan-out. The
//! machine-independent simulated throughput tables are
//! `ablations --study fleet` and `ablations --study frontend`.

use cloudlet_core::frontend::FrontendConfig;
use pocket_bench::wallclock::Bench;
use pocket_bench::{fleet_workload, frontend_workload, test_scale_study_inputs};
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use pocketsearch::fleet::search_frontend;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let inputs = test_scale_study_inputs(21);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );

    let requests = fleet_workload(&inputs, 64, 2_000, 77);
    for shards in [1, 4, 16] {
        let (_, frontend) = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
        bench.run_with_setup(
            &format!("fleet/serve_batch_2k/{shards}_shards"),
            || requests.clone(),
            |batch| black_box(frontend.serve_batch(&batch)),
        );
    }

    let requests = frontend_workload(&inputs, 64, 2_000, 79);
    for (name, config) in [
        ("baseline", FrontendConfig::pr3_baseline()),
        ("optimized", FrontendConfig::default()),
    ] {
        let (_, frontend) = search_frontend(&engine, 8, config);
        bench.run_with_setup(
            &format!("frontend/serve_batch_2k/{name}"),
            || requests.clone(),
            |batch| black_box(frontend.serve_batch(&batch)),
        );
    }

    let requests = fleet_workload(&inputs, 64, 512, 78);
    let (_, frontend) = search_frontend(&engine, 16, FrontendConfig::pr3_baseline());
    let mut i = 0;
    bench.run("fleet/serve_one", || {
        i = (i + 1) % requests.len();
        black_box(frontend.serve_one(black_box(requests[i])))
    });
}
