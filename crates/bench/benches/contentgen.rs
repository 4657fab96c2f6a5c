//! Wall-clock benches for the server-side pipeline: log generation,
//! triplet extraction (Table 3), cache content generation (§5.1), and
//! the §5.4 update merge — everything the nightly update server runs.

use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
use cloudlet_core::corpus::UniverseCorpus;
use cloudlet_core::ranking::RankingPolicy;
use cloudlet_core::update::{UpdateServer, UploadPayload};
use pocket_bench::test_scale_study_inputs;
use pocket_bench::wallclock::Bench;
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use querylog::generator::{GeneratorConfig, LogGenerator};
use querylog::triplets::TripletTable;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let mut seed = 0;
    bench.run("pipeline/generate_month_test_scale", || {
        seed += 1;
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), seed);
        black_box(g.generate_month())
    });

    let inputs = test_scale_study_inputs(2);
    bench.run("pipeline/triplet_extraction", || {
        black_box(TripletTable::from_log(black_box(&inputs.build_month)))
    });

    let corpus = UniverseCorpus::new(&inputs.universe);
    for (name, policy) in [
        ("share_55", AdmissionPolicy::CumulativeShare { share: 0.55 }),
        (
            "dram_100kb",
            AdmissionPolicy::DramThreshold { bytes: 100_000 },
        ),
        ("saturation", AdmissionPolicy::Saturation { v_th: 1e-4 }),
    ] {
        bench.run(&format!("pipeline/content_generation/{name}"), || {
            black_box(CacheContents::generate(&inputs.triplets, &corpus, policy))
        });
    }

    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let server = UpdateServer::from_contents(&inputs.contents, RankingPolicy::default());
    let upload = UploadPayload::from_cache(engine.cache());
    bench.run("pipeline/update_merge", || {
        black_box(server.build_update(black_box(&upload)).unwrap())
    });
}
