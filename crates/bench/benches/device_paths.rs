//! Wall-clock benches for the device model's service paths (the
//! machinery behind Figures 15/16 and Tables 4/5) and an ablation
//! comparing the PocketSearch admission policy with the LRU/LFU/browser
//! baselines on identical streams.

use baselines::{
    BrowserSubstringCache, CacheRequest, LfuQueryCache, LruQueryCache, QueryCache, ServerOnly,
};
use mobsim::device::Device;
use mobsim::radio::RadioKind;
use mobsim::time::SimDuration;
use pocket_bench::test_scale_study_inputs;
use pocket_bench::wallclock::Bench;
use std::hint::black_box;

fn run(cache: &mut dyn QueryCache, requests: &[(u64, u64, String, String)]) -> u64 {
    let mut hits = 0;
    for (qh, rh, text, url) in requests {
        let req = CacheRequest {
            query_hash: *qh,
            result_hash: *rh,
            query_text: text,
            url,
        };
        if cache.lookup(&req) {
            hits += 1;
        }
        cache.record_click(&req);
    }
    hits
}

fn main() {
    let bench = Bench::from_args();
    bench.run_with_setup("device/serve_cache_hit", Device::with_defaults, |mut d| {
        black_box(d.serve_cache_hit(SimDuration::from_millis(10)))
    });
    for kind in RadioKind::ALL {
        bench.run_with_setup(
            &format!("device/serve_via_radio/{kind}"),
            Device::with_defaults,
            |mut d| black_box(d.serve_via_radio(kind)),
        );
    }

    // Hit-rate ablation across baseline caches, on one flat request
    // stream across the population.
    let inputs = test_scale_study_inputs(31);
    let requests: Vec<(u64, u64, String, String)> = inputs
        .replay_month
        .iter()
        .take(10_000)
        .map(|e| {
            (
                inputs.catalog.query_hash(e.query),
                inputs.catalog.result_hash(e.result),
                inputs.universe.query(e.query).text.clone(),
                inputs.universe.result(e.result).url.clone(),
            )
        })
        .collect();
    bench.run_with_setup(
        "baselines/replay_10k/lru_1000",
        || LruQueryCache::new(1_000),
        |mut cache| black_box(run(&mut cache, &requests)),
    );
    bench.run_with_setup(
        "baselines/replay_10k/lfu_1000",
        || LfuQueryCache::new(1_000),
        |mut cache| black_box(run(&mut cache, &requests)),
    );
    bench.run_with_setup(
        "baselines/replay_10k/browser_substring",
        BrowserSubstringCache::new,
        |mut cache| black_box(run(&mut cache, &requests)),
    );
    bench.run_with_setup(
        "baselines/replay_10k/server_only",
        || ServerOnly,
        |mut cache| black_box(run(&mut cache, &requests)),
    );
}
