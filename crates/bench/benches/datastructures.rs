//! Criterion micro-benchmarks of the real (non-simulated) data structures:
//! the MICA-style store, the Zipfian sampler, and the MERCI reduction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rambda_des::SimRng;
use rambda_dlrm::{MemoTable, ReductionPlan};
use rambda_kvs::{KvConfig, KvStore};
use rambda_workloads::{DlrmProfile, Zipf};

fn bench_kv(c: &mut Criterion) {
    let cfg = KvConfig::for_pairs(100_000, 64);
    let value = [0u8; 64];
    let pairs = || (0..100_000u64).map(|k| (k, &value[..]));
    c.bench_function("kv_bulk_load_100k", |b| {
        b.iter_batched(
            || KvStore::new(cfg.clone()),
            |mut store| {
                store.bulk_load(pairs());
                store.len()
            },
            BatchSize::LargeInput,
        )
    });
    let mut store = KvStore::new(cfg);
    store.bulk_load(pairs());
    let mut rng = SimRng::seed(1);
    c.bench_function("kv_get_hit", |b| {
        b.iter(|| {
            let k = rng.gen_range(0..100_000u64);
            std::hint::black_box(store.get(k).0.is_some());
        })
    });
    c.bench_function("kv_put_update", |b| {
        b.iter_batched(
            || (rng.gen_range(0..100_000u64), vec![1u8; 64]),
            |(k, v)| std::hint::black_box(store.put(k, v)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_workloads(c: &mut Criterion) {
    let zipf = Zipf::new(100_000_000, 0.9);
    let mut rng = SimRng::seed(2);
    c.bench_function("zipf_sample_100m", |b| b.iter(|| std::hint::black_box(zipf.sample(&mut rng))));
}

fn bench_merci(c: &mut Criterion) {
    let profile = DlrmProfile::by_name("Books").unwrap();
    let model = rambda_dlrm::DlrmModel::synthetic(32_768, 64);
    let memo = MemoTable::build(&model.embedding);
    let pair_zipf = Zipf::new(32_768 / 2, profile.zipf_theta);
    let mut rng = SimRng::seed(3);
    c.bench_function("merci_plan_and_reduce", |b| {
        b.iter_batched(
            || rambda_dlrm::merci::sample_correlated_query(&profile, 32_768, &pair_zipf, &mut rng),
            |q| {
                let plan = ReductionPlan::build(&q, &memo);
                std::hint::black_box(plan.reduce(&model.embedding, &memo))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_kv, bench_workloads, bench_merci);
criterion_main!(benches);
