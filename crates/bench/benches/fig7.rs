//! Criterion bench for the Figure 7 experiment: one GPU prediction per
//! query-length extreme, plus the host-measured SWPS3-role baseline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cudasw_bench::experiments::predict;
use cudasw_bench::workloads;
use cudasw_core::model::PredictedIntra;
use gpu_sim::DeviceSpec;
use sw_align::SwParams;
use sw_db::catalog::PaperDb;
use sw_db::synth::sample_lengths;
use sw_simd::{search_sequences, Precision, QueryEngine};

fn bench(c: &mut Criterion) {
    let spec = DeviceSpec::tesla_c1060();
    let lengths = sample_lengths(100_000, PaperDb::Swissprot.lognormal(), 20, 36_000, 1);
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    for qlen in [144usize, 5478] {
        group.bench_function(format!("gpu_predict_query_{qlen}"), |b| {
            b.iter(|| predict(&spec, &lengths, qlen, 3072, PredictedIntra::Improved, false))
        });
    }
    // SWPS3 role: real striped-SIMD work, so report cell throughput.
    let db = workloads::functional_db(PaperDb::Swissprot, 100);
    let query = workloads::query(567);
    let engine = QueryEngine::new(SwParams::cudasw_default(), &query);
    group.throughput(Throughput::Elements(db.total_cells(567)));
    group.bench_function("swps3_query_567_100seqs", |b| {
        b.iter(|| search_sequences(&engine, db.sequences(), 4, Precision::Adaptive))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
