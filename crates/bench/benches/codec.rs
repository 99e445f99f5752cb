//! Criterion microbenches of the Reed–Solomon codec: RS(60, 36) encode,
//! and decode of a clean codeword, of one with 8 symbol errors and of one
//! with 22 erasures, so each error pattern's cost shows on its own.
//! linkbench's `rscode.decode_us` is the mean over the codewords its clips
//! happen to produce; README's benchmark section names the one instrument
//! that owns each timed fact.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn rs_codec(c: &mut Criterion) {
    use colorbars_rs::ReedSolomon;
    let code = ReedSolomon::new(60, 36).unwrap();
    let data: Vec<u8> = (0..36).map(|i| (i * 13 + 5) as u8).collect();
    let clean = code.encode(&data).unwrap();
    let mut corrupted = clean.clone();
    for e in 0..8 {
        corrupted[e * 7] ^= 0x5A;
    }
    let mut erased = clean.clone();
    let erasures: Vec<usize> = (20..42).collect();
    for &e in &erasures {
        erased[e] = 0;
    }

    let mut g = c.benchmark_group("reed_solomon");
    g.throughput(Throughput::Bytes(36));
    g.bench_function("encode_rs60_36", |b| {
        b.iter(|| code.encode(black_box(&data)).unwrap())
    });
    g.bench_function("decode_clean", |b| {
        b.iter(|| code.decode(black_box(&clean), &[]).unwrap())
    });
    g.bench_function("decode_8_errors", |b| {
        b.iter(|| code.decode(black_box(&corrupted), &[]).unwrap())
    });
    g.bench_function("decode_22_erasures", |b| {
        b.iter(|| {
            code.decode(black_box(&erased), black_box(&erasures))
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, rs_codec);
criterion_main!(benches);
