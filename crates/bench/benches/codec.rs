//! Criterion microbenches for the computational kernels: GF(256)/RS
//! coding, color conversion, and band classification — the operations the
//! paper's receiver app parallelized across threads to keep real-time.

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

fn color_conversion(c: &mut Criterion) {
    use colorbars_color::{Lab, RgbSpace, Srgb, SrgbToXyzLut, Xyz};
    let space = RgbSpace::srgb();
    let pixels: Vec<[u8; 3]> = (0..4096)
        .map(|i| {
            [
                (i % 256) as u8,
                ((i * 7) % 256) as u8,
                ((i * 13) % 256) as u8,
            ]
        })
        .collect();

    let mut g = c.benchmark_group("color");
    g.throughput(Throughput::Elements(pixels.len() as u64));
    g.bench_function("srgb_to_lab_4096px", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &px in black_box(&pixels) {
                let lab =
                    Lab::from_xyz(space.to_xyz(Srgb::from_bytes(px).decode()), Xyz::D65_WHITE);
                acc += lab.a;
            }
            acc
        })
    });
    // The receiver's row kernel on one 24-pixel scanline per iteration,
    // stepping through the same pixels as above so each row is new.
    let lut = SrgbToXyzLut::srgb();
    let rows: Vec<&[[u8; 3]]> = pixels.chunks_exact(24).collect();
    let mut next = 0;
    g.throughput(Throughput::Elements(24));
    g.bench_function("srgb_lab_row_24px", |b| {
        b.iter(|| {
            next = (next + 1) % rows.len();
            lut.row_lab_mean(black_box(rows[next]))
        })
    });
    g.finish();
}

fn segmentation_and_classification(c: &mut Criterion) {
    use colorbars_color::Lab;
    use colorbars_core::calibration::ReferenceStore;
    use colorbars_core::classify::{classify, nearest_color};
    use colorbars_core::segmentation::{segment, SegmentationConfig};
    use colorbars_core::{Constellation, CskOrder, SymbolMapper};
    use colorbars_led::TriLed;

    let led = TriLed::typical();
    let cons = Constellation::ieee_style(CskOrder::Csk16, led.gamut());
    let mapper = SymbolMapper::new(led, cons);
    let store = ReferenceStore::ideal(&mapper);

    // A synthetic 3264-row scanline signal of 32-row bands.
    let signal: Vec<Lab> = (0..3264)
        .map(|r| {
            let band = (r / 32) % 16;
            let (a, b) = store.reference(band);
            Lab::new(50.0, a, b)
        })
        .collect();
    let cfg = SegmentationConfig::for_band_width(32.0);

    let mut g = c.benchmark_group("receiver");
    g.bench_function("segment_3264_rows", |b| {
        b.iter(|| segment(black_box(&signal), black_box(&cfg)))
    });
    let feats: Vec<Lab> = (0..16)
        .map(|i| {
            let (a, b) = store.reference(i);
            Lab::new(50.0, a + 0.5, b - 0.5)
        })
        .collect();
    g.bench_function("classify_16_bands", |b| {
        b.iter(|| {
            for f in black_box(&feats) {
                black_box(classify(*f, &store));
                black_box(nearest_color(*f, &store));
            }
        })
    });
    g.finish();
}

fn end_to_end_frame(c: &mut Criterion) {
    use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile};
    use colorbars_channel::OpticalChannel;
    use colorbars_core::segmentation::row_signal;
    use colorbars_core::{CskOrder, LinkConfig, Transmitter};

    let device = DeviceProfile::nexus5();
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio());
    let tx = Transmitter::new(cfg).unwrap();
    // About one data packet per frame: enough varied payload that every
    // frame of the decode set below carries its own symbols.
    let data: Vec<u8> = (0..tx.budget().k_bytes * 24)
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let tr = tx.transmit(&data);
    let emitter = tx.schedule(&tr);
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig::default(),
    );
    rig.settle_exposure(&emitter, 8);
    // Decode rotates over 16 distinct captures, so no iteration re-reads
    // the pixels of the one before it.
    const DECODE_FRAMES: usize = 16;
    assert!(emitter.duration() > 0.02 + DECODE_FRAMES as f64 * device.frame_period());
    let frames = rig.capture_video(&emitter, 0.02, DECODE_FRAMES);

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("capture_one_frame_3264x24", |b| {
        b.iter(|| rig.capture_frame(black_box(&emitter), 0.02))
    });
    let mut next = 0;
    g.bench_function("row_signal_3264x24", |b| {
        b.iter(|| {
            next = (next + 1) % frames.len();
            row_signal(black_box(&frames[next]))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    rs_codec,
    color_conversion,
    segmentation_and_classification,
    end_to_end_frame
);
criterion_main!(benches);
