//! Criterion benchmarks of the encoding layer: repair-pass throughput and
//! encode/decode speed — the software analogue of the decoder the paper
//! argues is cheap in hardware (Section 2.1).

use criterion::{criterion_group, criterion_main, Criterion};
use dra_adjgraph::DiffParams;
use dra_core::lowend::LowEndSetup;
use dra_encoding::{encode_fields, insert_set_last_reg_program, EncodingConfig};
use dra_regalloc::{allocate_program, AllocConfig, DenseIrc};
use std::hint::black_box;

fn bench_encoding(c: &mut Criterion) {
    // A program allocated with 12 registers, not yet repaired.
    let mut allocated = dra_workloads::benchmark("bitcount");
    let mut alloc_cfg = AllocConfig::baseline(12);
    alloc_cfg.call_clobbers = LowEndSetup::default().call_clobbers;
    allocate_program(&DenseIrc, &mut allocated, &alloc_cfg, false).unwrap();
    assert_eq!(allocated.count_insts(|i| i.is_set_last_reg()), 0, "input is unrepaired");
    let cfg = EncodingConfig::new(DiffParams::new(12, 8));
    // Field encoding needs the repairs in place.
    let mut repaired = allocated.clone();
    insert_set_last_reg_program(&mut repaired, &cfg);

    c.bench_function("repair-pass/bitcount", |b| {
        b.iter(|| {
            let mut p = allocated.clone();
            insert_set_last_reg_program(&mut p, &cfg);
            black_box(p);
        })
    });

    c.bench_function("encode-fields/bitcount", |b| {
        b.iter(|| {
            for f in &repaired.funcs {
                black_box(encode_fields(f, &cfg).unwrap());
            }
        })
    });

    c.bench_function("modulo-encode/1k-pairs", |b| {
        let params = DiffParams::new(64, 32);
        b.iter(|| {
            let mut acc = 0u32;
            for prev in 0..32u8 {
                for cur in 0..32u8 {
                    acc = acc.wrapping_add(params.encode(prev, cur) as u32);
                }
            }
            black_box(acc);
        })
    });
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
