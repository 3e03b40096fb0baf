//! Criterion micro-benchmarks: component-level throughput of the
//! simulator's building blocks, the functional engines, the checkpoint
//! codec, plus end-to-end simulation speed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nwo_bpred::{ControlInfo, DirKind, DirPredictor, Predictor, PredictorConfig};
use nwo_core::{can_pack, gate_level, slot_result, width64, GatingConfig, PackConfig, WidthTag};
use nwo_isa::{assemble, Emulator, Opcode};
use nwo_mem::{Cache, CacheConfig};
use nwo_sim::{SimConfig, Simulator};
use nwo_workloads::benchmark;
use std::hint::black_box;

fn xorshift_values(n: usize) -> Vec<u64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix in narrow values half the time.
            if x & 1 == 0 {
                x & 0xffff
            } else {
                x
            }
        })
        .collect()
}

fn bench_width_detection(c: &mut Criterion) {
    let values = xorshift_values(4096);
    let mut group = c.benchmark_group("width-detection");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("width64", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &values {
                acc = acc.wrapping_add(width64(black_box(v)));
            }
            acc
        })
    });
    group.bench_function("tag+gate", |b| {
        let cfg = GatingConfig::default();
        b.iter(|| {
            let mut gated = 0u32;
            for pair in values.chunks(2) {
                let level = gate_level(WidthTag::of(pair[0]), WidthTag::of(pair[1]), &cfg);
                gated += level.active_bits();
            }
            gated
        })
    });
    group.finish();
}

fn bench_packing_logic(c: &mut Criterion) {
    let values = xorshift_values(4096);
    let cfg = PackConfig::default();
    let mut group = c.benchmark_group("packing-logic");
    group.throughput(Throughput::Elements((values.len() / 2) as u64));
    group.bench_function("can_pack+slot", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for pair in values.chunks(2) {
                let (a, b2) = (pair[0], pair[1]);
                if can_pack(
                    Opcode::Addq,
                    WidthTag::of(a),
                    WidthTag::of(b2),
                    black_box(&cfg),
                ) {
                    acc = acc.wrapping_add(slot_result(Opcode::Addq, a, b2));
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch-prediction");
    let pcs: Vec<u64> = (0..1024u64).map(|i| 0x1_0000 + i * 12).collect();
    group.throughput(Throughput::Elements(pcs.len() as u64));
    for (name, kind) in [
        ("bimodal", DirKind::Bimodal { entries: 2048 }),
        (
            "gshare",
            DirKind::GShare {
                entries: 4096,
                history_bits: 12,
            },
        ),
        ("combining", DirKind::Combining),
    ] {
        group.bench_function(name, |b| {
            let mut p = DirPredictor::new(kind);
            b.iter(|| {
                let mut taken = 0u32;
                for &pc in &pcs {
                    taken += p.predict(pc) as u32;
                    p.update(pc, pc & 8 != 0);
                }
                taken
            })
        });
    }
    group.bench_function("full-predictor", |b| {
        let mut p = Predictor::new(PredictorConfig::default());
        let info = ControlInfo {
            is_cond: true,
            is_call: false,
            is_return: false,
            is_indirect: false,
            direct_target: Some(0x4000),
            return_addr: 0,
        };
        b.iter(|| {
            let mut taken = 0u32;
            for &pc in &pcs {
                taken += p.predict(pc, &info).taken as u32;
                p.update(pc, &info, pc & 4 != 0, 0x4000, None);
            }
            taken
        })
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let addrs: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) & 0xf_ffff).collect();
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("l1-64k-2way", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::l1_table1()),
            |mut cache| {
                let mut hits = 0u64;
                for &a in &addrs {
                    hits += cache.access(a, a & 3 == 0).hit as u64;
                }
                hits
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let source = {
        let mut s = String::from("main:\n");
        for i in 0..500 {
            s.push_str(&format!(
                "    addq r{}, {}, r{}\n",
                i % 8 + 1,
                i % 200,
                i % 8 + 1
            ));
        }
        s.push_str("    halt\n");
        s
    };
    let mut group = c.benchmark_group("assembler");
    group.throughput(Throughput::Elements(501));
    group.bench_function("assemble-501-instrs", |b| {
        b.iter(|| assemble(black_box(&source)).expect("assembles"))
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let bench = benchmark("perl", 1).expect("known benchmark");
    let icount = {
        let mut emu = Emulator::new(&bench.program);
        emu.run(u64::MAX).expect("halts");
        emu.icount()
    };
    let mut group = c.benchmark_group("end-to-end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(icount));
    group.bench_function("emulator", |b| {
        b.iter(|| {
            let mut emu = Emulator::new(&bench.program);
            emu.run(u64::MAX).expect("halts");
            emu.icount()
        })
    });
    group.bench_function("sim-baseline", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&bench.program, SimConfig::default());
            sim.run(u64::MAX).expect("halts").stats.committed
        })
    });
    group.bench_function("sim-packing", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(
                &bench.program,
                SimConfig::default().with_packing(PackConfig::with_replay()),
            );
            sim.run(u64::MAX).expect("halts").stats.committed
        })
    });
    group.finish();
}

/// The functional engines on compress, per instruction: the bare
/// emulator, the simulator's warmup (caches and predictor, no timing),
/// and that warmup under the lockstep oracle. Scale 4 (2.1M
/// instructions) fits several verified warmups into the sample budget.
fn bench_functional_engines(c: &mut Criterion) {
    let bench = benchmark("compress", 4).expect("known benchmark");
    let insts = Emulator::new(&bench.program).run(u64::MAX).expect("halts");
    let mut group = c.benchmark_group("functional-engines");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts));
    group.bench_function("emulator", |b| {
        b.iter(|| {
            let mut emu = Emulator::new(&bench.program);
            emu.run(u64::MAX).expect("halts")
        })
    });
    for (name, config) in [
        ("warmup", SimConfig::default()),
        ("warmup+verify", SimConfig::default().with_verify()),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || Simulator::new(&bench.program, config.clone()),
                |mut sim| sim.warmup(insts).expect("warms"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The checkpoint codec: the CRC over 4 MiB, and saving and restoring
/// compress warmed up to 50 000 instructions before its halt (a blob
/// of about 5 MB, nearly all of it the L2's untouched lines).
fn bench_checkpoint_codec(c: &mut Criterion) {
    let bytes: Vec<u8> = xorshift_values(1 << 19)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut group = c.benchmark_group("checkpoint-codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("crc32-4MiB", |b| {
        b.iter(|| nwo_ckpt::crc32(black_box(&bytes)))
    });
    // Shaped like a hierarchy section: one 4 KiB block in 33 holds
    // data, the rest are untouched all-zero chunks (97% zero runs).
    let sparse: Vec<u8> = bytes
        .chunks(4096)
        .enumerate()
        .flat_map(|(i, block)| block.iter().map(move |&b| if i % 33 == 0 { b } else { 0 }))
        .collect();
    group.bench_function("crc32-4MiB-sparse", |b| {
        b.iter(|| nwo_ckpt::crc32(black_box(&sparse)))
    });

    let bench = benchmark("compress", nwo_workloads::experiment_scale("compress"))
        .expect("known benchmark");
    let insts = Emulator::new(&bench.program).run(u64::MAX).expect("halts");
    let config = SimConfig::default().with_packing(PackConfig::with_replay());
    let mut warm = Simulator::new(&bench.program, config.clone());
    warm.warmup(insts.saturating_sub(50_000)).expect("warms");
    let blob = warm.checkpoint();
    group.sample_size(20);
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("checkpoint", |b| b.iter(|| warm.checkpoint().len()));
    group.bench_function("restore_checkpoint", |b| {
        b.iter_batched(
            || Simulator::new(&bench.program, config.clone()),
            |mut sim| sim.restore_checkpoint(black_box(&blob)).expect("restores"),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_width_detection,
    bench_packing_logic,
    bench_predictors,
    bench_cache,
    bench_assembler,
    bench_end_to_end,
    bench_functional_engines,
    bench_checkpoint_codec
);
criterion_main!(benches);
