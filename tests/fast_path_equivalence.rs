//! Equivalence suite: each layer's one fast path against its one oracle.
//!
//! The streaming capture pipeline (predecode cache, block compiler,
//! `PowerSink` emission, sub-trace memoization, chunked profiling
//! collection) and the fused segmenter are pure performance layers: every
//! output they produce must be bit-identical to the reference
//! implementations for the same inputs and RNG seed. These tests pin that
//! contract at the kernel level (all five sampler variants, cold and warm
//! scratch, deterministic cases and a proptest over random coefficient
//! sequences), at the segmentation level (every relaxation rung on clean,
//! corrupted and degenerate traces) and at the pipeline level (profiling
//! collection and the trained attack built from it).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    collect_profiling, collect_profiling_baseline, relaxation_schedule, AttackConfig, Device,
    TrainedAttack,
};
use reveal_chaos::ChaosPlan;
use reveal_rv32::block::{run_block, BlockCache, BlockCacheStats, BlockExit};
use reveal_rv32::cpu::{Bus, Cpu, Halt, QueueMmio};
use reveal_rv32::kernel::{KernelRun, KernelVariant, SamplerKernel, SamplerScratch};
use reveal_rv32::power::{PowerModelConfig, PowerRenderer, TraceBuffer};
use reveal_rv32::{assemble, static_leaders, Instruction, Program};
use reveal_trace::segment::{
    find_bursts_reference, refine_burst_ends_reference, refined_bursts_into, SegmentScratch,
};

const Q: u64 = 132_120_577;
const Q2: u64 = 12_289;

const VARIANTS: [KernelVariant; 5] = [
    KernelVariant::Vulnerable,
    KernelVariant::Branchless,
    KernelVariant::MaskedLadder,
    KernelVariant::Shuffled,
    KernelVariant::Ckks,
];

/// Asserts a fast-path run matches the oracle's run in every output.
fn assert_runs_match(fast: &KernelRun, oracle: &KernelRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fast.capture.samples, &oracle.capture.samples);
    prop_assert_eq!(&fast.capture.spans, &oracle.capture.spans);
    prop_assert_eq!(&fast.poly, &oracle.poly);
    prop_assert_eq!(&fast.shares, &oracle.shares);
    prop_assert_eq!(&fast.permutation, &oracle.permutation);
    prop_assert_eq!(&fast.coefficient_windows, &oracle.coefficient_windows);
    prop_assert_eq!(fast.instruction_count, oracle.instruction_count);
    Ok(())
}

/// Runs one input set through the fast path on a cold scratch (`run`) and
/// twice on the caller's `scratch` (the second run replays every burst from
/// a warm memo and dispatches already-compiled blocks), and asserts every
/// output matches the reference oracle bit for bit. The oracle shares no
/// code with the block compiler, the memo or the predecode cache.
fn assert_fast_path_identical(
    kernel: &SamplerKernel,
    values: &[i64],
    iterations: &[u32],
    config: &PowerModelConfig,
    seed: u64,
    scratch: &mut SamplerScratch,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let oracle = kernel
        .run_reference(values, iterations, config, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let cold = kernel.run(values, iterations, config, &mut rng).unwrap();
    assert_runs_match(&cold, &oracle)?;
    for _ in 0..2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let warm = kernel
            .run_into(values, iterations, config, &mut rng, scratch)
            .unwrap();
        assert_runs_match(&warm, &oracle)?;
    }
    Ok(())
}

#[test]
fn kernel_fast_path_is_bit_identical_on_all_variants() {
    let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
    let iterations = [4u32, 6, 4, 10, 4, 8, 6, 4];
    let mut scratch = SamplerScratch::new();
    for variant in VARIANTS {
        for moduli in [&[Q][..], &[Q, Q2][..]] {
            let kernel = SamplerKernel::with_variant(8, moduli, variant).unwrap();
            for sigma in [0.0, 0.05, 0.25] {
                let config = PowerModelConfig::default().with_noise_sigma(sigma);
                // Cold memo, then warm memo on a second pass.
                for pass in 0..2 {
                    assert_fast_path_identical(
                        &kernel,
                        &values,
                        &iterations,
                        &config,
                        0xFA57_0000 + pass,
                        &mut scratch,
                    )
                    .unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random coefficient sequences, burst lengths, variants, and noise:
    /// the block-compiled, memoized composition must never diverge from the
    /// reference oracle, on a cold or a warm scratch.
    #[test]
    fn kernel_fast_path_is_bit_identical_on_random_sequences(
        values in proptest::collection::vec(-41i64..=41, 8),
        iterations in proptest::collection::vec(4u32..=20, 8),
        variant_idx in 0usize..5,
        noisy in 0u8..2,
        seed in any::<u64>(),
    ) {
        let kernel = SamplerKernel::with_variant(8, &[Q], VARIANTS[variant_idx]).unwrap();
        let config = if noisy == 1 {
            PowerModelConfig::default()
        } else {
            PowerModelConfig::noiseless()
        };
        let mut scratch = SamplerScratch::new();
        assert_fast_path_identical(&kernel, &values, &iterations, &config, seed, &mut scratch)?;
    }
}

/// Drives `program` to halt through the block-dispatch loop (compile at
/// first execution, superinstruction execution with fused power emission,
/// store-overlap invalidation), mirroring the kernel's dispatch.
fn run_via_blocks(program: &Program, seed: u64) -> (TraceBuffer, Cpu<QueueMmio>, BlockCacheStats) {
    let mut bus = Bus::new(64 * 1024, QueueMmio::new());
    bus.load_words(0, &program.words);
    let mut cpu = Cpu::new(bus);
    cpu.predecode(0, program.words.len());
    let config = PowerModelConfig::default();
    let renderer = PowerRenderer::new(&config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = TraceBuffer::new();
    let instrs: Vec<Option<Instruction>> = program
        .words
        .iter()
        .map(|&w| Instruction::decode(w).ok())
        .collect();
    let leaders = static_leaders(&instrs, 0, &[]);
    let mut cache = BlockCache::new();
    cache.reset_program(0, program.words.len());
    let image = cache.image_range();
    let fuel = 10_000;
    let mut record_index = 0usize;
    let halt = loop {
        assert!(record_index < fuel, "runaway test program");
        let pc = cpu.pc();
        if cache.get(pc).is_some() {
            cache.stats.dispatch_hits += 1;
        } else {
            // Compile from current memory so a patched image is captured
            // faithfully, exactly as the kernel's dispatch does.
            let words: Vec<u32> = (0..program.words.len())
                .map(|i| cpu.bus.read_u32(4 * i as u32))
                .collect();
            cache.insert(&words, pc, &leaders);
        }
        match cache.get(pc) {
            Some(block) => {
                let run = run_block(
                    &mut cpu,
                    block,
                    &renderer,
                    &mut rng,
                    &mut sink,
                    record_index,
                    fuel,
                    &image,
                );
                record_index += run.executed;
                cache.stats.fused_samples += run.samples as u64;
                match run.exit {
                    BlockExit::Completed | BlockExit::OutOfFuel => {}
                    BlockExit::Halted(halt) => break halt,
                    BlockExit::SelfModified { addr } => cache.invalidate(addr),
                }
            }
            None => match cpu.step() {
                Ok(record) => {
                    renderer.render_record(record_index, &record, &mut rng, &mut sink);
                    record_index += 1;
                }
                Err(halt) => break halt,
            },
        }
    };
    assert_eq!(halt, Halt::Ebreak);
    (sink, cpu, cache.stats)
}

/// The same program, stepped one instruction at a time with per-record
/// rendering — the pre-block interpreter semantics.
fn run_via_steps(program: &Program, seed: u64) -> (TraceBuffer, Cpu<QueueMmio>) {
    let mut bus = Bus::new(64 * 1024, QueueMmio::new());
    bus.load_words(0, &program.words);
    let mut cpu = Cpu::new(bus);
    cpu.predecode(0, program.words.len());
    let config = PowerModelConfig::default();
    let renderer = PowerRenderer::new(&config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = TraceBuffer::new();
    let mut record_index = 0usize;
    let halt = loop {
        match cpu.step() {
            Ok(record) => {
                renderer.render_record(record_index, &record, &mut rng, &mut sink);
                record_index += 1;
            }
            Err(halt) => break halt,
        }
    };
    assert_eq!(halt, Halt::Ebreak);
    (sink, cpu)
}

#[test]
fn store_into_executed_block_invalidates_and_stays_bit_identical() {
    // A two-pass loop that patches its own body: pass 1 executes
    // `addi t1, t1, 1`, then stores a different encoding over that very
    // instruction *while the containing block is executing*. The block
    // cache must abort after the store, drop the stale block, recompile
    // from the patched image, and execute `addi t1, t1, 5` on pass 2 —
    // with samples and architectural state bit-identical to stepping.
    let patched = assemble("addi t1, t1, 5", 0).unwrap().words[0];
    let src = format!(
        "
        li   t2, 2
        loop:
        patch:
        addi t1, t1, 1
        la   t3, patch
        la   t5, newop
        lw   t4, 0(t5)
        sw   t4, 0(t3)
        addi t2, t2, -1
        bnez t2, loop
        ebreak
        newop: .word {patched:#010x}
        "
    );
    let program = assemble(&src, 0).unwrap();

    let (blocked, blocked_cpu, stats) = run_via_blocks(&program, 0xB10C);
    let (stepped, stepped_cpu) = run_via_steps(&program, 0xB10C);

    assert_eq!(blocked.samples(), stepped.samples());
    assert_eq!(blocked.spans(), stepped.spans());
    let t1 = reveal_rv32::Reg(6);
    assert_eq!(blocked_cpu.reg(t1), stepped_cpu.reg(t1));
    // Pass 1 added 1, pass 2 ran the patched instruction: the store really
    // did rewrite the executed block.
    assert_eq!(blocked_cpu.reg(t1), 6);
    // And the cache saw it: at least one invalidation, a recompile beyond
    // the initial discovery, and fused emission for every sample.
    assert!(stats.invalidations >= 1, "stats: {stats:?}");
    assert!(stats.blocks_compiled >= 2, "stats: {stats:?}");
    assert_eq!(stats.fused_samples as usize, blocked.samples().len());
}

#[test]
fn reference_path_is_bit_identical_too() {
    // The benchmark reference (per-step decode, materialized records,
    // sin-per-bit rendering) must agree with the streaming fast path on a
    // cold and on a warm scratch, one scratch shared across the variants.
    let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
    let iterations = [4u32, 6, 4, 10, 4, 8, 6, 4];
    let mut scratch = SamplerScratch::new();
    for variant in VARIANTS {
        let kernel = SamplerKernel::with_variant(8, &[Q], variant).unwrap();
        let config = PowerModelConfig::default();
        assert_fast_path_identical(&kernel, &values, &iterations, &config, 77, &mut scratch)
            .unwrap();
    }
}

/// Every rung of the robust driver's relaxation schedule segments through
/// `refined_bursts_into`; each must return exactly what the reference
/// detector followed by the reference refinement returns — bursts or error —
/// on clean paper-sized captures, chaos-corrupted copies, truncated traces
/// that take the unfused fallback, and degenerate inputs.
#[test]
fn relaxation_rungs_match_reference_segmentation() {
    let device = Device::new(
        1024,
        &[Q],
        PowerModelConfig::default().with_noise_sigma(0.05),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5E6_0001);
    let mut traces: Vec<(String, Vec<f64>)> = Vec::new();
    for k in 0..2u64 {
        let capture = device.capture_fresh(&mut rng).unwrap();
        let samples = &capture.run.capture.samples;
        for intensity in [0.25, 0.5, 1.0] {
            let injected = ChaosPlan::standard_sweep(k, intensity)
                .inject(samples, &capture.run.coefficient_windows);
            traces.push((format!("capture {k}, chaos {intensity}"), injected.samples));
        }
        traces.push((format!("capture {k}, first 300"), samples[..300].to_vec()));
        traces.push((format!("capture {k}"), samples.clone()));
    }
    let mut nan = traces[0].1.clone();
    nan[1234] = f64::NAN;
    let mut infinite = traces[0].1.clone();
    infinite[77_777] = f64::INFINITY;
    traces.push(("NaN".into(), nan));
    traces.push(("infinite".into(), infinite));
    traces.push(("empty".into(), Vec::new()));
    traces.push(("flat".into(), vec![1.0; 4096]));
    traces.push(("single sample".into(), vec![2.5]));

    let schedule = relaxation_schedule(&AttackConfig::default().segment);
    let mut scratch = SegmentScratch::new();
    for (rung, cfg) in schedule.iter().enumerate() {
        for (label, samples) in &traces {
            let oracle = find_bursts_reference(samples, cfg)
                .map(|bursts| refine_burst_ends_reference(samples, &bursts, cfg));
            let fast = refined_bursts_into(samples, cfg, &mut scratch);
            assert_eq!(fast, oracle, "rung {rung}, {label}");
        }
    }
}

#[test]
fn profiling_collection_is_bit_identical_to_baseline() {
    let device = Device::new(32, &[Q], PowerModelConfig::default()).unwrap();
    let config = AttackConfig::default();
    // 13 runs: one full 8-run chunk plus a ragged 5-run tail.
    let fast = collect_profiling(&device, 13, &config, 0x5EA1_BE9C).unwrap();
    let baseline = collect_profiling_baseline(&device, 13, &config, 0x5EA1_BE9C).unwrap();
    assert_eq!(fast.total_windows, baseline.total_windows);
    assert_eq!(fast.sign_set, baseline.sign_set);
    assert_eq!(fast.pos_set, baseline.pos_set);
    assert_eq!(fast.neg_set, baseline.neg_set);
}

#[test]
fn trained_attack_from_fast_path_matches_baseline_end_to_end() {
    // Train two attackers — one from each collection path — and verify they
    // produce identical per-coefficient estimates on the same fresh capture.
    let device = Device::new(64, &[Q], PowerModelConfig::default()).unwrap();
    let config = AttackConfig::default();
    let master_seed = 0xC0DE_F00D;

    let fast_data = collect_profiling(&device, 20, &config, master_seed).unwrap();
    let baseline_data = collect_profiling_baseline(&device, 20, &config, master_seed).unwrap();
    let fast_attack = TrainedAttack::fit(
        config.clone(),
        fast_data.sign_set,
        fast_data.pos_set,
        fast_data.neg_set,
        fast_data.total_windows,
    )
    .unwrap();
    let baseline_attack = TrainedAttack::fit(
        config,
        baseline_data.sign_set,
        baseline_data.pos_set,
        baseline_data.neg_set,
        baseline_data.total_windows,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let capture = device.capture_fresh(&mut rng).unwrap();
    let fast_result = fast_attack
        .attack_trace_expecting(&capture.run.capture.samples, 64)
        .unwrap();
    let baseline_result = baseline_attack
        .attack_trace_expecting(&capture.run.capture.samples, 64)
        .unwrap();
    assert_eq!(fast_result, baseline_result);
}
