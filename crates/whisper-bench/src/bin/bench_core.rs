//! Core hot-path benchmark: times the Figure 1a gadget probe, the full
//! covert-channel decode sweep, a snapshot-fork trial, the Table 2
//! matrix at `--threads 1` vs the effective worker count, the raw
//! simulator kernels and the per-cycle hot-path structures, then writes
//! the numbers to `BENCH_core.json` (schema-v2 [`RunReport`] JSON) at the
//! repository root. It is the repository's one performance harness.
//!
//! Run: `cargo run --release -p whisper-bench --bin bench_core [--smoke] [--threads N] [--out PATH]`
//!
//! `--smoke` cuts iteration counts so CI can track the numbers in
//! seconds rather than minutes; the JSON shape is identical, with
//! `meta.mode = "smoke"` marking the cheap run.
//!
//! One sample judges nothing on a shared host. The bench gate,
//! `scripts/bench.sh --pair REV`, compares alternating smoke pairs of
//! REV's binary and this one on the keys `whisper_bench::baseline::
//! direction_for` directs. The sweep, warm-up, `live_probe.*`,
//! `kernel.*` and `structures.*` keys are recorded but not gated.
//! `decode_sweep_noisy` repeats the decode sweep under the §4.1
//! timer-interrupt noise (period 7919); `kaslr_sweep` times one §4.5
//! `break_kaslr` on a plain i7-7700 scenario. Both also count the
//! probes batching leaves live (`*.live_probes`, simulated runs minus
//! replayed ones on a fresh scenario), which do not depend on the host.
//! `live_probe.{cc,md,zbl,rsb}_ns` time one warm live probe of each
//! decode gadget. The `structures.*` legs run their full counts in smoke
//! mode too.

use std::hint::black_box;
use std::time::Instant;

use tet_isa::{Asm, Cond, Reg};
use tet_mem::{Cache, CacheConfig, Pte, Tlb, TlbConfig};
use tet_uarch::frontend::Dsb;
use tet_uarch::{Bpu, BpuConfig, CpuConfig, Machine, RunConfig};
use whisper::attacks::{TetKaslr, TetMeltdown, TetSpectreRsb, ZBL_PROBE_BASE};
use whisper::channel::TetCovertChannel;
use whisper::eval::run_table2_matrix_detailed;
use whisper::gadget::{RsbGadget, TetGadget, TetGadgetSpec};
use whisper::scenario::{victim_touch, Scenario, ScenarioOptions, STACK_TOP};
use whisper_bench::{section, RunReport};

/// Median ns/iteration over `samples` timing windows of `iters` calls.
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        medians.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

/// Runs `f` and returns how many of the runs it made on the scenario's
/// machine were simulated rather than replayed by trial batching.
fn live_runs(sc: &mut Scenario, f: impl FnOnce(&mut Scenario)) -> u64 {
    let (runs, replayed) = (sc.machine.stats().runs, sc.machine.replayed_runs());
    f(sc);
    (sc.machine.stats().runs - runs) - (sc.machine.replayed_runs() - replayed)
}

/// Median host ns of one live probe over `samples` windows of `iters`
/// probes. `before` runs ahead of every probe, outside the timed span.
/// Test values walk the 255 bytes other than `hint`, so every probe
/// takes the non-matching path most of a decode sweep's probes take.
fn live_probe_ns(
    samples: usize,
    iters: usize,
    machine: &mut Machine,
    hint: u64,
    mut before: impl FnMut(&mut Machine),
    mut probe: impl FnMut(&mut Machine, u64) -> Option<(u64, u64)>,
) -> f64 {
    let mut medians = Vec::with_capacity(samples);
    let mut k = 0u64;
    for _ in 0..samples {
        let mut ns = 0u128;
        for _ in 0..iters {
            before(machine);
            let test = (hint + 1 + k % 255) % 256;
            k += 1;
            let t = Instant::now();
            black_box(probe(machine, test));
            ns += t.elapsed().as_nanos();
        }
        medians.push(ns as f64 / iters as f64);
    }
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = tet_par::threads_from_args(&mut args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_core.json".to_string());

    let mut rep = RunReport::new("bench_core");
    rep.set_meta("mode", if smoke { "smoke" } else { "full" });
    rep.host_available_parallelism = Some(tet_par::default_threads() as u64);
    let started = Instant::now();
    // Simulated-cycles-per-host-second, measured on the decode sweep (the
    // dominant single-thread workload of every experiment binary).
    let mut sim_rate = None;

    section("fig1 gadget probe (one Machine::run through the transient window)");
    {
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let mut sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
        sc.sender_write(0xa5);
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
        gadget.measure(&mut sc.machine, 0); // warm
        let (samples, iters) = if smoke { (5, 200) } else { (15, 2000) };
        let ns = median_ns(samples, iters, || {
            gadget.measure(&mut sc.machine, 0xa5);
        });
        println!("  {ns:.0} ns/iter (median of {samples} x {iters})");
        rep.scalar("fig1_probe.ns_per_iter", ns);
    }

    section("covert-channel decode sweep (256 probes, argmax)");
    {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        sc.sender_write(0x5a);
        let ch = TetCovertChannel::new(1);
        let (samples, iters) = if smoke { (3, 2) } else { (7, 5) };
        let ns = median_ns(samples, iters, || {
            ch.receive_byte(&mut sc);
        });
        // One instrumented sweep: its retired-µop count turns the
        // wall-clock figure into a per-µop cost, the number that stays
        // comparable when batching replays trials instead of
        // simulating them (replays retire nothing but are billed the
        // recorded counters, so the µop count matches the unbatched
        // sweep).
        let pmu_before = sc.machine.pmu_lifetime().clone();
        let (_, cycles_per_sweep) = ch.receive_byte(&mut sc);
        let uops_per_sweep = sc
            .machine
            .pmu_lifetime()
            .delta(&pmu_before)
            .count(tet_pmu::Event::UopsRetiredAll);
        let ns_per_uop = ns / uops_per_sweep.max(1) as f64;
        if ns > 0.0 {
            sim_rate = Some(cycles_per_sweep as f64 / (ns * 1e-9));
        }
        println!("  {ns:.0} ns/iter (median of {samples} x {iters})");
        println!("  {ns_per_uop:.1} ns/µop over {uops_per_sweep} retired µops per sweep");
        rep.scalar("decode_sweep.ns_per_iter", ns);
        rep.scalar("decode_sweep.ns_per_uop", ns_per_uop);
        rep.counter("decode_sweep.retired_uops", uops_per_sweep);
        rep.counter("decode_sweep.sim_cycles", cycles_per_sweep);
    }

    section("covert-channel decode sweep under timer-interrupt noise (period 7919)");
    {
        // The same sweep with the §4.1 noise on: probes replay only
        // inside the interrupt window, so this leg tracks the
        // noise-aware batching path. Informational (not gated).
        let opts = ScenarioOptions {
            interrupt_period: 7919,
            ..ScenarioOptions::default()
        };
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts);
        sc.sender_write(0x5a);
        let ch = TetCovertChannel::new(1);
        let (samples, iters) = if smoke { (3, 2) } else { (7, 5) };
        let ns = median_ns(samples, iters, || {
            ch.receive_byte(&mut sc);
        });
        println!("  {ns:.0} ns/sweep (median of {samples} x {iters})");
        rep.scalar("decode_sweep_noisy.sweep_ns", ns);
        // Host-independent: how many probes batching leaves to simulate
        // on eight §4.1 bytes (3 batches, 768 probes and one warm-up
        // probe each) decoded on a fresh noisy scenario.
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts);
        let live = live_runs(&mut sc, |sc| {
            for byte in [0x5a, 0xc3, 0x00, 0xff, 0x17, 0x80, 0x3c, 0xa5] {
                sc.sender_write(byte);
                TetCovertChannel::default().receive_byte(sc);
            }
        });
        println!("  {live} live probes over 8 bytes (3 batches each)");
        rep.counter("decode_sweep_noisy.live_probes", live);
    }

    section("TET-KASLR slot sweep (512 slots, one break_kaslr)");
    {
        // One §4.5 break per iteration on a scenario built outside the
        // timed window: unmapped-slot probes replay through the probe
        // memo, so this leg tracks the KASLR fast path. Informational
        // (not gated).
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let attack = TetKaslr::default();
        let (samples, iters) = if smoke { (5, 20) } else { (15, 200) };
        let ns = median_ns(samples, iters, || {
            black_box(attack.break_kaslr(&mut sc.machine, &sc.kernel));
        });
        println!("  {ns:.0} ns/sweep (median of {samples} x {iters})");
        rep.scalar("kaslr_sweep.sweep_ns", ns);
        // Host-independent: the slot probes (and the warm-up probe) one
        // sweep on a fresh scenario simulates rather than replays.
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let live = live_runs(&mut sc, |sc| {
            attack.break_kaslr(&mut sc.machine, &sc.kernel);
        });
        println!("  {live} of 513 probes live");
        rep.counter("kaslr_sweep.live_probes", live);
    }

    section("live probes (one warm measure_detailed per decode gadget, i7-7700)");
    {
        // Each gadget is warmed the way its attack warms it; every probe
        // runs live (no memo). TET-ZBL's victim touch precedes each
        // probe but is not timed. Informational (not gated).
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let opts = ScenarioOptions::default();
        let (samples, iters) = if smoke { (5, 200) } else { (15, 2000) };
        let mut legs = Vec::new();

        let mut sc = Scenario::new(cfg.clone(), &opts);
        sc.sender_write(0xa5);
        let g = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
        g.measure(&mut sc.machine, 0);
        let ns = live_probe_ns(
            samples,
            iters,
            &mut sc.machine,
            0xa5,
            |_| {},
            |m, t| g.measure_detailed(m, t),
        );
        legs.push(("cc", ns));

        let mut sc = Scenario::new(cfg.clone(), &opts);
        let g = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg));
        for _ in 0..TetMeltdown::default().warmup {
            g.measure(&mut sc.machine, 0);
        }
        let hint = g.match_hint(&sc.machine).expect("equality gadget");
        let ns = live_probe_ns(
            samples,
            iters,
            &mut sc.machine,
            hint,
            |_| {},
            |m, t| g.measure_detailed(m, t),
        );
        legs.push(("md", ns));

        let mut sc = Scenario::new(cfg.clone(), &opts);
        sc.set_victim_byte(0, b'L');
        let g = TetGadget::build(TetGadgetSpec::zombieload(ZBL_PROBE_BASE, &cfg));
        sc.victim_touch(0);
        for _ in 0..3 {
            g.measure(&mut sc.machine, 0);
        }
        let touch = |m: &mut Machine| victim_touch(m, 0);
        let ns = live_probe_ns(
            samples,
            iters,
            &mut sc.machine,
            u64::from(b'L'),
            touch,
            |m, t| g.measure_detailed(m, t),
        );
        legs.push(("zbl", ns));

        let mut sc = Scenario::new(cfg.clone(), &opts);
        let g = RsbGadget::build(
            sc.user_secret_va,
            STACK_TOP,
            TetSpectreRsb::default().sea_nops,
        );
        for _ in 0..4 {
            g.measure(&mut sc.machine, 0);
        }
        let hint = g.match_hint(&sc.machine).expect("secret byte");
        let ns = live_probe_ns(
            samples,
            iters,
            &mut sc.machine,
            hint,
            |_| {},
            |m, t| g.measure_detailed(m, t),
        );
        legs.push(("rsb", ns));

        for (id, ns) in legs {
            println!("  {id:<4} {ns:>8.0} ns/probe (median of {samples} x {iters})");
            rep.scalar(&format!("live_probe.{id}_ns"), ns);
        }
    }

    section("snapshot fork trial (restore + probe from a shared snapshot)");
    {
        let cfg = CpuConfig::kaby_lake_i7_7700();
        // The once-per-campaign warm-up (cold measure through the
        // transient window plus freezing the warm state into a
        // snapshot) is timed separately from the per-trial loop — it
        // amortizes across every forked trial, so folding it into the
        // trial median would both inflate the trial figure and hide
        // warm-up regressions.
        let (warmup_samples, trial_iters) = if smoke { (3, 200) } else { (7, 2000) };
        let samples = if smoke { 5 } else { 15 };
        let mut warmups = Vec::with_capacity(warmup_samples);
        for _ in 0..warmup_samples {
            let mut sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
            sc.sender_write(0xa5);
            let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
            let t = Instant::now();
            gadget.measure(&mut sc.machine, 0);
            let snap = sc.machine.snapshot();
            warmups.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(&snap);
        }
        warmups.sort_by(f64::total_cmp);
        let warmup_ns = warmups[warmups.len() / 2];

        let mut sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
        sc.sender_write(0xa5);
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
        gadget.measure(&mut sc.machine, 0); // warm, then freeze the warm state
        let snap = sc.machine.snapshot();
        let mut m = Machine::from_snapshot(&snap);
        // The combined restore+probe loop stays untouched so that
        // `ns_per_trial` means what it meant at every earlier revision a
        // bench pair may build.
        let ns = median_ns(samples, trial_iters, || {
            m.restore(&snap);
            gadget.measure(&mut m, 0xa5);
        });
        // Paired timers split the same trial into its two legs, so a
        // restore-path regression cannot hide behind simulation time
        // (restore is a small slice of a trial once restores are
        // O(touched)). Medians over the same sample windows.
        let (restore_ns, simulate_ns) = {
            let mut restore_meds = Vec::with_capacity(samples);
            let mut simulate_meds = Vec::with_capacity(samples);
            for _ in 0..samples {
                let (mut rest, mut sim) = (0u64, 0u64);
                for _ in 0..trial_iters {
                    let t = Instant::now();
                    m.restore(&snap);
                    rest += t.elapsed().as_nanos() as u64;
                    let t = Instant::now();
                    gadget.measure(&mut m, 0xa5);
                    sim += t.elapsed().as_nanos() as u64;
                }
                restore_meds.push(rest as f64 / trial_iters as f64);
                simulate_meds.push(sim as f64 / trial_iters as f64);
            }
            restore_meds.sort_by(f64::total_cmp);
            simulate_meds.sort_by(f64::total_cmp);
            (
                restore_meds[restore_meds.len() / 2],
                simulate_meds[simulate_meds.len() / 2],
            )
        };
        let stats = m.stats();
        println!(
            "  {ns:.0} ns/trial (median of {samples} x {trial_iters}), \
             {} restores, {} cycles fast-forwarded",
            stats.snapshot_restores, stats.ff_skipped_cycles
        );
        println!("  {restore_ns:.0} ns restore + {simulate_ns:.0} ns simulate (split legs)");
        println!(
            "  {warmup_ns:.0} ns warm-up (cold measure + snapshot, median of {warmup_samples})"
        );
        rep.scalar("snapshot_fork.ns_per_trial", ns);
        rep.scalar("snapshot_fork.restore_ns", restore_ns);
        rep.scalar("snapshot_fork.simulate_ns", simulate_ns);
        rep.scalar("snapshot_fork.warmup_ns", warmup_ns);
        rep.counter("snapshot_fork.restores", stats.snapshot_restores);
        rep.counter("snapshot_fork.ff_skipped_cycles", stats.ff_skipped_cycles);
    }

    // The parallel legs run on min(requested, host) workers: on a
    // 1-CPU container the old `threads.max(8)` label made
    // `table2.speedup` look like an 8-way result that mysteriously
    // delivered 1x. `threads_n` records the *effective* worker count
    // (what the speedup is relative to) and `threads_requested` keeps
    // the asked-for fan-out.
    let requested = threads.max(8);
    let host = tet_par::default_threads().max(1);
    let effective = requested.min(host);

    section("Table 2 matrix wall time (threads 1 vs N)");
    {
        let t1 = Instant::now();
        let (serial, stats) = run_table2_matrix_detailed(42, 1);
        let serial_s = t1.elapsed().as_secs_f64();
        let ns_per_trial = serial_s * 1e9 / stats.runs.max(1) as f64;
        if host == 1 {
            // A 1-CPU host reruns the exact same serial matrix on the
            // "parallel" leg: the 0.88x "speedup" that measures is
            // scheduler noise, not parallel scaling. Skip the leg and
            // leave `table2.speedup`/`threadsN_seconds` absent: a key
            // that neither side of a bench pair reports is not gated.
            println!(
                "  threads=1: {serial_s:.3} s   {ns_per_trial:.0} ns/trial over {} trials \
                 (single-CPU host: parallel leg skipped, speedup not measured)",
                stats.runs
            );
        } else {
            let tn = Instant::now();
            let (parallel, _) = run_table2_matrix_detailed(42, effective);
            let parallel_s = tn.elapsed().as_secs_f64();
            assert_eq!(serial, parallel, "matrix must be thread-count invariant");
            println!(
                "  threads=1: {serial_s:.3} s   threads={effective}: {parallel_s:.3} s   \
                 speedup {:.2}x   {:.0} ns/trial over {} trials",
                serial_s / parallel_s,
                ns_per_trial,
                stats.runs
            );
            rep.scalar("table2.threadsN_seconds", parallel_s);
            rep.scalar("table2.speedup", serial_s / parallel_s);
        }
        rep.scalar("table2.threads1_seconds", serial_s);
        rep.scalar("table2.ns_per_trial", ns_per_trial);
        rep.counter("table2.threads_n", effective as u64);
        rep.counter("table2.threads_requested", requested as u64);
        rep.counter("table2.trials", stats.runs);
        rep.counter("table2.sim_cycles", stats.sim_cycles);
        rep.counter("table2.ff_skipped_cycles", stats.ff_skipped_cycles);
        rep.counter("table2.ff_sprints", stats.ff_sprints);
        rep.counter("table2.snapshot_restores", stats.snapshot_restores);
        rep.counter("table2.l1_hits", stats.l1_hits);
        rep.counter("table2.l1_misses", stats.l1_misses);
        rep.counter("table2.dtlb_walks", stats.dtlb_walks);
        rep.counter("table2.branches", stats.branches);
        rep.counter("table2.br_mispredicts", stats.br_mispredicts);
    }

    section("simulator kernels (one Machine::run per iteration)");
    {
        // The substrate cost every experiment pays, free of any attack
        // gadget: straight-line ALU work, a predicted loop, loads that
        // each miss the dTLB and walk the page tables, and a transient
        // window's shape — one DRAM miss with 150 µops parked behind it.
        let cfg = CpuConfig::kaby_lake_i7_7700();
        let run = RunConfig::default();
        let (samples, iters) = if smoke { (5, 20) } else { (15, 200) };

        let mut a = Asm::new();
        for i in 0..500 {
            a.mov_imm(Reg::Rax, i).add(Reg::Rbx, Reg::Rax);
        }
        a.halt();
        let straight = a.assemble().expect("program is closed");
        let mut m = Machine::new(cfg.clone(), 1);
        m.run(&straight, &run); // warm
        let straight_ns = median_ns(samples, iters, || {
            black_box(m.run(&straight, &run));
        });

        let mut a = Asm::new();
        let top = a.fresh_label();
        a.mov_imm(Reg::Rcx, 200);
        a.bind(top)
            .nops(4)
            .sub(Reg::Rcx, 1u64)
            .jcc(Cond::Ne, top)
            .halt();
        let branchy = a.assemble().expect("program is closed");
        let mut m = Machine::new(cfg.clone(), 1);
        m.run(&branchy, &run); // warm
        let branchy_ns = median_ns(samples, iters, || {
            black_box(m.run(&branchy, &run));
        });

        let mut m = Machine::new(cfg.clone(), 1);
        let mut a = Asm::new();
        for i in 0..16u64 {
            m.map_user_page(0x100_0000 + i * 4096);
            a.load_abs(Reg::Rax, 0x100_0000 + i * 4096);
        }
        a.halt();
        let loads = a.assemble().expect("program is closed");
        m.run(&loads, &run); // warm
        let loads_ns = median_ns(samples, iters, || {
            m.flush_tlbs();
            black_box(m.run(&loads, &run));
        });

        let mut m = Machine::new(cfg, 1);
        m.map_user_page(0x200_0000);
        let mut a = Asm::new();
        a.load_abs(Reg::Rax, 0x200_0000);
        for _ in 0..75 {
            a.add(Reg::Rax, 1u64).add(Reg::Rbx, Reg::Rax);
        }
        a.halt();
        let window = a.assemble().expect("program is closed");
        m.run(&window, &run); // warm
        let window_ns = median_ns(samples, iters, || {
            m.clflush_virt(0x200_0000);
            black_box(m.run(&window, &run));
        });

        for (id, ns) in [
            ("straight_line_1k_insts", straight_ns),
            ("branchy_loop_200_iters", branchy_ns),
            ("tlb_miss_loads_16_pages", loads_ns),
            ("parked_window", window_ns),
        ] {
            println!("  {id:<24} {ns:>9.0} ns/iter (median of {samples} x {iters})");
            rep.scalar(&format!("kernel.{id}_ns"), ns);
        }
    }

    section("hot-path structures (1024 operations per iteration)");
    {
        // The per-cycle structures in isolation: L1d-like cache hits and
        // streaming fills (every fill evicts the set's LRU way), dTLB
        // hits, DSB hits, BTB-backed conditional prediction, `Machine`
        // construction (the whole hierarchy, LLC included), and cloning
        // and forking the warmed §4.1 covert-channel machine — the copies
        // `TetCovertChannel::transmit_chunked` makes per message. Smoke
        // runs keep the full counts: a 5 x 20 median of these sub-µs
        // legs moves with code layout alone.
        let (samples, iters) = (15, 200);
        let l1_like = || Cache::new(CacheConfig::new(64, 8, 4));

        let mut cache = l1_like();
        for i in 0..512u64 {
            cache.fill(i * 64);
        }
        let cache_hit_ns = median_ns(samples, iters, || {
            black_box(
                (0..1024u64)
                    .filter(|i| cache.lookup((i % 512) * 64))
                    .count(),
            );
        });

        let mut cache = l1_like();
        let mut next = 0u64;
        let cache_fill_ns = median_ns(samples, iters, || {
            let mut evicted = 0u64;
            for _ in 0..1024 {
                evicted += u64::from(cache.fill(next * 64).is_some());
                next += 1;
            }
            black_box(evicted);
        });

        let mut tlb = Tlb::new(TlbConfig::new(16, 4));
        for page in 0..64u64 {
            tlb.fill(page << 12, Pte::user_data(page));
        }
        let tlb_hit_ns = median_ns(samples, iters, || {
            black_box(
                (0..1024u64)
                    .filter(|i| tlb.lookup((i % 64) << 12).is_some())
                    .count(),
            );
        });

        let mut dsb = Dsb::new(1536);
        for pc in 0..32 {
            dsb.insert(pc);
        }
        let dsb_hit_ns = median_ns(samples, iters, || {
            black_box((0..1024usize).filter(|i| dsb.lookup(i % 32)).count());
        });

        let mut bpu = Bpu::new(BpuConfig::default());
        for pc in 0..16 {
            for _ in 0..16 {
                bpu.resolve_cond(pc, true, pc + 100);
            }
        }
        let btb_ns = median_ns(samples, iters, || {
            black_box(
                (0..1024usize)
                    .filter(|i| bpu.predict_cond(i % 16, i % 16 + 1, i % 16 + 100).from_btb)
                    .count(),
            );
        });

        let cfg = CpuConfig::kaby_lake_i7_7700();
        let machine_new_ns = median_ns(samples, iters, || {
            black_box(Machine::new(cfg.clone(), 1));
        });

        let opts = ScenarioOptions {
            interrupt_period: 7919,
            ..ScenarioOptions::default()
        };
        let mut sc = Scenario::new(cfg.clone(), &opts);
        sc.sender_write(0xa5);
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
        gadget.measure(&mut sc.machine, 0);
        let snap = sc.machine.snapshot();
        let machine_clone_ns = median_ns(samples, iters, || {
            black_box(sc.machine.clone());
        });
        let from_snapshot_ns = median_ns(samples, iters, || {
            black_box(Machine::from_snapshot(&snap));
        });

        for (id, ns) in [
            ("cache_lookup_hit_x1024", cache_hit_ns),
            ("cache_fill_evict_x1024", cache_fill_ns),
            ("tlb_lookup_hit_x1024", tlb_hit_ns),
            ("dsb_lookup_hit_x1024", dsb_hit_ns),
            ("btb_predict_cond_x1024", btb_ns),
            ("machine_new", machine_new_ns),
            ("machine_clone", machine_clone_ns),
            ("from_snapshot", from_snapshot_ns),
        ] {
            // Building a machine is a few dozen allocations: the leg
            // measures the allocator's size classes more than our code.
            let note = if id == "machine_new" {
                " (allocator-bound)"
            } else {
                ""
            };
            println!("  {id:<24} {ns:>9.0} ns/iter (median of {samples} x {iters}){note}");
            rep.scalar(&format!("structures.{id}_ns"), ns);
        }
    }

    rep.set_throughput(started.elapsed(), threads, None);
    rep.sim_cycles_per_sec = sim_rate;
    std::fs::write(&out, rep.to_json()).expect("write BENCH_core.json");
    println!("\nwrote {out}");
}
