//! Integration coverage of the §6 defense models: what each mitigation
//! stops, what it does not, and what it costs.

use tet_os::fgkaslr::{FunctionLayout, WELL_KNOWN_FUNCTIONS};
use tet_uarch::CpuConfig;
use whisper::analysis::{ArgmaxDecoder, Polarity};
use whisper::attacks::{TetKaslr, TetMeltdown, TetZombieload, ZBL_PROBE_BASE};
use whisper::batch::{decode_byte, ProbeMemo};
use whisper::gadget::{TetGadget, TetGadgetSpec};
use whisper::scenario::{victim_touch, Scenario, ScenarioOptions};

#[test]
fn fgkaslr_breaks_offset_tables_without_hiding_the_base() {
    // The base still leaks through TET-KASLR...
    let mut sc = Scenario::new(
        CpuConfig::comet_lake_i9_10980xe(),
        &ScenarioOptions {
            seed: 4242,
            ..ScenarioOptions::default()
        },
    );
    let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
    assert!(result.success);
    let base = result.found_base.expect("found");

    // ...but code-reuse targeting via the public offset table fails on
    // almost every FGKASLR boot.
    let attacker_table = FunctionLayout::standard(WELL_KNOWN_FUNCTIONS);
    let mut resolved_correctly = 0;
    let boots = 24;
    for boot in 0..boots {
        let truth = FunctionLayout::fgkaslr(WELL_KNOWN_FUNCTIONS, boot);
        let guess = attacker_table.resolve(base, "commit_creds");
        let actual = truth.resolve(base, "commit_creds");
        if guess == actual {
            resolved_correctly += 1;
        }
    }
    assert!(
        resolved_correctly <= boots / 6,
        "the attacker's table must miss on most boots ({resolved_correctly}/{boots} hits)"
    );
}

#[test]
fn kpti_kills_tet_meltdown_against_kernel_data() {
    // §6.2: "For TET-MD and TET-ZBL, the KPTI and the microcode updates
    // released by Intel are efficient mitigation."
    let secret = b"KPTI".to_vec();
    let mut sc = Scenario::new(
        CpuConfig::kaby_lake_i7_7700(), // Meltdown-vulnerable silicon!
        &ScenarioOptions {
            kernel_secret: secret.clone(),
            kpti: true,
            ..ScenarioOptions::default()
        },
    );
    let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
    assert!(
        !report.succeeded(&secret),
        "with KPTI the kernel data has no user-side translation to leak \
         through, got {:?}",
        report.recovered
    );
}

#[test]
fn buffer_scrubbing_kills_zombieload_per_transition() {
    let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
    sc.set_victim_byte(0, 0x77);

    // Unmitigated control.
    let clean = TetZombieload::default().sample_byte(&mut sc, 0);
    assert_eq!(clean.value, 0x77);

    // Mitigated: scrub between the victim's access and the attacker's
    // probe, as the deployed microcode does on privilege transitions.
    let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
    sc.set_victim_byte(0, 0x77);
    let cfg = sc.machine.config().clone();
    let gadget = TetGadget::build(TetGadgetSpec::zombieload(ZBL_PROBE_BASE, &cfg));
    // A hintless memo is disabled: every probe runs live.
    let mut memo = ProbeMemo::new(&sc.machine, None);
    let (out, _) = decode_byte(
        &mut sc.machine,
        &mut memo,
        ArgmaxDecoder::new(3, Polarity::MinWins),
        |m| {
            victim_touch(m, 0);
            m.mem_mut().lfb_mut().clear(); // verw on the boundary
        },
        |m, test| gadget.measure_detailed(m, test),
    );
    assert_ne!(out.value, 0x77, "scrubbed fill buffers must not leak");
}

#[test]
fn secure_tlb_fix_restores_kaslr() {
    // §6.3: "TLB entries should only be created if the access permission
    // check is passed" — with the fix *and* no walk retries (a permission
    // check folded into the walk), the mapped/unmapped differential is
    // gone and TET-KASLR collapses.
    let mut cfg = CpuConfig::comet_lake_i9_10980xe();
    cfg.vuln.tlb_fill_on_fault = false;
    cfg.vuln.early_fault_abort = true; // fault detected during the walk
    let mut sc = Scenario::new(
        cfg,
        &ScenarioOptions {
            seed: 31,
            ..ScenarioOptions::default()
        },
    );
    let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
    assert!(
        !result.success,
        "the secure-TLB hardware fix must restore KASLR (found {:?})",
        result.found_base
    );
}

#[test]
fn no_defense_in_this_suite_stops_the_cc_channel() {
    // The core point of §6.1: channel-specific defenses leave the TET
    // mechanism itself intact — TET-CC still works under every software
    // mitigation combination above.
    for (kpti, flare) in [(false, true), (true, false), (true, true)] {
        let mut sc = Scenario::new(
            CpuConfig::kaby_lake_i7_7700(),
            &ScenarioOptions {
                kpti,
                flare,
                ..ScenarioOptions::default()
            },
        );
        sc.sender_write(0x99);
        let (got, _) = whisper::channel::TetCovertChannel::new(2).receive_byte(&mut sc);
        assert_eq!(got, 0x99, "TET-CC must survive kpti={kpti} flare={flare}");
    }
}
