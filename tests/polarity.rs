//! The per-attack polarity table (DESIGN.md §1): on every preset where
//! `tests/table2.rs` pins an attack as working, the sign of
//! ToTE(match) − ToTE(non-match) is the one its mechanism predicts.
//!
//! * TET-CC and TET-MD: a match **lengthens** ToTE (exception-entry
//!   serialization waits for the in-window Jcc's recovery).
//! * TET-ZBL and TET-RSB: a match **shortens** ToTE (the inner squash
//!   leaves the terminal squash fewer µops to flush).
//! * TET-KASLR: the mapped slot times **below** the unmapped median on
//!   the Intel presets (walk retry on unmapped slots); on Zen 3 the gap
//!   stays under the detection threshold.
//!
//! Each attack's gadget is warmed the way its `leak_byte` warms it, the
//! machine is snapshotted, and both probes start from that snapshot, so
//! neither measurement sees the other's effects.

use tet_os::layout::{slot_base, NUM_SLOTS};
use tet_uarch::{CpuConfig, MachineSnapshot};
use whisper::attacks::{TetKaslr, TetMeltdown, TetSpectreRsb, ZBL_PROBE_BASE};
use whisper::gadget::{RsbGadget, TetGadget, TetGadgetSpec};
use whisper::scenario::{Scenario, ScenarioOptions, STACK_TOP};

/// The scenario seed `tests/table2.rs` pins its matrix with.
fn scenario(cfg: &CpuConfig) -> Scenario {
    let opts = ScenarioOptions {
        seed: 42,
        ..ScenarioOptions::default()
    };
    Scenario::new(cfg.clone(), &opts)
}

fn preset(name: &str) -> CpuConfig {
    CpuConfig::table2_presets()
        .into_iter()
        .find(|c| c.name == name)
        .expect("Table 2 preset")
}

/// ToTE of `probe(sc, test)` on `sc.machine` restored to `snap`.
fn tote_at(
    sc: &mut Scenario,
    snap: &MachineSnapshot,
    test: u64,
    probe: &impl Fn(&mut Scenario, u64) -> Option<u64>,
) -> u64 {
    sc.machine.restore(snap);
    probe(sc, test).expect("probe completes")
}

/// Which way a match moves ToTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sign {
    Longer,
    Shorter,
}

/// Snapshots the warmed `sc`, measures ToTE at `secret` and at a
/// non-matching value from the snapshot, and asserts `sign`.
fn assert_polarity(
    attack: &str,
    sc: &mut Scenario,
    secret: u8,
    sign: Sign,
    probe: impl Fn(&mut Scenario, u64) -> Option<u64>,
) {
    let snap = sc.machine.snapshot();
    let hit = tote_at(sc, &snap, u64::from(secret), &probe);
    let miss = tote_at(sc, &snap, u64::from(secret ^ 0x5a), &probe);
    let ok = match sign {
        Sign::Longer => hit > miss,
        Sign::Shorter => hit < miss,
    };
    assert!(
        ok,
        "{attack} on {}: ToTE(match) = {hit}, ToTE(non-match) = {miss}; \
         DESIGN §1 says a match makes ToTE {sign:?}",
        sc.machine.config().name
    );
}

fn cc_polarity(cfg: &CpuConfig) {
    let mut sc = scenario(cfg);
    let secret = 0xa5;
    sc.sender_write(secret);
    let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), cfg));
    gadget.measure(&mut sc.machine, 0);
    assert_polarity("TET-CC", &mut sc, secret, Sign::Longer, |sc, t| {
        gadget.measure(&mut sc.machine, t)
    });
}

fn md_polarity(cfg: &CpuConfig) {
    let mut sc = scenario(cfg);
    let gadget = TetGadget::build(TetGadgetSpec::meltdown(sc.kernel_secret_va, cfg));
    for _ in 0..TetMeltdown::default().warmup {
        gadget.measure(&mut sc.machine, 0);
    }
    let secret = ScenarioOptions::default().kernel_secret[0];
    assert_polarity("TET-MD", &mut sc, secret, Sign::Longer, |sc, t| {
        gadget.measure(&mut sc.machine, t)
    });
}

fn zbl_polarity(cfg: &CpuConfig) {
    let mut sc = scenario(cfg);
    let secret = b'L';
    sc.set_victim_byte(0, secret);
    let gadget = TetGadget::build(TetGadgetSpec::zombieload(ZBL_PROBE_BASE, cfg));
    sc.victim_touch(0);
    for _ in 0..3 {
        gadget.measure(&mut sc.machine, 0);
    }
    // The victim runs ahead of every probe, as in `sample_byte`.
    assert_polarity("TET-ZBL", &mut sc, secret, Sign::Shorter, |sc, t| {
        sc.victim_touch(0);
        gadget.measure(&mut sc.machine, t)
    });
}

fn rsb_polarity(cfg: &CpuConfig) {
    let mut sc = scenario(cfg);
    let gadget = RsbGadget::build(
        sc.user_secret_va,
        STACK_TOP,
        TetSpectreRsb::default().sea_nops,
    );
    for _ in 0..4 {
        gadget.measure(&mut sc.machine, 0);
    }
    let secret = ScenarioOptions::default().user_secret[0];
    assert_polarity("TET-RSB", &mut sc, secret, Sign::Shorter, |sc, t| {
        gadget.measure(&mut sc.machine, t)
    });
}

/// (mapped slot's ToTE, median ToTE of 16 unmapped slots), each probed
/// with a flushed TLB from the warmed snapshot, as `break_kaslr` does.
fn kaslr_totes(cfg: &CpuConfig) -> (u64, u64) {
    let mut sc = scenario(cfg);
    TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(0))).measure(&mut sc.machine, 0);
    let snap = sc.machine.snapshot();
    let image = sc.kernel.slot..sc.kernel.slot + sc.kernel.image_slots;
    let probe = |sc: &mut Scenario, slot: u64| {
        sc.machine.flush_tlbs();
        TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(slot))).measure(&mut sc.machine, 0)
    };
    let base = sc.kernel.slot;
    let mapped = tote_at(&mut sc, &snap, base, &probe);
    let mut unmapped: Vec<u64> = (0..NUM_SLOTS)
        .step_by(32)
        .map(|s| if image.contains(&s) { s + 16 } else { s })
        .map(|s| tote_at(&mut sc, &snap, s, &probe))
        .collect();
    unmapped.sort_unstable();
    (mapped, unmapped[unmapped.len() / 2])
}

#[test]
fn cc_match_lengthens_tote_on_every_preset() {
    for cfg in CpuConfig::table2_presets() {
        cc_polarity(&cfg);
    }
}

#[test]
fn md_match_lengthens_tote_where_md_leaks() {
    for name in ["Intel Core i7-6700", "Intel Core i7-7700"] {
        md_polarity(&preset(name));
    }
}

#[test]
fn zbl_match_shortens_tote_where_zbl_leaks() {
    for name in ["Intel Core i7-6700", "Intel Core i7-7700"] {
        zbl_polarity(&preset(name));
    }
}

#[test]
fn rsb_match_shortens_tote_where_rsb_leaks() {
    for name in [
        "Intel Core i7-6700",
        "Intel Core i7-7700",
        "Intel Core i9-13900K",
    ] {
        rsb_polarity(&preset(name));
    }
}

#[test]
fn kaslr_mapped_slot_is_faster_on_intel() {
    for name in [
        "Intel Core i7-6700",
        "Intel Core i7-7700",
        "Intel Core i9-10980XE",
    ] {
        let (mapped, median) = kaslr_totes(&preset(name));
        assert!(
            mapped < median,
            "TET-KASLR on {name}: mapped slot ToTE {mapped} is not below \
             the unmapped median {median}"
        );
    }
}

#[test]
fn kaslr_has_no_usable_gap_on_zen3() {
    let cfg = preset("AMD Ryzen 5 5600G");
    let (mapped, median) = kaslr_totes(&cfg);
    let min_gap = TetKaslr::default().min_gap;
    assert!(
        median.saturating_sub(mapped) < min_gap,
        "TET-KASLR on {}: mapped slot ToTE {mapped} sits {} cycles below \
         the unmapped median {median}, at least the {min_gap}-cycle \
         detection gap",
        cfg.name,
        median.saturating_sub(mapped)
    );
}
