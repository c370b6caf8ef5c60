//! Divergence-aware trial batching: the fixed-point probe memo behind
//! the decode-sweep and KASLR-sweep fast paths.
//!
//! Every TET decode sweeps a test value 0..=255 through the same gadget
//! on the same machine. After warm-up the machine sits at a **fixed
//! point**: each non-matching probe returns the machine to exactly the
//! state it started from and reports exactly the same (ToTE, cycles)
//! pair — the sweep's information content is solely *which* test value
//! diverges. [`ProbeMemo`] exploits that: it measures probes live until
//! two consecutive non-matching probes agree on their result, their
//! full [`RunDelta`] (cycles, fast-forward stats and all 51 PMU
//! counters) and their branch-predictor operations, then *replays* the
//! recorded effects for later non-matching probes instead of
//! simulating them ([`tet_uarch::Machine::apply_replayed_run`]).
//!
//! Correctness is defended on six fronts:
//!
//! * the caller flags every probe that **may replay**
//!   ([`ProbeMemo::try_replay`] / [`ProbeMemo::observe`]) from a
//!   simulator-side peek; a probe that may not is always probed live,
//!   as is the probe right after it (the pipeline re-converges one probe
//!   later). Decode sweeps flag every test value but the **match hint**
//!   — the one expected to take the in-window branch, predicted by
//!   [`tet_uarch::Machine::peek_transient_byte`] ([`ProbeMemo::try_skip`]
//!   / [`ProbeMemo::record`] derive the flag from it);
//! * establishment needs two consecutive live probes with identical
//!   results, identical deltas *and* identical branch-predictor
//!   operations — identical outright for jitter-free probes, identical
//!   **net of the draw** for probes that consume exactly one DRAM-jitter
//!   draw per run (the [`JitterShift`] fixed point; replays then re-draw
//!   from the machine's own stream so the RNG position stays exactly
//!   live-equivalent);
//! * **replays are predictor-exact.** A record carries its probe's
//!   predictor operations with their answers
//!   ([`tet_uarch::Machine::bpu_ops_since`]). A replay first dry-runs
//!   them against the current predictor ([`tet_uarch::Bpu::dry_run`]);
//!   if any prediction would differ, the probe runs live and re-learns
//!   the fixed point. Otherwise the replay issues them for real
//!   ([`tet_uarch::Bpu::replay`]), so the global history shifts, the
//!   counters train and the RSB moves exactly as the live probe's
//!   would. The predictor's state is the one thing that can keep moving
//!   while a probe's timing repeats (a taken branch takes a dozen
//!   resolutions to shift out of the history), and this is what keeps
//!   it in step. While the predictor stays at a version where the
//!   record is known to change nothing ([`tet_uarch::Bpu::version`]),
//!   a replay skips the dry run and the operations: the steady state
//!   costs what it did before;
//! * every [`VERIFY_EVERY`]-th would-be skip runs live and is compared
//!   against the fixed record — any mismatch **poisons** the memo
//!   (every later probe runs live);
//! * under timer-interrupt noise a probe replays only when its record
//!   ends strictly before the next interrupt is due
//!   ([`tet_uarch::Machine::cycles_to_interrupt`]): the interrupt
//!   schedule is the only reader of the global clock and every run
//!   starts with the stall windows an interrupt sets cleared, so a
//!   probe no interrupt reaches is the same run as on a noise-free
//!   machine in the same state. A live probe that *did* take an
//!   interrupt is **disturbed**: it never becomes a candidate or a
//!   verification, never poisons, and demotes an established record
//!   to candidate so skipping resumes only after a full re-confirmation
//!   (the interrupt's bubble may have left the machine at a different
//!   fixed point). Single-jitter-draw records always run live under
//!   noise;
//! * batching disables itself entirely under the retirement oracle
//!   (check mode / `tet_check`, [`batch_enabled`]). A hintless
//!   decode-sweep [`ProbeMemo`] flags no probe and runs every probe
//!   live: the all-live reference the equivalence tests compare
//!   against.
//!
//! One rule serves every sweep — quiet and noisy, hinted and hintless.
//!
//! Replayed probes return the recorded result and advance every
//! machine lifetime counter exactly as the live run would have, so
//! batched and unbatched sweeps are byte-identical — in decoded
//! output, cycle totals, run counts and PMU lifetime counters.
//!
//! [`decode_byte`] is the one decode sweep every byte-leaking attack
//! (TET-CC, TET-MD, TET-ZBL, TET-RSB) runs through a memo.
//!
//! The TET-KASLR slot sweep ([`crate::attacks::TetKaslr::break_kaslr`])
//! runs through the same memo and rules. It flags a slot probe as
//! replayable only when the candidate's page walk
//! ([`tet_mem::AddressSpace::walk`], read through
//! [`tet_uarch::Machine::aspace`]) ends `NotPresent` exactly as the
//! record's walk did: mapped slots, the KPTI trampoline and FLARE's
//! reserved-bit slots always run live. Its **last probe runs live**:
//! after `flush_tlbs` a live probe refills the ITLB with the code page
//! and a replay does not, so a replayed last slot would change the next
//! probe on the machine.

use tet_uarch::{BpuOp, DeltaMarker, Machine, RunDelta};

use crate::analysis::{ArgmaxDecoder, DecodeOutcome};

/// What one decode-sweep probe reports: `Some((ToTE, cycles))`, or
/// `None` when the run did not complete.
pub type ProbeResult = Option<(u64, u64)>;

/// Decodes one byte (§4.1, §4.3): sweeps the test value 0..=255
/// `decoder.batches` times, runs each `probe(machine, test)` through
/// `memo`, and returns the decoder's outcome plus the cycles the probes
/// spent (replayed probes count their recorded cycles).
///
/// `before` runs live ahead of every probe, outside the memo, whether
/// or not the probe itself replays: TET-ZBL's victim touch, which must
/// move the cache hierarchy and its DRAM-jitter stream exactly as in
/// an unbatched loop.
pub fn decode_byte(
    machine: &mut Machine,
    memo: &mut ProbeMemo<ProbeResult>,
    decoder: ArgmaxDecoder,
    mut before: impl FnMut(&mut Machine),
    mut probe: impl FnMut(&mut Machine, u64) -> ProbeResult,
) -> (DecodeOutcome, u64) {
    let mut cycles = 0u64;
    let out = decoder.decode(|test, _| {
        before(machine);
        let test = u64::from(test);
        let (tote, c) = memo.probe(machine, test, |m| probe(m, test))?;
        cycles += c;
        Some(tote)
    });
    (out, cycles)
}

/// Whether trial batching may be used on `machine` right now: the
/// machine is not under the retirement oracle. Timer-interrupt noise
/// does not disable batching — [`ProbeMemo::try_skip`] replays only
/// probes that end before the next interrupt is due.
pub fn batch_enabled(machine: &Machine) -> bool {
    !machine.check_mode() && !tet_check::enabled()
}

/// Live probes between sampled verifications: every `VERIFY_EVERY`-th
/// probe that *could* be skipped runs live instead and is checked
/// against the fixed record.
pub const VERIFY_EVERY: u32 = 16;

/// Probe results that shift linearly with DRAM jitter.
///
/// A probe whose only memory-system randomness is a **single** DRAM
/// access still has a fixed point *net of jitter*: the draw `j` delays
/// the access's completion, and with nothing else in flight the delay
/// passes straight through — total cycles, fast-forwarded cycles and
/// the measured ToTE all move by exactly `j` while every other counter
/// is unchanged. `jitter_shift` applies that uniform time shift to a
/// recorded result so a replayed probe can reconstruct what a live run
/// at the *current* stream position would have returned.
pub trait JitterShift {
    /// Returns this result shifted by `d` jitter cycles (`d` may be
    /// negative when normalising against a record with a larger draw).
    fn jitter_shift(&self, d: i64) -> Self;
}

impl JitterShift for u64 {
    fn jitter_shift(&self, d: i64) -> Self {
        self.wrapping_add_signed(d)
    }
}

impl JitterShift for (u64, u64) {
    fn jitter_shift(&self, d: i64) -> Self {
        (self.0.wrapping_add_signed(d), self.1.wrapping_add_signed(d))
    }
}

impl<T: JitterShift> JitterShift for Option<T> {
    fn jitter_shift(&self, d: i64) -> Self {
        self.as_ref().map(|v| v.jitter_shift(d))
    }
}

/// Learns the per-counter jitter response from two observations of the
/// same single-draw probe: every counter must move by `0` or by exactly
/// `d0 = b.jitter_sum − a.jitter_sum` — a pure event count vs. a
/// cycle-denominated counter that absorbs the whole time shift. The
/// returned "unit" reuses the [`RunDelta`] shape with `0`/`1` entries
/// (`jitter_sum` is `1` by construction); `None` means the pair is not
/// jitter-linear and no fixed point exists.
fn learn_unit(a: &RunDelta, b: &RunDelta) -> Option<RunDelta> {
    if a.jitter_draws != 1 || b.jitter_draws != 1 {
        return None;
    }
    let d0 = b.jitter_sum as i64 - a.jitter_sum as i64;
    if d0 == 0 {
        // Equal draws can't distinguish responsive counters from flat
        // ones — wait for a pair that actually differs.
        return None;
    }
    if a.runs != b.runs || a.ff_sprints != b.ff_sprints || a.restores != b.restores {
        return None;
    }
    let bit = |x: u64, y: u64| -> Option<u64> {
        match y as i64 - x as i64 {
            0 => Some(0),
            d if d == d0 => Some(1),
            _ => None,
        }
    };
    Some(RunDelta {
        runs: 0,
        cycles: bit(a.cycles, b.cycles)?,
        ff_skipped: bit(a.ff_skipped, b.ff_skipped)?,
        ff_sprints: 0,
        restores: 0,
        jitter_draws: 0,
        jitter_sum: 1,
        interrupts: 0,
        pmu: a.pmu.unit_shift(&b.pmu, d0)?,
    })
}

/// `base + d × unit` — the delta a live run shifted by `d` jitter
/// cycles would have produced.
fn apply_unit(base: &RunDelta, unit: &RunDelta, d: i64) -> RunDelta {
    RunDelta {
        runs: base.runs,
        cycles: base.cycles.wrapping_add_signed(d * unit.cycles as i64),
        ff_skipped: base
            .ff_skipped
            .wrapping_add_signed(d * unit.ff_skipped as i64),
        ff_sprints: base.ff_sprints,
        restores: base.restores,
        jitter_draws: base.jitter_draws,
        jitter_sum: base.jitter_sum.wrapping_add_signed(d),
        interrupts: base.interrupts,
        pmu: base.pmu.add_scaled(&unit.pmu, d),
    }
}

/// One probe's recorded fixed-point behaviour: the result the probe
/// closure returned, everything the probe added to the machine's
/// lifetime counters, and the branch-predictor operations it issued.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRec<R> {
    /// The recorded probe result.
    pub result: R,
    /// The recorded machine-counter movement.
    pub delta: RunDelta,
    /// The learned per-counter jitter response ([`learn_unit`]):
    /// `None` for jitter-free probes (which must match outright),
    /// `Some` for single-draw probes (which match net of the uniform
    /// `d = j_live − j_recorded` shift of every responsive counter).
    pub unit: Option<RunDelta>,
    /// The probe's branch-predictor operations with their answers
    /// ([`tet_uarch::Machine::bpu_ops_since`]): a replay re-issues them
    /// where each gets its recorded answer, and runs live otherwise.
    pub ops: Vec<BpuOp>,
}

impl<R: Clone + PartialEq + JitterShift> FixedRec<R> {
    /// Whether a live observation is equivalent to this record.
    ///
    /// Every record demands the same predictor operations with the same
    /// answers. Jitter-free records demand equality outright.
    /// Single-draw records demand that the live delta equal
    /// `base + d × unit` and the live result equal the recorded one
    /// time-shifted by `d` — establishment across two *different*
    /// draws thereby doubles as an empirical check that the draw really
    /// does pass through the probe linearly. Probes with two or more
    /// draws per run never establish: overlapping accesses could
    /// interact non-linearly, and a replay could not reproduce the
    /// recorded sum anyway.
    fn matches(&self, result: &R, delta: &RunDelta, ops: &[BpuOp]) -> bool {
        if self.ops != ops {
            return false;
        }
        match &self.unit {
            None => *result == self.result && *delta == self.delta,
            Some(unit) => {
                if delta.jitter_draws != self.delta.jitter_draws {
                    return false;
                }
                let d = delta.jitter_sum as i64 - self.delta.jitter_sum as i64;
                *delta == apply_unit(&self.delta, unit, d) && *result == self.result.jitter_shift(d)
            }
        }
    }

    /// Result-only equivalence, for the re-convergence probe right
    /// after the hint: its *timing tail* may legitimately differ, so
    /// only the (jitter-normalised) result is compared.
    fn matches_result(&self, result: &R, delta: &RunDelta) -> bool {
        match &self.unit {
            None => *result == self.result,
            Some(_) => {
                if delta.jitter_draws != self.delta.jitter_draws {
                    return false;
                }
                let d = delta.jitter_sum as i64 - self.delta.jitter_sum as i64;
                *result == self.result.jitter_shift(d)
            }
        }
    }

    /// Tries to establish a fixed point from this candidate and a
    /// fresh live observation, which must issue the same predictor
    /// operations with the same answers. A seeded candidate (unit
    /// already learned by a sibling trial) just needs one confirming
    /// match; a fresh candidate needs the new observation to be exactly
    /// equal (jitter-free probes) or jitter-linear against it
    /// (single-draw probes, learning the unit in the process).
    fn establish(self, result: &R, delta: &RunDelta, ops: &[BpuOp]) -> Option<FixedRec<R>> {
        if self.unit.is_some() || self.delta.jitter_draws == 0 {
            return self.matches(result, delta, ops).then_some(self);
        }
        if self.ops != ops {
            return None;
        }
        let unit = learn_unit(&self.delta, delta)?;
        let d0 = delta.jitter_sum as i64 - self.delta.jitter_sum as i64;
        (*result == self.result.jitter_shift(d0)).then(|| FixedRec {
            unit: Some(unit),
            ..self
        })
    }
}

#[derive(Debug)]
enum MemoState<R> {
    /// No live probe observed yet.
    Empty,
    /// One live observation (or an unconfirmed cross-trial seed);
    /// awaiting a matching second observation.
    Candidate(FixedRec<R>),
    /// Fixed point established: non-matching probes may be replayed.
    Fixed(FixedRec<R>),
    /// A verification failed; everything runs live from here on.
    Poisoned,
}

/// The per-sweep memoizer. Create one per decode loop (after warm-up),
/// with the gadget's match hint; wrap each probe in
/// [`ProbeMemo::probe`] — or [`ProbeMemo::try_skip`] /
/// [`ProbeMemo::record`] when the live probe needs more context than a
/// `&mut Machine` closure can carry. Sweeps without a single match
/// value (TET-KASLR) pass no hint and flag each probe themselves
/// through [`ProbeMemo::try_replay`] / [`ProbeMemo::observe`].
#[derive(Debug)]
pub struct ProbeMemo<R> {
    state: MemoState<R>,
    /// The test value predicted to take the in-window branch — always
    /// probed live by [`ProbeMemo::try_skip`] and [`ProbeMemo::record`].
    hint: Option<u64>,
    enabled: bool,
    /// Set after a probe that may not replay ran: the next probe
    /// re-converges the pipeline, so it runs live and only its *result*
    /// is checked.
    diverged: bool,
    /// Skips since the last sampled verification.
    skips: u32,
    /// The in-flight live probe is a sampled verification.
    pending_verify: bool,
    /// The in-flight live probe runs because the fixed record's
    /// predictor operations would get other answers now: it re-learns
    /// the fixed point instead of checking it.
    relearn: bool,
    /// The predictor version ([`tet_uarch::Bpu::version`]) at which the
    /// fixed record's operations are known to get their answers and
    /// change nothing but the BTB's recency, which they leave as the
    /// last application did: while the predictor stays there, a replay
    /// skips the dry run and the operations.
    fast: Option<u64>,
    /// Scratch for the live probe's operations.
    ops: Vec<BpuOp>,
}

impl<R: Clone + PartialEq + JitterShift> ProbeMemo<R> {
    /// A fresh memo. `hint` is the test value expected to diverge
    /// (`None`: no test value may replay through [`ProbeMemo::try_skip`]
    /// — without a prediction any probe might be the signal — and only
    /// probes the caller flags through [`ProbeMemo::try_replay`] can).
    pub fn new(machine: &Machine, hint: Option<u64>) -> Self {
        Self::seeded(machine, hint, None)
    }

    /// A memo seeded with a fixed record established by an earlier
    /// trial of the *same* snapshot-forked sweep. The seed enters as a
    /// candidate, not as fixed: the first live probe must reproduce it
    /// before any skipping starts, so a stale or foreign seed costs
    /// one probe and establishes normally instead of corrupting the
    /// sweep.
    pub fn seeded(machine: &Machine, hint: Option<u64>, seed: Option<FixedRec<R>>) -> Self {
        let enabled = batch_enabled(machine);
        ProbeMemo {
            state: match seed {
                Some(rec) if enabled => MemoState::Candidate(rec),
                _ => MemoState::Empty,
            },
            hint,
            enabled,
            diverged: false,
            skips: 0,
            pending_verify: false,
            relearn: false,
            fast: None,
            ops: Vec::new(),
        }
    }

    /// The memo's state name, for diagnostics.
    pub fn state_name(&self) -> &'static str {
        match &self.state {
            MemoState::Empty => "empty",
            MemoState::Candidate(_) => "candidate",
            MemoState::Fixed(_) => "fixed",
            MemoState::Poisoned => "poisoned",
        }
    }

    /// The established fixed record, if any — for seeding sibling
    /// trials of the same sweep.
    pub fn fixed(&self) -> Option<&FixedRec<R>> {
        match &self.state {
            MemoState::Fixed(rec) => Some(rec),
            _ => None,
        }
    }

    /// Runs one probe through the memo: replays it if it is proven
    /// fixed, otherwise runs `f` live and feeds the observation back.
    pub fn probe(
        &mut self,
        machine: &mut Machine,
        test: u64,
        f: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        if let Some(r) = self.try_skip(machine, test) {
            return r;
        }
        let marker = machine.delta_marker();
        let r = f(machine);
        self.record(machine, &marker, test, &r);
        r
    }

    /// Replays the probe for `test` if it is proven fixed: applies the
    /// recorded counter movement to `machine` and returns the recorded
    /// result. Returns `None` when the probe must run live — then take
    /// a [`tet_uarch::Machine::delta_marker`], run it, and call
    /// [`ProbeMemo::record`]. The match hint never replays.
    pub fn try_skip(&mut self, machine: &mut Machine, test: u64) -> Option<R> {
        self.try_replay(machine, self.may_replay(test))
    }

    /// Whether the decode-sweep probe for `test` may replay: every test
    /// value but the match hint, and none without a hint.
    fn may_replay(&self, test: u64) -> bool {
        self.hint.is_some_and(|hint| hint != test)
    }

    /// Replays the next probe if the caller allows it (`may_replay`)
    /// and it is proven fixed: re-issues the record's branch-predictor
    /// operations, applies the recorded counter movement to `machine`
    /// and returns the recorded result. Returns `None` when the probe
    /// must run live — then take a [`tet_uarch::Machine::delta_marker`],
    /// run it, and call [`ProbeMemo::observe`] with the same flag.
    ///
    /// A record replays only where its predictor operations would get
    /// their recorded answers ([`tet_uarch::Bpu::dry_run`]); otherwise
    /// the probe runs live and re-learns the fixed point. While the
    /// predictor stays at a version where the record is known to change
    /// nothing, the dry run and the operations are skipped. Under
    /// timer-interrupt noise a record replays only if it ends before
    /// the next interrupt is due.
    pub fn try_replay(&mut self, machine: &mut Machine, may_replay: bool) -> Option<R> {
        if !self.enabled || self.diverged || !may_replay {
            return None;
        }
        let MemoState::Fixed(rec) = &self.state else {
            return None;
        };
        let version = machine.cpu().bpu().version();
        let proven = self.fast == Some(version);
        let unchanged = if proven {
            true
        } else {
            let Some(unchanged) = machine.cpu().bpu().dry_run(&rec.ops) else {
                self.relearn = true;
                return None;
            };
            unchanged
        };
        if let Some(free) = machine.cycles_to_interrupt() {
            // Under noise only a record that ends before the next
            // interrupt is due is the run the live probe would make. A
            // single-draw record's length moves with its draw, so it
            // always runs live.
            if rec.unit.is_some() || rec.delta.cycles > free {
                return None;
            }
        }
        self.skips += 1;
        if self.skips >= VERIFY_EVERY {
            // Sampled verification: run this one live and compare.
            self.skips = 0;
            self.pending_verify = true;
            return None;
        }
        if !proven {
            // Issuing the operations moves the predictor exactly as the
            // live probe would; if they changed nothing a prediction
            // sees, the predictor now sits where the next replay of this
            // record leaves it again.
            machine.cpu_mut().bpu_mut().replay(&rec.ops);
            self.fast = unchanged.then(|| machine.cpu().bpu().version());
        }
        match &rec.unit {
            None => {
                machine.apply_replayed_run(&rec.delta);
                Some(rec.result.clone())
            }
            Some(unit) => {
                // A single-jitter-draw record replays at the *current*
                // stream position: draw what the live run would have
                // drawn (advancing the RNG identically) and shift every
                // responsive counter by the difference.
                let j = machine.replay_dram_jitter(rec.delta.jitter_draws);
                let d = j as i64 - rec.delta.jitter_sum as i64;
                machine.apply_replayed_run(&apply_unit(&rec.delta, unit, d));
                Some(rec.result.jitter_shift(d))
            }
        }
    }

    /// Feeds a live decode-sweep probe's observation back into the
    /// memo. `marker` must have been taken immediately before the probe
    /// ran.
    pub fn record(&mut self, machine: &Machine, marker: &DeltaMarker, test: u64, result: &R) {
        // A hintless decode sweep replays nothing: nothing to learn.
        if self.hint.is_some() {
            self.observe(machine, marker, self.may_replay(test), result);
        }
    }

    /// Feeds a live probe's observation back into the memo, with the
    /// flag [`ProbeMemo::try_replay`] was given for it. `marker` must
    /// have been taken immediately before the probe ran. A probe that
    /// may not replay is a potential signal: it is never recorded, and
    /// the probe after it re-converges the pipeline.
    pub fn observe(
        &mut self,
        machine: &Machine,
        marker: &DeltaMarker,
        may_replay: bool,
        result: &R,
    ) {
        if !self.enabled {
            return;
        }
        let relearn = std::mem::take(&mut self.relearn);
        let delta = machine.delta_since(marker);
        if delta.interrupts > 0 {
            // Disturbed: the interrupt's bubble is part of this probe's
            // timing, so it says nothing about the fixed point — it is
            // neither a candidate nor a verification, and cannot
            // poison. It may have moved the machine to a different
            // fixed point, though, so an established record drops back
            // to candidate and needs a full re-confirmation.
            self.pending_verify = false;
            self.diverged = false;
            self.demote();
            return;
        }
        if !may_replay {
            // A predicted divergence (the match hint, a mapped KASLR
            // slot): its timing IS the signal. The machine re-converges
            // one probe later, so flag the next probe for a result-only
            // check.
            self.diverged = true;
            return;
        }
        if std::mem::take(&mut self.diverged) {
            // First probe after the divergent one: its own timing may
            // carry the tail of the disturbance, so only the
            // (jitter-normalised) result is checked and the probe is
            // never recorded. A matching result does NOT prove the old
            // record still holds, though — the matched probe can leave
            // trained-predictor state behind (its taken in-window Jcc
            // installs a BTB entry, giving every later probe one extra
            // BTB hit), moving the machine to a *new* fixed point with
            // identical timing but shifted PMU counts. Demote the
            // record to candidate: skipping resumes only after it
            // re-establishes against post-divergence observations.
            self.state = match std::mem::replace(&mut self.state, MemoState::Poisoned) {
                MemoState::Fixed(rec) => {
                    if rec.matches_result(result, &delta) {
                        MemoState::Candidate(rec)
                    } else {
                        MemoState::Poisoned
                    }
                }
                other => other,
            };
            return;
        }
        // The probe's predictor operations: a span that overflowed the
        // log can be neither a record nor a match of one.
        let span = machine.bpu_ops_since(marker);
        self.ops.clear();
        if let Some(span) = &span {
            self.ops.extend(span.iter());
        }
        let logged = span.is_some();
        // Where the probe left the predictor exactly as it found it, its
        // operations get the same answers and change nothing from here.
        let fast = span
            .is_some_and(|span| !span.changed())
            .then(|| machine.cpu().bpu().version());
        if relearn {
            // The record's operations would have got other answers: the
            // predictor is not where the record was taken, so this probe
            // is no check of it. Re-learn the fixed point from here.
            self.demote();
        }
        if std::mem::take(&mut self.pending_verify) {
            if let MemoState::Fixed(rec) = &self.state {
                if logged && rec.matches(result, &delta, &self.ops) {
                    self.fast = fast;
                } else {
                    self.state = MemoState::Poisoned;
                }
            }
            return;
        }
        self.state = match std::mem::replace(&mut self.state, MemoState::Poisoned) {
            MemoState::Empty if logged => MemoState::Candidate(self.observed(result, delta)),
            MemoState::Empty => MemoState::Empty,
            MemoState::Candidate(c) if !logged => MemoState::Candidate(c),
            MemoState::Candidate(c) => match c.establish(result, &delta, &self.ops) {
                Some(fixed) => {
                    self.fast = fast;
                    MemoState::Fixed(fixed)
                }
                // Not repeating yet (or a stale seed): this observation
                // becomes the new candidate.
                None => MemoState::Candidate(self.observed(result, delta)),
            },
            MemoState::Fixed(rec) => {
                // A live probe the caller chose to run anyway (or one the
                // interrupt window forced), with the predictor where the
                // record fits: a free verification.
                if logged && rec.matches(result, &delta, &self.ops) {
                    self.fast = fast;
                    MemoState::Fixed(rec)
                } else {
                    MemoState::Poisoned
                }
            }
            MemoState::Poisoned => MemoState::Poisoned,
        };
    }

    /// Drops an established record back to candidate: it must be
    /// re-confirmed by a live probe before skipping resumes.
    fn demote(&mut self) {
        self.state = match std::mem::replace(&mut self.state, MemoState::Poisoned) {
            MemoState::Fixed(rec) => MemoState::Candidate(rec),
            other => other,
        };
    }

    /// A candidate record of the live observation just made.
    fn observed(&self, result: &R, delta: RunDelta) -> FixedRec<R> {
        FixedRec {
            result: result.clone(),
            delta,
            unit: None,
            ops: self.ops.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_uarch::CpuConfig;

    fn run_delta(cycles: u64) -> RunDelta {
        RunDelta {
            runs: 1,
            cycles,
            ff_skipped: 0,
            ff_sprints: 0,
            restores: 0,
            jitter_draws: 0,
            jitter_sum: 0,
            interrupts: 0,
            pmu: tet_pmu::PmuSnapshot::zero(),
        }
    }

    /// Drives the memo against a synthetic probe function; returns
    /// (results, live_count).
    fn sweep(
        memo: &mut ProbeMemo<u64>,
        machine: &mut Machine,
        f: impl Fn(u64) -> u64,
    ) -> (Vec<u64>, u32) {
        let mut live = 0;
        let mut out = Vec::new();
        for test in 0..=255u64 {
            let r = memo.probe(machine, test, |_| {
                live += 1;
                f(test)
            });
            out.push(r);
        }
        (out, live)
    }

    #[test]
    fn establishes_and_skips_nonmatching_probes() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        let mut memo: ProbeMemo<u64> = ProbeMemo::new(&m, Some(77));
        if !batch_enabled(&m) {
            return; // TET_CHECK in the environment: batching is off
        }
        let (out, live) = sweep(&mut memo, &mut m, |t| if t == 77 { 999 } else { 204 });
        let want: Vec<u64> = (0..=255u64)
            .map(|t| if t == 77 { 999 } else { 204 })
            .collect();
        assert_eq!(out, want, "replayed sweep must be value-identical");
        // 2 establishment + hint + post-hint + ~16 sampled verifies.
        assert!(live < 30, "expected most probes replayed, got {live} live");
        assert!(memo.fixed().is_some());
    }

    #[test]
    fn hint_and_reconvergence_probe_always_run_live() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        if !batch_enabled(&m) {
            return;
        }
        let mut memo: ProbeMemo<u64> = ProbeMemo::new(&m, Some(10));
        let mut live_tests = Vec::new();
        for test in 0..=40u64 {
            memo.probe(&mut m, test, |_| {
                live_tests.push(test);
                // The match probe returns a different value; the
                // re-convergence probe (test 11) returns the fixed
                // value again, its timing tail tolerated.
                if test == 10 {
                    999
                } else {
                    204
                }
            });
        }
        assert!(live_tests.contains(&10), "hint probe must be live");
        assert!(
            live_tests.contains(&11),
            "re-convergence probe must be live"
        );
        assert!(memo.fixed().is_some(), "tolerated tail must not poison");
    }

    #[test]
    fn sampled_verification_poisons_on_drift() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        if !batch_enabled(&m) {
            return;
        }
        let mut memo: ProbeMemo<u64> = ProbeMemo::new(&m, Some(1000)); // hint never hit
        let mut live = 0u32;
        let mut out = Vec::new();
        for test in 0..=255u64 {
            out.push(memo.probe(&mut m, test, |_| {
                live += 1;
                // The "fixed" value drifts at probe 100 — only a later
                // sampled verification can see it.
                if test < 100 {
                    204
                } else {
                    205
                }
            }));
        }
        assert!(memo.fixed().is_none(), "drift must poison the memo");
        // After poisoning, everything runs live again.
        let tail_live = live;
        memo.probe(&mut m, 300, |_| {
            live += 1;
            205
        });
        assert_eq!(live, tail_live + 1, "poisoned memo must not skip");
        // Replayed probes returned the stale value between the drift
        // and the verification that caught it — bounded by the
        // verification cadence.
        let stale = out[100..].iter().filter(|&&v| v == 204).count();
        assert!(
            stale <= VERIFY_EVERY as usize,
            "stale window must be bounded by the verify cadence, got {stale}"
        );
    }

    #[test]
    fn seeded_memo_confirms_before_skipping() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        if !batch_enabled(&m) {
            return;
        }
        let seed = FixedRec {
            result: 204u64,
            delta: run_delta(10),
            unit: None,
            ops: Vec::new(),
        };
        let mut memo = ProbeMemo::seeded(&m, Some(1000), Some(seed));
        let mut live = 0u32;
        // First probe must run live (the seed is only a candidate)...
        memo.probe(&mut m, 0, |_| {
            live += 1;
            204
        });
        assert_eq!(live, 1);
        // ...but a foreign delta fails confirmation, so the next probe
        // is still live rather than replayed from the bad seed.
        memo.probe(&mut m, 1, |_| {
            live += 1;
            204
        });
        assert_eq!(live, 2, "unconfirmed seed must not permit skips");
    }

    #[test]
    fn disabled_memo_is_transparent() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        let mut memo: ProbeMemo<u64> = ProbeMemo::new(&m, None); // no hint
        let mut live = 0u32;
        for test in 0..=255u64 {
            memo.probe(&mut m, test, |_| {
                live += 1;
                204
            });
        }
        assert_eq!(live, 256, "hintless memo must never skip");
    }

    #[test]
    fn replay_advances_lifetime_counters_exactly() {
        let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 1);
        let before = m.stats();
        let delta = RunDelta {
            runs: 2,
            cycles: 500,
            ff_skipped: 120,
            ff_sprints: 3,
            restores: 1,
            jitter_draws: 0,
            jitter_sum: 0,
            interrupts: 0,
            pmu: tet_pmu::PmuSnapshot::zero(),
        };
        m.apply_replayed_run(&delta);
        let after = m.stats();
        assert_eq!(after.runs, before.runs + 2);
        assert_eq!(after.sim_cycles, before.sim_cycles + 500);
        assert_eq!(after.ff_skipped_cycles, before.ff_skipped_cycles + 120);
        assert_eq!(after.ff_sprints, before.ff_sprints + 3);
        assert_eq!(after.snapshot_restores, before.snapshot_restores + 1);
    }

    /// The interrupt-window boundary: a fixed TET-CC record of `N`
    /// cycles against a machine whose next interrupt is due `N - 1`,
    /// `N` or `N + 1` cycles from now. Only the first window holds the
    /// interrupt, so only that probe must run live; every case must
    /// leave the same result, counters and interrupt phase as the live
    /// run from the same state.
    #[test]
    fn interrupt_window_boundary_matches_live() {
        use crate::gadget::{TetGadget, TetGadgetSpec};
        use crate::scenario::{Scenario, ScenarioOptions};

        // A period whose re-seeded phase range, [period/2, 3·period/2),
        // covers a ~220-cycle covert-channel probe, and a bubble short
        // enough that some probes still fit between interrupts.
        let opts = ScenarioOptions {
            interrupt_period: 300,
            ..ScenarioOptions::default()
        };
        let mut cfg = CpuConfig::kaby_lake_i7_7700();
        cfg.timing.interrupt_cost = 20;
        let mut sc = Scenario::new(cfg, &opts);
        if !batch_enabled(&sc.machine) {
            return;
        }
        sc.sender_write(0xc3);
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(
            sc.shared_page(),
            sc.machine.config(),
        ));
        let hint = gadget.match_hint(&sc.machine);
        assert_eq!(hint, Some(0xc3));
        // Probe a non-matching value until the memo holds a fixed record
        // (interrupts disturb most probes at this period); the machine
        // then sits at the record's fixed point.
        let mut memo = ProbeMemo::new(&sc.machine, hint);
        for _ in 0..5_000 {
            if memo.fixed().is_some() {
                break;
            }
            memo.probe(&mut sc.machine, 7, |m| gadget.measure_detailed(m, 7));
        }
        let rec = memo.fixed().expect("a fixed record establishes").clone();
        let n = rec.delta.cycles;
        let snap = sc.machine.snapshot();

        let mut search = Machine::from_snapshot(&snap);
        for (due, replays) in [(n - 1, false), (n, true), (n + 1, true)] {
            // The interrupt phase is a function of the re-seed salt:
            // find one that puts the next interrupt `due` cycles out.
            let salt = (0..1_000_000u64)
                .find(|&salt| {
                    search.restore(&snap);
                    search.cpu_mut().reseed_interrupt_phase(salt);
                    search.cycles_to_interrupt() == Some(due)
                })
                .expect("some salt reaches every phase in range");
            let mut live = Machine::from_snapshot(&snap);
            let mut batched = Machine::from_snapshot(&snap);
            live.cpu_mut().reseed_interrupt_phase(salt);
            batched.cpu_mut().reseed_interrupt_phase(salt);
            let (want, want_delta) = {
                let marker = live.delta_marker();
                let r = gadget.measure_detailed(&mut live, 7);
                (r, live.delta_since(&marker))
            };
            assert_eq!(
                want_delta.interrupts,
                u64::from(!replays),
                "due {due}, record {n}"
            );

            let mut memo = ProbeMemo::new(&batched, hint);
            memo.state = MemoState::Fixed(rec.clone());
            let marker = batched.delta_marker();
            let mut ran_live = false;
            let got = memo.probe(&mut batched, 7, |m| {
                ran_live = true;
                gadget.measure_detailed(m, 7)
            });
            assert_eq!(
                ran_live, !replays,
                "due {due}, record {n}: live/replay choice"
            );
            assert_eq!(got, want, "due {due}: result");
            assert_eq!(
                batched.delta_since(&marker),
                want_delta,
                "due {due}: counters"
            );
            assert_eq!(batched.stats(), live.stats(), "due {due}: machine stats");
            assert_eq!(
                batched.pmu_lifetime(),
                live.pmu_lifetime(),
                "due {due}: PMU"
            );
            assert_eq!(
                batched.cycles_to_interrupt(),
                live.cycles_to_interrupt(),
                "due {due}: phase"
            );
            // The disturbed probe demotes the record; a replay keeps it.
            assert_eq!(
                memo.state_name(),
                if replays { "fixed" } else { "candidate" },
                "due {due}"
            );
            // Both machines are in the same state: the next probe agrees.
            for m in [&mut live, &mut batched] {
                m.cpu_mut().reseed_interrupt_phase(0);
            }
            let next = |m: &mut Machine| {
                let marker = m.delta_marker();
                (gadget.measure_detailed(m, 8), m.delta_since(&marker))
            };
            assert_eq!(next(&mut batched), next(&mut live), "due {due}: next probe");
        }
    }

    /// A fixed record replays only where its predictor operations get
    /// their recorded answers. Training the TET-CC gadget's Jcc taken
    /// until the counter the current global history selects predicts
    /// taken flips the record's not-taken prediction: the next probe
    /// must run live, re-learn rather than poison, and leave the
    /// machine exactly as a live twin's.
    #[test]
    fn record_whose_prediction_flips_runs_live() {
        use crate::gadget::{TetGadget, TetGadgetSpec};
        use crate::scenario::{Scenario, ScenarioOptions};
        use tet_uarch::BpuOp;

        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        if !batch_enabled(&sc.machine) {
            return;
        }
        sc.sender_write(0xc3);
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(
            sc.shared_page(),
            sc.machine.config(),
        ));
        let mut memo = ProbeMemo::new(&sc.machine, gadget.match_hint(&sc.machine));
        let probe = |m: &mut Machine, memo: &mut ProbeMemo<ProbeResult>| {
            let mut ran_live = false;
            let r = memo.probe(m, 7, |m| {
                ran_live = true;
                gadget.measure_detailed(m, 7)
            });
            (r, ran_live)
        };
        for _ in 0..4 {
            probe(&mut sc.machine, &mut memo);
        }
        let rec = memo.fixed().expect("a fixed record establishes").clone();
        assert!(!probe(&mut sc.machine, &mut memo).1, "the record replays");
        let (pc, target) = rec
            .ops
            .iter()
            .find_map(|op| match *op {
                BpuOp::PredictCond {
                    pc, target, taken, ..
                } => {
                    assert!(!taken, "the record predicts not-taken");
                    Some((pc, target))
                }
                _ => None,
            })
            .expect("the probe predicts its in-window Jcc");

        let mut live = sc.machine.clone();
        for m in [&mut sc.machine, &mut live] {
            for _ in 0..16 {
                m.cpu_mut().bpu_mut().resolve_cond(pc, true, target);
            }
        }
        assert_eq!(sc.machine.cpu().bpu().dry_run(&rec.ops), None);
        let (got, ran_live) = probe(&mut sc.machine, &mut memo);
        assert!(ran_live, "a record whose prediction flipped must run live");
        assert_eq!(memo.state_name(), "candidate", "it re-learns, not poisons");
        assert_eq!(got, gadget.measure_detailed(&mut live, 7));
        assert_eq!(sc.machine.stats(), live.stats());
        assert_eq!(sc.machine.pmu_lifetime(), live.pmu_lifetime());
        let (a, b) = (sc.machine.cpu().bpu(), live.cpu().bpu());
        assert_eq!(
            (a.ghr(), a.rsb(), a.pht_fingerprint(), a.btb_fingerprint()),
            (b.ghr(), b.rsb(), b.pht_fingerprint(), b.btb_fingerprint())
        );
    }

    /// A disturbed live probe — one that took a timer interrupt —
    /// never poisons the memo and never counts as a verification: it
    /// demotes the fixed record, and skipping resumes only after an
    /// undisturbed probe re-confirms it in full.
    #[test]
    fn disturbed_probe_demotes_without_poisoning() {
        use crate::gadget::{TetGadget, TetGadgetSpec};
        use crate::scenario::{Scenario, ScenarioOptions};

        let opts = ScenarioOptions {
            interrupt_period: 7919,
            ..ScenarioOptions::default()
        };
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts);
        if !batch_enabled(&sc.machine) {
            return;
        }
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(
            sc.shared_page(),
            sc.machine.config(),
        ));
        let hint = gadget.match_hint(&sc.machine);
        let mut memo = ProbeMemo::new(&sc.machine, hint);
        let (mut disturbed, mut resumed) = (0, 0);
        let mut after_disturbance = false;
        for _ in 0..3_000 {
            let marker = sc.machine.delta_marker();
            let fixed_before = memo.fixed().is_some();
            let mut ran_live = false;
            memo.probe(&mut sc.machine, 7, |m| {
                ran_live = true;
                gadget.measure_detailed(m, 7)
            });
            assert_ne!(
                memo.state_name(),
                "poisoned",
                "a steady sweep never poisons"
            );
            if sc.machine.delta_since(&marker).interrupts > 0 {
                assert!(ran_live, "an interrupted probe was live");
                if fixed_before {
                    disturbed += 1;
                    assert_eq!(memo.state_name(), "candidate", "disturbance demotes");
                    after_disturbance = true;
                }
            } else if after_disturbance && memo.fixed().is_some() {
                // The re-confirming probe itself was live.
                assert!(ran_live, "re-establishment needs a live probe");
                resumed += 1;
                after_disturbance = false;
            }
        }
        assert!(
            disturbed > 0 && resumed > 0,
            "{disturbed} demotions, {resumed} resumptions"
        );
    }
}
