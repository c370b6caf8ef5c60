//! The cycle loop: one `step`, event-driven fast-forward and the
//! per-cycle PMU accounting.

use tet_isa::Program;
use tet_obs::EventKind;
use tet_pmu::{Event, PmuSnapshot};

use crate::machine::RunResult;

use super::rename::RenameHold;
use super::schedule::DepVerdict;
use super::{Cpu, Env, RunExit, StepEvents};

/// What the stages did on one cycle: the inputs of the per-cycle PMU
/// events and of the `FrontendCycle` trace event.
#[derive(Debug, Clone, Copy, Default)]
struct CycleReport {
    /// µops the scheduler started.
    exec_started: usize,
    /// µops rename issued.
    issued: usize,
    /// What held rename, if anything did.
    rename_hold: Option<RenameHold>,
    /// µops fetch delivered from the DSB.
    dsb_uops: usize,
    /// µops fetch delivered through MITE decode.
    mite_uops: usize,
    /// Whether fetch was stalled or disabled.
    fetch_stalled: bool,
}

impl Cpu {
    /// Advances the core by one cycle.
    pub fn step(&mut self, env: &mut Env<'_>) -> StepEvents {
        let mut events = StepEvents::default();
        let now = self.cycle;
        self.sink.tick(now);

        // OS timer interrupt: a whole-pipeline bubble. The schedule runs
        // on the global (never-reset) cycle counter with deterministic
        // phase jitter, so the noise decorrelates across attack
        // iterations like real timer ticks do.
        let t = self.cfg.timing;
        if t.interrupt_period > 0 && self.global_cycle >= self.next_interrupt {
            self.external_stall_until = self.external_stall_until.max(now + t.interrupt_cost);
            self.fetch_stall_until = self.fetch_stall_until.max(now + t.interrupt_cost);
            // xorshift64 jitter: the gap varies in [period/2, 3*period/2).
            let mut x = self.interrupt_rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.interrupt_rng = x;
            self.next_interrupt =
                self.global_cycle + t.interrupt_period / 2 + x % t.interrupt_period.max(1);
            self.interrupts_taken += 1;
            self.sink.emit_at(
                now,
                EventKind::TimerInterrupt {
                    until: now + t.interrupt_cost,
                },
            );
        }
        self.global_cycle += 1;

        self.resolve_branches(now, env.template);
        if let Some(flush) = self.retire_cycle(now, env) {
            events.flush_until = Some(flush);
        }
        let exec_started = self.schedule_cycle(now, env);
        let (issued, rename_hold) = self.rename_cycle(now, env.template);
        let (dsb_uops, mite_uops, fetch_stalled) = self.fetch_cycle(now, env);

        let report = CycleReport {
            exec_started,
            issued,
            rename_hold,
            dsb_uops,
            mite_uops,
            fetch_stalled,
        };
        self.account_cycles(now, 1, &report);
        if cfg!(debug_assertions) || env.check.is_some() {
            self.validate_sched_index();
        }
        self.cycle += 1;
        events
    }

    /// How the run ended if it has: a halt (retired `Halt` or an
    /// unhandled fault) or control flow past the program's end. `None`
    /// while it can still step.
    pub(crate) fn run_end(&self, program: &Program) -> Option<RunExit> {
        if self.halted {
            Some(match self.unhandled {
                Some(r) => RunExit::UnhandledFault(r),
                None => RunExit::Halted,
            })
        } else if self.ran_off_end(program) {
            Some(RunExit::RanOffEnd)
        } else {
            None
        }
    }

    /// The result of the run that ended with `exit`, its PMU counters
    /// taken as the delta from `pmu_before`.
    pub(crate) fn run_result(&mut self, exit: RunExit, pmu_before: &PmuSnapshot) -> RunResult {
        RunResult {
            exit,
            cycles: self.cycle,
            regs: self.regs,
            flags: self.flags,
            retired: self.retired_insts,
            pmu: self.pmu.snapshot().delta(pmu_before),
            exceptions: self.take_exceptions(),
        }
    }

    // ----- event-driven fast-forward --------------------------------------

    /// Attempts to skip ahead to the next cycle at which anything can
    /// happen, accounting the skipped idle `step()`s in one
    /// [`Cpu::account_cycles`] call (PMU events and, with a sink
    /// attached, their `FrontendCycle` events). Returns the number of
    /// cycles skipped (0 = something can happen right now, take a real
    /// step).
    ///
    /// The contract is *cycle-exactness*: calling this before every
    /// `step()` must leave architectural state, µarch state and every
    /// PMU counter identical to never calling it. The implementation
    /// leans on two facts:
    ///
    /// * every stage is gated by monotone "until"-style windows
    ///   (`pipeline_flush_until`, `external_stall_until`,
    ///   `recovery_busy_until`, `fetch_stall_until`) and by readiness
    ///   times (`done_at`, `forward_at`, `wake_at`) that only a real
    ///   event can move — so bounding the skip by the minimum of all
    ///   such future times keeps every stage's predicate constant over
    ///   the skipped range;
    /// * on a cycle where nothing executes, every execution port is
    ///   free (`ports_busy` is only ever set to `execute cycle + 1`),
    ///   so a source-ready, order-ready µop always implies activity.
    ///
    /// One observable difference is permitted and harmless: scheduler
    /// *wake hints* (`wake_at`, waiter lists) that an idle `step()`
    /// would have refreshed are left stale. Hints are lower bounds on
    /// issue cycles, never issue decisions, so every µop still starts
    /// executing on exactly the same cycle.
    pub(crate) fn try_fast_forward(&mut self, limit: u64) -> u64 {
        let now = self.cycle;
        if self.halted || limit <= now {
            return 0;
        }
        // An executed-but-unresolved branch resolves (trains the BPU,
        // possibly squashes and resteers) exactly at its `done_at`
        // cycle; `resolve_branches` is a no-op before that. Idle cycles
        // *before* the earliest resolution are safe to skip, but never
        // skip across one — clip the sprint to the earliest `done_at`
        // and treat a due resolution as activity.
        let mut branch_done = u64::MAX;
        let mut from = 0;
        while let Some(i) = self.rob.next_branch(from) {
            from = i + 1;
            let done = self.rob[i].done_at;
            if done <= now {
                return 0;
            }
            branch_done = branch_done.min(done);
        }
        let t = self.cfg.timing;
        // A due timer interrupt mutates stall windows and the RNG: let
        // the real step take it.
        if t.interrupt_period > 0 && self.global_cycle >= self.next_interrupt {
            return 0;
        }

        let p_flush = now < self.pipeline_flush_until;
        let p_ext = now < self.external_stall_until;

        // --- activity checks: would the real step() do anything at `now`?
        if !(p_flush || p_ext) {
            if let Some(front) = self.rob.front() {
                if front.retire_ready(now) {
                    // Retirement or fault delivery happens this cycle.
                    return 0;
                }
            }
        }
        let mut bound = limit;
        if !p_flush {
            match self.sched_quiet_until(now) {
                None => return 0, // scheduler starts a µop this cycle
                Some(b) => bound = bound.min(b),
            }
        }
        let rename_hold = match self.rename_window(now) {
            None if self.idq.is_empty() => None,
            None if !self.rename_full() => return 0, // rename issues this cycle
            None => Some(RenameHold::Resources),
            window => window,
        };
        let fetch_stalled = self.fetch_stalled(now);
        if !fetch_stalled && self.idq.len() < self.cfg.idq_size {
            // Fetch delivers µops, walks the ITLB, or discovers the end
            // of the program (which mutates `fetch_enabled`).
            return 0;
        }

        // --- bound: first future cycle any predicate above can change.
        if branch_done != u64::MAX {
            bound = bound.min(branch_done);
        }
        if let Some(front) = self.rob.front() {
            // Not executed yet (`NOT_EXECUTED`) bounds nothing.
            if front.done_at > now {
                bound = bound.min(front.done_at);
            }
        }
        if t.interrupt_period > 0 {
            bound = bound.min(now + (self.next_interrupt - self.global_cycle));
        }
        for w in [
            self.pipeline_flush_until,
            self.external_stall_until,
            self.recovery_busy_until,
            self.fetch_stall_until,
            self.exec_max_done,
            self.mem_max_done,
        ] {
            if w > now {
                bound = bound.min(w);
            }
        }
        if bound <= now {
            return 0;
        }
        let skip = bound - now;

        // Every predicate above holds over the skipped range, so each
        // skipped cycle is the same idle cycle: nothing started, issued
        // or fetched.
        let report = CycleReport {
            rename_hold,
            fetch_stalled,
            ..CycleReport::default()
        };
        self.account_cycles(now, skip, &report);
        self.cycle += skip;
        self.global_cycle += skip;
        self.ff_skipped_cycles += skip;
        self.ff_sprints += 1;
        skip
    }

    /// Read-only mirror of [`Cpu::schedule_cycle`]'s walk: returns
    /// `None` when the scheduler would start some µop at `now`, else
    /// the earliest future cycle at which it could (`u64::MAX` when no
    /// in-flight µop bounds it — retire/fetch/timer bounds then apply).
    /// Only the pending set is walked: started entries bound nothing,
    /// and a parked entry is woken by an older producer starting, which
    /// the walk bounds (or reports as activity) on its own.
    fn sched_quiet_until(&self, now: u64) -> Option<u64> {
        let mut bound = u64::MAX;
        let mut from = 0;
        while let Some(i) = self.rob.next_pending(from) {
            from = i + 1;
            let e = &self.rob[i];
            if e.kind.is_fence() {
                if self.exec_max_done <= now {
                    if self.rob.iter().take(i).all(|o| o.retire_ready(now)) {
                        return None; // the fence starts this cycle
                    }
                    // Blocked on an older *unstarted* µop: its own walk
                    // entry above already produced a bound or activity.
                } else {
                    bound = bound.min(self.exec_max_done);
                }
                return Some(bound);
            }
            if now < e.wake_at {
                bound = bound.min(e.wake_at);
                continue;
            }
            match self.eval_deps(i, now) {
                // Parked-on-producer: the producer's own start bounds
                // it, and the producer is an older entry this walk
                // already covered.
                DepVerdict::Park(_) => {}
                DepVerdict::WakeAt(at) => bound = bound.min(at),
                DepVerdict::Ready => {
                    // A port is always free on a cycle where nothing has
                    // executed (see `try_fast_forward`), so an unblocked
                    // ready µop means the scheduler acts now; a blocked
                    // load is bounded by the blocking store, an older
                    // unstarted entry already walked.
                    self.mem_order_blocker(i)?;
                }
            }
        }
        Some(bound)
    }

    // ----- per-cycle accounting -------------------------------------------

    /// Bumps every per-cycle PMU event for `n` consecutive cycles from
    /// `now` on which the stages did what `r` reports, and emits their
    /// `FrontendCycle` events. `step` accounts one cycle; fast-forward
    /// accounts a skipped idle range at once.
    // Inlined into both callers: as a call it slowed `step` by ~5 % on
    // bench_core's stepped-cycle legs (`decode_sweep`, `kernel.*`).
    #[inline(always)]
    fn account_cycles(&mut self, now: u64, n: u64, r: &CycleReport) {
        self.pmu.bump(Event::CpuClkUnhalted, n);
        match r.rename_hold {
            Some(RenameHold::Recovery) => {
                self.pmu.bump(Event::IntMiscRecoveryCycles, n);
                self.pmu.bump(Event::IntMiscRecoveryCyclesAny, n);
            }
            Some(RenameHold::Resources) => {
                self.pmu.bump(Event::ResourceStallsAny, n);
                if self.rob.len() >= self.cfg.rob_size {
                    self.pmu
                        .bump(Event::DeDisDispatchTokenStalls2RetireTokenStall, n);
                }
            }
            Some(RenameHold::Stalled) | None => {}
        }
        // Counter-based equivalents of the old whole-ROB sweeps. The
        // maxima are exact: a started entry with `done_at > now` cannot
        // have retired (retirement requires `done_at <= now`), and any
        // squash recomputes the maxima from the survivors.
        let in_flight_exec = self.exec_max_done > now;
        let mem_in_flight = self.mem_max_done > now;
        let rs_occupied = self.rob.unstarted() > 0;

        if r.exec_started == 0 {
            self.pmu.bump(Event::UopsExecutedStallCycles, n);
            if !in_flight_exec {
                self.pmu.bump(Event::UopsExecutedCoreCyclesNone, n);
                if !self.rob.is_empty() {
                    self.pmu.bump(Event::CycleActivityStallsTotal, n);
                }
            }
        }
        if mem_in_flight {
            self.pmu.bump(Event::CycleActivityCyclesMemAny, n);
        }
        if !rs_occupied {
            self.pmu.bump(Event::RsEventsEmptyCycles, n);
        }
        if r.issued == 0 {
            self.pmu.bump(Event::UopsIssuedStallCycles, n);
        }
        if self.idq.is_empty() {
            self.pmu.bump(Event::IdqEmptyCycles, n);
            self.pmu.bump(Event::DeDisUopQueueEmptyDi0, n);
        }
        if self.sink.enabled() {
            let ev = EventKind::FrontendCycle {
                dsb_uops: r.dsb_uops as u32,
                mite_uops: r.mite_uops as u32,
                stalled: r.fetch_stalled,
            };
            for cycle in now..now + n {
                self.sink.tick(cycle);
                self.sink.emit_at(cycle, ev);
            }
        }
    }
}
