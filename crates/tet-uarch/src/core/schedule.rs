//! Scheduling: oldest-first issue, source readiness, operand values
//! and store-to-load forwarding.

use tet_isa::{Flags, Inst, Reg};
use tet_obs::EventKind;
use tet_pmu::Event;

use crate::template::ProgramTemplate;
use crate::uop::{DepKind, RobEntry, UopId};

use super::{Cpu, Env};

/// Outcome of one scheduler source-readiness evaluation.
pub(super) enum DepVerdict {
    /// All sources are forward-ready now.
    Ready,
    /// All producers executed; the last one forwards at this cycle.
    WakeAt(u64),
    /// This producer has not executed yet — park on its waiter list.
    Park(u64),
}

impl Cpu {
    /// Issues ready µops oldest first. Only the pending set is walked:
    /// started entries have nothing to issue (a started fence is done —
    /// it starts with `done_at = now` — so it never blocks), and parked
    /// entries wait for their producer's wake-up, which re-pends them
    /// before this walk reaches them (waiters are younger).
    pub(super) fn schedule_cycle(&mut self, now: u64, env: &mut Env<'_>) -> usize {
        if now < self.pipeline_flush_until {
            return 0;
        }
        let mut started = 0usize;
        // Each lookup reads the live set, so a waiter woken by an
        // execute below is reached later in this same walk.
        let mut from = 0;
        while let Some(i) = self.rob.next_pending(from) {
            from = i + 1;
            // Fences wait until all older µops are done, then "execute"
            // instantly; they block everything younger meanwhile. While
            // a fence sits unstarted, nothing younger can have started,
            // so `exec_max_done > now` proves an *older* in-flight µop
            // and skips the prefix scan.
            if self.rob[i].kind.is_fence() {
                let older_done = self.exec_max_done <= now
                    && self.rob.iter().take(i).all(|e| e.retire_ready(now));
                if older_done {
                    let e = self.rob.start(i);
                    debug_assert!(e.waiter_head.is_none(), "fences produce nothing");
                    e.forward_at = now;
                    e.done_at = now;
                    let id = e.id;
                    self.exec_max_done = self.exec_max_done.max(now);
                    self.sink.emit_at(
                        now,
                        EventKind::UopExecuted {
                            id,
                            started_at: now,
                            done_at: now,
                        },
                    );
                    continue;
                }
                break;
            }
            // Entries waiting on a known future time are skipped in
            // O(1); the issue decisions are identical to the old
            // every-cycle re-poll because `wake_at` is always a lower
            // bound on the entry's first possible issue cycle.
            if now < self.rob[i].wake_at {
                continue;
            }
            match self.eval_deps(i, now) {
                DepVerdict::Park(pid) => self.park_on(i, pid),
                DepVerdict::WakeAt(at) => self.rob[i].wake_at = at,
                DepVerdict::Ready => {
                    if let Some(blocker) = self.mem_order_blocker(i) {
                        // Unknown older store address: woken the cycle
                        // that store starts (it may issue the same
                        // cycle, exactly like the old in-order re-poll).
                        self.park_on(i, blocker);
                    } else if let Some(port) = self.free_port(now) {
                        self.ports_busy[port] = now + 1;
                        self.execute_uop(i, now, env);
                        started += 1;
                        self.pmu.bump(Event::UopsExecutedAny, 1);
                    } else {
                        // Port starvation: every busy port frees by the
                        // next cycle.
                        self.rob[i].wake_at = now + 1;
                    }
                }
            }
        }
        started
    }

    fn free_port(&self, now: u64) -> Option<usize> {
        self.ports_busy.iter().position(|&b| b <= now)
    }

    /// ROB index of the in-flight µop `id`, or `None` if it is gone
    /// (retired, or — for ids a squash discarded — never referenced).
    ///
    /// µop ids are assigned sequentially at rename, so absent squashes
    /// the resident ids are contiguous and the position is simply
    /// `id - front.id` (the O(1) fast path). A squash leaves a gap
    /// (`next_uop_id` does not roll back), but ids stay strictly
    /// ascending (so a gap only moves an id *below* its guess) and the
    /// fallback is a binary search under the guess, not a linear scan.
    pub(super) fn rob_index(&self, id: u64) -> Option<usize> {
        let front = self.rob.front()?.id;
        if id < front {
            return None;
        }
        let mut hi = ((id - front) as usize).min(self.rob.len() - 1);
        if self.rob[hi].id == id {
            return Some(hi);
        }
        let mut lo = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rob[mid].id.cmp(&id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    fn producer(&self, id: u64) -> Option<&RobEntry> {
        self.rob_index(id).map(|i| &self.rob[i])
    }

    pub(super) fn deps_ready(&self, entry: &RobEntry, now: u64) -> bool {
        entry.deps.iter().all(|d| match d.producer {
            None => true,
            Some(id) => match self.producer(id.get()) {
                Some(p) => p.forward_ready(now),
                None => true, // retired → committed state is current
            },
        })
    }

    /// One source-readiness evaluation of the unstarted µop at `i`,
    /// deciding how the scheduler hears about it next:
    ///
    /// * [`DepVerdict::Ready`] — all sources forward-ready at `now`;
    /// * [`DepVerdict::WakeAt`] — every producer has executed, the last
    ///   forwards at the returned (exact) cycle;
    /// * [`DepVerdict::Park`] — some producer has not executed yet, so
    ///   no bound exists: park on that producer's waiter list and let
    ///   its execution wake us (O(woken), not O(ROB) per cycle).
    pub(super) fn eval_deps(&self, i: usize, now: u64) -> DepVerdict {
        let mut wake = now;
        for d in &self.rob[i].deps {
            let Some(pid) = d.producer.map(UopId::get) else {
                continue;
            };
            let Some(pidx) = self.rob_index(pid) else {
                continue; // retired → committed state is current
            };
            let p = &self.rob[pidx];
            if !p.started {
                return DepVerdict::Park(pid);
            }
            let fwd = p.forward_at;
            if fwd > wake {
                wake = fwd;
            }
        }
        if wake > now {
            DepVerdict::WakeAt(wake)
        } else {
            DepVerdict::Ready
        }
    }

    /// Parks the unstarted µop at index `i` on the waiter list of the
    /// older unstarted µop `pid`; `execute_uop` of that producer resets
    /// `wake_at` so the waiter re-evaluates (same cycle — waiters are
    /// younger, so the age-ordered sweep has not passed them yet).
    fn park_on(&mut self, i: usize, pid: u64) {
        let pidx = self.rob_index(pid).expect("blocking µop is in flight");
        debug_assert!(pidx < i, "can only wait on an older µop");
        debug_assert!(!self.rob[pidx].started);
        let head = self.rob[pidx].waiter_head;
        let e = self.rob.park(i);
        debug_assert!(e.next_waiter.is_none(), "µop parked twice");
        e.next_waiter = head;
        let id = e.id;
        self.rob[pidx].waiter_head = Some(UopId::new(id));
    }

    /// Loads must wait for older stores with unknown addresses, and for
    /// forwarding-blocked stores (clflush between store and load) to
    /// retire. Stores and non-memory µops are always order-ready.
    /// Returns the youngest blocking store's id, or `None` when ready;
    /// the scan is skipped entirely while no unstarted store exists.
    pub(super) fn mem_order_blocker(&self, i: usize) -> Option<u64> {
        if self.unstarted_store_count == 0 || !self.rob[i].kind.is_load_kind() {
            return None;
        }
        for j in (0..i).rev() {
            let e = &self.rob[j];
            if e.kind.is_store_kind() && !e.started {
                return Some(e.id); // unknown older store address
            }
        }
        None
    }

    pub(super) fn dep_reg_value(&self, entry: &RobEntry, r: Reg) -> u64 {
        for d in &entry.deps {
            if let DepKind::Reg(reg) = d.kind {
                if reg == r {
                    if let Some(id) = d.producer {
                        if let Some(p) = self.producer(id.get()) {
                            if let Some(v) = p.result_for(r) {
                                return v;
                            }
                        }
                    }
                    return self.regs.get(r);
                }
            }
        }
        self.regs.get(r)
    }

    pub(super) fn dep_flags_value(&self, entry: &RobEntry) -> Flags {
        for d in &entry.deps {
            if matches!(d.kind, DepKind::Flags) {
                if let Some(id) = d.producer {
                    if let Some(p) = self.producer(id.get()) {
                        if let Some(f) = p.flags_out {
                            return f;
                        }
                    }
                }
                return self.flags;
            }
        }
        self.flags
    }

    pub(super) fn eff_addr(&self, entry: &RobEntry, addr: &tet_isa::Addr) -> u64 {
        let mut a = addr.disp as u64;
        if let Some(b) = addr.base {
            a = a.wrapping_add(self.dep_reg_value(entry, b));
        }
        if let Some((idx, scale)) = addr.index {
            a = a.wrapping_add(self.dep_reg_value(entry, idx).wrapping_mul(scale as u64));
        }
        a
    }

    pub(super) fn src_value(&self, entry: &RobEntry, s: &tet_isa::Src) -> u64 {
        match s {
            tet_isa::Src::Reg(r) => self.dep_reg_value(entry, *r),
            tet_isa::Src::Imm(v) => *v,
        }
    }

    /// Store-to-load forwarding scan for a load of width `byte_load`.
    /// Returns:
    /// * `Some(Ok(value))` — forward from an older in-flight store;
    /// * `Some(Err(()))` — forwarding blocked (partial overlap, or an
    ///   intervening `clflush`): the load must wait until the store
    ///   drains and read memory;
    /// * `None` — no older in-flight store overlapping this address.
    pub(super) fn forwarding(
        &self,
        i: usize,
        vaddr: u64,
        byte_load: bool,
        template: &ProgramTemplate,
    ) -> Option<Result<u64, ()>> {
        if self.inflight_store_data == 0 {
            return None; // no in-flight store anywhere in the ROB
        }
        let load_len: u64 = if byte_load { 1 } else { 8 };
        for j in (0..i).rev() {
            let e = &self.rob[j];
            if let Some(store) = &e.store {
                let store_len: u64 = if store.byte { 1 } else { 8 };
                let overlap = store.vaddr < vaddr + load_len && vaddr < store.vaddr + store_len;
                if !overlap {
                    continue;
                }
                // Loads fully contained in the store can forward; partial
                // overlaps stall until the store drains (real store
                // buffers behave the same way).
                let contained = vaddr >= store.vaddr && vaddr + load_len <= store.vaddr + store_len;
                if !contained {
                    return Some(Err(()));
                }
                // clflush of the same line between store and load blocks
                // forwarding (the Listing 1 trick that slows `ret`).
                let line = tet_mem::line_addr(vaddr);
                let blocked = self.rob.iter().take(i).skip(j + 1).any(|c| {
                    c.kind.is_clflush() && c.started && {
                        if let Inst::Clflush { addr } = template.inst(c.pc) {
                            tet_mem::line_addr(self.eff_addr(c, addr)) == line
                        } else {
                            false
                        }
                    }
                });
                if blocked {
                    return Some(Err(()));
                }
                let shift = 8 * (vaddr - store.vaddr);
                let value = if byte_load {
                    (store.value >> shift) & 0xff
                } else {
                    store.value
                };
                return Some(Ok(value));
            }
        }
        None
    }
}
