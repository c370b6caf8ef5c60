//! One-call environment setup: CPU preset + kernel (KASLR/KPTI/FLARE) +
//! secrets + noise.

use tet_os::{ContainerEnv, Kernel, KernelConfig};
use tet_uarch::{CpuConfig, Machine};

/// Options for building a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Seed for DRAM jitter and KASLR placement.
    pub seed: u64,
    /// Bytes planted in the simulated kernel's secret page (TET-MD's
    /// target).
    pub kernel_secret: Vec<u8>,
    /// Bytes planted in an in-process user page (TET-RSB's target).
    pub user_secret: Vec<u8>,
    /// Enable KPTI.
    pub kpti: bool,
    /// Enable FLARE.
    pub flare: bool,
    /// OS timer-interrupt noise period in cycles (`0` = off).
    pub interrupt_period: u64,
    /// The container environment (bare metal by default).
    pub container: ContainerEnv,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            seed: 1,
            kernel_secret: b"WHISPER!".to_vec(),
            user_secret: b"rsb-secret".to_vec(),
            kpti: false,
            flare: false,
            interrupt_period: 0,
            container: ContainerEnv::bare_metal(),
        }
    }
}

/// Virtual address of the attacker-visible shared page (covert-channel
/// sender buffer).
pub const SHARED_PAGE: u64 = 0x44_0000;

/// Virtual address of the in-process user secret page.
pub const USER_SECRET_PAGE: u64 = 0x50_0000;

/// Top of the attacker's stack (one page mapped below).
pub const STACK_TOP: u64 = 0x60_0800;

/// Virtual address of the victim's working page (its loads prime the
/// line fill buffer for TET-ZBL).
pub const VICTIM_PAGE: u64 = 0x70_0000;

/// A ready-to-attack environment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The attacker's machine (user-mode view).
    pub machine: Machine,
    /// The installed kernel (KASLR placement, KPTI/FLARE state).
    pub kernel: Kernel,
    /// Virtual address of the kernel secret (mapped supervisor-only;
    /// under KPTI it is absent from the attacker's tables).
    pub kernel_secret_va: u64,
    /// Virtual address of the in-process user secret.
    pub user_secret_va: u64,
    /// The container environment.
    pub container: ContainerEnv,
}

impl Scenario {
    /// Builds the environment on the given CPU model.
    pub fn new(cpu: CpuConfig, opts: &ScenarioOptions) -> Scenario {
        let mut cfg = cpu;
        cfg.timing.interrupt_period = opts.interrupt_period;
        let mut machine = Machine::new(cfg, opts.seed);

        // Install the kernel into the attacker-visible address space.
        let kernel = {
            let mut frames = tet_mem::FrameAlloc::starting_at(0x10_0000);
            let kcfg = KernelConfig {
                seed: opts.seed,
                kpti: opts.kpti,
                flare: opts.flare,
                ..KernelConfig::default()
            };
            // Split borrows: install needs the address space only.
            let kernel = Kernel::install(&kcfg, machine_aspace(&mut machine), &mut frames);
            kernel
        };

        // Plant the kernel secret (possible even under KPTI: the secret
        // page exists physically; we write through a scratch mapping of
        // the same frame in the full kernel view).
        let secret_va = kernel.secret_va;
        if !opts.kpti {
            if let Some(pa) = machine.aspace().translate(secret_va) {
                let bytes = opts.kernel_secret.clone();
                machine.phys_mut().write_bytes(pa, &bytes);
            }
        }

        // User-side pages.
        let shared_pa = machine.map_user_page(SHARED_PAGE);
        let _ = shared_pa;
        let user_pa = machine.map_user_page(USER_SECRET_PAGE);
        machine.map_user_page(STACK_TOP - 8);
        let victim_pa = machine.map_user_page(VICTIM_PAGE);
        let user_secret = opts.user_secret.clone();
        machine.phys_mut().write_bytes(user_pa, &user_secret);
        machine
            .phys_mut()
            .write_bytes(victim_pa, b"victim-lfb-data");

        // Syscalls enter through the trampoline.
        machine.cpu_mut().set_syscall_pages(vec![kernel.trampoline]);

        Scenario {
            machine,
            kernel,
            kernel_secret_va: secret_va,
            user_secret_va: USER_SECRET_PAGE,
            container: opts.container.clone(),
        }
    }

    /// The covert-channel shared page address.
    pub fn shared_page(&self) -> u64 {
        SHARED_PAGE
    }

    /// Runs the simulated victim access pattern once: loads from the
    /// victim page so its data transits the shared line fill buffer
    /// (the TET-ZBL priming step).
    pub fn victim_touch(&mut self, offset: u64) {
        victim_touch(&mut self.machine, offset);
    }

    /// Plants a byte in the victim page.
    pub fn set_victim_byte(&mut self, offset: u64, value: u8) {
        let pa = victim_pa(&self.machine, offset);
        self.machine.phys_mut().write_u8(pa, value);
    }

    /// Writes the covert-channel sender's byte.
    pub fn sender_write(&mut self, value: u8) {
        let pa = self
            .machine
            .aspace()
            .translate(SHARED_PAGE)
            .expect("shared page is mapped");
        self.machine.phys_mut().write_u8(pa, value);
    }
}

/// [`Scenario::victim_touch`] on a bare machine, for sweeps that hold
/// only the `&mut Machine`.
pub fn victim_touch(machine: &mut Machine, offset: u64) {
    victim_touch_pa(machine, victim_pa(machine, offset));
}

/// The physical address behind victim-page offset `offset`. A pure
/// page-table read: sweeps that touch one victim byte before every
/// probe translate it once and call [`victim_touch_pa`].
pub fn victim_pa(machine: &Machine, offset: u64) -> u64 {
    machine
        .aspace()
        .translate(VICTIM_PAGE + offset)
        .expect("victim page is mapped")
}

/// The victim's demand load of physical address `pa` (from
/// [`victim_pa`]): flushed, then routed through the hierarchy so the
/// line (with its data) lands in the LFB.
pub fn victim_touch_pa(machine: &mut Machine, pa: u64) {
    let (mem, phys) = machine.mem_and_phys_mut();
    mem.clflush(pa);
    mem.data_load(pa, phys);
}

fn machine_aspace(machine: &mut Machine) -> &mut tet_mem::AddressSpace {
    machine.aspace_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tet_mem::WalkOutcome;

    #[test]
    fn scenario_plants_secrets() {
        let sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let pa = sc
            .machine
            .aspace()
            .translate(sc.kernel_secret_va)
            .expect("kernel secret VA must be mapped");
        assert_eq!(sc.machine.phys().read_bytes(pa, 8), b"WHISPER!");
        let upa = sc
            .machine
            .aspace()
            .translate(sc.user_secret_va)
            .expect("user secret VA must be mapped");
        assert_eq!(sc.machine.phys().read_bytes(upa, 10), b"rsb-secret");
    }

    #[test]
    fn kpti_scenario_hides_the_kernel_secret() {
        let sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                kpti: true,
                ..ScenarioOptions::default()
            },
        );
        assert!(sc.machine.aspace().translate(sc.kernel_secret_va).is_none());
        assert!(matches!(
            sc.machine.aspace().walk(sc.kernel.trampoline).0,
            WalkOutcome::Mapped(_)
        ));
    }

    #[test]
    fn victim_touch_primes_the_lfb() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        sc.set_victim_byte(0, b'Q');
        sc.victim_touch(0);
        assert_eq!(sc.machine.mem().lfb().stale_byte(0), Some(b'Q'));
    }

    #[test]
    fn sender_write_is_visible_to_loads() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        sc.sender_write(0x5c);
        assert_eq!(sc.machine.read_virt_u8(SHARED_PAGE), 0x5c);
    }

    #[test]
    fn seeds_relocate_the_kernel() {
        let bases: std::collections::HashSet<u64> = (0..8)
            .map(|seed| {
                Scenario::new(
                    CpuConfig::kaby_lake_i7_7700(),
                    &ScenarioOptions {
                        seed,
                        ..ScenarioOptions::default()
                    },
                )
                .kernel
                .base
            })
            .collect();
        assert!(bases.len() > 2, "KASLR must vary with the seed");
    }
}
