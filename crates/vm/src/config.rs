//! Machine configurations: the paper's implementations I1–I4 as presets
//! over one engine.

/// How local frames are allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStrategy {
    /// A conventional first-fit general heap (the §4 simple
    /// implementation's "runtime routine … common in Algol and PL/1
    /// implementations"). Costs are modelled charges.
    General,
    /// The §5.3 allocation-vector frame heap: 3 references to allocate,
    /// 4 to free.
    Av,
    /// The AV heap fronted by the §7.1 processor free-frame stack:
    /// frames up to the standard size cost **zero** serial references
    /// while the cache holds; larger frames and cache misses fall back
    /// to the AV path.
    AvCached {
        /// Capacity of the processor's free-frame stack.
        cache_frames: usize,
        /// Defer the memory-side allocation until a register bank must
        /// actually be flushed (§7.1's alternative strategy): frames
        /// that live entirely in a bank never pay allocation references.
        defer: bool,
    },
}

/// What to do about pointers to local variables under register banks
/// (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PtrLocalPolicy {
    /// "The simplest solution is avoidance: outlaw pointers to local
    /// variables" — `LLA` raises an error.
    Outlaw,
    /// Flag frames whose locals have their address taken; flush the
    /// flagged frame's bank whenever control leaves its context and
    /// reload on return, so ordinary storage instructions see correct
    /// data from outside.
    FlushOnExit,
    /// Compare every indirect storage reference against the addresses
    /// shadowed by banks and divert matching references to the
    /// register (the PDP-10-style scheme); costs one extra cycle per
    /// diverted reference.
    #[default]
    Divert,
}

/// Register-bank configuration (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of banks ("say 4–8").
    pub banks: usize,
    /// Words per bank ("some modest fixed size (say 16 words)").
    pub words: u32,
    /// Rename the evaluation-stack bank into the callee's local bank at
    /// each call (§7.2), making argument passing free. Requires an
    /// image compiled without prologue argument stores.
    pub renaming: bool,
    /// Pointer-to-local handling.
    pub ptr_policy: PtrLocalPolicy,
}

impl BankConfig {
    /// The paper's sketch: 8 banks ("say 4-8"; Patterson's <1%
    /// overflow figure is for the top of that range) of 16 words,
    /// renaming on, divert policy.
    pub fn paper_default() -> Self {
        BankConfig {
            banks: 8,
            words: 16,
            renaming: true,
            ptr_policy: PtrLocalPolicy::Divert,
        }
    }
}

/// A complete machine configuration.
///
/// The presets correspond to the paper's implementations. Every preset
/// predecodes and runs the native tier (checked until a license arms
/// it); they differ only in the simulated machine:
///
/// | preset | return stack | banks | allocator |
/// |--------|--------------|-------|-----------|
/// | [`MachineConfig::i1`] | none | none | general heap |
/// | [`MachineConfig::i2`] | none | none | AV frame heap |
/// | [`MachineConfig::i3`] | 8 entries | none | AV frame heap |
/// | [`MachineConfig::i4`] | 8 entries | 8×16, renaming | AV + free-frame cache |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// IFU return-prediction stack depth; 0 disables it (§6).
    pub return_stack: usize,
    /// Register banks; `None` disables them (§7).
    pub banks: Option<BankConfig>,
    /// Frame allocation strategy.
    pub alloc: AllocStrategy,
    /// Enforce that calls find exactly their arguments on the
    /// evaluation stack (catches compiler spill bugs).
    pub strict_stack: bool,
    /// Maximum evaluation-stack depth (the register stack size).
    pub stack_depth: usize,
    /// Dispatch from a predecoded instruction stream instead of
    /// re-parsing code bytes on every step. A pure host-side
    /// optimisation: the simulated cost model is bit-identical either
    /// way (decode makes no counted references), so this defaults to
    /// on and exists mainly so experiments can measure the byte-decode
    /// baseline.
    pub predecode: bool,
    /// Frame-region words withheld from normal allocation as the fault
    /// reserve: a frame-fault handler can `DONATE` them back (the §5.3
    /// replenisher's donation pool), and fault dispatch may borrow from
    /// them to allocate the handler's own frame. 0 disables the
    /// reserve.
    pub fault_reserve_words: u32,
    /// Extra evaluation-stack slots unlocked while a stack-overflow
    /// fault handler runs, so the handler has headroom above the depth
    /// that just overflowed.
    pub stack_reserve: usize,
    /// Maximum nesting of fault handlers before
    /// [`VmError::FaultDepthExceeded`] stops the machine.
    ///
    /// [`VmError::FaultDepthExceeded`]: crate::VmError::FaultDepthExceeded
    pub max_fault_depth: u32,
    /// Run the native tier: every procedure body of the image is
    /// compiled, in one pass when the machine first runs and again
    /// after each code change, to a direct-threaded array of
    /// pre-monomorphized host handlers, and executed without the
    /// fetch/dispatch loop. Host-side only — every simulated counter
    /// stays bit-identical to byte dispatch. Unarmed, a burst checks
    /// each op's stack effect before running it and leaves any op that
    /// would underflow or overflow to the interpreter;
    /// [`Machine::arm_native`] with a [`NativeLicense`] derived from a
    /// clean `fpc-verify` certificate compiles that check out. The tier
    /// stops for good once a certificate premise lapses: installing a
    /// trap or fault handler (handler code runs at depths outside the
    /// certificate) or mutating code post-load (`replace_proc`,
    /// `relocate_module`, `unbind_module`). On in every preset.
    ///
    /// [`Machine::arm_native`]: crate::Machine::arm_native
    /// [`NativeLicense`]: crate::NativeLicense
    pub native: bool,
    /// Simulated data-memory size in words. The default
    /// ([`crate::image::DEFAULT_MEMORY_WORDS`]) is the full 16-bit
    /// address space; hosts that pack large populations of machines
    /// (the `fpc-sched` context scheduler) shrink it so a million
    /// contexts fit in host RAM. Must leave room for the link area
    /// plus a usable frame region — [`crate::Machine::load`] rejects
    /// sizes that do not.
    pub memory_words: u32,
    /// Record the effects each instruction actually performs (global
    /// reads/writes, memory-bank traffic, output, donations, module
    /// binds, traps taken, context operations) into an
    /// [`ObservedEffects`] journal readable via
    /// [`Machine::observed_effects`]. Host-side and charge-free: no
    /// simulated counter moves. Off by default; the effect-soundness
    /// differential turns it on to check observed ⊆ static summary.
    ///
    /// [`ObservedEffects`]: crate::ObservedEffects
    /// [`Machine::observed_effects`]: crate::Machine::observed_effects
    pub observe_effects: bool,
}

impl MachineConfig {
    /// I1 (§4): the straightforward implementation — full frame records
    /// from a general heap, no acceleration.
    pub fn i1() -> Self {
        MachineConfig {
            return_stack: 0,
            banks: None,
            alloc: AllocStrategy::General,
            strict_stack: true,
            stack_depth: 16,
            predecode: true,
            fault_reserve_words: 0,
            stack_reserve: 8,
            max_fault_depth: 8,
            native: true,
            memory_words: crate::image::DEFAULT_MEMORY_WORDS,
            observe_effects: false,
        }
    }

    /// I2 (§5): the Mesa implementation — AV frame heap, packed tables,
    /// no acceleration.
    pub fn i2() -> Self {
        MachineConfig {
            alloc: AllocStrategy::Av,
            ..Self::i1()
        }
    }

    /// I3 (§6): I2 plus the IFU return-prediction stack.
    pub fn i3() -> Self {
        MachineConfig {
            return_stack: 8,
            ..Self::i2()
        }
    }

    /// I4 (§7): I3 plus register banks with renaming and the processor
    /// free-frame cache.
    pub fn i4() -> Self {
        MachineConfig {
            banks: Some(BankConfig::paper_default()),
            alloc: AllocStrategy::AvCached {
                cache_frames: 8,
                defer: true,
            },
            ..Self::i3()
        }
    }

    /// Sets the return-stack depth.
    pub fn with_return_stack(mut self, depth: usize) -> Self {
        self.return_stack = depth;
        self
    }

    /// Sets the bank configuration.
    pub fn with_banks(mut self, banks: Option<BankConfig>) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the allocation strategy.
    pub fn with_alloc(mut self, alloc: AllocStrategy) -> Self {
        self.alloc = alloc;
        self
    }

    /// Enables or disables the predecoded instruction stream
    /// (host-side only; simulated costs are unaffected).
    pub fn with_predecode(mut self, on: bool) -> Self {
        self.predecode = on;
        self
    }

    /// Does nothing: there is no inline transfer cache to switch.
    /// Kept only for `perfbench/`, its one caller.
    #[doc(hidden)]
    pub fn with_inline_xfer(self, _: bool) -> Self {
        self
    }

    /// Does nothing: there is no fused rung to switch. Kept only for
    /// `perfbench/`, its one caller.
    #[doc(hidden)]
    pub fn with_fusion(self, _: bool) -> Self {
        self
    }

    /// Sets the fault-reserve size in frame-region words.
    pub fn with_fault_reserve(mut self, words: u32) -> Self {
        self.fault_reserve_words = words;
        self
    }

    /// Sets the emergency evaluation-stack headroom for fault handlers.
    pub fn with_stack_reserve(mut self, slots: usize) -> Self {
        self.stack_reserve = slots;
        self
    }

    /// Sets the fault-handler nesting bound.
    pub fn with_max_fault_depth(mut self, depth: u32) -> Self {
        self.max_fault_depth = depth;
        self
    }

    /// Enables or disables the native tier (see
    /// [`MachineConfig::native`]). Host-side only; a certificate-derived
    /// license at run time lets its bursts skip their stack checks.
    pub fn with_native_tier(mut self, on: bool) -> Self {
        self.native = on;
        self
    }

    /// A no-op: the native tier compiles every body, so there is no
    /// hotness threshold to set. Kept only for callers written against
    /// the old knob, `perfbench/` among them.
    #[doc(hidden)]
    pub fn with_native_threshold(self, _calls: u32) -> Self {
        self
    }

    /// Sets the simulated data-memory size in words (see
    /// [`MachineConfig::memory_words`]).
    pub fn with_memory_words(mut self, words: u32) -> Self {
        self.memory_words = words;
        self
    }

    /// Enables or disables the charge-free effect-observation journal
    /// (see [`MachineConfig::observe_effects`]).
    pub fn with_observe_effects(mut self, on: bool) -> Self {
        self.observe_effects = on;
        self
    }

    /// Whether bank renaming is active.
    pub fn renaming(&self) -> bool {
        self.banks.map(|b| b.renaming).unwrap_or(false)
    }

    /// The host dispatch ladder over this configuration, weakest
    /// first: `byte` (every host accelerator off: the reference each
    /// other rung must match bit-for-bit), `predecode`, and `native`
    /// (plus the native tier, which runs every body compiled: checked,
    /// or unchecked once armed). The rungs differ only in host speed.
    pub fn dispatch_ladder(self) -> [(&'static str, MachineConfig); 3] {
        let rung = |predecode, native| self.with_predecode(predecode).with_native_tier(native);
        [
            ("byte", rung(false, false)),
            ("predecode", rung(true, false)),
            ("native", rung(true, true)),
        ]
    }
}

impl Default for MachineConfig {
    /// The default is the fully accelerated I4 machine.
    fn default() -> Self {
        Self::i4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        assert_eq!(MachineConfig::i1().alloc, AllocStrategy::General);
        assert_eq!(MachineConfig::i2().alloc, AllocStrategy::Av);
        assert_eq!(MachineConfig::i2().return_stack, 0);
        assert_eq!(MachineConfig::i3().return_stack, 8);
        assert!(MachineConfig::i3().banks.is_none());
        assert!(MachineConfig::i4().banks.is_some());
        assert!(MachineConfig::i4().renaming());
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::i2()
            .with_return_stack(4)
            .with_alloc(AllocStrategy::General);
        assert_eq!(c.return_stack, 4);
        assert_eq!(c.alloc, AllocStrategy::General);
        assert!(c.predecode, "predecode defaults to on");
        assert!(!c.with_predecode(false).predecode);
        assert_eq!(c.fault_reserve_words, 0, "no reserve unless asked");
        assert_eq!(c.with_fault_reserve(128).fault_reserve_words, 128);
        assert_eq!(c.with_stack_reserve(4).stack_reserve, 4);
        assert_eq!(c.with_max_fault_depth(2).max_fault_depth, 2);
        assert!(c.native, "the native tier defaults to on");
        assert!(!c.with_native_tier(false).native);
        assert_eq!(
            c.memory_words,
            crate::image::DEFAULT_MEMORY_WORDS,
            "full address space unless shrunk"
        );
        assert_eq!(c.with_memory_words(2048).memory_words, 2048);
        assert!(!c.observe_effects, "observation is opt-in");
        assert!(c.with_observe_effects(true).observe_effects);
    }

    #[test]
    fn the_ladder_climbs_from_byte_to_native() {
        let ladder = MachineConfig::i2().dispatch_ladder();
        let toggles = ladder.map(|(name, c)| (name, c.predecode, c.native));
        assert_eq!(
            toggles,
            [
                ("byte", false, false),
                ("predecode", true, false),
                ("native", true, true),
            ]
        );
    }

    #[test]
    fn default_is_i4() {
        assert_eq!(MachineConfig::default(), MachineConfig::i4());
    }
}
