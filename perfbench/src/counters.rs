//! Host-side and simulated counters of the `vm` and `frames` layers,
//! read from the machine's `*_stats()` getters after each op.

use fpc_vm::Machine;

use crate::measure::ratio;
use crate::Metrics;

/// Sums over the machines of one pass.
#[derive(Debug, Default, Clone)]
pub struct VmCounters {
    images: u64,
    instructions: [u64; 4],
    native_instrs: [u64; 4],
    interp_ops: u64,
    xfer_hits: u64,
    xfer_misses: u64,
    fused_execs: u64,
    demotions: u64,
    lazy_decodes: u64,
    rs_hits: u64,
    rs_misses: u64,
    bank_spills: u64,
    bank_calls: u64,
    diversions: u64,
    bank_instrs: u64,
    heap_traps: u64,
    heap_allocs: u64,
    granted_words: u64,
}

impl VmCounters {
    /// Adds one halted (or paused) machine running on implementation
    /// `imp` (0 = I1 … 3 = I4).
    pub fn add(&mut self, imp: usize, m: &Machine) {
        let instrs = m.stats().instructions;
        self.images += 1;
        self.instructions[imp] += instrs;
        if let Some(n) = m.native_stats() {
            self.native_instrs[imp] += n.native_instrs;
            self.interp_ops += n.interp_ops;
        }
        if let Some(x) = m.xfer_cache_stats() {
            self.xfer_hits += x.hits;
            self.xfer_misses += x.misses;
        }
        if let Some(f) = m.fusion_stats() {
            self.fused_execs += f.fused_execs;
            self.demotions += f.demotions;
        }
        if let Some(p) = m.predecode_stats() {
            self.lazy_decodes += p.lazy_decodes;
        }
        let rs = m.return_stack_stats();
        self.rs_hits += rs.hits;
        self.rs_misses += rs.misses;
        if let Some(b) = m.bank_stats() {
            self.bank_spills += b.slow_events();
            self.diversions += b.diversions;
            self.bank_calls += m.stats().transfers.calls.count;
            self.bank_instrs += instrs;
        }
        if let Some(h) = m.heap_stats() {
            self.heap_traps += h.traps;
            self.heap_allocs += h.allocs;
            self.granted_words += h.granted_words;
        }
    }

    /// Writes the `vm.*` counter metrics and the `frames.*` metrics.
    pub fn report(&self, out: &mut Metrics) {
        let total: u64 = self.instructions.iter().sum();
        for (i, name) in ["i1", "i2", "i3", "i4"].iter().enumerate() {
            out.put(
                &format!("vm.native.share.{name}"),
                ratio(self.native_instrs[i] as f64, self.instructions[i] as f64),
                "share",
            );
        }
        out.put(
            "vm.native.fallback_per_kinstr",
            1000.0 * ratio(self.interp_ops as f64, total as f64),
            "count/kinstr",
        );
        out.put(
            "vm.xfer.hit_ratio",
            ratio(
                self.xfer_hits as f64,
                (self.xfer_hits + self.xfer_misses) as f64,
            ),
            "share",
        );
        out.put(
            "vm.fusion.exec_share",
            ratio(2.0 * self.fused_execs as f64, total as f64),
            "share",
        );
        out.put("vm.fusion.demotions", self.demotions as f64, "count");
        out.put(
            "vm.predecode.lazy_decodes_per_image",
            ratio(self.lazy_decodes as f64, self.images as f64),
            "count",
        );
        out.put(
            "vm.return_stack.hit_ratio",
            ratio(self.rs_hits as f64, (self.rs_hits + self.rs_misses) as f64),
            "share",
        );
        out.put(
            "vm.banks.spills_per_kcall",
            1000.0 * ratio(self.bank_spills as f64, self.bank_calls as f64),
            "count/kcall",
        );
        out.put(
            "vm.banks.diversions_per_kinstr",
            1000.0 * ratio(self.diversions as f64, self.bank_instrs as f64),
            "count/kinstr",
        );
        out.put(
            "frames.traps_per_kalloc",
            1000.0 * ratio(self.heap_traps as f64, self.heap_allocs as f64),
            "count/kalloc",
        );
        out.put(
            "frames.words_per_alloc",
            ratio(self.granted_words as f64, self.heap_allocs as f64),
            "words",
        );
    }
}
