//! Generation keys for the transfer tables.
//!
//! The paper's binding spectrum (§2, D1–D3) trades lookup cost against
//! freedom to rebind: a resolved transfer target is a *pure function*
//! of two slowly-changing stores — the code segment (entry vectors,
//! procedure headers) and the transfer-table words in data memory (the
//! GFT and each global frame's code-base word). Anything that memoises
//! a resolution — a compiled call site, say — is therefore coherent
//! exactly as long as neither store has changed.
//!
//! This module gives that condition a name. A [`TableKey`] snapshots
//! the two mutation counters (the `CodeStore` version and the data
//! memory's watched-word generation); [`TableKey::matches`] is the
//! one-comparison coherence check a cache performs before trusting a
//! memoised binding. `relocate_module` and `replace_proc` mutate the
//! code store (bumping its version), and simulated stores to GFT or
//! global-frame words bump the watched generation, so every rebinding
//! path in the system invalidates through one of the two counters —
//! the late-binding freedoms of D1 survive the early-binding speed of
//! D3 because staleness is *detected*, not outlawed.
//!
//! The VM's native tier is the one user. Its compiled call sites bind
//! only what the code store fixes (direct calls, and local calls
//! through the entry vector); external calls walk the GFT and code-base
//! words at run time. So the code version is what guards its bindings,
//! and the generation only makes a table store end the burst and
//! recompile the image — kept so that a binding drawn from the tables
//! would stay coherent without a new hook.

/// A snapshot of the two counters every resolved transfer target
/// depends on: the code store's mutation version and the data memory's
/// transfer-table (watched-word) generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableKey {
    /// `CodeStore::version()` at snapshot time.
    pub code_version: u64,
    /// `Memory::table_gen()` at snapshot time.
    pub table_gen: u64,
}

impl TableKey {
    /// Snapshots the two counters.
    pub fn new(code_version: u64, table_gen: u64) -> Self {
        TableKey {
            code_version,
            table_gen,
        }
    }

    /// Whether a binding memoised under this key is still coherent.
    #[inline]
    pub fn matches(self, code_version: u64, table_gen: u64) -> bool {
        self.code_version == code_version && self.table_gen == table_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_matches_only_its_own_snapshot() {
        let k = TableKey::new(3, 7);
        assert!(k.matches(3, 7));
        assert!(!k.matches(4, 7), "code mutation invalidates");
        assert!(!k.matches(3, 8), "table store invalidates");
        assert_eq!(k, TableKey::new(3, 7));
    }

    #[test]
    fn default_key_is_the_zero_snapshot() {
        assert!(TableKey::default().matches(0, 0));
    }
}
