//! The predecoded instruction stream: a host-side translation cache.
//!
//! The Mesa encoding optimises for *space* — one-byte forms for the
//! common cases, multi-byte escapes for the rest — which means the
//! byte-at-a-time decoder runs a guard chain on every simulated
//! instruction. A real machine pays that once per instruction *fetch*;
//! an interpreter that re-parses the same hot loop body billions of
//! times pays it over and over. This module translates each code
//! segment once into a vector of [`DecodedOp`]s and lets
//! [`crate::Machine::step`] dispatch straight off the decoded form.
//!
//! **Invariant: the simulated machine cannot tell.** Decoding reads
//! the raw byte slice and makes no counted memory references, so a
//! predecoded run produces bit-identical cycle and reference counters
//! to a byte-decoded run (`tests/predecode_parity.rs` enforces this
//! over the whole corpus, including mid-run code mutation). The cache
//! is pure memoisation of a pure function of the code bytes.
//!
//! Coherence is by versioning, not by invalidation hooks: the
//! [`CodeStore`] bumps a counter on every mutation (`append`, `poke`),
//! and every lookup compares it. Code swapping (`relocate_module`) and
//! dynamic procedure replacement (`replace_proc`) therefore invalidate
//! the cache automatically — they mutate the store through those same
//! two entry points.

use fpc_isa::{decode, walk, DecodeError, Instr};
use fpc_mem::CodeStore;

/// One predecoded instruction: the decoded form plus its encoded
/// length (needed to advance the PC exactly as the byte decoder
/// would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodedOp {
    /// The decoded instruction.
    pub instr: Instr,
    /// Encoded length in bytes (1–4).
    pub len: u8,
}

/// Counters describing how the cache earned its keep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Lookups served from the decoded stream. The cache itself never
    /// maintains this — bumping a counter per instruction is measurable
    /// on the hot path — so it stays zero here; [`crate::Machine`]
    /// derives it as executed instructions minus `lazy_decodes` (every
    /// step performs exactly one lookup, and a lookup that errors never
    /// becomes an executed instruction).
    pub hits: u64,
    /// Lookups that had to decode (then memoise) on the spot.
    pub lazy_decodes: u64,
    /// Instructions decoded by eager segment walks.
    pub eager_ops: u64,
    /// Times the whole cache was discarded because the code changed.
    pub rebuilds: u64,
}

/// A version-keyed map from code byte offsets to decoded instructions.
///
/// `map[offset]` holds the decoded op directly, with `len == 0` for
/// "not translated" — byte offsets that are data (entry vectors,
/// headers) or simply never executed stay untranslated forever. The
/// flat layout makes the hot lookup one indexed load rather than an
/// index table plus a dependent fetch.
#[derive(Debug, Clone)]
pub struct PredecodeCache {
    version: u64,
    map: Vec<DecodedOp>,
    translated: usize,
    stats: PredecodeStats,
}

/// The "untranslated" sentinel: no real instruction has length zero.
const EMPTY: DecodedOp = DecodedOp {
    instr: Instr::Noop,
    len: 0,
};

impl PredecodeCache {
    /// An empty cache; coherent with an empty, never-mutated store.
    pub fn new() -> Self {
        PredecodeCache {
            version: 0,
            map: Vec::new(),
            translated: 0,
            stats: PredecodeStats::default(),
        }
    }

    /// Usage counters.
    pub fn stats(&self) -> PredecodeStats {
        self.stats
    }

    /// Number of distinct instructions currently translated.
    pub fn translated_ops(&self) -> usize {
        self.translated
    }

    /// Discards stale state and re-keys the cache to the store's
    /// current version. No-op when already coherent.
    pub fn sync(&mut self, code: &CodeStore) {
        if self.version == code.version() && self.map.len() == code.bytes().len() {
            return;
        }
        self.version = code.version();
        self.map.clear();
        self.map.resize(code.bytes().len(), EMPTY);
        self.translated = 0;
        self.stats.rebuilds += 1;
    }

    /// Eagerly translates the instruction run in `[start, end)`,
    /// stopping early (silently) at the first undecodable byte — a
    /// range that turns out to hold data is simply left to the lazy
    /// path, which reports the error at the offset actually executed.
    pub fn translate_range(&mut self, code: &CodeStore, start: u32, end: u32) {
        self.sync(code);
        if self.map.get(start as usize).is_some_and(|op| op.len != 0) {
            return; // range already walked
        }
        for triple in walk(code.bytes(), start as usize, end as usize) {
            let Ok((off, instr, len)) = triple else { break };
            self.insert(off, instr, len);
            self.stats.eager_ops += 1;
        }
    }

    /// The hot path: the decoded instruction at `offset`, exactly as
    /// [`fpc_isa::decode`] would produce it.
    ///
    /// # Errors
    ///
    /// The same [`DecodeError`] the byte decoder reports for this
    /// offset.
    #[inline]
    pub fn lookup(&mut self, code: &CodeStore, offset: u32) -> Result<(Instr, usize), DecodeError> {
        if self.version != code.version() {
            self.sync(code);
        }
        if let Some(&op) = self.map.get(offset as usize) {
            if op.len != 0 {
                return Ok((op.instr, op.len as usize));
            }
        }
        // Lazy path: decode, memoise, return. Reached for code outside
        // any walked segment (e.g. activations finishing on a moved
        // segment's old copy) and for genuine decode errors.
        let (instr, len) = decode(code.bytes(), offset as usize)?;
        self.stats.lazy_decodes += 1;
        self.insert(offset as usize, instr, len);
        Ok((instr, len))
    }

    fn insert(&mut self, offset: usize, instr: Instr, len: usize) {
        if offset < self.map.len() {
            self.map[offset] = DecodedOp {
                instr,
                len: len as u8,
            };
            self.translated += 1;
        }
    }
}

impl Default for PredecodeCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(instrs: &[Instr]) -> CodeStore {
        let mut bytes = Vec::new();
        for i in instrs {
            i.encode(&mut bytes);
        }
        let mut c = CodeStore::new();
        c.append(&bytes);
        c
    }

    #[test]
    fn lookup_matches_byte_decoder() {
        let code = store_with(&[Instr::LoadImm(300), Instr::AddImm(7), Instr::Ret]);
        let mut cache = PredecodeCache::new();
        let mut off = 0usize;
        while off < code.bytes().len() {
            let want = decode(code.bytes(), off).unwrap();
            let got = cache.lookup(&code, off as u32).unwrap();
            assert_eq!(got, want);
            // Second lookup hits.
            assert_eq!(cache.lookup(&code, off as u32).unwrap(), want);
            off += want.1;
        }
        assert_eq!(
            cache.stats().lazy_decodes,
            3,
            "repeat lookups must not re-decode"
        );
    }

    #[test]
    fn eager_walk_makes_lookups_hits() {
        let code = store_with(&[Instr::LoadLocal(0), Instr::LoadImm(9), Instr::Out]);
        let mut cache = PredecodeCache::new();
        cache.translate_range(&code, 0, code.len());
        assert_eq!(cache.translated_ops(), 3);
        cache.lookup(&code, 0).unwrap();
        assert_eq!(
            cache.stats().lazy_decodes,
            0,
            "walked range must serve lookups"
        );
    }

    #[test]
    fn mutation_invalidates_via_version() {
        let mut code = store_with(&[Instr::LoadImm(100)]);
        let mut cache = PredecodeCache::new();
        let (i1, _) = cache.lookup(&code, 0).unwrap();
        assert_eq!(i1, Instr::LoadImm(100));
        // Poke LIB's literal operand byte.
        code.poke(fpc_mem::ByteAddr(1), 42);
        let (i2, _) = cache.lookup(&code, 0).unwrap();
        assert_eq!(
            i2,
            Instr::LoadImm(42),
            "stale decode must not survive a poke"
        );
        assert!(cache.stats().rebuilds >= 2);
    }

    #[test]
    fn decode_errors_pass_through_unmemoised() {
        let mut code = CodeStore::new();
        code.append(&[0xFF]);
        let mut cache = PredecodeCache::new();
        assert!(cache.lookup(&code, 0).is_err());
        assert!(cache.lookup(&code, 0).is_err());
        assert_eq!(cache.translated_ops(), 0);
    }

    #[test]
    fn translate_range_stops_at_data() {
        let mut bytes = Vec::new();
        Instr::Noop.encode(&mut bytes);
        bytes.push(0xFF); // data in the middle of the "range"
        Instr::Halt.encode(&mut bytes);
        let mut code = CodeStore::new();
        code.append(&bytes);
        let mut cache = PredecodeCache::new();
        cache.translate_range(&code, 0, code.len());
        assert_eq!(cache.translated_ops(), 1, "walk stops at the junk byte");
        // The instruction past the junk is still reachable lazily.
        assert_eq!(cache.lookup(&code, 2).unwrap().0, Instr::Halt);
    }
}
