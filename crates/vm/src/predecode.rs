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

/// A fused 2-op superinstruction, stored at the *first* op's offset.
///
/// The second op keeps its own entry in the flat map, so a jump into
/// the middle of a pair needs no special handling — it simply executes
/// the second op as a singleton. The fields beyond the ops themselves
/// are the statically-computed demotion guards: `need` is the minimum
/// evaluation-stack depth at which both halves are guaranteed not to
/// underflow, and `grow` is the maximum transient growth above the
/// starting depth (so `depth + grow > stack_depth` would overflow
/// exactly where the unfused pair would). When a guard fails the
/// machine *demotes* — executes only the first op as a normal step —
/// so every error path goes through the ordinary interpreter and
/// behaves bit-identically to an unfused run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FusedOp {
    /// The second instruction of the pair.
    pub b: Instr,
    /// Encoded length of the first instruction.
    pub len_a: u8,
    /// Encoded length of the second; 0 is the "no fusion" sentinel.
    pub len_b: u8,
    /// Minimum starting stack depth for both halves to succeed.
    pub need: u8,
    /// Maximum transient stack growth above the starting depth.
    pub grow: u8,
    /// Whether the second op is a transfer (call/return), requiring
    /// per-event reference accounting in the step arm.
    pub xfer: bool,
    /// Whether both halves are pure stack/control ops that can make no
    /// counted reference and no diverted reference — the step arm can
    /// then skip reading the reference counters entirely.
    pub pure: bool,
}

/// What the fused lookup found at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetched {
    /// A singleton instruction and its encoded length.
    One(Instr, u8),
    /// A fused pair: the first instruction plus the fusion record.
    Pair(Instr, FusedOp),
}

/// The "no fusion" sentinel: no real instruction has length zero.
const NO_FUSE: FusedOp = FusedOp {
    b: Instr::Noop,
    len_a: 0,
    len_b: 0,
    need: 0,
    grow: 0,
    xfer: false,
    pure: false,
};

/// Ops that touch only the evaluation stack, the PC or the host output
/// buffer: no counted memory/table reference, no §7.4 divert, ever.
fn is_pure_stack(i: Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        LoadImm(_)
            | Dup
            | Drop
            | Exch
            | Neg
            | AddImm(_)
            | Add
            | Sub
            | Mul
            | And
            | Or
            | Xor
            | Shl
            | Shr
            | CmpEq
            | CmpNe
            | CmpLt
            | CmpLe
            | CmpGt
            | CmpGe
            | Jump(_)
            | JumpZero(_)
            | JumpNotZero(_)
            | Out
            | Noop
    )
}

/// Evaluation-stack model of an instruction for fusion: `(pops,
/// pushes, is_transfer)`, or `None` if the instruction is not fusible
/// in that position. First position admits only non-control,
/// non-trapping ops (no `Div`/`Mod` — they can trap — and no
/// `LoadLocalAddr`, which can error under the Outlaw policy); second
/// position adds jumps, indirect storage ops and the call/return
/// transfers. Transfers model as `(0, 0)` — they manage the stack
/// through their own (error-checked) discipline, identically fused or
/// not.
fn fuse_model(i: Instr, second: bool) -> Option<(i8, i8, bool)> {
    use Instr::*;
    let m = match i {
        LoadImm(_) | LoadLocal(_) | LoadGlobal(_) | LoadGlobalAddr(_) => (0, 1, false),
        StoreLocal(_) | StoreGlobal(_) => (1, 0, false),
        Dup => (1, 2, false),
        Drop => (1, 0, false),
        Exch => (2, 2, false),
        Neg | AddImm(_) => (1, 1, false),
        Add | Sub | Mul | And | Or | Xor | Shl | Shr => (2, 1, false),
        CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => (2, 1, false),
        Read if second => (1, 1, false),
        Write if second => (2, 0, false),
        LoadIndex if second => (2, 1, false),
        StoreIndex if second => (3, 0, false),
        Out if second => (1, 0, false),
        Noop if second => (0, 0, false),
        Jump(_) if second => (0, 0, false),
        JumpZero(_) | JumpNotZero(_) if second => (1, 0, false),
        Ret | LocalCall(_) | ExternalCall(_) | DirectCall(_) | ShortDirectCall(_) if second => {
            (0, 0, true)
        }
        _ => return None,
    };
    Some(m)
}

/// Builds the fusion record for an adjacent pair, or `None` if the
/// pair is not fusible.
pub(crate) fn fuse_pair(a: Instr, b: Instr, len_a: u8, len_b: u8) -> Option<FusedOp> {
    let (pa, qa, _) = fuse_model(a, false)?;
    let (pb, qb, xfer) = fuse_model(b, true)?;
    let (pa, qa, pb, qb) = (pa as i32, qa as i32, pb as i32, qb as i32);
    // Low-water mark: depth consumed before each half's pushes land.
    let need = pa.max(pa - qa + pb).max(0) as u8;
    // High-water mark relative to the starting depth, at each half's
    // push-completion point (pushes land after pops within an op).
    let g1 = qa - pa;
    let g2 = g1 + qb - pb;
    let grow = g1.max(g2).max(0) as u8;
    Some(FusedOp {
        b,
        len_a,
        len_b,
        need,
        grow,
        xfer,
        pure: is_pure_stack(a) && is_pure_stack(b),
    })
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
    /// Fusion overlay, same length as `map` when fusion is on:
    /// `fused[offset]` pairs the op at `offset` with its successor
    /// (`len_b == 0` means unfused). Keyed at the first op only — the
    /// second op stays in `map` at its own offset for jump targets.
    fused: Vec<FusedOp>,
    fuse: bool,
    fused_pairs: usize,
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
        Self::with_fusion(false)
    }

    /// An empty cache that additionally fuses hot 2-op pairs during
    /// eager translation.
    pub fn with_fusion(fuse: bool) -> Self {
        PredecodeCache {
            version: 0,
            map: Vec::new(),
            fused: Vec::new(),
            fuse,
            fused_pairs: 0,
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

    /// Number of fused pairs currently in the overlay.
    pub fn fused_pairs(&self) -> usize {
        self.fused_pairs
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
        if self.fuse {
            self.fused.clear();
            self.fused.resize(code.bytes().len(), NO_FUSE);
        }
        self.fused_pairs = 0;
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
        let mut run: Vec<(usize, Instr, u8)> = Vec::new();
        for triple in walk(code.bytes(), start as usize, end as usize) {
            let Ok((off, instr, len)) = triple else { break };
            self.insert(off, instr, len);
            self.stats.eager_ops += 1;
            if self.fuse {
                run.push((off, instr, len as u8));
            }
        }
        // Greedy left-to-right peephole over the straight-line run:
        // each op joins at most one pair, and lazily-decoded stragglers
        // never fuse (no lookahead guarantees there).
        let mut i = 0;
        while i + 1 < run.len() {
            let (off_a, a, len_a) = run[i];
            let (_, b, len_b) = run[i + 1];
            if let Some(f) = fuse_pair(a, b, len_a, len_b) {
                self.fused[off_a] = f;
                self.fused_pairs += 1;
                i += 2;
            } else {
                i += 1;
            }
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

    /// The hot path with the fusion overlay consulted: returns the
    /// fused pair rooted at `offset` when there is one, else the
    /// singleton exactly as [`PredecodeCache::lookup`] would.
    ///
    /// # Errors
    ///
    /// The same [`DecodeError`] the byte decoder reports for this
    /// offset.
    #[inline]
    pub(crate) fn lookup_fused(
        &mut self,
        code: &CodeStore,
        offset: u32,
    ) -> Result<Fetched, DecodeError> {
        if self.version != code.version() {
            self.sync(code);
        }
        let i = offset as usize;
        if let Some(&op) = self.map.get(i) {
            if op.len != 0 {
                if self.fuse {
                    let f = self.fused[i];
                    if f.len_b != 0 {
                        return Ok(Fetched::Pair(op.instr, f));
                    }
                }
                return Ok(Fetched::One(op.instr, op.len));
            }
        }
        let (instr, len) = decode(code.bytes(), i)?;
        self.stats.lazy_decodes += 1;
        self.insert(i, instr, len);
        Ok(Fetched::One(instr, len as u8))
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
    fn fusion_pairs_adjacent_ops_and_keeps_singletons() {
        // LL0 · LI2 · CmpLt · JZ — greedy pairs (LL0,LI2) and (CmpLt,JZ).
        let code = store_with(&[
            Instr::LoadLocal(0),
            Instr::LoadImm(2),
            Instr::CmpLt,
            Instr::JumpZero(7),
        ]);
        let mut cache = PredecodeCache::with_fusion(true);
        cache.translate_range(&code, 0, code.len());
        assert_eq!(cache.fused_pairs(), 2);
        let Fetched::Pair(a, f) = cache.lookup_fused(&code, 0).unwrap() else {
            panic!("first op should root a pair")
        };
        assert_eq!(a, Instr::LoadLocal(0));
        assert_eq!(f.b, Instr::LoadImm(2));
        assert!(!f.xfer);
        // A jump into the middle of the pair sees the second op alone.
        let off_b = f.len_a as u32;
        assert!(matches!(
            cache.lookup_fused(&code, off_b).unwrap(),
            Fetched::One(Instr::LoadImm(2), _)
        ));
    }

    #[test]
    fn fusion_respects_position_rules() {
        // Ret fuses only as the second op; Div never fuses.
        assert!(fuse_pair(Instr::LoadLocal(0), Instr::Ret, 1, 1).is_some_and(|f| f.xfer));
        assert!(fuse_pair(Instr::Ret, Instr::LoadLocal(0), 1, 1).is_none());
        assert!(fuse_pair(Instr::Div, Instr::LoadImm(1), 1, 2).is_none());
        assert!(fuse_pair(Instr::LoadImm(1), Instr::Div, 2, 1).is_none());
        assert!(fuse_pair(Instr::LoadLocalAddr(0), Instr::Out, 1, 1).is_none());
    }

    #[test]
    fn fusion_guards_encode_stack_extremes() {
        // (LoadImm, Add): transiently one deeper, needs one beneath.
        let f = fuse_pair(Instr::LoadImm(5), Instr::Add, 2, 1).unwrap();
        assert_eq!((f.need, f.grow), (1, 1));
        // (CmpLt, JumpZero): consumes two, never grows.
        let f = fuse_pair(Instr::CmpLt, Instr::JumpZero(3), 1, 2).unwrap();
        assert_eq!((f.need, f.grow), (2, 0));
        // (Drop, Drop): needs two on the stack.
        let f = fuse_pair(Instr::Drop, Instr::Drop, 1, 1).unwrap();
        assert_eq!((f.need, f.grow), (2, 0));
    }

    #[test]
    fn fusion_off_cache_never_pairs() {
        let code = store_with(&[Instr::LoadLocal(0), Instr::LoadImm(2)]);
        let mut cache = PredecodeCache::new();
        cache.translate_range(&code, 0, code.len());
        assert_eq!(cache.fused_pairs(), 0);
        assert!(matches!(
            cache.lookup_fused(&code, 0).unwrap(),
            Fetched::One(Instr::LoadLocal(0), 1)
        ));
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
