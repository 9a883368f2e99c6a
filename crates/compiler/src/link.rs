//! The linker: assembles modules, places segments, resolves call
//! fixups, and produces a loadable [`Image`].

use fpc_core::layout;
use fpc_frames::SizeClasses;
use fpc_isa::sizing::SizeStats;
use fpc_isa::{walk, Assembler};
use fpc_mem::ByteAddr;
use fpc_vm::{Image, ModuleImage, ProcRef};

use crate::ast::Module;
use crate::codegen::{self, CallSiteCounts, FixKind, LvBuilder, Options, ProcCode};
use crate::error::{CompileError, Phase};
use crate::sema::ProgramInfo;

/// Per-procedure frame statistics (experiment E7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStat {
    /// Module name.
    pub module: String,
    /// Procedure name.
    pub proc: String,
    /// Frame size in words (header + locals + temporaries).
    pub frame_words: u32,
}

impl FrameStat {
    /// Frame size in bytes, the unit of the paper's "95% of all frames
    /// allocated are smaller than 80 bytes".
    pub fn frame_bytes(&self) -> u32 {
        self.frame_words * 2
    }
}

/// Statistics gathered during compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Encoded-instruction length histogram (experiment E11).
    pub size: SizeStats,
    /// Frame sizes per procedure (experiment E7).
    pub frames: Vec<FrameStat>,
    /// Static spill/reload pairs (the §5.2 cost; experiment E9).
    pub static_spills: u64,
    /// Call sites by linkage (experiment E4).
    pub calls: CallSiteCounts,
    /// Total code bytes, including entry vectors and headers.
    pub code_bytes: u32,
}

/// A compiled program: the loadable image plus statistics.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The linked image.
    pub image: Image,
    /// Compilation statistics.
    pub stats: CompileStats,
}

struct LinkedModule {
    bytes: Vec<u8>,
    header_offsets: Vec<u32>,
    body_ranges: Vec<(u32, u32)>,
    fixup_sites: Vec<(u32, FixKind, (usize, usize))>,
    lv: Vec<ProcRef>,
    globals_words: u32,
    name: String,
}

/// Links an analysed program.
///
/// # Errors
///
/// [`CompileError`] for encoding-limit violations (frame too large,
/// module code over 64 KB, short-direct target out of reach…).
pub fn link(
    modules: &[Module],
    info: &ProgramInfo,
    options: Options,
) -> Result<Compiled, CompileError> {
    let classes = SizeClasses::mesa();
    let lerr = |msg: String| CompileError::new(Phase::Link, None, msg);

    let mut linked = Vec::with_capacity(modules.len());
    let mut stats = CompileStats::default();

    for (mi, m) in modules.iter().enumerate() {
        let mut asm = Assembler::new();
        let nprocs = m.procs.len();
        asm.raw(&vec![0u8; nprocs * 2]); // entry vector, patched below
        let mut lvb = LvBuilder::default();
        let mut codes: Vec<ProcCode> = Vec::with_capacity(nprocs);
        for p in &m.procs {
            let hl = asm.label();
            asm.bind(hl);
            asm.raw(&[0u8; layout::PROC_HEADER_BYTES as usize]);
            let code = codegen::gen_proc(&mut asm, hl, info, mi, p, options, &mut lvb)?;
            codes.push(code);
        }
        let mut out = asm
            .assemble()
            .map_err(|e| lerr(format!("module `{}`: {e}", m.name)))?;
        let mut bytes = std::mem::take(&mut out.bytes);
        if bytes.len() > u16::MAX as usize {
            return Err(lerr(format!("module `{}` exceeds 64 KB of code", m.name)));
        }

        let mut header_offsets = Vec::with_capacity(nprocs);
        let mut body_ranges = Vec::with_capacity(nprocs);
        let mut fixup_sites = Vec::new();
        for (pi, code) in codes.iter().enumerate() {
            let hdr = out.offset_of(code.header_label);
            header_offsets.push(hdr);
            // Entry-vector slot: byte offset of the header.
            bytes[pi * 2] = hdr as u8;
            bytes[pi * 2 + 1] = (hdr >> 8) as u8;
            // Header: fsi, flags (GF and code base are load-time).
            let frame_words = layout::FRAME_HEADER_WORDS + code.nlocals;
            let fsi = classes.fsi_for(frame_words).ok_or_else(|| {
                lerr(format!(
                    "`{}.{}` needs a {frame_words}-word frame, beyond the largest class",
                    m.name, m.procs[pi].name
                ))
            })?;
            bytes[hdr as usize + layout::HDR_FSI as usize] = fsi;
            bytes[hdr as usize + layout::HDR_FLAGS as usize] =
                layout::pack_flags(code.nargs, code.addr_taken);
            body_ranges.push((out.offset_of(code.body_start), out.offset_of(code.body_end)));
            for f in &code.fixups {
                fixup_sites.push((out.offset_of(f.label), f.kind, f.target));
            }
            stats.frames.push(FrameStat {
                module: m.name.clone(),
                proc: m.procs[pi].name.clone(),
                frame_words,
            });
            stats.static_spills += code.spills;
            stats.calls.local += code.calls.local;
            stats.calls.external += code.calls.external;
            stats.calls.direct += code.calls.direct;
            stats.calls.short_direct += code.calls.short_direct;
        }
        linked.push(LinkedModule {
            bytes,
            header_offsets,
            body_ranges,
            fixup_sites,
            lv: lvb
                .targets()
                .iter()
                .map(|&(tm, tp)| ProcRef {
                    module: tm,
                    ev_index: tp as u16,
                })
                .collect(),
            globals_words: info.modules[mi].globals_words,
            name: m.name.clone(),
        });
    }

    // Place segments (word aligned).
    let mut code = Vec::with_capacity(linked.iter().map(|lm| lm.bytes.len() + 1).sum());
    let mut bases = Vec::with_capacity(linked.len());
    for lm in &linked {
        if code.len() % 2 != 0 {
            code.push(0);
        }
        bases.push(ByteAddr(code.len() as u32));
        code.extend_from_slice(&lm.bytes);
    }

    let mut image_modules: Vec<ModuleImage> = linked
        .iter_mut()
        .zip(&bases)
        .map(|(lm, &base)| ModuleImage {
            name: lm.name.clone(),
            code_base: base,
            nprocs: lm.header_offsets.len() as u16,
            lv: std::mem::take(&mut lm.lv),
            globals: vec![0; lm.globals_words as usize],
            code_of: None,
        })
        .collect();
    // Instance entries follow, in the order sema assigned them, so
    // that sema's module indices and the image's agree.
    for inst in &info.modules[modules.len()..] {
        let owner = inst.instance_of.expect("appended entries are instances");
        let (code_base, nprocs, lv) = {
            let o = &image_modules[owner];
            (o.code_base, o.nprocs, o.lv.clone())
        };
        image_modules.push(ModuleImage {
            name: inst.name.clone(),
            code_base,
            nprocs,
            lv,
            globals: vec![0; inst.globals_words as usize],
            code_of: Some(owner),
        });
    }

    let mut image = Image {
        code,
        modules: image_modules,
        entry: ProcRef {
            module: info.main.0,
            ev_index: info.main.1,
        },
        classes,
        bank_args: options.bank_args,
        // The Mesa-lite language has no remote-import syntax yet;
        // remote descriptors enter images through
        // `ImageBuilder::import_remote` or host-side registration.
        remote_imports: Vec::new(),
    };

    // Apply fixups now that every header has an absolute address.
    for (mi, lm) in linked.iter().enumerate() {
        for &(site_rel, kind, (tm, tp)) in &lm.fixup_sites {
            let site = bases[mi].0 + site_rel;
            // A direct call to an instance can only reach the code —
            // whose header binds the owning instance's environment
            // (the paper's D2); resolve to the owner's header.
            let phys = info.modules[tm].instance_of.unwrap_or(tm);
            let target = bases[phys].0 + linked[phys].header_offsets[tp];
            match kind {
                FixKind::Direct => {
                    if target >= 1 << 24 {
                        return Err(lerr("direct-call target beyond 24 bits".into()));
                    }
                    image.code[site as usize + 1] = target as u8;
                    image.code[site as usize + 2] = (target >> 8) as u8;
                    image.code[site as usize + 3] = (target >> 16) as u8;
                }
                FixKind::ShortDirect => {
                    let disp = target as i64 - site as i64;
                    let disp = i16::try_from(disp).map_err(|_| {
                        lerr(format!(
                            "short-direct call from `{}` cannot reach its target ({disp} bytes)",
                            lm.name
                        ))
                    })?;
                    image.code[site as usize + 1] = disp as u8;
                    image.code[site as usize + 2] = ((disp as u16) >> 8) as u8;
                }
                FixKind::DescWord => {
                    let w = image
                        .proc_desc(ProcRef {
                            module: tm,
                            ev_index: tp as u16,
                        })
                        .map_err(|e| lerr(e.to_string()))?
                        .raw();
                    image.code[site as usize + 1] = w as u8;
                    image.code[site as usize + 2] = (w >> 8) as u8;
                }
            }
        }
    }

    // Size statistics over the final bytes (after branch relaxation).
    for (mi, lm) in linked.iter().enumerate() {
        for &(start, end) in &lm.body_ranges {
            let s = (bases[mi].0 + start) as usize;
            let e = (bases[mi].0 + end) as usize;
            for r in walk(&image.code, s, e) {
                let (_, instr, _) =
                    r.map_err(|err| lerr(format!("disassembly check failed: {err}")))?;
                stats.size.record(&instr);
            }
        }
    }
    stats.code_bytes = image.code.len() as u32;

    // Every image this linker emits must pass the static verifier —
    // the fpc-verify certificate is part of the output contract, and a
    // compiler bug that breaks stack discipline or transfer targets
    // should fail loudly here, not as a downstream dynamic trap.
    #[cfg(debug_assertions)]
    {
        let report = fpc_verify::verify_image(&image, &fpc_verify::VerifyOptions::default());
        debug_assert!(
            report.is_ok(),
            "linker output failed verification:\n{report}"
        );
    }

    Ok(Compiled { image, stats })
}
