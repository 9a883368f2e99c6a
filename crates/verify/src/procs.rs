//! Procedure discovery: entry vectors → headers → decoded bodies.
//!
//! Mirrors the VM's predecode body enumeration exactly — the stops are
//! segment bases (entry vectors are data), every procedure header, and
//! the end of the code store — so the verifier reasons about the same
//! instruction stream the machine will execute. Superinstructions are
//! the VM's own business: every instruction boundary inside one stays a
//! legal target (the VM interprets an entry there), so the decoded
//! boundaries are all the jump check needs.

use fpc_core::layout;
use fpc_isa::{decode, Instr};
use fpc_vm::Image;

use crate::report::{DiagKind, Diagnostic};

/// One discovered procedure and its decoded body.
#[derive(Debug)]
pub(crate) struct ProcInfo {
    /// Code-owning module index (instances share the owner's bodies).
    pub seg: usize,
    /// Entry-vector index within the owner.
    pub ev_index: u16,
    /// Header byte address.
    pub header: u32,
    /// First body byte (header end).
    pub body_start: u32,
    /// One past the last body byte (next stop).
    pub body_end: u32,
    /// Declared frame-size class index.
    pub fsi: u8,
    /// Declared argument count.
    pub nargs: u32,
    /// Local slots the size class provides (0 when `fsi` is bad).
    pub capacity: u32,
    /// Linear decode of the body: `(absolute offset, instr, len)`.
    pub ops: Vec<(u32, Instr, u8)>,
    /// Index of `ops[0]` in the image-wide numbering of every body's
    /// ops, which the analysis's per-op tables use.
    pub first_op: usize,
    /// Body offset (absolute − `body_start`) → index into `ops`, or
    /// [`NONE`] where no op starts. Every op start is a legal transfer
    /// target.
    bounds: Vec<u32>,
    /// First absolute offset where linear decoding failed (trailing
    /// padding or genuinely opaque bytes), if any. Only an error when
    /// reachable.
    pub opaque: Option<u32>,
}

impl ProcInfo {
    /// The index of the op starting at absolute offset `at`, if one
    /// does.
    pub fn op_at(&self, at: u32) -> Option<usize> {
        let i = *self.bounds.get(at.wrapping_sub(self.body_start) as usize)?;
        (i != NONE).then_some(i as usize)
    }
}

/// The empty entry of the dense lookup tables.
const NONE: u32 = u32::MAX;

/// The discovery result: procedures, lookup tables and structural
/// diagnostics.
pub(crate) struct Discovery {
    pub procs: Vec<ProcInfo>,
    /// Ops over all bodies.
    pub total_ops: usize,
    /// Header byte address → proc id ([`NONE`] elsewhere), for
    /// direct-call resolution.
    by_header: Vec<u32>,
    pub diagnostics: Vec<Diagnostic>,
}

impl Discovery {
    /// The procedure whose header starts at byte `addr`.
    pub fn by_header(&self, addr: u32) -> Option<usize> {
        let i = *self.by_header.get(addr as usize)?;
        (i != NONE).then_some(i as usize)
    }

    /// The procedure at entry `ev` of owner module `module`. Bodies
    /// are discovered in `(module, ev)` order.
    pub fn by_ref(&self, module: usize, ev: u16) -> Option<usize> {
        self.procs
            .binary_search_by_key(&(module, ev), |p| (p.seg, p.ev_index))
            .ok()
    }
}

fn structural(image: &Image, module: usize, ev: u16, pc: u32, kind: DiagKind) -> Diagnostic {
    Diagnostic {
        module,
        module_name: image.modules[module].name.clone(),
        ev_index: ev,
        pc,
        rendered: String::new(),
        kind,
    }
}

/// Walks every owner module's entry vector, reads and validates the
/// headers, and decodes each body once.
pub(crate) fn discover(image: &Image) -> Discovery {
    let code_len = image.code.len() as u32;
    // Stops, exactly as the VM's predecode walk computes them.
    let mut headers: Vec<(usize, u16, u32)> = Vec::new();
    let mut diagnostics = Vec::new();
    for (mi, m) in image.modules.iter().enumerate() {
        if m.code_of.is_some() {
            continue; // instances share the owner's headers
        }
        for p in 0..m.nprocs {
            let slot = layout::ev_slot(m.code_base, p).0;
            if slot + 1 >= code_len {
                diagnostics.push(structural(
                    image,
                    mi,
                    p,
                    slot,
                    DiagKind::BadEntry {
                        reason: format!("entry-vector slot {p} is outside the code store"),
                    },
                ));
                continue;
            }
            let rel =
                u16::from_le_bytes([image.code[slot as usize], image.code[slot as usize + 1]]);
            headers.push((mi, p, m.code_base.0 + rel as u32));
        }
    }
    let mut stops: Vec<u32> = image.modules.iter().map(|m| m.code_base.0).collect();
    stops.extend(headers.iter().map(|&(_, _, h)| h));
    stops.push(code_len);
    stops.sort_unstable();
    stops.dedup();

    let mut procs: Vec<ProcInfo> = Vec::with_capacity(headers.len());
    let mut total_ops = 0;
    let mut by_header = vec![NONE; code_len as usize];
    for (mi, ev, header) in headers {
        if header + layout::PROC_HEADER_BYTES > code_len {
            diagnostics.push(structural(
                image,
                mi,
                ev,
                header,
                DiagKind::BadEntry {
                    reason: "procedure header runs past the code store".into(),
                },
            ));
            continue;
        }
        let fsi = image.code[header as usize + layout::HDR_FSI as usize];
        let flags = image.code[header as usize + layout::HDR_FLAGS as usize];
        let (nargs, _addr_taken) = layout::unpack_flags(flags);
        let capacity = if (fsi as usize) < image.classes.len() {
            image
                .classes
                .size_of(fsi)
                .saturating_sub(layout::FRAME_HEADER_WORDS)
        } else {
            diagnostics.push(structural(
                image,
                mi,
                ev,
                header,
                DiagKind::BadSizeClass { fsi },
            ));
            0
        };
        if capacity > 0 && nargs as u32 > capacity {
            diagnostics.push(structural(
                image,
                mi,
                ev,
                header,
                DiagKind::SizeClassMismatch {
                    fsi,
                    capacity,
                    slot: (nargs as u32).saturating_sub(1),
                },
            ));
        }
        let body_start = header + layout::PROC_HEADER_BYTES;
        let body_end = stops
            .iter()
            .copied()
            .find(|&s| s >= body_start)
            .unwrap_or(code_len);

        // Linear decode, stopping at the first undecodable byte — the
        // same straight-line run the predecode walk translates. Every
        // op takes at least a byte, so neither table ever grows.
        let body_len = (body_end - body_start) as usize;
        let mut ops: Vec<(u32, Instr, u8)> = Vec::with_capacity(body_len);
        let mut bounds = vec![NONE; body_len];
        let mut opaque = None;
        let mut at = body_start;
        while at < body_end {
            match decode(&image.code, at as usize) {
                Ok((instr, len)) => {
                    bounds[(at - body_start) as usize] = ops.len() as u32;
                    ops.push((at, instr, len as u8));
                    at += len as u32;
                }
                Err(_) => {
                    opaque = Some(at);
                    break;
                }
            }
        }

        by_header[header as usize] = procs.len() as u32;
        let first_op = total_ops;
        total_ops += ops.len();
        procs.push(ProcInfo {
            seg: mi,
            ev_index: ev,
            header,
            body_start,
            body_end,
            fsi,
            nargs: nargs as u32,
            capacity,
            ops,
            first_op,
            bounds,
            opaque,
        });
    }
    Discovery {
        procs,
        total_ops,
        by_header,
        diagnostics,
    }
}
