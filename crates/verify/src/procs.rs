//! Procedure discovery: entry vectors → headers → decoded bodies.
//!
//! Mirrors the VM's predecode body enumeration exactly — the stops are
//! segment bases (entry vectors are data), every procedure header, and
//! the end of the code store — so the verifier reasons about the same
//! instruction stream the machine will execute. Fusion is the VM's own
//! business: every fused pair keeps both ops' boundaries as legal
//! targets, so the decoded boundaries are all the jump check needs.

use std::collections::HashMap;

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
    /// Absolute offset → index into `ops`. Every entry is a legal
    /// transfer target.
    pub bounds: HashMap<u32, usize>,
    /// First absolute offset where linear decoding failed (trailing
    /// padding or genuinely opaque bytes), if any. Only an error when
    /// reachable.
    pub opaque: Option<u32>,
}

/// The discovery result: procedures, lookup tables and structural
/// diagnostics.
pub(crate) struct Discovery {
    pub procs: Vec<ProcInfo>,
    /// Header byte address → proc id, for direct-call resolution.
    pub by_header: HashMap<u32, usize>,
    /// `(owner module, ev index)` → proc id.
    pub by_ref: HashMap<(usize, u16), usize>,
    pub diagnostics: Vec<Diagnostic>,
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

    let mut procs = Vec::new();
    let mut by_header = HashMap::new();
    let mut by_ref = HashMap::new();
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
        // same straight-line run the predecode walk translates.
        let mut ops: Vec<(u32, Instr, u8)> = Vec::new();
        let mut bounds = HashMap::new();
        let mut opaque = None;
        let mut at = body_start;
        while at < body_end {
            match decode(&image.code, at as usize) {
                Ok((instr, len)) => {
                    bounds.insert(at, ops.len());
                    ops.push((at, instr, len as u8));
                    at += len as u32;
                }
                Err(_) => {
                    opaque = Some(at);
                    break;
                }
            }
        }

        let pid = procs.len();
        by_header.insert(header, pid);
        by_ref.insert((mi, ev), pid);
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
            bounds,
            opaque,
        });
    }
    Discovery {
        procs,
        by_header,
        by_ref,
        diagnostics,
    }
}
