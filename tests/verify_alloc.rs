//! The verifier's allocations must not grow with body length.
//!
//! `verify_image` sizes its per-body tables once and steps every op
//! without touching the heap, so verifying a straight-line body ten
//! times longer may allocate only a small constant more (the few
//! tables that grow by doubling). A per-step allocation — a successor
//! list, a diagnostic buffer — would add one or more per op and fail
//! this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fpc_isa::Instr;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, ImageBuilder, ProcRef, ProcSpec};

/// Pass-through allocator that counts every allocating entry point.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread, so concurrent tests and the
    /// harness's output capture never bleed into a measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count();
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One procedure: `pairs` × (`LOADIMM`, `STORELOCAL`), then `HALT`.
fn straight_line(pairs: usize) -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        for i in 0..pairs {
            a.instr(Instr::LoadImm(i as u16));
            a.instr(Instr::StoreLocal(0));
        }
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

fn verify_allocs(image: &Image) -> u64 {
    let opts = VerifyOptions::default();
    let before = allocs();
    let report = verify_image(image, &opts);
    let n = allocs() - before;
    assert!(report.is_ok(), "{report}");
    n
}

#[test]
fn verification_allocations_do_not_scale_with_body_length() {
    let small = straight_line(50);
    let large = straight_line(500);
    // Warm any one-time state before measuring.
    verify_allocs(&small);
    let a_small = verify_allocs(&small);
    let a_large = verify_allocs(&large);
    // Doubling growth of the decoded-op list and similar tables costs
    // about log2(10) ≈ 3.3 reallocations each; anything per op costs
    // at least 900 here.
    const SLACK: u64 = 16;
    assert!(
        a_large <= a_small + SLACK,
        "verifying 10x the ops allocated {a_large} times vs {a_small} (slack {SLACK})"
    );
}
