//! The hot interpretation paths must not allocate.
//!
//! The predecode lookup, the native bursts (armed and checked) and the
//! call/return path are all hit once per simulated instruction or call;
//! a host allocation
//! anywhere on those paths would dwarf the work they save. These tests
//! wrap the global allocator in a counter and assert that a *warm*
//! machine — caches filled, capacities established — runs steady-state
//! with zero host allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fpc_isa::Instr;
use fpc_mem::CodeStore;
use fpc_vm::{
    Image, ImageBuilder, Machine, MachineConfig, NativeLicense, PredecodeCache, ProcRef, ProcSpec,
    VmError,
};

/// Pass-through allocator that counts every allocating entry point
/// (alloc, alloc_zeroed, realloc — dealloc cannot allocate).
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread, so the test
    /// harness's other threads — concurrent tests, the output capture —
    /// never bleed into a measurement window. `const`-initialised with
    /// no destructor, so touching it from inside the allocator never
    /// allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` only fails while the thread is being torn down.
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

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The flat-map lookup in isolation;
/// [`warm_machine_steps_do_not_allocate`] covers it through the
/// machine's own dispatch.
#[test]
fn warm_predecode_lookup_does_not_allocate() {
    // A representative little run: locals, immediates, a compare, a
    // branch.
    let instrs = [
        Instr::LoadLocal(0),
        Instr::LoadImm(2),
        Instr::CmpLt,
        Instr::JumpZero(4),
        Instr::LoadLocal(1),
        Instr::StoreLocal(0),
        Instr::Ret,
    ];
    let mut bytes = Vec::new();
    let mut offsets = Vec::new();
    for i in &instrs {
        offsets.push(bytes.len() as u32);
        i.encode(&mut bytes);
    }
    let mut code = CodeStore::new();
    code.append(&bytes);

    let mut cache = PredecodeCache::new();
    cache.translate_range(&code, 0, code.len());
    // Warm every offset once (the flat map is populated eagerly, but
    // be paranoid about lazy stragglers).
    for &off in &offsets {
        cache.lookup(&code, off).unwrap();
    }

    let before = allocs();
    for _ in 0..10_000 {
        for &off in &offsets {
            cache.lookup(&code, off).unwrap();
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm singleton lookups must be allocation-free"
    );
}

/// A call-dense image: main calls a tiny leaf forever. Exercises the
/// full transfer path — dispatch, table-walk call resolution, frame
/// allocation and return — in steady state.
fn call_loop_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("leaf", 0, 1), |a| {
        a.instr(Instr::LoadImm(3));
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LocalCall(0));
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn warm_machine_steps_do_not_allocate() {
    let image = call_loop_image();
    let interpreted = MachineConfig::i2().with_native_tier(false);
    let mut m = Machine::load(&image, interpreted).unwrap();
    // Warm-up: fills the predecode map and the frame table, and settles
    // every Vec at its steady-state capacity.
    assert!(
        matches!(m.run(20_000), Err(VmError::OutOfFuel)),
        "the loop must still be running"
    );

    let hits0 = m.predecode_stats().expect("predecode on under i2").hits;
    let instr0 = m.stats().instructions;
    let before = allocs();
    assert!(matches!(m.run(100_000), Err(VmError::OutOfFuel)));
    assert_eq!(
        allocs() - before,
        0,
        "a warm call/return loop must be allocation-free"
    );

    // Prove the window actually exercised the predecoded dispatch.
    assert!(m.stats().instructions > instr0);
    assert!(
        m.predecode_stats().unwrap().hits > hits0,
        "predecoded lookups must be serving"
    );
}

#[test]
fn warm_native_bursts_do_not_allocate() {
    warm_bursts_do_not_allocate(true);
}

/// The unarmed tier: every op's stack check runs in the window.
#[test]
fn warm_checked_bursts_do_not_allocate() {
    warm_bursts_do_not_allocate(false);
}

fn warm_bursts_do_not_allocate(armed: bool) {
    let image = call_loop_image();
    let cfg = MachineConfig::i2();
    let mut m = Machine::load(&image, cfg).unwrap();
    if armed {
        assert!(
            m.arm_native(NativeLicense::new(8, 2)),
            "fresh machine must arm"
        );
    }
    // Warm-up: both procedures compile on the first step, and every
    // Vec (compiled bodies, pc map, the machine's own steady-state
    // buffers) settles at final capacity. Only a coherence flush
    // recompiles, and none happens while warm.
    assert!(
        matches!(m.run(20_000), Err(VmError::OutOfFuel)),
        "the loop must still be running"
    );
    let n0 = m.native_stats().expect("tier is configured");
    assert!(
        n0.native_instrs > 0,
        "warm-up must reach the native tier: {n0:?}"
    );

    let before = allocs();
    assert!(matches!(m.run(100_000), Err(VmError::OutOfFuel)));
    assert_eq!(
        allocs() - before,
        0,
        "warm native bursts must be allocation-free"
    );

    // Prove the window ran native, armed as asked, and that nothing
    // recompiled.
    let n = m.native_stats().unwrap();
    assert_eq!(n.armed, armed, "{n:?}");
    assert!(
        n.native_instrs > n0.native_instrs,
        "the window must retire native instructions: {n:?}"
    );
    assert_eq!(n.compiles, n0.compiles, "steady state recompiles nothing");
    assert_eq!(n.flushes, n0.flushes, "steady state never flushes");
}

/// A call-free loop in a procedure that is never called: `main` is
/// entered once, at load.
fn counting_loop_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

#[test]
fn warm_loop_in_a_never_called_procedure_does_not_allocate() {
    let image = counting_loop_image();
    let cfg = MachineConfig::i2().with_native_tier(true);
    let mut m = Machine::load(&image, cfg).unwrap();
    assert!(
        m.arm_native(NativeLicense::new(8, 1)),
        "fresh machine must arm"
    );
    assert!(
        matches!(m.run(20_000), Err(VmError::OutOfFuel)),
        "the loop must still be running"
    );
    let n0 = m.native_stats().expect("tier is configured");
    assert_eq!(n0.compiles, 1, "the loop body compiles once: {n0:?}");
    assert_eq!(
        n0.native_instrs,
        m.stats().instructions,
        "the loop runs native from its first instruction: {n0:?}"
    );

    let before = allocs();
    assert!(matches!(m.run(100_000), Err(VmError::OutOfFuel)));
    assert_eq!(
        allocs() - before,
        0,
        "a warm native loop must be allocation-free"
    );
    let n = m.native_stats().unwrap();
    assert!(
        n.native_instrs > n0.native_instrs,
        "the window must retire native instructions: {n:?}"
    );
    assert_eq!(n.compiles, n0.compiles, "steady state recompiles nothing");
    assert_eq!(n.flushes, n0.flushes, "steady state never flushes");
}

/// A renaming image whose main loop calls a 20-deep recursion forever:
/// every descent overflows the I4 machine's eight banks and every
/// unwind underflows them.
fn bank_recursion_image() -> Image {
    let mut b = ImageBuilder::new();
    b.bank_args();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("down", 1, 1), |a| {
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadImm(20));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn warm_bank_machine_native_bursts_do_not_allocate() {
    let image = bank_recursion_image();
    let cfg = MachineConfig::i4().with_native_tier(true);
    let mut m = Machine::load(&image, cfg).unwrap();
    assert!(
        m.arm_native(NativeLicense::new(8, 2)),
        "fresh machine must arm"
    );
    assert!(
        matches!(m.run(20_000), Err(VmError::OutOfFuel)),
        "the loop must still be running"
    );
    let n0 = m.native_stats().expect("tier is configured");
    assert!(n0.native_instrs > 0, "warm-up must reach native: {n0:?}");
    let b0 = m.bank_stats().expect("i4 has banks");

    let before = allocs();
    assert!(matches!(m.run(100_000), Err(VmError::OutOfFuel)));
    assert_eq!(
        allocs() - before,
        0,
        "warm bank-machine native bursts must be allocation-free"
    );

    // Prove the window ran native and moved bank traffic.
    let n = m.native_stats().unwrap();
    assert!(
        n.native_instrs > n0.native_instrs,
        "the window must retire native instructions: {n:?}"
    );
    assert_eq!(n.compiles, n0.compiles, "steady state recompiles nothing");
    assert_eq!(n.flushes, n0.flushes, "steady state never flushes");
    let b = m.bank_stats().unwrap();
    assert!(
        b.overflows > b0.overflows && b.underflows > b0.underflows,
        "the window must overflow and underflow banks: {b:?}"
    );
}

/// The `leafcalls` shape plus deep recursion: main's loop calls a leaf
/// in another compiled body, then a recursion 40 deep — deeper than
/// the native tier's 32-entry return predictor — forever.
fn calls_and_deep_recursion_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("leaf", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("down", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadImm(40));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Drop);
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 2,
    })
    .unwrap()
}

#[test]
fn warm_native_calls_and_deep_recursion_do_not_allocate() {
    let image = calls_and_deep_recursion_image();
    let cfg = MachineConfig::i2().with_native_tier(true);
    let mut m = Machine::load(&image, cfg).unwrap();
    assert!(
        m.arm_native(NativeLicense::new(8, 3)),
        "fresh machine must arm"
    );
    assert!(
        matches!(m.run(20_000), Err(VmError::OutOfFuel)),
        "the loop must still be running"
    );
    let n0 = m.native_stats().expect("tier is configured");
    assert_eq!(n0.compiled_procs, 3, "every body compiles: {n0:?}");
    let calls0 = m.stats().transfers.calls.count;

    let before = allocs();
    assert!(matches!(m.run(100_000), Err(VmError::OutOfFuel)));
    assert_eq!(
        allocs() - before,
        0,
        "warm native calls, returns and predictor overflow must be allocation-free"
    );

    // Prove the window ran native calls, not interpreted ones.
    let n = m.native_stats().unwrap();
    assert!(
        n.native_instrs - n0.native_instrs > 99_000,
        "the window must run native: {n:?}"
    );
    assert_eq!(n.interp_ops, n0.interp_ops, "no fallback in the window");
    assert!(m.stats().transfers.calls.count - calls0 > 10_000);
    assert_eq!(n.compiles, n0.compiles, "steady state recompiles nothing");
    assert_eq!(n.flushes, n0.flushes, "steady state never flushes");
}

/// A generator coroutine pumped by a procedure: main calls `pump`
/// forever, and `pump` `XFER`s to the generator and back. Every
/// coroutine transfer is an unusual `XFER`, so it flushes the return
/// stack (holding main's return point) and, on the bank machine, the
/// banks. With `bank_args` the argument is passed by bank renaming.
fn coroutine_pump_image(bank_args: bool) -> Image {
    let mut b = ImageBuilder::new();
    if bank_args {
        b.bank_args();
    }
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("gen", 0, 2), |a| {
        // Drop the resume value, remember the resumer, yield a count.
        let top = a.label();
        a.bind(top);
        a.instr(Instr::Drop);
        a.instr(Instr::ReturnContext);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::StoreLocal(1));
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Xfer);
        a.jump(top);
    });
    // pump(gen) resumes the generator and returns its new context.
    b.proc_with(m, ProcSpec::new("pump", 1, 1), |a| {
        if !bank_args {
            a.instr(Instr::StoreLocal(0));
        }
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Xfer);
        a.instr(Instr::Drop);
        a.instr(Instr::ReturnContext);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        a.instr(Instr::LoadImm(0x8000)); // gen: gft 0, ev 0
        a.instr(Instr::NewContext);
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 2,
    })
    .unwrap()
}

#[test]
fn return_stack_flushes_do_not_allocate() {
    for (name, config, bank_args) in [
        ("i3", MachineConfig::i3(), false),
        ("i4", MachineConfig::i4(), true),
    ] {
        let image = coroutine_pump_image(bank_args);
        let mut m = Machine::load(&image, config).unwrap();
        assert!(
            matches!(m.run(20_000), Err(VmError::OutOfFuel)),
            "{name}: the loop must still be running"
        );
        let flushes0 = m.return_stack_stats().flushes;
        let before = allocs();
        // One fuel unit retires one instruction on every rung.
        assert!(matches!(m.run(300_000), Err(VmError::OutOfFuel)));
        assert_eq!(
            allocs() - before,
            0,
            "{name}: return-stack flushes must write their links in place"
        );
        // Prove the window flushed a non-empty return stack often.
        let flushes = m.return_stack_stats().flushes - flushes0;
        assert!(flushes > 10_000, "{name}: only {flushes} flushes");
    }
}

/// Recursion that deepens on every pass: `main` calls `rec(d)` for
/// d = 8, 16, 24, …, and `rec(n)` recurses to depth `n`. Each pass
/// goes deeper than any before it, so its calls pop frames that the
/// software allocator has just carved.
fn deepening_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("rec", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        let done = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.bind(done);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::AddImm(8));
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LocalCall(0));
        a.jump(top);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn recursing_deeper_than_ever_does_not_allocate() {
    let image = deepening_image();
    for base in [MachineConfig::i2(), MachineConfig::i3()] {
        let mut m = Machine::load(&image, base.with_native_tier(true)).unwrap();
        assert!(
            m.arm_native(NativeLicense::new(8, 2)),
            "fresh machine must arm"
        );
        // Warm-up: passes to depth 8..=64 compile both bodies and meet
        // every transfer cost the window will see.
        assert!(matches!(m.run(3_000), Err(VmError::OutOfFuel)));
        let heap0 = m.heap_stats().expect("AV heap").clone();
        let n0 = m.native_stats().expect("tier is configured");

        let before = allocs();
        assert!(matches!(m.run(30_000), Err(VmError::OutOfFuel)));
        assert_eq!(
            allocs() - before,
            0,
            "recursing into freshly carved frames must be allocation-free"
        );

        // The window went deeper than the warm-up, on frames the
        // software allocator carved for it, all of it native.
        let heap = m.heap_stats().unwrap();
        assert!(heap.peak_live > heap0.peak_live + 64, "{heap:?}");
        assert!(heap.traps > heap0.traps, "no fresh frames were carved");
        let n = m.native_stats().unwrap();
        assert_eq!(n.compiles, n0.compiles, "nothing recompiles");
        assert_eq!(n.interp_ops, n0.interp_ops, "every instruction ran native");
    }
}
