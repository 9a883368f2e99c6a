//! Edge cases of the interpreter: the corners where the general model,
//! the accelerators and the error paths meet.

use fpc_isa::Instr;
use fpc_vm::{
    BankConfig, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec, PtrLocalPolicy,
    TrapCode, VmError,
};

fn load_and_run(image: &Image, config: MachineConfig, fuel: u64) -> Result<Machine, VmError> {
    let mut m = Machine::load(image, config)?;
    m.run(fuel)?;
    Ok(m)
}

#[test]
fn freeing_the_current_frame_is_rejected() {
    // main frees its own context: F2 allows explicit freeing, but not
    // of the running frame.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        // NEWCTX then FREECTX of that fresh context is fine…
        a.instr(Instr::LoadImm(0x8000));
        a.instr(Instr::NewContext);
        a.instr(Instr::FreeContext);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i2(), 100).unwrap();
    assert!(machine.halted());
}

#[test]
fn freeing_a_non_context_word_is_rejected() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(0x8000)); // a proc descriptor, not a frame
        a.instr(Instr::FreeContext);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let err = load_and_run(&image, MachineConfig::i2(), 100).unwrap_err();
    assert!(matches!(err, VmError::InvalidContext(_)));
}

#[test]
fn newctx_of_a_frame_word_is_rejected() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        a.instr(Instr::LoadImm(0x8000));
        a.instr(Instr::NewContext); // frame context word now on stack
        a.instr(Instr::NewContext); // NEWCTX of a frame: invalid
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let err = load_and_run(&image, MachineConfig::i2(), 100).unwrap_err();
    assert!(matches!(err, VmError::InvalidContext(_)));
}

#[test]
fn pswitch_with_a_single_process_is_a_noop() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::ProcessSwitch);
        a.instr(Instr::LoadImm(9));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i3(), 100).unwrap();
    assert_eq!(machine.output(), &[9]);
    assert_eq!(machine.stats().transfers.switches.count, 0);
}

#[test]
fn many_processes_round_robin_fairly() {
    // main spawns 5 workers, each emits its input once per turn for 2
    // turns; interleaving must be strict round robin.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    // worker: emits 7, yields, emits 8, returns.
    b.proc_with(m, ProcSpec::new("worker", 0, 0), |a| {
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::Out);
        a.instr(Instr::ProcessSwitch);
        a.instr(Instr::LoadImm(8));
        a.instr(Instr::Out);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..5 {
            a.instr(Instr::LoadImm(0x8000));
            a.instr(Instr::Spawn);
            a.instr(Instr::Drop);
        }
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Out);
        a.instr(Instr::ProcessSwitch);
        a.instr(Instr::LoadImm(2));
        a.instr(Instr::Out);
        a.instr(Instr::Ret);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i3(), 10_000).unwrap();
    assert_eq!(
        machine.output(),
        &[1, 7, 7, 7, 7, 7, 2, 8, 8, 8, 8, 8],
        "strict round robin"
    );
}

#[test]
fn locals_beyond_the_bank_shadow_live_in_memory() {
    // A frame with 30 locals under 16-word banks: slots ≥16 are plain
    // storage, and both halves stay coherent.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 30), |a| {
        a.instr(Instr::LoadImm(5));
        a.instr(Instr::StoreLocal(2)); // banked
        a.instr(Instr::LoadImm(6));
        a.instr(Instr::StoreLocal(25)); // storage
        a.instr(Instr::LoadLocal(2));
        a.instr(Instr::LoadLocal(25));
        a.instr(Instr::Add);
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let cfg = MachineConfig::i3().with_banks(Some(BankConfig {
        banks: 4,
        words: 16,
        renaming: false,
        ptr_policy: PtrLocalPolicy::Divert,
    }));
    let machine = load_and_run(&image, cfg, 100).unwrap();
    assert_eq!(machine.output(), &[11]);
    // The banked word never hit memory; the unbanked one did.
    let mem = machine.mem_stats();
    assert!(mem.data_writes >= 1);
}

#[test]
fn partially_shadowed_array_reads_divert_per_word() {
    // An array spanning the bank boundary: indexed reads below 16 hit
    // the bank (diversions), above 16 hit storage; all values correct.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 24).with_addr_taken(), |a| {
        // a[i] = i for i in {3, 20} via STIDX, then read back via LDIDX.
        for i in [3u16, 20] {
            a.instr(Instr::LoadImm(i + 100));
            a.instr(Instr::LoadLocalAddr(0));
            a.instr(Instr::LoadImm(i));
            a.instr(Instr::StoreIndex);
        }
        for i in [3u16, 20] {
            a.instr(Instr::LoadLocalAddr(0));
            a.instr(Instr::LoadImm(i));
            a.instr(Instr::LoadIndex);
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let cfg = MachineConfig::i3().with_banks(Some(BankConfig {
        banks: 4,
        words: 16,
        renaming: false,
        ptr_policy: PtrLocalPolicy::Divert,
    }));
    let machine = load_and_run(&image, cfg, 1000).unwrap();
    assert_eq!(machine.output(), &[103, 120]);
    let b = machine.bank_stats().unwrap();
    assert!(b.diversions >= 2, "low-index accesses divert: {b:?}");
}

#[test]
fn trap_inside_trap_handler_reports_cleanly() {
    // The handler itself divides by zero; with no nested handler
    // protection, the second trap transfers again and recursion would
    // exhaust frames — the machine must surface an error, not wedge.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("handler", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Div); // re-trap
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Div);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let mut machine = Machine::load(&image, MachineConfig::i2()).unwrap();
    machine
        .set_trap_handler(
            &image,
            ProcRef {
                module: 0,
                ev_index: 0,
            },
        )
        .unwrap();
    let err = machine.run(1_000_000).unwrap_err();
    assert!(
        matches!(
            err,
            VmError::Frame(_) | VmError::UnhandledTrap(TrapCode::StackOverflow)
        ),
        "got {err}"
    );
}

#[test]
fn coroutine_transfers_work_under_full_acceleration() {
    // XFER is the "unusual" case: I4 must flush banks and the return
    // stack around it and still be correct.
    let mut b = ImageBuilder::new();
    b.bank_args();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("gen", 0, 1), |a| {
        a.instr(Instr::ReturnContext);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadImm(10));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Xfer);
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        a.instr(Instr::LoadImm(0x8000));
        a.instr(Instr::NewContext);
        a.instr(Instr::Xfer);
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i4(), 1000).unwrap();
    assert_eq!(machine.output(), &[10]);
    let bstats = machine.bank_stats().unwrap();
    assert!(bstats.full_flushes >= 1, "unusual XFER flushed: {bstats:?}");
}

#[test]
fn return_stack_flush_chain_restores_memory_links() {
    // Build a 4-deep chain, force a flush via XF, then return through
    // memory links only.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    // proc 0: leaf that does a coroutine self-dance to force the flush:
    // XF to a fresh context which immediately returns… simpler: TRAP
    // is not a flush; use NEWCTX+XF to a context that RETs back via
    // its return link? A context entered by XF has our frame as
    // returnContext; its RET is an error (NIL retlink). Instead the
    // created context XFers straight back.
    b.proc_with(m, ProcSpec::new("bounce", 0, 0), |a| {
        a.instr(Instr::ReturnContext);
        a.instr(Instr::Xfer); // straight back to whoever transferred
        a.instr(Instr::Halt);
    });
    // proc 1: depth-descender: if arg > 0 call self with arg-1, else
    // bounce through a coroutine (forcing a full flush), then return 1.
    b.proc_with(m, ProcSpec::new("deep", 1, 1), |a| {
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
        a.instr(Instr::LoadImm(0x8000)); // bounce's descriptor
        a.instr(Instr::Xfer); // flushes everything; bounce sends nothing back
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(4));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 2,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i3(), 10_000).unwrap();
    assert_eq!(machine.output(), &[1]);
    let rs = machine.return_stack_stats();
    assert!(rs.flushes >= 1, "the XF flushed the stack: {rs:?}");
    // The deep returns after the flush went through memory (misses).
    assert!(
        rs.misses >= 4,
        "returns fell back to the general scheme: {rs:?}"
    );
}

#[test]
fn xfer_into_a_coroutine_carries_the_stack_as_argument_record() {
    // Two values below the context word would violate the record
    // discipline; exactly one is the convention and must arrive.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("taker", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0)); // prologue stores the record
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(77)); // the argument record
        a.instr(Instr::LoadImm(0x8000)); // taker's descriptor
        a.instr(Instr::Xfer);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let machine = load_and_run(&image, MachineConfig::i2(), 100).unwrap();
    assert_eq!(machine.output(), &[77]);
}

#[test]
fn code_relocation_mid_run_is_invisible_to_the_program() {
    // §5 T2: move a module's code segment while a deep recursion is
    // suspended inside it; every saved PC is code-base-relative, so a
    // single store (the global frame's code-base word) carries the
    // whole module, and execution finishes identically.
    use fpc_vm::StepOutcome;

    let mut b = ImageBuilder::new();
    let m = b.module("m");
    // tri(n) = n + tri(n-1); tri(0) = 0 — a 40-deep recursion whose
    // suspended frames all hold module-relative saved PCs.
    b.proc_with(m, ProcSpec::new("tri", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
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
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        // Call tri(40) repeatedly so relocations land mid-recursion.
        for _ in 0..5 {
            a.instr(Instr::LoadImm(40));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();

    // Reference run, no relocation.
    let mut reference = Machine::load(&image, MachineConfig::i3()).unwrap();
    reference.run(1_000_000).unwrap();
    let want = reference.output().to_vec();

    // Relocating run: move the module every ~500 instructions, paced
    // by the instruction counter.
    let mut machine = Machine::load(&image, MachineConfig::i3()).unwrap();
    let mut last_move = 0u64;
    let mut moves = 0;
    loop {
        match machine.step().unwrap() {
            StepOutcome::Halted => break,
            StepOutcome::Ran => {
                let done = machine.stats().instructions;
                if done - last_move >= 500 && moves < 5 {
                    machine.relocate_module(0).unwrap();
                    moves += 1;
                    last_move = done;
                }
            }
        }
        assert!(machine.stats().instructions < 1_000_000, "runaway");
    }
    assert!(
        moves >= 3,
        "the run was long enough to move the code: {moves}"
    );
    assert_eq!(machine.output(), want.as_slice());
}

#[test]
fn relocating_an_unknown_module_errors() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let mut machine = Machine::load(&image, MachineConfig::i2()).unwrap();
    assert!(matches!(
        machine.relocate_module(3),
        Err(VmError::BadImage(_))
    ));
}

#[test]
fn procedures_can_be_replaced_at_run_time() {
    // §5 T2 via the entry vector: redirect `f` between calls; callers,
    // link vectors and packed descriptors never change.
    use fpc_vm::StepOutcome;

    let mut b = ImageBuilder::new();
    let m = b.module("m");
    // f v1: returns x + 1.
    b.proc_with(m, ProcSpec::new("f", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..4 {
            a.instr(Instr::LoadImm(10));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let mut machine = Machine::load(&image, MachineConfig::i2()).unwrap();
    // Run until two outputs have appeared, then swap in v2 (a larger
    // body returning x * 3).
    while machine.output().len() < 2 {
        assert_eq!(machine.step().unwrap(), StepOutcome::Ran);
    }
    machine
        .replace_proc(0, 0, 1, 2, |a| {
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(3));
            a.instr(Instr::Mul);
            a.instr(Instr::StoreLocal(1)); // bigger frame, more code
            a.instr(Instr::LoadLocal(1));
            a.instr(Instr::Ret);
        })
        .unwrap();
    machine.run(10_000).unwrap();
    assert_eq!(machine.output(), &[11, 11, 30, 30]);
}

#[test]
fn replacement_of_unknown_entries_errors() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let mut machine = Machine::load(&image, MachineConfig::i2()).unwrap();
    assert!(machine
        .replace_proc(0, 5, 0, 0, |a| a.instr(Instr::Ret))
        .is_err());
    assert!(machine
        .replace_proc(9, 0, 0, 0, |a| a.instr(Instr::Ret))
        .is_err());
}

#[test]
fn module_instances_share_code_but_not_globals() {
    // §5.1: "It is possible to have several instances of a module,
    // each with its own global variables" — one code segment, two
    // global frames, reached through separate GFT entries.
    let mut b = ImageBuilder::new();
    let counter = b.module("counter");
    let g = b.global(counter, 0);
    // bump(): g := g + 1; return g.
    b.proc_with(counter, ProcSpec::new("bump", 0, 0), move |a| {
        a.instr(Instr::LoadGlobal(g));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::Dup);
        a.instr(Instr::StoreGlobal(g));
        a.instr(Instr::Ret);
    });
    let counter2 = b.instantiate(counter, "counter2");
    let main = b.module("main");
    let lv_a = b.import(
        main,
        ProcRef {
            module: counter.index(),
            ev_index: 0,
        },
    );
    let lv_b = b.import(
        main,
        ProcRef {
            module: counter2.index(),
            ev_index: 0,
        },
    );
    b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
        a.instr(Instr::ExternalCall(lv_a)); // counter  -> 1
        a.instr(Instr::Out);
        a.instr(Instr::ExternalCall(lv_a)); // counter  -> 2
        a.instr(Instr::Out);
        a.instr(Instr::ExternalCall(lv_b)); // counter2 -> 1 (own globals)
        a.instr(Instr::Out);
        a.instr(Instr::ExternalCall(lv_a)); // counter  -> 3
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 2,
            ev_index: 0,
        })
        .unwrap();
    // One code segment: the instance reports the owner's base.
    assert_eq!(image.modules[1].code_base, image.modules[0].code_base);
    assert_eq!(image.modules[1].code_of, Some(0));
    for config in [
        MachineConfig::i1(),
        MachineConfig::i2(),
        MachineConfig::i3(),
    ] {
        let machine = load_and_run(&image, config, 1000).unwrap();
        assert_eq!(machine.output(), &[1, 2, 1, 3], "config {config:?}");
    }
}

#[test]
fn direct_calls_bind_the_owning_instance_only() {
    // §6 D2: "Multiple instances of p's module are not possible [with
    // DIRECTCALL], since the global environment information is bound
    // into the code." A direct call to the shared header always bumps
    // the owner's counter, whatever the caller intended.
    let mut b = ImageBuilder::new();
    let counter = b.module("counter");
    let g = b.global(counter, 0);
    b.proc_with(counter, ProcSpec::new("bump", 0, 0), move |a| {
        a.instr(Instr::LoadGlobal(g));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::Dup);
        a.instr(Instr::StoreGlobal(g));
        a.instr(Instr::Ret);
    });
    let _counter2 = b.instantiate(counter, "counter2");
    let main = b.module("main");
    b.proc_with(main, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..3 {
            a.instr(Instr::DirectCall(0)); // patched below
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let mut image = b
        .build(ProcRef {
            module: 2,
            ev_index: 0,
        })
        .unwrap();
    // Patch all three DFC sites to the shared bump header.
    let target = image.proc_header_addr(ProcRef {
        module: 0,
        ev_index: 0,
    });
    let main_hdr = image.proc_header_addr(ProcRef {
        module: 2,
        ev_index: 0,
    });
    let mut at = main_hdr.0 as usize + 6;
    for _ in 0..3 {
        while image.code[at] != fpc_isa::opcode::DFC {
            let (_, len) = fpc_isa::decode(&image.code, at).unwrap();
            at += len;
        }
        image.code[at + 1] = target.0 as u8;
        image.code[at + 2] = (target.0 >> 8) as u8;
        image.code[at + 3] = (target.0 >> 16) as u8;
        at += 4;
    }
    let machine = load_and_run(&image, MachineConfig::i2(), 1000).unwrap();
    // All three bumps hit the OWNER's globals: 1, 2, 3 — no way to
    // reach counter2 through a direct call.
    assert_eq!(machine.output(), &[1, 2, 3]);
}
