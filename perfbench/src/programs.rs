//! The programs each workload runs, the four implementations they run
//! on, and the dispatch settings the benchmark switches between.
//!
//! Every program carries a host-computed expected output. The VM's
//! arithmetic is wrapping 16-bit two's complement, so the host
//! references below use `i16` wrapping arithmetic, and the programs
//! only take `%` of non-negative values.

use fpc_compiler::{Linkage, Options};
use fpc_rng::Rng;
use fpc_vm::MachineConfig;
use fpc_workloads::{corpus, programs, Kind, Workload};

/// One of the paper's four implementations, with the linkage the
/// repository pairs it with: Mesa on I1/I2, Direct on I3/I4.
#[derive(Debug, Clone, Copy)]
pub struct Impl {
    /// "i1".."i4".
    pub name: &'static str,
    /// The preset configuration.
    pub config: MachineConfig,
    /// Call linkage the compiler uses for it.
    pub linkage: Linkage,
}

impl Impl {
    /// Compiler options for this implementation.
    pub fn options(&self) -> Options {
        Options {
            linkage: self.linkage,
            bank_args: self.config.renaming(),
        }
    }
}

/// I1–I4 in ladder order.
pub fn implementations() -> [Impl; 4] {
    [
        Impl {
            name: "i1",
            config: MachineConfig::i1(),
            linkage: Linkage::Mesa,
        },
        Impl {
            name: "i2",
            config: MachineConfig::i2(),
            linkage: Linkage::Mesa,
        },
        Impl {
            name: "i3",
            config: MachineConfig::i3(),
            linkage: Linkage::Direct,
        },
        Impl {
            name: "i4",
            config: MachineConfig::i4(),
            linkage: Linkage::Direct,
        },
    ]
}

/// Invocations before a procedure body is compiled to the native tier.
const NATIVE_THRESHOLD: u32 = 16;

/// The host dispatch settings the benchmark runs under. All of them
/// simulate identically; they differ only in host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Byte decode with every host accelerator off: the oracle.
    Byte,
    /// Predecoded stream only.
    Predecode,
    /// + inline XFER cache.
    PredecodeIc,
    /// + fusion.
    PredecodeIcFuse,
    /// + native tier: the fastest licensed setting.
    Native,
    /// Predecode plus fusion alone.
    AloneFuse,
    /// Predecode plus the native tier alone.
    AloneNative,
}

impl Rung {
    /// The setting applied on top of an implementation's preset.
    pub fn config(self, base: MachineConfig) -> MachineConfig {
        let (predecode, ic, fuse, native) = match self {
            Rung::Byte => (false, false, false, false),
            Rung::Predecode => (true, false, false, false),
            Rung::PredecodeIc => (true, true, false, false),
            Rung::PredecodeIcFuse => (true, true, true, false),
            Rung::Native => (true, true, true, true),
            Rung::AloneFuse => (true, false, true, false),
            Rung::AloneNative => (true, false, false, true),
        };
        base.with_predecode(predecode)
            .with_inline_xfer(ic)
            .with_fusion(fuse)
            .with_native_tier(native)
            .with_native_threshold(NATIVE_THRESHOLD)
    }

    /// Whether runs on this setting arm the native tier.
    pub fn native(self) -> bool {
        matches!(self, Rung::Native | Rung::AloneNative)
    }
}

/// `pipeline_cold`: the 17 corpus programs at their corpus parameters.
/// Those parameters only set how long a program runs, so the seed picks
/// only the op order: every seed does the same work.
pub fn pipeline_programs() -> Vec<Workload> {
    corpus()
}

/// `calls_hot`: the call-dense corpus programs scaled to 0.4–3 M
/// simulated instructions. The seed picks `tak`'s arguments among
/// shifts of (12, 6, 0), which all make 63 609 calls; the others change
/// length with their parameter and stay fixed, so every seed does the
/// same work.
pub fn calls_programs(rng: &mut Rng) -> Vec<Workload> {
    let k = rng.gen_range_i16(0, 12);
    vec![
        programs::fib(23),
        programs::ackermann(3, 6),
        programs::tak(12 + k, 6 + k, k),
        programs::hanoi(15),
        programs::leafcalls(32_000),
    ]
    .into_iter()
    .map(|w| Workload {
        fuel: 100_000_000,
        ..w
    })
    .collect()
}

/// `loops_hot`: long iterative programs with almost no calls. Each
/// calls a procedure at most a handful of times, below the native
/// tier's promotion threshold. Sizes are fixed; the seed picks only the
/// data (an LCG start value per program).
pub fn loop_programs(rng: &mut Rng) -> Vec<Workload> {
    let start = |rng: &mut Rng| rng.gen_range_i16(1, 1000);
    vec![
        sieve(4_000, 8),
        matmul(20, 8, start(rng)),
        insertion_sort(400, start(rng)),
        scan(3_900, 12, start(rng)),
    ]
}

/// The LCG every loop program fills its data with; keeps values in
/// `0..1009`, so `x * 29 + 11` never overflows.
fn lcg(x: i16) -> i16 {
    (x * 29 + 11) % 1009
}

const LCG_SRC: &str = "(x * 29 + 11) % 1009";

fn loop_program(name: &'static str, source: String, expected: Vec<u16>) -> Workload {
    Workload {
        name,
        sources: vec![source],
        expected,
        fuel: 100_000_000,
        kind: Kind::Iterative,
    }
}

/// `reps` sweeps of the sieve of Eratosthenes over `n` flags; one call
/// per sweep.
pub fn sieve(n: i16, reps: i16) -> Workload {
    let src = format!(
        "module LSieve;
         var flags: array[{n}] of int;
         proc sweep(): int
         var i: int;
         var j: int;
         var count: int;
         begin
           count := 0;
           i := 2;
           while i < {n} do flags[i] := 1; i := i + 1; end;
           i := 2;
           while i < {n} do
             if flags[i] then
               count := count + 1;
               j := i + i;
               while j < {n} do flags[j] := 0; j := j + i; end;
             end;
             i := i + 1;
           end;
           return count;
         end;
         proc main()
         var r: int;
         var total: int;
         begin
           total := 0;
           r := 0;
           while r < {reps} do total := total + sweep(); r := r + 1; end;
           out total;
         end;
         end."
    );
    let n = n as usize;
    let mut flags = vec![true; n];
    let mut count: i16 = 0;
    for i in 2..n {
        if flags[i] {
            count += 1;
            let mut j = i + i;
            while j < n {
                flags[j] = false;
                j += i;
            }
        }
    }
    loop_program("sieve", src, vec![count.wrapping_mul(reps) as u16])
}

/// `reps` products of two `n`×`n` matrices; between products one entry
/// of the left matrix moves, so every product differs. The three
/// matrices share one global array (only the first 256 global words
/// can start a variable): left at 0, right at `n²`, product at `2n²`.
pub fn matmul(n: i16, reps: i16, start: i16) -> Workload {
    let nn = n * n;
    let (b, c) = (nn, 2 * nn);
    let src = format!(
        "module LMat;
         var m: array[{size}] of int;
         proc mul(): int
         var i: int;
         var j: int;
         var k: int;
         var s: int;
         var sum: int;
         begin
           sum := 0;
           i := 0;
           while i < {n} do
             j := 0;
             while j < {n} do
               s := 0;
               k := 0;
               while k < {n} do
                 s := s + m[i * {n} + k] * m[{b} + k * {n} + j];
                 k := k + 1;
               end;
               m[{c} + i * {n} + j] := s;
               sum := sum + s;
               j := j + 1;
             end;
             i := i + 1;
           end;
           return sum;
         end;
         proc main()
         var i: int;
         var x: int;
         var r: int;
         var total: int;
         begin
           x := {start};
           i := 0;
           while i < {nn} do
             x := {LCG_SRC};
             m[i] := x % 17;
             x := {LCG_SRC};
             m[{b} + i] := x % 13;
             i := i + 1;
           end;
           total := 0;
           r := 0;
           while r < {reps} do
             total := total + mul();
             m[r] := m[r] + 1;
             r := r + 1;
           end;
           out total;
           out m[{c}];
           out m[{c} + {nn} - 1];
         end;
         end.",
        size = 3 * nn
    );
    let (n, nn) = (n as usize, nn as usize);
    let (mut ma, mut mb, mut mc) = (vec![0i16; nn], vec![0i16; nn], vec![0i16; nn]);
    let mut x = start;
    for i in 0..nn {
        x = lcg(x);
        ma[i] = x % 17;
        x = lcg(x);
        mb[i] = x % 13;
    }
    let mut total: i16 = 0;
    for r in 0..reps as usize {
        for i in 0..n {
            for j in 0..n {
                let mut s: i16 = 0;
                for k in 0..n {
                    s = s.wrapping_add(ma[i * n + k].wrapping_mul(mb[k * n + j]));
                }
                mc[i * n + j] = s;
                total = total.wrapping_add(s);
            }
        }
        ma[r] += 1;
    }
    loop_program(
        "matmul",
        src,
        vec![total as u16, mc[0] as u16, mc[nn - 1] as u16],
    )
}

/// Insertion sort of `n` pseudo-random values.
pub fn insertion_sort(n: i16, start: i16) -> Workload {
    let src = format!(
        "module LSort;
         var a: array[{n}] of int;
         proc sort()
         var i: int;
         var j: int;
         var v: int;
         var moving: int;
         begin
           i := 1;
           while i < {n} do
             v := a[i];
             j := i;
             moving := 1;
             while moving do
               if j = 0 then
                 moving := 0;
               elsif a[j - 1] > v then
                 a[j] := a[j - 1];
                 j := j - 1;
               else
                 moving := 0;
               end;
             end;
             a[j] := v;
             i := i + 1;
           end;
         end;
         proc main()
         var i: int;
         var x: int;
         var ok: int;
         var sum: int;
         begin
           x := {start};
           i := 0;
           while i < {n} do x := {LCG_SRC}; a[i] := x; i := i + 1; end;
           sort();
           ok := 1;
           sum := a[0];
           i := 1;
           while i < {n} do
             if a[i] < a[i - 1] then ok := 0; end;
             sum := sum + a[i];
             i := i + 1;
           end;
           out ok;
           out a[0];
           out a[{n} - 1];
           out sum;
         end;
         end."
    );
    let mut a = Vec::with_capacity(n as usize);
    let mut x = start;
    for _ in 0..n {
        x = lcg(x);
        a.push(x);
    }
    a.sort_unstable();
    let sum = a.iter().fold(0i16, |s, &v| s.wrapping_add(v));
    let last = a[a.len() - 1];
    loop_program(
        "insertion_sort",
        src,
        vec![1, a[0] as u16, last as u16, sum as u16],
    )
}

/// `passes` prefix-sum passes (mod 1009) over `n` pseudo-random values,
/// with no calls at all.
pub fn scan(n: i16, passes: i16, start: i16) -> Workload {
    let src = format!(
        "module LScan;
         var a: array[{n}] of int;
         proc main()
         var i: int;
         var x: int;
         var p: int;
         var s: int;
         var check: int;
         begin
           x := {start};
           i := 0;
           while i < {n} do x := {LCG_SRC}; a[i] := x; i := i + 1; end;
           check := 0;
           p := 0;
           while p < {passes} do
             s := p;
             i := 0;
             while i < {n} do
               s := (s + a[i]) % 1009;
               a[i] := s;
               i := i + 1;
             end;
             check := check + s;
             p := p + 1;
           end;
           out check;
           out a[0];
           out a[{n} - 1];
         end;
         end."
    );
    let mut a = Vec::with_capacity(n as usize);
    let mut x = start;
    for _ in 0..n {
        x = lcg(x);
        a.push(x);
    }
    let mut check: i16 = 0;
    for p in 0..passes {
        let mut s = p;
        for v in a.iter_mut() {
            s = (s + *v) % 1009;
            *v = s;
        }
        check = check.wrapping_add(s);
    }
    let last = a[a.len() - 1];
    loop_program("scan", src, vec![check as u16, a[0] as u16, last as u16])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_vm::Machine;

    fn runs_to_reference(p: &Workload) {
        for imp in implementations() {
            let compiled = fpc_workloads::compile_workload(p, imp.options())
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let mut m = Machine::load(&compiled.image, imp.config).unwrap();
            m.run(p.fuel).unwrap();
            assert_eq!(
                m.output(),
                p.expected.as_slice(),
                "{} on {}",
                p.name,
                imp.name
            );
        }
    }

    #[test]
    fn loop_programs_match_their_host_references() {
        let mut rng = Rng::seed_from_u64(3);
        for p in loop_programs(&mut rng) {
            runs_to_reference(&p);
        }
    }

    #[test]
    fn seeds_change_inputs_not_programs() {
        let a = calls_programs(&mut Rng::seed_from_u64(1));
        let b = calls_programs(&mut Rng::seed_from_u64(2));
        let names = |v: &[Workload]| v.iter().map(|p| p.name).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(pipeline_programs().len(), 17);
    }
}
