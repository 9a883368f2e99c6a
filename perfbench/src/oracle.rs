//! The oracle: each image run once on the byte rung with every host
//! accelerator off. Every timed op must reproduce its output and its
//! simulated counters exactly.

use fpc_vm::{Image, Machine, MachineConfig};

use crate::programs::Rung;

/// What one run of an image simulates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    /// The `out` stream.
    pub output: Vec<u16>,
    /// Simulated instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Calls plus returns.
    pub calls_returns: u64,
    /// Calls and returns that ran at jump speed.
    pub fast_calls_returns: u64,
    /// Counted memory references.
    pub refs: u64,
}

impl Record {
    /// Reads the record off a halted machine.
    pub fn of(m: &Machine) -> Self {
        let s = m.stats();
        Record {
            output: m.output().to_vec(),
            instructions: s.instructions,
            cycles: s.cycles,
            calls_returns: s.transfers.calls_and_returns(),
            fast_calls_returns: s.transfers.calls.fast + s.transfers.returns.fast,
            refs: m.total_refs(),
        }
    }
}

/// Runs `image` on the byte rung of `base` and records the result.
/// When `expected` is given, the output must equal it.
pub fn run(
    image: &Image,
    base: MachineConfig,
    fuel: u64,
    expected: Option<&[u16]>,
) -> Result<Record, String> {
    let mut m = Machine::load(image, Rung::Byte.config(base)).map_err(|e| e.to_string())?;
    m.run(fuel).map_err(|e| e.to_string())?;
    let rec = Record::of(&m);
    match expected {
        Some(want) if want != rec.output.as_slice() => Err(format!(
            "oracle output {:?} differs from the host reference {:?}",
            rec.output, want
        )),
        _ => Ok(rec),
    }
}

/// Checks a halted machine against its oracle record.
pub fn check(m: &Machine, want: &Record) -> Result<(), String> {
    if !m.halted() {
        return Err("did not halt".into());
    }
    let got = Record::of(m);
    if &got == want {
        Ok(())
    } else {
        Err(format!(
            "run differs from the oracle: got {got:?}, want {want:?}"
        ))
    }
}
