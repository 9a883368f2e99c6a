//! Regenerates experiment H8 (see DESIGN.md §13 on effect analysis):
//! corpus-wide effect-summary coverage (retry certificates, dead-store
//! findings) and the makespan value of certificate-licensed retry
//! versus guest-only recovery under seeded network-fault storms.
//!
//! Usage: `exp_h8_effects [--smoke] [--out PATH]`
//!
//! `--smoke` runs a small population and a single storm (CI mode —
//! proves the harness and the JSON shape, not the asymptotics);
//! `--out` redirects the JSON from the default
//! `BENCH_host_effects.json`.

use fpc_bench::experiments::h8;

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_host_effects.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other}; usage: exp_h8_effects [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let params = if smoke {
        h8::Params::smoke()
    } else {
        h8::Params::full()
    };
    let (report, json) = h8::report_and_json(&params);
    print!("{report}");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
