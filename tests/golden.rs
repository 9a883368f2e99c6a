//! Golden hashes of the front end's output.
//!
//! The compiler and the verifier are rewritten for speed from time to
//! time; these tests pin what they emit so that such a rewrite is
//! provably output-preserving:
//!
//! * every corpus program under every linkage × `bank_args` compiles to
//!   the same image (FNV-1a of the image's `Debug` form), or is
//!   rejected with the same message;
//! * every `fpc-lint --corpus` image, and a seeded set of single-byte
//!   mutants (built as `failure_injection.rs` builds them), verifies to
//!   the same report (FNV-1a of its `Debug` and `Display` forms), so
//!   diagnostic content and order on rejected images are pinned too.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! format of the `GOLDEN_*` constants below. Regenerate only for an
//! intended output change, and say why in the commit.

use fpc_compiler::{compile, Linkage, Options};
use fpc_rng::Rng;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::MachineConfig;
use fpc_workloads::{compile_workload, corpus};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every option combination `fpc-lint --corpus` verifies.
fn all_options() -> Vec<Options> {
    let mut out = Vec::new();
    for linkage in [
        Linkage::Mesa,
        Linkage::Direct,
        Linkage::ShortDirect,
        Linkage::Mixed,
    ] {
        for bank_args in [false, true] {
            out.push(Options { linkage, bank_args });
        }
    }
    out
}

fn report_hash(report: &fpc_verify::VerifyReport) -> u64 {
    fnv1a(format!("{report:?}\n{report}").as_bytes())
}

/// Compares computed `(key, hash)` rows against a golden table, listing
/// every difference and the full computed table on failure.
fn check(what: &str, golden: &[(&str, u64)], computed: &[(String, u64)]) {
    let table: String = computed
        .iter()
        .map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n"))
        .collect();
    let mut diffs = Vec::new();
    if golden.len() != computed.len() {
        diffs.push(format!(
            "{} golden rows, {} computed",
            golden.len(),
            computed.len()
        ));
    }
    for ((gk, gh), (ck, ch)) in golden.iter().zip(computed) {
        if gk != ck || gh != ch {
            diffs.push(format!(
                "golden {gk} {gh:#018x} != computed {ck} {ch:#018x}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{what} differs from the golden table:\n{}\ncomputed table:\n{table}",
        diffs.join("\n")
    );
}

#[test]
fn compiler_output_matches_golden_hashes() {
    let mut computed = Vec::new();
    for w in corpus() {
        for options in all_options() {
            let text = match compile_workload(&w, options) {
                Ok(c) => format!("{:?}", c.image),
                Err(e) => format!("rejected: {e}"),
            };
            computed.push((
                format!("{} {:?} {}", w.name, options.linkage, options.bank_args),
                fnv1a(text.as_bytes()),
            ));
        }
    }
    check("compiler output", GOLDEN_IMAGES, &computed);
}

#[test]
fn verifier_reports_match_golden_hashes() {
    let mut computed = Vec::new();
    // Every image `fpc-lint --corpus` checks, under its options.
    for w in corpus() {
        for options in all_options() {
            let compiled = compile_workload(&w, options).unwrap();
            let report = verify_image(&compiled.image, &VerifyOptions::default());
            computed.push((
                format!("{} {:?} {}", w.name, options.linkage, options.bank_args),
                report_hash(&report),
            ));
        }
    }
    for path in ["queens.mesa", "streams.mesa"] {
        let full = format!("{}/examples/programs/{path}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&full).unwrap();
        let compiled = compile(&[&src], Options::default()).unwrap();
        let report = verify_image(&compiled.image, &VerifyOptions::default());
        computed.push((path.to_string(), report_hash(&report)));
    }
    // Seeded single-byte mutants: most are rejected, so this pins the
    // diagnostics' content and order. One folded hash per image.
    const MUTANTS_PER_IMAGE: usize = 32;
    for (label, preset) in [("i3", MachineConfig::i3()), ("i4", MachineConfig::i4())] {
        let opts = VerifyOptions::for_config(&preset);
        let options = Options {
            bank_args: preset.renaming(),
            ..Options::default()
        };
        for (wi, w) in corpus().into_iter().enumerate() {
            let compiled = compile_workload(&w, options).unwrap();
            let mut rng = Rng::seed_from_u64(0xF1ED ^ (wi as u64));
            let mut folded = Vec::with_capacity(MUTANTS_PER_IMAGE * 8);
            for _ in 0..MUTANTS_PER_IMAGE {
                let mut img = compiled.image.clone();
                let at = (rng.next_u64() % img.code.len() as u64) as usize;
                // XOR with a nonzero mask so the byte always changes.
                img.code[at] ^= (rng.next_u64() as u8) | 1;
                folded.extend_from_slice(&report_hash(&verify_image(&img, &opts)).to_le_bytes());
            }
            computed.push((format!("mutants {label} {}", w.name), fnv1a(&folded)));
        }
    }
    check("verifier reports", GOLDEN_REPORTS, &computed);
}

/// Image hashes per `"<program> <linkage> <bank_args>"`.
const GOLDEN_IMAGES: &[(&str, u64)] = &[
    ("fib Mesa false", 0xb21e9b82e7e02492),
    ("fib Mesa true", 0x58c19a31604b8689),
    ("fib Direct false", 0xfa290deba623051b),
    ("fib Direct true", 0x03792c6b0053ae84),
    ("fib ShortDirect false", 0x8f6e79b7c8f7087a),
    ("fib ShortDirect true", 0x3c54bc25694f51a6),
    ("fib Mixed false", 0xb21e9b82e7e02492),
    ("fib Mixed true", 0x58c19a31604b8689),
    ("ackermann Mesa false", 0x3ff099f3c4e3d689),
    ("ackermann Mesa true", 0xb44ed9c94a9b5b98),
    ("ackermann Direct false", 0xb5a39e3b5609904b),
    ("ackermann Direct true", 0xe86a100b13621a54),
    ("ackermann ShortDirect false", 0x175ce9f9e8c4b885),
    ("ackermann ShortDirect true", 0xf897c3c8ed41b941),
    ("ackermann Mixed false", 0x3ff099f3c4e3d689),
    ("ackermann Mixed true", 0xb44ed9c94a9b5b98),
    ("tak Mesa false", 0x55ef2846f5337fae),
    ("tak Mesa true", 0x758b01859098d3fc),
    ("tak Direct false", 0x129b169fc333b7e4),
    ("tak Direct true", 0x569d7a14c6ea9d8e),
    ("tak ShortDirect false", 0xc6f927a8a5e874b1),
    ("tak ShortDirect true", 0xdfbd8296353c4347),
    ("tak Mixed false", 0x55ef2846f5337fae),
    ("tak Mixed true", 0x758b01859098d3fc),
    ("sieve Mesa false", 0xb3a2c84a38e1c412),
    ("sieve Mesa true", 0xf4474d78afd4c867),
    ("sieve Direct false", 0xb3a2c84a38e1c412),
    ("sieve Direct true", 0xf4474d78afd4c867),
    ("sieve ShortDirect false", 0xb3a2c84a38e1c412),
    ("sieve ShortDirect true", 0xf4474d78afd4c867),
    ("sieve Mixed false", 0xb3a2c84a38e1c412),
    ("sieve Mixed true", 0xf4474d78afd4c867),
    ("quicksort Mesa false", 0x4ca6400f256da015),
    ("quicksort Mesa true", 0x4ee80c4031eb5e22),
    ("quicksort Direct false", 0x0d8636189270d830),
    ("quicksort Direct true", 0x3a784af92406fde8),
    ("quicksort ShortDirect false", 0x3c4e909a6ae9a7ed),
    ("quicksort ShortDirect true", 0x961a8ab4c74845b5),
    ("quicksort Mixed false", 0x4ca6400f256da015),
    ("quicksort Mixed true", 0x4ee80c4031eb5e22),
    ("treewalk Mesa false", 0xb5af23791f02a092),
    ("treewalk Mesa true", 0xa6bfff9ab917b999),
    ("treewalk Direct false", 0xf504516a91eacbdd),
    ("treewalk Direct true", 0xa5f8997bd00ed04a),
    ("treewalk ShortDirect false", 0x044baf2e177677ee),
    ("treewalk ShortDirect true", 0xe4ac20bac214cd30),
    ("treewalk Mixed false", 0xb5af23791f02a092),
    ("treewalk Mixed true", 0xa6bfff9ab917b999),
    ("matrix Mesa false", 0xcead0b643dfb71a3),
    ("matrix Mesa true", 0x41e9435fb73ed430),
    ("matrix Direct false", 0xcead0b643dfb71a3),
    ("matrix Direct true", 0x41e9435fb73ed430),
    ("matrix ShortDirect false", 0xcead0b643dfb71a3),
    ("matrix ShortDirect true", 0x41e9435fb73ed430),
    ("matrix Mixed false", 0xcead0b643dfb71a3),
    ("matrix Mixed true", 0x41e9435fb73ed430),
    ("leafcalls Mesa false", 0x642b046848c6b6fb),
    ("leafcalls Mesa true", 0xca7da1317aed1fca),
    ("leafcalls Direct false", 0x5cbb4dba173fca59),
    ("leafcalls Direct true", 0xb54a62c2fce60ed8),
    ("leafcalls ShortDirect false", 0x782b73c57aed4670),
    ("leafcalls ShortDirect true", 0x095a79a1b5c85e86),
    ("leafcalls Mixed false", 0x642b046848c6b6fb),
    ("leafcalls Mixed true", 0xca7da1317aed1fca),
    ("nest Mesa false", 0x169ef590a6e01adb),
    ("nest Mesa true", 0xe7f3c2efb71e0416),
    ("nest Direct false", 0x230e3ba6a47ad84b),
    ("nest Direct true", 0xd18d495d200819c6),
    ("nest ShortDirect false", 0xdaa2612385116ae9),
    ("nest ShortDirect true", 0x742c2f5de3f2ca6e),
    ("nest Mixed false", 0xda001576a1519b18),
    ("nest Mixed true", 0x20d2324ced6886fd),
    ("evenodd Mesa false", 0xce070a857d3f4138),
    ("evenodd Mesa true", 0xeb81046ec303e621),
    ("evenodd Direct false", 0x8245e5ab0f4af938),
    ("evenodd Direct true", 0xfa4f0f496ff6d4f4),
    ("evenodd ShortDirect false", 0x82de03db6226a2df),
    ("evenodd ShortDirect true", 0x5fe344389b3af925),
    ("evenodd Mixed false", 0xce070a857d3f4138),
    ("evenodd Mixed true", 0xeb81046ec303e621),
    ("prodcons Mesa false", 0x2129c554761f215f),
    ("prodcons Mesa true", 0xc34b183d0ba13db4),
    ("prodcons Direct false", 0x2129c554761f215f),
    ("prodcons Direct true", 0xc34b183d0ba13db4),
    ("prodcons ShortDirect false", 0x2129c554761f215f),
    ("prodcons ShortDirect true", 0xc34b183d0ba13db4),
    ("prodcons Mixed false", 0x2129c554761f215f),
    ("prodcons Mixed true", 0xc34b183d0ba13db4),
    ("pingpong Mesa false", 0xd5de566313c97b5b),
    ("pingpong Mesa true", 0x9e5efc1eb2d025e8),
    ("pingpong Direct false", 0xd5de566313c97b5b),
    ("pingpong Direct true", 0x9e5efc1eb2d025e8),
    ("pingpong ShortDirect false", 0xd5de566313c97b5b),
    ("pingpong ShortDirect true", 0x9e5efc1eb2d025e8),
    ("pingpong Mixed false", 0xd5de566313c97b5b),
    ("pingpong Mixed true", 0x9e5efc1eb2d025e8),
    ("pointers Mesa false", 0x92c0f71560fddb71),
    ("pointers Mesa true", 0xe75e7745323275dc),
    ("pointers Direct false", 0x02713a05cd0b1880),
    ("pointers Direct true", 0xb2d9e6d122924b1d),
    ("pointers ShortDirect false", 0x66e3f9aacb7b66d9),
    ("pointers ShortDirect true", 0x1a431d2804622a22),
    ("pointers Mixed false", 0x92c0f71560fddb71),
    ("pointers Mixed true", 0xe75e7745323275dc),
    ("hanoi Mesa false", 0x0cbf1d3fb3721422),
    ("hanoi Mesa true", 0x9a15749f4c816e03),
    ("hanoi Direct false", 0x88c3e98530e63e34),
    ("hanoi Direct true", 0x97108714911a3714),
    ("hanoi ShortDirect false", 0x9b559b38454305d0),
    ("hanoi ShortDirect true", 0xf8df4cdfd51015c6),
    ("hanoi Mixed false", 0x0cbf1d3fb3721422),
    ("hanoi Mixed true", 0x9a15749f4c816e03),
    ("pipeline3 Mesa false", 0x01f8d621f256acf1),
    ("pipeline3 Mesa true", 0x250186cc3b9dfbb6),
    ("pipeline3 Direct false", 0x01f8d621f256acf1),
    ("pipeline3 Direct true", 0x250186cc3b9dfbb6),
    ("pipeline3 ShortDirect false", 0x01f8d621f256acf1),
    ("pipeline3 ShortDirect true", 0x250186cc3b9dfbb6),
    ("pipeline3 Mixed false", 0x01f8d621f256acf1),
    ("pipeline3 Mixed true", 0x250186cc3b9dfbb6),
    ("gcdsum Mesa false", 0x0a96d23de6d1f69d),
    ("gcdsum Mesa true", 0xa85825e11dbe4746),
    ("gcdsum Direct false", 0x5387d7cdb4c4bd4a),
    ("gcdsum Direct true", 0xd7678a574208ccaa),
    ("gcdsum ShortDirect false", 0xa35e0fbfd859ffae),
    ("gcdsum ShortDirect true", 0x848f1c860bf63b00),
    ("gcdsum Mixed false", 0x0a96d23de6d1f69d),
    ("gcdsum Mixed true", 0xa85825e11dbe4746),
    ("accounts Mesa false", 0xfa1de10e8a178082),
    ("accounts Mesa true", 0x439fdd0ed939e34f),
    ("accounts Direct false", 0x415d9e05d9196c03),
    ("accounts Direct true", 0x14636a02b898b6aa),
    ("accounts ShortDirect false", 0xd1ef866401a036e1),
    ("accounts ShortDirect true", 0xbfb6c827fc263b18),
    ("accounts Mixed false", 0x415d9e05d9196c03),
    ("accounts Mixed true", 0x14636a02b898b6aa),
];

/// Report hashes per lint image, example program and mutant set.
const GOLDEN_REPORTS: &[(&str, u64)] = &[
    ("fib Mesa false", 0x11a480679a8cbecb),
    ("fib Mesa true", 0xa194747cd2fa4228),
    ("fib Direct false", 0x99ffa8053e5793f8),
    ("fib Direct true", 0xc4cb29cb578548ed),
    ("fib ShortDirect false", 0x367e478fb0f0a8fc),
    ("fib ShortDirect true", 0x3e5e001cd3b85acc),
    ("fib Mixed false", 0x11a480679a8cbecb),
    ("fib Mixed true", 0xa194747cd2fa4228),
    ("ackermann Mesa false", 0xb3a9f1d28e617f41),
    ("ackermann Mesa true", 0x4c990834c60991d1),
    ("ackermann Direct false", 0x36a0d21af81dd804),
    ("ackermann Direct true", 0x53828148d27dbaf4),
    ("ackermann ShortDirect false", 0x6c5f2f6578154beb),
    ("ackermann ShortDirect true", 0x2f2e1b970ec80e3b),
    ("ackermann Mixed false", 0xb3a9f1d28e617f41),
    ("ackermann Mixed true", 0x4c990834c60991d1),
    ("tak Mesa false", 0x47a21ed86b74f19c),
    ("tak Mesa true", 0xd4b9724830f727f1),
    ("tak Direct false", 0xbce70d7dff64f2b7),
    ("tak Direct true", 0x42442bcae01f8cd0),
    ("tak ShortDirect false", 0x3bea1a19751e1289),
    ("tak ShortDirect true", 0x0775c9994c62c149),
    ("tak Mixed false", 0x47a21ed86b74f19c),
    ("tak Mixed true", 0xd4b9724830f727f1),
    ("sieve Mesa false", 0x36916e68041d747c),
    ("sieve Mesa true", 0x36916e68041d747c),
    ("sieve Direct false", 0x36916e68041d747c),
    ("sieve Direct true", 0x36916e68041d747c),
    ("sieve ShortDirect false", 0x36916e68041d747c),
    ("sieve ShortDirect true", 0x36916e68041d747c),
    ("sieve Mixed false", 0x36916e68041d747c),
    ("sieve Mixed true", 0x36916e68041d747c),
    ("quicksort Mesa false", 0x1e9b9cce829eb19a),
    ("quicksort Mesa true", 0xb48263be86bbc5e4),
    ("quicksort Direct false", 0x212ed0f2d362a3bc),
    ("quicksort Direct true", 0x56dab4187fad8b76),
    ("quicksort ShortDirect false", 0x8c94e3c8ab86b74c),
    ("quicksort ShortDirect true", 0xf6cf141cf7b9c173),
    ("quicksort Mixed false", 0x1e9b9cce829eb19a),
    ("quicksort Mixed true", 0xb48263be86bbc5e4),
    ("treewalk Mesa false", 0xf183bb7b6ace074f),
    ("treewalk Mesa true", 0xf2556df57e733889),
    ("treewalk Direct false", 0xd8f6fb2e362d778a),
    ("treewalk Direct true", 0x9aa0cc84ee609f0a),
    ("treewalk ShortDirect false", 0x77e5a5a2936cfa2a),
    ("treewalk ShortDirect true", 0x2c5810b5d2e68f8d),
    ("treewalk Mixed false", 0xf183bb7b6ace074f),
    ("treewalk Mixed true", 0xf2556df57e733889),
    ("matrix Mesa false", 0xe9fbb34811030bc1),
    ("matrix Mesa true", 0xe9fbb34811030bc1),
    ("matrix Direct false", 0xe9fbb34811030bc1),
    ("matrix Direct true", 0xe9fbb34811030bc1),
    ("matrix ShortDirect false", 0xe9fbb34811030bc1),
    ("matrix ShortDirect true", 0xe9fbb34811030bc1),
    ("matrix Mixed false", 0xe9fbb34811030bc1),
    ("matrix Mixed true", 0xe9fbb34811030bc1),
    ("leafcalls Mesa false", 0xe9acb8b6f470928b),
    ("leafcalls Mesa true", 0x19f5e18d840794aa),
    ("leafcalls Direct false", 0xe9acb8b6f470928b),
    ("leafcalls Direct true", 0x19f5e18d840794aa),
    ("leafcalls ShortDirect false", 0xe9acb8b6f470928b),
    ("leafcalls ShortDirect true", 0x19f5e18d840794aa),
    ("leafcalls Mixed false", 0xe9acb8b6f470928b),
    ("leafcalls Mixed true", 0x19f5e18d840794aa),
    ("nest Mesa false", 0xa06bbe72f1abf544),
    ("nest Mesa true", 0x11e7584f0ef184f7),
    ("nest Direct false", 0xb9b2460ede7a06b0),
    ("nest Direct true", 0x029d9b78fc2a4a26),
    ("nest ShortDirect false", 0x2ab4eb2fbca40405),
    ("nest ShortDirect true", 0xafd4bd6ec843641d),
    ("nest Mixed false", 0xffea5cad15467f03),
    ("nest Mixed true", 0x27324ddf8961f7b8),
    ("evenodd Mesa false", 0xbd0588ecf6231015),
    ("evenodd Mesa true", 0x9356418b616b1fbb),
    ("evenodd Direct false", 0x3f79527af31b3577),
    ("evenodd Direct true", 0x39aa41e431b0b5d0),
    ("evenodd ShortDirect false", 0xd11de6c257255480),
    ("evenodd ShortDirect true", 0xcba78c93dd3f7a98),
    ("evenodd Mixed false", 0xbd0588ecf6231015),
    ("evenodd Mixed true", 0x9356418b616b1fbb),
    ("prodcons Mesa false", 0x793d06b895c69551),
    ("prodcons Mesa true", 0x793d06b895c69551),
    ("prodcons Direct false", 0x793d06b895c69551),
    ("prodcons Direct true", 0x793d06b895c69551),
    ("prodcons ShortDirect false", 0x793d06b895c69551),
    ("prodcons ShortDirect true", 0x793d06b895c69551),
    ("prodcons Mixed false", 0x793d06b895c69551),
    ("prodcons Mixed true", 0x793d06b895c69551),
    ("pingpong Mesa false", 0x16f0c24e3139825a),
    ("pingpong Mesa true", 0x16f0c24e3139825a),
    ("pingpong Direct false", 0x16f0c24e3139825a),
    ("pingpong Direct true", 0x16f0c24e3139825a),
    ("pingpong ShortDirect false", 0x16f0c24e3139825a),
    ("pingpong ShortDirect true", 0x16f0c24e3139825a),
    ("pingpong Mixed false", 0x16f0c24e3139825a),
    ("pingpong Mixed true", 0x16f0c24e3139825a),
    ("pointers Mesa false", 0x7011c42d29286533),
    ("pointers Mesa true", 0xfded3cac71938695),
    ("pointers Direct false", 0x7011c42d29286533),
    ("pointers Direct true", 0xfded3cac71938695),
    ("pointers ShortDirect false", 0x7011c42d29286533),
    ("pointers ShortDirect true", 0xfded3cac71938695),
    ("pointers Mixed false", 0x7011c42d29286533),
    ("pointers Mixed true", 0xfded3cac71938695),
    ("hanoi Mesa false", 0xfbc346efb6a43274),
    ("hanoi Mesa true", 0x672fd5fdd73fac03),
    ("hanoi Direct false", 0x9d8c14efd068b3f8),
    ("hanoi Direct true", 0x25fe7bd7f8b8c3f8),
    ("hanoi ShortDirect false", 0xfb8b47115f657e96),
    ("hanoi ShortDirect true", 0xfbc346efb6a43274),
    ("hanoi Mixed false", 0xfbc346efb6a43274),
    ("hanoi Mixed true", 0x672fd5fdd73fac03),
    ("pipeline3 Mesa false", 0x40201c9aca7a90a9),
    ("pipeline3 Mesa true", 0x40201c9aca7a90a9),
    ("pipeline3 Direct false", 0x40201c9aca7a90a9),
    ("pipeline3 Direct true", 0x40201c9aca7a90a9),
    ("pipeline3 ShortDirect false", 0x40201c9aca7a90a9),
    ("pipeline3 ShortDirect true", 0x40201c9aca7a90a9),
    ("pipeline3 Mixed false", 0x40201c9aca7a90a9),
    ("pipeline3 Mixed true", 0x40201c9aca7a90a9),
    ("gcdsum Mesa false", 0x66d66a7c07c1de10),
    ("gcdsum Mesa true", 0xcad79a6b112936be),
    ("gcdsum Direct false", 0x61bc1cf99650ec4c),
    ("gcdsum Direct true", 0x8d3eba677aaa4a87),
    ("gcdsum ShortDirect false", 0x20b72a3ecc158eb7),
    ("gcdsum ShortDirect true", 0x00be37f3abad8ad0),
    ("gcdsum Mixed false", 0x66d66a7c07c1de10),
    ("gcdsum Mixed true", 0xcad79a6b112936be),
    ("accounts Mesa false", 0x14b3d0c51a12339c),
    ("accounts Mesa true", 0xa45a253f330d71e5),
    ("accounts Direct false", 0x14b3d0c51a12339c),
    ("accounts Direct true", 0xa45a253f330d71e5),
    ("accounts ShortDirect false", 0x14b3d0c51a12339c),
    ("accounts ShortDirect true", 0xa45a253f330d71e5),
    ("accounts Mixed false", 0x14b3d0c51a12339c),
    ("accounts Mixed true", 0xa45a253f330d71e5),
    ("queens.mesa", 0x44c91129b626212d),
    ("streams.mesa", 0x40201c9aca7a90a9),
    ("mutants i3 fib", 0xe2df880b9003d122),
    ("mutants i3 ackermann", 0x57f4dcf8ff0811d9),
    ("mutants i3 tak", 0x350b5933c1cb6870),
    ("mutants i3 sieve", 0x18c15a5be58cc3c8),
    ("mutants i3 quicksort", 0xb3be5ed8e2f30448),
    ("mutants i3 treewalk", 0x16e84859bdabe0be),
    ("mutants i3 matrix", 0xa95a92bd02ca3f1c),
    ("mutants i3 leafcalls", 0xdccbc42fc40ce3ca),
    ("mutants i3 nest", 0x9186134c31717cf3),
    ("mutants i3 evenodd", 0xcd3a5310e22d5cfa),
    ("mutants i3 prodcons", 0x3e94f30d0a67ff36),
    ("mutants i3 pingpong", 0x2d75e5473116c7d6),
    ("mutants i3 pointers", 0x83ad2bf036e27106),
    ("mutants i3 hanoi", 0xb59664d9e179175f),
    ("mutants i3 pipeline3", 0x0970ac7cc09233e9),
    ("mutants i3 gcdsum", 0xa1304987ce16883e),
    ("mutants i3 accounts", 0x5d984cb8743574e7),
    ("mutants i4 fib", 0x5ee74bf0236d433d),
    ("mutants i4 ackermann", 0x84f9f99fd25ab110),
    ("mutants i4 tak", 0x09b0edda513c72e4),
    ("mutants i4 sieve", 0x18c15a5be58cc3c8),
    ("mutants i4 quicksort", 0xa99dd23165feb5b6),
    ("mutants i4 treewalk", 0xa4e1ac5f47e1c820),
    ("mutants i4 matrix", 0xa95a92bd02ca3f1c),
    ("mutants i4 leafcalls", 0xaf5fd64bdfb9ef42),
    ("mutants i4 nest", 0xc14adc815ef48478),
    ("mutants i4 evenodd", 0xf16e5a072986ce56),
    ("mutants i4 prodcons", 0x3e94f30d0a67ff36),
    ("mutants i4 pingpong", 0x8c7b2bdd56e67912),
    ("mutants i4 pointers", 0xb4da934f443d4af2),
    ("mutants i4 hanoi", 0x41b70fc700253202),
    ("mutants i4 pipeline3", 0xe525f9a8b8e3f5de),
    ("mutants i4 gcdsum", 0x3d4ed180dce17471),
    ("mutants i4 accounts", 0x0d4215685d3f67eb),
];
