//! Regenerates the paper's §III area claim: the chaining extension costs
//! "<2 % cell area increase" — reproduced here as a structural state-bit
//! census (see `sc-energy`'s `AreaEstimate` for the substitution note).
//!
//! Run with `cargo run --release -p sc-bench -- area_report`.

use std::process::ExitCode;

use sc_core::CoreConfig;
use sc_energy::AreaEstimate;

pub fn run(_args: &[String]) -> ExitCode {
    let with = AreaEstimate::for_config(&CoreConfig::new());
    let without = AreaEstimate::for_config(&CoreConfig::new().with_chaining(false));
    println!("=== Area proxy (weighted state-bit census, kGE) ===\n");
    print!("{}", with.report());
    println!();
    println!(
        "core without extension: {:.1} kGE; with extension: {:.1} kGE",
        without.total_kge(),
        with.total_kge()
    );
    println!(
        "extension overhead: {:.2} %   (paper claims < 2 %)",
        with.chaining_overhead() * 100.0
    );
    assert!(
        with.chaining_overhead() < 0.02,
        "overhead exceeds the paper's claim"
    );
    ExitCode::SUCCESS
}
