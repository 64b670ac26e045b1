//! `rrs-cli` — the reproduction's command-line interface.
//!
//! ```text
//! rrs run     --workload hmmer --defense rrs [--scale N] [--instr N]
//! rrs attack  --pattern half-double --defense vfm [--epochs N] [--scale N]
//! rrs sweep   --defense rrs [--workloads all|table3|N] [--scale N]
//! rrs capture --workload gcc --records N --out trace.rrst [--text]
//! rrs replay  --trace trace.rrst --defense rrs [--instr N]
//! rrs figure  table4|fig6|...|all [--scale N] [--instr N] [--out DIR]
//! ```

use rrs_cli::{dispatch, print_usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            print_usage();
            std::process::exit(2);
        }
    }
}
