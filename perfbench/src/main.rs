//! `pp-perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-converge --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for a fixed amount of work sized from `--seconds`,
//! checks its outputs, and prints one JSON line last: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). Bad arguments exit 2 without a result.

use pp_perfbench::{metrics, parse_args, run, workloads};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(workloads::serve::CHILD_FLAG) {
        workloads::serve::child_main();
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (values, mut checks) = run(&args);
    print!("{}", metrics::finish(&mut checks, &values));
    ExitCode::SUCCESS
}
