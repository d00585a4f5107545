//! Runs every deterministic experiment once and writes
//! `EXPERIMENTS-generated.md` at the workspace root, from any working
//! directory. With `--json` it prints the same results as JSON instead.
//!
//! ```text
//! write_experiments [--json]
//! ```
//!
//! Any other argument is refused with exit code 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = match args.as_slice() {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            eprintln!("usage: write_experiments [--json]");
            return ExitCode::from(2);
        }
    };
    let experiments = fd_bench::generate();
    if json {
        println!("{}", serde_json::to_string_pretty(&experiments).expect("results serialize"));
        return ExitCode::SUCCESS;
    }
    let markdown = experiments.markdown();
    if let Err(e) = std::fs::write(fd_bench::GENERATED_FILE, &markdown) {
        eprintln!("write_experiments: cannot write {}: {e}", fd_bench::GENERATED_FILE);
        return ExitCode::FAILURE;
    }
    println!("wrote EXPERIMENTS-generated.md ({} bytes)", markdown.len());
    ExitCode::SUCCESS
}
