//! The benchmark's command line:
//!
//! ```text
//! stj-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints one JSON result line on stdout (see README.md). The workloads
//! start the same executable as their helper processes:
//! `preprocess-child` (`stj preprocess`) and `serve-child` (`stj serve`).

use std::path::PathBuf;
use std::process::ExitCode;
use stj_perfbench::{parse_args, preprocess, run, serve, Size, WORK_DIR};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let child = match argv.first().map(String::as_str) {
        Some(serve::CHILD_COMMAND) => Some(serve::child_main(&argv[1..])),
        Some(preprocess::CHILD_COMMAND) => Some(preprocess::child_main(&argv[1..])),
        _ => None,
    };
    if let Some(outcome) = child {
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", argv[0]);
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| {
        let dir = PathBuf::from(WORK_DIR).join(&args.workload);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        run(&args, Size::FULL, &dir, &exe)
    });
    match outcome {
        Ok(report) => {
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
