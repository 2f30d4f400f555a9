//! One iteration of one benchmark workload of the FLASH simulator.
//!
//! ```text
//! perfbench-sim <workload> [--seed N] [--trace]
//! ```
//!
//! Runs the workload once and prints, as the last line of stdout, one
//! JSON object: the end-to-end spans (`wall_s`, `setup_s`, `run_s`),
//! the simulated references retired, this process's peak resident set,
//! the simulated outcome `run.py` compares with its pins, and with
//! `--trace` the per-layer metrics. `paper_matrix` prints the rendered
//! `repro_all` transcript above that line. Exits nonzero, without the
//! JSON line, if a run fails. `perfbench/run.py` builds this binary,
//! repeats it, checks the pins and aggregates; see `perfbench/README.md`.

mod micro;
mod sim;
mod workloads;

use std::process::ExitCode;

use flash_engine::json::Json;

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unknown.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it
        .next()
        .ok_or("usage: perfbench-sim <workload> [--seed N] [--trace]")?;
    let mut args = Args {
        workload,
        seed: 1,
        trace: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?
            }
            "--trace" => args.trace = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<workloads::Sample, String> {
    match args.workload.as_str() {
        "paper_matrix" => workloads::paper_matrix(args.trace),
        "mp3d_flash" => workloads::mp3d_flash(args.trace),
        "stress_checked" => workloads::stress_checked(args.seed, args.trace),
        "openloop_zipf" => workloads::openloop_zipf(args.seed, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| Ok((run(&args)?, args)));
    let (s, args) = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench-sim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obj = |pairs: Vec<(&str, Json)>| Json::obj(pairs);
    let line = obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::UInt(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("wall_s", Json::Float(s.wall_s)),
        ("setup_s", Json::Float(s.setup_s)),
        ("run_s", Json::Float(s.run_s)),
        ("refs", Json::UInt(s.refs)),
        ("peak_rss_kib", Json::UInt(peak_rss_kib())),
        ("outcome", obj(s.outcome)),
        (
            "layers",
            obj(s
                .layers
                .into_iter()
                .map(|(k, v)| (k, Json::Float(v)))
                .collect()),
        ),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}
