//! Shard-count scaling of the conservative-time-window engine on
//! 64/256/1024-node meshes, written to `BENCH_PR7.json`. Usage:
//!
//! ```text
//! cargo run --release -p flash-bench --bin scale_suite [output.json]
//! ```
//!
//! Each mesh runs one neighbour-sharing workload under 1, 2 and 4
//! shards. Every node touches each of its lines once, so every reference
//! goes to the protocol and every point runs for at least a second at
//! one shard. The shard counts are interleaved over `REPEATS` rounds, so
//! host drift hits every count alike. Each point reports the median and
//! interquartile range of its `Machine::run` wall times, and the speedup
//! is the ratio of medians.
//!
//! `exec_cycles` must be identical across every run of a mesh, or the
//! process exits nonzero: sharding must never change what is simulated.

use std::time::Instant;

use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::json::Json;
use flash_engine::{Addr, LINE_BYTES};

const BUDGET: u64 = 2_000_000_000;
const SHARDS: [usize; 3] = [1, 2, 4];
const REPEATS: usize = 5;
const CACHE_BYTES: u64 = 16 << 10;
/// (nodes, lines per node), sized so that every run of every mesh takes
/// over a second at one shard.
const MESHES: [(u16, u64); 3] = [(64, 4800), (256, 1000), (1024, 200)];

/// Uniform neighbour-sharing traffic: every node works its own home lines
/// and reads its ring neighbour's, producing real mesh traffic (remote
/// gets, forwards, two-sharer invalidations) with bounded per-home load.
fn streams(nodes: u16, lines: u64) -> Vec<Box<dyn RefStream>> {
    (0..nodes)
        .map(|p| {
            let mut items = Vec::new();
            for l in 0..lines {
                let own = Addr::new(((p as u64) << 32) | (l * LINE_BYTES));
                let neighbor = Addr::new((((p + 1) % nodes) as u64) << 32 | (l * LINE_BYTES));
                items.push(WorkItem::Read(own));
                items.push(WorkItem::Write(own));
                items.push(WorkItem::Read(neighbor));
                items.push(WorkItem::Busy(8));
            }
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect()
}

/// One run: host seconds spent in `Machine::run`, and simulated cycles.
fn run_once(nodes: u16, lines: u64, shards: usize) -> (f64, u64) {
    let mut m = Machine::new(
        MachineConfig::flash(nodes)
            .with_shards(shards)
            .with_cache_bytes(CACHE_BYTES),
        streams(nodes, lines),
    );
    let t0 = Instant::now();
    let RunResult::Completed { exec_cycles } = m.run(BUDGET) else {
        eprintln!("scale_suite: {nodes}-node run with {shards} shard(s) did not complete");
        std::process::exit(1);
    };
    (t0.elapsed().as_secs_f64(), exec_cycles)
}

/// Sorts `xs` and returns its median and interquartile range
/// (nearest-rank quartiles).
fn median_iqr(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[n / 2], xs[3 * n / 4] - xs[n / 4])
}

/// Seconds rounded to the millisecond, as JSON.
fn secs(s: f64) -> Json {
    Json::Float((s * 1e3).round() / 1e3)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR7.json".to_string());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut deterministic = true;
    let mut meshes = Vec::new();
    println!("nodes  lines/node  shards  median_s  iqr_s  speedup");
    for (nodes, lines) in MESHES {
        let mut walls = vec![Vec::with_capacity(REPEATS); SHARDS.len()];
        let mut cycles = Vec::with_capacity(REPEATS * SHARDS.len());
        for _ in 0..REPEATS {
            for (w, &shards) in walls.iter_mut().zip(&SHARDS) {
                let (wall, c) = run_once(nodes, lines, shards);
                w.push(wall);
                cycles.push(c);
            }
        }
        let identical = cycles.iter().all(|&c| c == cycles[0]);
        deterministic &= identical;
        let medians: Vec<(f64, f64)> = walls.iter_mut().map(|w| median_iqr(w)).collect();
        let base = medians[0].0;
        let points = SHARDS
            .iter()
            .zip(&medians)
            .zip(&walls)
            .map(|((&shards, &(median, iqr)), w)| {
                println!(
                    "{nodes:>5}  {lines:>10}  {shards:>6}  {median:>8.3}  {iqr:>5.3}  {:>7.2}",
                    base / median
                );
                Json::obj(vec![
                    ("shards", Json::UInt(shards as u64)),
                    ("median_s", secs(median)),
                    ("iqr_s", secs(iqr)),
                    (
                        "speedup_vs_1_shard",
                        Json::Float((base / median * 100.0).round() / 100.0),
                    ),
                    (
                        "sorted_wall_s",
                        Json::Arr(w.iter().map(|&s| secs(s)).collect()),
                    ),
                ])
            })
            .collect();
        meshes.push(Json::obj(vec![
            ("nodes", Json::UInt(nodes.into())),
            ("lines_per_node", Json::UInt(lines)),
            ("exec_cycles", Json::UInt(cycles[0])),
            ("deterministic_across_shards", Json::Bool(identical)),
            ("points", Json::Arr(points)),
        ]));
    }

    let report = Json::obj(vec![
        ("bench", Json::str("scale_suite")),
        (
            "host",
            Json::obj(vec![("cores", Json::UInt(host_cores as u64))]),
        ),
        ("repeats", Json::UInt(REPEATS as u64)),
        ("cache_bytes", Json::UInt(CACHE_BYTES)),
        ("meshes", Json::Arr(meshes)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write scale_suite report");
    eprintln!("scale_suite: wrote {out_path}");
    if !deterministic {
        eprintln!("scale_suite: DETERMINISM VIOLATION — exec_cycles differ across shard counts");
        std::process::exit(1);
    }
}
