//! The four benchmark workloads. Each runs one iteration and returns a
//! [`Sample`]: the end-to-end spans, the simulated outcome `run.py`
//! pins, and (traced) the per-layer metrics.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use flash::{LatencyReport, Machine, MachineConfig, PpBackend};
use flash_bench::{
    cached_run, clear_caches, mdc_stress_stream, prefetch_with_jobs, suite_main, tables as t, Job,
    RunSpec, WorkSpec,
};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::json::Json;
use flash_engine::{Addr, Cycle, NodeId, LINE_BYTES};
use flash_traffic::{Pattern, Popularity, TrafficSpec};
use flash_workloads::{by_name, Fft, OsWorkload, Workload};

use crate::micro;
use crate::sim::{drive, ratio, secs, timed, Agg, Run};

/// What one iteration of a workload reports.
pub struct Sample {
    /// Host seconds from the start of set-up to the final report.
    pub wall_s: f64,
    /// Host seconds before the first `Machine::run`.
    pub setup_s: f64,
    /// Host seconds of simulation that `refs` retired in.
    pub run_s: f64,
    /// Simulated processor references retired.
    pub refs: u64,
    /// Simulated outcome, compared against the pins.
    pub outcome: Vec<(&'static str, Json)>,
    /// Per-layer metrics (traced iterations only).
    pub layers: Vec<(&'static str, f64)>,
}

/// MP3D at the paper's size on the paper's 16 processors.
const MP3D_PROCS: u16 = 16;

/// Stress traffic shape: 8 nodes with 8 KB caches.
const STRESS_NODES: u16 = 8;
const STRESS_CACHE_BYTES: u64 = 8 << 10;
const STRESS_LINES_PER_NODE: u64 = 256;
const STRESS_ITEMS_PER_PROC: usize = 1_000;

/// Open-loop shape: 16 nodes, Zipf(0.9) over 2^16 objects. The mean
/// per-node gap of 186 cycles offers about 70% of the saturated service
/// demand (~130 simulated cycles per reference per node), below the knee.
const OPENLOOP_NODES: u16 = 16;
const OPENLOOP_OBJECTS: u64 = 1 << 16;
const OPENLOOP_ITEMS_PER_NODE: u64 = 15_000;
const OPENLOOP_MEAN_GAP: u64 = 186;

/// A closed-loop workload's generated inputs, ready to build a machine
/// (what `flash_workloads::build_machine` does, split so generation and
/// `Machine::new` are timed apart).
struct Inputs {
    cfg: MachineConfig,
    streams: Vec<Box<dyn RefStream>>,
    dma: Vec<(Cycle, NodeId, Addr)>,
}

impl Inputs {
    fn of(cfg: &MachineConfig, w: &dyn Workload) -> Inputs {
        let mut cfg = cfg.clone();
        cfg.nodes = w.procs();
        cfg.placement = w.placement();
        Inputs {
            cfg,
            streams: w.streams(),
            dma: w.dma_events(),
        }
    }

    fn build(self) -> Machine {
        let mut m = Machine::new(self.cfg, self.streams);
        for (at, node, addr) in self.dma {
            m.add_dma_write(at, node, addr);
        }
        m
    }
}

/// The simulated statistics every workload pins.
fn machine_outcome(r: &Run) -> Vec<(&'static str, Json)> {
    vec![
        ("exec_cycles", Json::UInt(r.report.exec_cycles)),
        ("references", Json::UInt(r.report.references)),
        ("messages", Json::UInt(r.report.messages)),
        ("handlers", Json::UInt(r.handlers())),
    ]
}

/// Fails unless a twin run simulated exactly what the measured run did
/// (the host profiler and observer are timing-invisible).
fn same_outcome(what: &str, a: &Run, b: &Run) -> Result<(), String> {
    if machine_outcome(a) == machine_outcome(b) {
        Ok(())
    } else {
        Err(format!("{what} simulated a different outcome"))
    }
}

/// The handler micro rung, weighted by `agg`'s invocation mix, and its
/// ratio to the in-situ per-handler time of the backend `cfg` runs.
fn protocol_rung(cfg: &MachineConfig, agg: &Agg, layers: &mut Vec<(&'static str, f64)>) {
    let (emu, translated) = micro::handler_ns(cfg.codegen, &agg.handlers);
    let micro = match cfg.pp_backend {
        PpBackend::Emulated => emu,
        PpBackend::Translated => translated,
    };
    layers.extend([
        ("pp.micro_ns_emu", emu),
        ("pp.micro_ns_translated", translated),
        (
            "protocol.insitu_over_micro",
            ratio(agg.ns_per_handler(), micro),
        ),
    ]);
}

/// `mp3d_flash`: MP3D at full size, one FLASH machine with emulated PP.
pub fn mp3d_flash(trace: bool) -> Result<Sample, String> {
    let cfg = MachineConfig::flash(MP3D_PROCS);
    let gen =
        |cfg: &MachineConfig| timed(|| Inputs::of(cfg, by_name("MP3D", MP3D_PROCS, 1).as_ref()));
    let t0 = Instant::now();
    let (inputs, gen_s) = gen(&cfg);
    let run = drive(move || inputs.build())?;
    let mut s = Sample {
        wall_s: secs(t0),
        setup_s: gen_s + run.build_s,
        run_s: run.run_s,
        refs: run.report.references,
        outcome: machine_outcome(&run),
        layers: Vec::new(),
    };
    if trace {
        let traced_cfg = cfg.clone().with_host_profile(true);
        let (inputs, gen_s) = gen(&traced_cfg);
        let traced = drive(move || inputs.build())?;
        same_outcome("the traced run", &run, &traced)?;
        let mut agg = Agg::default();
        agg.gen_s = gen_s;
        agg.add(&traced);
        agg.metrics(&mut s.layers);
        protocol_rung(&cfg, &agg, &mut s.layers);
        s.layers
            .push(("hostprof.overhead", traced.run_s / run.run_s));
    }
    Ok(s)
}

fn stress_cfg() -> MachineConfig {
    MachineConfig::flash(STRESS_NODES).with_cache_bytes(STRESS_CACHE_BYTES)
}

fn boxed(streams: Vec<Vec<WorkItem>>) -> Vec<Box<dyn RefStream>> {
    streams
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect()
}

/// `stress_checked`: seeded stress streams on 8 nodes, checked mode on.
pub fn stress_checked(seed: u64, trace: bool) -> Result<Sample, String> {
    let gen = || {
        flash_check::stress_streams(
            STRESS_NODES,
            STRESS_LINES_PER_NODE,
            STRESS_ITEMS_PER_PROC,
            seed,
        )
    };
    let t0 = Instant::now();
    let (streams, gen_s) = timed(|| boxed(gen()));
    let run = drive(|| Machine::new(stress_cfg().with_check(true), streams))?;
    let mut outcome = machine_outcome(&run);
    outcome.extend([
        ("oracle_checks", Json::UInt(run.oracle_checks)),
        ("violations", Json::UInt(run.violations as u64)),
    ]);
    let mut s = Sample {
        wall_s: secs(t0),
        setup_s: gen_s + run.build_s,
        run_s: run.run_s,
        refs: run.report.references,
        outcome,
        layers: Vec::new(),
    };
    if trace {
        // Untraced unchecked twin of the same streams, then both traced.
        let plain = drive(|| Machine::new(stress_cfg(), boxed(gen())))?;
        same_outcome("the unchecked twin", &run, &plain)?;
        let (streams, gen_s) = timed(|| boxed(gen()));
        let traced_cfg = stress_cfg().with_host_profile(true);
        let traced = drive(|| Machine::new(traced_cfg.clone().with_check(true), streams))?;
        same_outcome("the traced run", &run, &traced)?;
        let plain_traced = drive(|| Machine::new(traced_cfg, boxed(gen())))?;
        let mut agg = Agg::default();
        agg.gen_s = gen_s;
        agg.add(&traced);
        agg.metrics(&mut s.layers);
        // Per-handler protocol time in situ comes from the unchecked run.
        let mut unchecked = Agg::default();
        unchecked.add(&plain_traced);
        for (name, v) in &mut s.layers {
            if *name == "protocol.ns_per_handler" {
                *v = unchecked.ns_per_handler();
            }
        }
        protocol_rung(&stress_cfg(), &unchecked, &mut s.layers);

        let in_situ = ratio((run.run_s - plain.run_s) * 1e9, run.oracle_checks as f64);
        // A line of node 0 beyond every stressed line: clean directory.
        let untouched = Addr::new((STRESS_LINES_PER_NODE + 1) * LINE_BYTES);
        let chip0 = &run.machine.chips()[0];
        let micro_check = micro::check_ns(chip0.proto_mem(), untouched)?;
        s.layers.extend([
            ("check.ns_per_check", in_situ),
            ("check.micro_ns_per_check", micro_check),
            ("check.insitu_over_micro", ratio(in_situ, micro_check)),
            ("check.overhead_x", run.run_s / plain.run_s),
            ("hostprof.overhead", traced.run_s / run.run_s),
        ]);
    }
    Ok(s)
}

fn openloop_spec(seed: u64) -> TrafficSpec {
    TrafficSpec {
        nodes: OPENLOOP_NODES,
        objects: OPENLOOP_OBJECTS,
        items_per_node: OPENLOOP_ITEMS_PER_NODE,
        mean_gap: OPENLOOP_MEAN_GAP,
        write_permille: 250,
        pattern: Pattern::Poisson,
        popularity: Popularity::Zipf {
            theta_permille: 900,
        },
        tenants: 1,
        seed,
    }
}

/// Admission totals over every fed node: `(arrivals, admitted, wait
/// sum, peak backlog)`.
fn admission(l: &LatencyReport) -> (u64, u64, u64, u64) {
    l.traffic.iter().fold((0, 0, 0, 0), |acc, (_, s)| {
        (
            acc.0 + s.arrivals,
            acc.1 + s.admitted,
            acc.2 + s.wait_sum,
            acc.3.max(s.peak_backlog),
        )
    })
}

/// `openloop_zipf`: open-loop Poisson arrivals with Zipf popularity on
/// 16 nodes, observer on.
pub fn openloop_zipf(seed: u64, trace: bool) -> Result<Sample, String> {
    let spec = openloop_spec(seed);
    let cfg = MachineConfig::flash(OPENLOOP_NODES).with_observe(true);
    let t0 = Instant::now();
    let (sources, gen_s) = timed(|| spec.sources());
    let run = drive(|| Machine::new_open_loop(cfg.clone(), sources))?;
    let latency = run
        .latency
        .as_ref()
        .ok_or("observer armed but no latency report")?;
    let (arrivals, admitted, wait_sum, peak_backlog) = admission(latency);
    let rows = latency
        .rows
        .iter()
        .map(|r| {
            Json::Arr(vec![
                Json::str(r.class),
                Json::UInt(r.count),
                Json::UInt(r.p50),
                Json::UInt(r.p99),
            ])
        })
        .collect();
    let all = latency
        .rows
        .iter()
        .find(|r| r.class == "all")
        .ok_or("latency report has no `all` row")?;
    let (p50, p99) = (all.p50, all.p99);
    let mut outcome = machine_outcome(&run);
    outcome.extend([
        ("arrivals", Json::UInt(arrivals)),
        ("admitted", Json::UInt(admitted)),
        ("admission_wait_sum", Json::UInt(wait_sum)),
        ("peak_backlog", Json::UInt(peak_backlog)),
        ("latency", Json::Arr(rows)),
    ]);
    let mut s = Sample {
        wall_s: secs(t0),
        setup_s: gen_s + run.build_s,
        run_s: run.run_s,
        refs: run.report.references,
        outcome,
        layers: Vec::new(),
    };
    if trace {
        let plain_cfg = MachineConfig::flash(OPENLOOP_NODES);
        let plain = drive(|| Machine::new_open_loop(plain_cfg, spec.sources()))?;
        same_outcome("the unobserved twin", &run, &plain)?;
        let (sources, gen_s) = timed(|| spec.sources());
        let traced_cfg = cfg.clone().with_host_profile(true);
        let traced = drive(|| Machine::new_open_loop(traced_cfg, sources))?;
        same_outcome("the traced run", &run, &traced)?;
        let mut agg = Agg::default();
        agg.gen_s = gen_s;
        agg.add(&traced);
        agg.metrics(&mut s.layers);
        protocol_rung(&cfg, &agg, &mut s.layers);

        // Drain a twin set of sources: host cost per generated arrival.
        let mut drained = 0u64;
        let t = Instant::now();
        for mut src in spec.sources() {
            while let Some(a) = src.next_arrival() {
                black_box(a);
                drained += 1;
            }
        }
        let drain_ns = t.elapsed().as_secs_f64() * 1e9;
        s.layers.extend([
            ("traffic.ns_per_arrival", ratio(drain_ns, drained as f64)),
            ("traffic.arrivals", arrivals as f64),
            (
                "traffic.admission_wait_mean",
                ratio(wait_sum as f64, admitted as f64),
            ),
            ("traffic.peak_backlog", peak_backlog as f64),
            ("traffic.p50_cycles", p50 as f64),
            ("traffic.p99_cycles", p99 as f64),
            ("observe.overhead_x", run.run_s / plain.run_s),
            ("hostprof.overhead", traced.run_s / run.run_s),
        ]);
    }
    Ok(s)
}

/// Renders every `repro_all` artifact from the memo cache to stdout,
/// exactly as the `repro_all` binary does.
fn render_all() -> ExitCode {
    suite_main(&mut [
        ("table_3_2", Some(Box::new(t::table_3_2))),
        ("table_3_3", Some(Box::new(t::table_3_3))),
        ("table_3_4", Some(Box::new(t::table_3_4))),
        ("fig_4_1", Some(Box::new(t::fig_4_1))),
        ("table_4_1", Some(Box::new(t::table_4_1))),
        ("fig_4_2", Some(Box::new(t::fig_4_2))),
        ("fig_4_3", Some(Box::new(t::fig_4_3))),
        ("table_4_2", Some(Box::new(t::table_4_2))),
        ("sec_4_3_hotspot", Some(Box::new(t::sec_4_3_hotspot))),
        ("sec_4_5_scale64", Some(Box::new(t::sec_4_5_scale64))),
        ("table_5_1", Some(Box::new(t::table_5_1))),
        ("sec_5_2_mdc", Some(Box::new(t::sec_5_2_mdc))),
        ("table_5_2", Some(Box::new(t::table_5_2))),
        ("table_5_3", Some(Box::new(t::table_5_3))),
        ("sec_5_3_ppext", Some(Box::new(t::sec_5_3_ppext))),
        ("ablations", Some(Box::new(t::ablations))),
        ("flexibility_note", Some(Box::new(t::flexibility_note))),
    ])
}

/// The unique machine-run points of a job list, in first-listed order.
fn unique_runs(jobs: &[Job]) -> Vec<RunSpec> {
    let mut seen = std::collections::HashSet::new();
    jobs.iter()
        .filter_map(|j| match j {
            Job::Run(spec) if seen.insert(spec.key()) => Some(spec.clone()),
            _ => None,
        })
        .collect()
}

/// Generates one run point's inputs under `cfg` (the point's own
/// configuration, possibly with the profiler armed).
fn point_inputs(work: WorkSpec, cfg: &MachineConfig) -> Inputs {
    let w: Box<dyn Workload> = match work {
        WorkSpec::Named { app, procs, scale } => by_name(app, procs, scale),
        WorkSpec::FftDim { procs, dim } => Box::new(Fft::with_dim(procs, dim)),
        WorkSpec::OsOriginalPort { procs, scale } => {
            Box::new(OsWorkload::scaled(procs, scale).original_port())
        }
        WorkSpec::MdcStress { data_mb, scale } => {
            return Inputs {
                cfg: cfg.clone(),
                streams: mdc_stress_stream(data_mb, scale),
                dma: Vec::new(),
            }
        }
    };
    Inputs::of(cfg, w.as_ref())
}

/// `paper_matrix`: the whole `repro_all` run matrix with one run-matrix
/// worker per host core, rendered to stdout for `run.py` to compare
/// with the golden transcript.
pub fn paper_matrix(trace: bool) -> Result<Sample, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    // Set-up: enumerate the matrix and generate every unique point's
    // inputs and machine once, without running it.
    let jobs = t::repro_all_jobs();
    let specs = unique_runs(&jobs);
    for spec in &specs {
        black_box(point_inputs(spec.work, &spec.cfg).build());
    }
    let setup_s = secs(t0);
    let (points, prefetch_s) = timed(|| prefetch_with_jobs(&jobs, workers));
    let (code, render_s) = timed(render_all);
    if code != ExitCode::SUCCESS {
        return Err("an artifact of the run matrix failed".into());
    }
    let refs: u64 = specs.iter().map(|s| cached_run(s).references).sum();
    let cycles: u64 = specs.iter().map(|s| cached_run(s).exec_cycles).sum();
    let mut s = Sample {
        wall_s: secs(t0),
        setup_s,
        run_s: prefetch_s,
        refs,
        outcome: vec![
            ("points", Json::UInt(points as u64)),
            ("run_points", Json::UInt(specs.len() as u64)),
            ("references", Json::UInt(refs)),
            ("exec_cycles", Json::UInt(cycles)),
        ],
        layers: Vec::new(),
    };
    if trace {
        clear_caches();
        let (_, serial_s) = timed(|| prefetch_with_jobs(&jobs, 1));
        // Serial passes over the run points through the benchmark's own
        // spans: untraced, then profiled (each report must equal the
        // runner's memoized one).
        let mut untraced_run_s = 0.0;
        for spec in &specs {
            let inputs = point_inputs(spec.work, &spec.cfg);
            untraced_run_s += drive(move || inputs.build())?.run_s;
        }
        let mut agg = Agg::default();
        for spec in &specs {
            let cfg = spec.cfg.clone().with_host_profile(true);
            let (inputs, gen_s) = timed(|| point_inputs(spec.work, &cfg));
            agg.gen_s += gen_s;
            let run = drive(move || inputs.build())?;
            if run.report != cached_run(spec) {
                return Err(format!(
                    "traced point differs from the runner's: {}",
                    spec.key()
                ));
            }
            agg.add(&run);
        }
        agg.metrics(&mut s.layers);
        protocol_rung(&MachineConfig::flash(16), &agg, &mut s.layers);
        s.layers.extend([
            ("runner.points", points as f64),
            ("runner.prefetch_s", prefetch_s),
            ("runner.render_s", render_s),
            ("runner.speedup_n", serial_s / prefetch_s),
            ("hostprof.overhead", agg.run_s / untraced_run_s),
        ]);
    }
    Ok(s)
}
