//! Timed machine runs, and the per-layer aggregate of their reports and
//! host profiles.

use std::collections::BTreeMap;
use std::time::Instant;

use flash::hostprof::HostSeg;
use flash::{HostProfile, LatencyReport, Machine, MachineReport, RunResult, HOST_SEG_COUNT};

/// Cycle budget of every run (the workloads crate's deadlock guard).
pub const BUDGET: u64 = flash_workloads::DEFAULT_BUDGET;

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// One finished machine run: the benchmark's spans around the public
/// calls, and everything it reads from the machine afterwards.
pub struct Run {
    /// Host seconds in `Machine::new` (handler compile/translate included).
    pub build_s: f64,
    /// Host seconds in `Machine::run`.
    pub run_s: f64,
    /// Host seconds gathering the report, latency rows and violations.
    pub report_s: f64,
    pub report: MachineReport,
    pub profile: Option<HostProfile>,
    /// `(wheel, heap)` event-queue pushes.
    pub push_routing: (u64, u64),
    pub oracle_checks: u64,
    pub violations: usize,
    pub latency: Option<LatencyReport>,
    pub machine: Machine,
}

impl Run {
    /// Handler invocations over every handler.
    pub fn handlers(&self) -> u64 {
        self.report.handlers.values().map(|(n, _)| n).sum()
    }
}

/// Builds a machine with `build`, runs it to completion and gathers its
/// report. A run that does not complete is an error.
pub fn drive(build: impl FnOnce() -> Machine) -> Result<Run, String> {
    let (mut m, build_s) = timed(build);
    let (res, run_s) = timed(|| m.run(BUDGET));
    if !matches!(res, RunResult::Completed { .. }) {
        let mut why = format!("{res:?}");
        why.truncate(400);
        return Err(format!("run did not complete: {why}"));
    }
    let ((report, latency, violations), report_s) = timed(|| {
        (
            MachineReport::from_machine(&m),
            m.latency_report(),
            m.check_violations().len(),
        )
    });
    Ok(Run {
        build_s,
        run_s,
        report_s,
        report,
        profile: m.host_profile().cloned(),
        push_routing: m.queue_push_routing(),
        oracle_checks: m.oracle_checked(),
        violations,
        latency,
        machine: m,
    })
}

/// Sums of the traced runs of one workload, from which the per-layer
/// metrics are derived.
#[derive(Default)]
pub struct Agg {
    pub gen_s: f64,
    pub build_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    seg_ns: [u64; HOST_SEG_COUNT],
    prof_wall_ns: u64,
    events: u64,
    refs: u64,
    miss_events: f64,
    messages: u64,
    inbox_wait: f64,
    /// Invocations per handler name (the micro rung's weights).
    pub handlers: BTreeMap<&'static str, u64>,
    pp_pairs: u64,
    pp_invocations: u64,
    mdc_accesses: u64,
    mdc_misses: u64,
    mdc_stall: u64,
    wheel: u64,
    heap: u64,
    oracle_checks: u64,
}

impl Agg {
    /// Adds one traced run.
    pub fn add(&mut self, r: &Run) {
        self.build_s += r.build_s;
        self.run_s += r.run_s;
        self.report_s += r.report_s;
        if let Some(p) = &r.profile {
            for (a, b) in self.seg_ns.iter_mut().zip(p.acc.ns) {
                *a += b;
            }
            self.prof_wall_ns += p.wall_ns;
            self.events += p.acc.events;
        }
        let rep = &r.report;
        self.refs += rep.references;
        self.miss_events += rep.miss_rate * rep.references as f64;
        self.messages += rep.messages;
        self.inbox_wait += rep.inbox_wait_mean * rep.messages as f64;
        for (name, (n, _)) in &rep.handlers {
            *self.handlers.entry(name).or_default() += n;
        }
        self.pp_pairs += rep.pp_stats.pairs;
        self.pp_invocations += rep.pp_stats.invocations;
        self.mdc_accesses += rep.mdc.accesses;
        self.mdc_misses += rep.mdc.misses;
        self.mdc_stall += rep.mdc.stall_cycles;
        self.wheel += r.push_routing.0;
        self.heap += r.push_routing.1;
        self.oracle_checks += r.oracle_checks;
    }

    fn seg(&self, s: HostSeg) -> f64 {
        self.seg_ns[s as usize] as f64
    }

    /// Handler invocations over every handler.
    pub fn handler_count(&self) -> u64 {
        self.handlers.values().sum()
    }

    /// In-situ host nanoseconds of the `protocol` segment per handler.
    pub fn ns_per_handler(&self) -> f64 {
        ratio(self.seg(HostSeg::Protocol), self.handler_count() as f64)
    }

    /// The per-layer metrics these runs determine.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let events = self.events as f64;
        let refs = self.refs as f64;
        let msgs = self.messages as f64;
        let attributed: u64 = self.seg_ns.iter().sum();
        out.extend([
            ("workloads.gen_s", self.gen_s),
            ("core.build_s", self.build_s),
            ("core.run_s", self.run_s),
            ("core.report_s", self.report_s),
            ("core.events", events),
            ("core.events_per_ref", ratio(events, refs)),
            (
                "engine.ns_per_event",
                ratio(self.seg(HostSeg::Queue), events),
            ),
            (
                "engine.heap_push_share",
                ratio(self.heap as f64, (self.wheel + self.heap) as f64),
            ),
            ("cpu.ns_per_ref", ratio(self.seg(HostSeg::Proc), refs)),
            ("cpu.miss_rate", ratio(self.miss_events, refs)),
            ("magic.ns_per_msg", ratio(self.seg(HostSeg::Magic), msgs)),
            ("magic.messages", msgs),
            ("magic.inbox_wait_mean", ratio(self.inbox_wait, msgs)),
            ("protocol.ns_per_handler", self.ns_per_handler()),
            ("protocol.handlers", self.handler_count() as f64),
            (
                "pp.pairs_per_handler",
                ratio(self.pp_pairs as f64, self.pp_invocations as f64),
            ),
            (
                "mem.mdc_miss_rate",
                ratio(self.mdc_misses as f64, self.mdc_accesses as f64),
            ),
            ("mem.mdc_stall_cycles", self.mdc_stall as f64),
            ("net.ns_per_msg", ratio(self.seg(HostSeg::Net), msgs)),
            ("check.oracle_checks", self.oracle_checks as f64),
            (
                "observe.ns_per_event",
                ratio(self.seg(HostSeg::ObsCheck), events),
            ),
            (
                "hostprof.coverage",
                ratio(attributed as f64, self.prof_wall_ns as f64),
            ),
        ]);
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
