//! End-to-end tests of the hardened run-matrix supervisor and the repro
//! process boundary.
//!
//! The library-level tests drive [`flash_bench::prefetch_supervised`]
//! directly with the self-test hooks (`FLASH_INJECT_PANIC`,
//! `FLASH_INJECT_HANG`) and assert that a poisoned job is isolated,
//! retried, recorded, and never takes the rest of the matrix down. The
//! subprocess tests run a real repro binary and pin the process contract:
//! healthy runs exit zero with no failure tail; poisoned runs exit
//! nonzero with the per-job failure table on stdout.

use flash::MachineConfig;
use flash_bench::runner::{
    clear_caches, drain_failures, prefetch_supervised, Job, RunSpec, SuperviseOptions, WorkSpec,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the env-mutating tests: the hooks are process-global.
fn env_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

fn run_job(app: &'static str, scale: u32) -> Job {
    Job::Run(RunSpec {
        work: WorkSpec::Named {
            app,
            procs: 2,
            scale,
        },
        cfg: MachineConfig::flash(2),
    })
}

/// The pool shapes under test: the caller's thread alone, and the caller
/// plus one spawned worker. Each pass uses its own `scale`, so a point the
/// memo cache kept from one pass cannot hide the next.
const POOLS: [(usize, u32); 2] = [(1, 63), (2, 61)];

#[test]
fn injected_panic_is_isolated_retried_and_recorded() {
    let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
    for (workers, scale) in POOLS {
        clear_caches();
        drain_failures();
        // Poison exactly the FFT point; the LU point must be unaffected.
        std::env::set_var(
            "FLASH_INJECT_PANIC",
            format!("app: \"FFT\", procs: 2, scale: {scale}"),
        );
        let jobs = vec![run_job("FFT", scale), run_job("LU", scale)];
        let ran = prefetch_supervised(
            &jobs,
            workers,
            &SuperviseOptions {
                timeout: None,
                retries: 1,
            },
        );
        std::env::remove_var("FLASH_INJECT_PANIC");
        assert_eq!(ran, 2, "workers={workers}: both points must be attempted");
        let failures = drain_failures();
        assert_eq!(
            failures.len(),
            1,
            "workers={workers}: only the poisoned job fails: {failures:?}"
        );
        assert!(failures[0].key.contains("FFT"));
        assert_eq!(failures[0].attempts, 2, "one retry after the first panic");
        assert!(failures[0].error.contains("FLASH_INJECT_PANIC"));
        // The healthy point is cached; re-prefetching it is a no-op.
        assert_eq!(
            prefetch_supervised(
                &[run_job("LU", scale)],
                workers,
                &SuperviseOptions::from_env()
            ),
            0,
            "workers={workers}: healthy job must have been cached despite its neighbour panicking"
        );
        // The poisoned point was never cached — with the hook gone it runs
        // cleanly, proving a failure does not poison the memo cache.
        assert_eq!(
            prefetch_supervised(
                &[run_job("FFT", scale)],
                workers,
                &SuperviseOptions::from_env()
            ),
            1
        );
        assert!(drain_failures().is_empty());
    }
}

#[test]
fn hung_job_times_out_and_the_matrix_completes() {
    let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
    for (workers, scale) in POOLS {
        clear_caches();
        drain_failures();
        // Hang exactly the LU point (a runaway simulation that ignores its
        // cycle budget); the supervisor must abandon it on wall clock and
        // still finish the FFT point — at every worker count.
        std::env::set_var(
            "FLASH_INJECT_HANG",
            format!("app: \"LU\", procs: 2, scale: {scale}"),
        );
        let t0 = Instant::now();
        let ran = prefetch_supervised(
            &[run_job("LU", scale), run_job("FFT", scale)],
            workers,
            &SuperviseOptions {
                timeout: Some(Duration::from_millis(300)),
                retries: 1,
            },
        );
        std::env::remove_var("FLASH_INJECT_HANG");
        assert_eq!(ran, 2);
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "workers={workers}: supervisor must not wait out the hour-long hang"
        );
        let failures = drain_failures();
        assert_eq!(failures.len(), 1, "workers={workers}: {failures:?}");
        assert!(failures[0].key.contains("LU"));
        assert!(failures[0].error.contains("timed out"));
        assert_eq!(failures[0].attempts, 2, "the overdue attempt was retried");
        // The healthy point completed and is cached.
        assert_eq!(
            prefetch_supervised(
                &[run_job("FFT", scale)],
                workers,
                &SuperviseOptions::from_env()
            ),
            0
        );
    }
}

#[test]
fn repro_binary_healthy_run_exits_zero_without_failure_tail() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table_3_3"))
        .env_remove("FLASH_INJECT_PANIC")
        .env_remove("FLASH_INJECT_HANG")
        .output()
        .expect("spawn table_3_3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "healthy repro must exit zero\n{stdout}"
    );
    assert!(
        !stdout.contains("== FAILURES =="),
        "healthy repro output must carry no failure tail\n{stdout}"
    );
    assert!(stdout.contains("Table 3.3"), "{stdout}");
}

#[test]
fn repro_binary_poisoned_run_exits_nonzero_with_failure_table() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table_3_3"))
        .env("FLASH_INJECT_PANIC", "lat|")
        .env("FLASH_JOB_RETRIES", "0")
        .output()
        .expect("spawn table_3_3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "poisoned repro must exit nonzero\n{stdout}"
    );
    assert!(stdout.contains("== FAILURES =="), "{stdout}");
    assert!(
        stdout.contains("simulation job(s) failed"),
        "per-job failure table expected\n{stdout}"
    );
    assert!(stdout.contains("lat|"), "failed job keys listed\n{stdout}");
    assert!(
        stdout.contains("table_3_3"),
        "the artifact itself is reported incomplete\n{stdout}"
    );
}
