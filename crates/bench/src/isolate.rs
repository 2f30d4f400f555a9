//! Single-call panic and wall-clock isolation — the one isolation
//! primitive in `flash-bench`.
//!
//! The run-matrix supervisor in [`crate::runner`] runs every job attempt
//! through [`call`], and the repro harness in [`crate::harness`] renders
//! each artifact through [`catch`]. The delta debugger in
//! `flash-minimize` evaluates one candidate at a time through [`call`]: a
//! shrunk candidate may legitimately wedge forever (that is often exactly
//! the failure being minimized, with the watchdog shrunk too far to catch
//! it) or panic inside the simulator, and neither may take the search
//! down. With a limit, [`call`] runs the closure under [`catch`] on a
//! *detached* thread whose result comes back over a channel with
//! `recv_timeout`; an overdue thread is abandoned, never joined, so a
//! wedged closure costs its caller one timeout, not a hang.

use std::sync::mpsc;
use std::time::Duration;

/// Why an isolated call produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsolateError {
    /// The closure panicked; the payload's first line.
    Panicked(String),
    /// The closure exceeded the wall-clock limit and its thread was
    /// abandoned (it may still be running; the process exits with it).
    TimedOut(Duration),
}

impl std::fmt::Display for IsolateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolateError::Panicked(msg) => write!(f, "panicked: {msg}"),
            IsolateError::TimedOut(limit) => write!(f, "timed out (> {limit:?} wall clock)"),
        }
    }
}

fn first_line_of(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    msg.lines().next().unwrap_or("panic").to_string()
}

/// Runs `f` inline on the caller's thread, catching a panic as
/// [`IsolateError::Panicked`] with the payload's first line.
///
/// # Examples
///
/// ```
/// use flash_bench::isolate::{catch, IsolateError};
///
/// assert_eq!(catch(|| 2 + 2), Ok(4));
/// assert_eq!(
///     catch(|| -> u32 { panic!("boom\nwith detail") }),
///     Err(IsolateError::Panicked("boom".into()))
/// );
/// ```
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, IsolateError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| IsolateError::Panicked(first_line_of(p)))
}

/// Runs `f` with panic isolation and an optional wall-clock limit.
///
/// With `timeout = None` the closure runs under [`catch`] on the
/// caller's thread (panic-isolated only — an unbounded closure can still
/// hang, so searches over potentially-wedging candidates should pass a
/// limit or rely on the simulation's own watchdog/budget). With a limit,
/// it runs under [`catch`] on a detached thread: if the deadline passes,
/// the thread is abandoned and [`IsolateError::TimedOut`] returned.
///
/// # Examples
///
/// ```
/// use flash_bench::isolate::{call, IsolateError};
/// use std::time::Duration;
///
/// assert_eq!(call(None, || 2 + 2), Ok(4));
/// assert!(matches!(
///     call(None, || -> u32 { panic!("boom\nwith detail") }),
///     Err(IsolateError::Panicked(ref m)) if m == "boom"
/// ));
/// let r = call(Some(Duration::from_millis(20)), || {
///     std::thread::sleep(Duration::from_secs(600));
/// });
/// assert!(matches!(r, Err(IsolateError::TimedOut(_))));
/// ```
pub fn call<T, F>(timeout: Option<Duration>, f: F) -> Result<T, IsolateError>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let Some(limit) = timeout else {
        return catch(f);
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch(f));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => Err(IsolateError::TimedOut(limit)),
        // The worker dropped `tx` without sending: only possible if the
        // send itself failed catastrophically; report as a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(IsolateError::Panicked("worker vanished".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_passes_through() {
        assert_eq!(call(None, || "ok".to_string()), Ok("ok".to_string()));
        assert_eq!(
            call(Some(Duration::from_secs(5)), || vec![1u64, 2]),
            Ok(vec![1, 2])
        );
    }

    #[test]
    fn panic_is_contained_and_first_line_reported() {
        let r: Result<(), _> = call(Some(Duration::from_secs(5)), || {
            panic!("candidate wedged at cycle 12345\nnode0: wait-reply");
        });
        assert_eq!(
            r,
            Err(IsolateError::Panicked(
                "candidate wedged at cycle 12345".into()
            ))
        );
    }

    #[test]
    fn overdue_worker_is_abandoned() {
        let limit = Duration::from_millis(30);
        let r: Result<(), _> = call(Some(limit), || loop {
            std::thread::sleep(Duration::from_millis(500));
        });
        assert_eq!(r, Err(IsolateError::TimedOut(limit)));
    }

    #[test]
    fn display_forms_are_informative() {
        assert!(IsolateError::Panicked("x".into()).to_string().contains("x"));
        assert!(IsolateError::TimedOut(Duration::from_secs(1))
            .to_string()
            .contains("timed out"));
    }
}
