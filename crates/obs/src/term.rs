//! The stderr logging facility: `warn!` / `info!` under a global
//! verbosity switch.
//!
//! This replaces the ad-hoc `eprintln!` diagnostics that used to be
//! scattered across the binaries: everything routes through [`log`], so
//! a single `--quiet` flag makes stderr machine-clean. Silencing
//! diagnostics is a UX concern, not a metrics one: the verbosity switch
//! never touches the collector.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the process writes to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Verbosity {
    /// Nothing below error level (machine-clean stderr).
    Quiet = 0,
    /// Warnings only.
    Warn = 1,
    /// Warnings and progress/informational messages (the default).
    Info = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Verbosity::Info as u8);

/// Sets the process-wide verbosity.
pub fn set_verbosity(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// The current process-wide verbosity.
#[must_use]
pub fn verbosity() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Warn,
        _ => Verbosity::Info,
    }
}

/// Writes one diagnostic line to stderr if the verbosity allows it.
/// Prefer the [`crate::warn!`] / [`crate::info!`] macros.
pub fn log(level: Verbosity, args: std::fmt::Arguments<'_>) {
    if level > verbosity() || level == Verbosity::Quiet {
        return;
    }
    use std::io::Write;
    let mut stderr = std::io::stderr().lock();
    let prefix = match level {
        Verbosity::Warn => "warning: ",
        _ => "",
    };
    // A closed stderr pipe is the consumer's choice; never panic on it.
    let _ = writeln!(stderr, "{prefix}{args}");
}

/// Writes one error line to stderr, regardless of verbosity. Prefer the
/// [`crate::error!`] macro.
pub fn log_error(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stderr = std::io::stderr().lock();
    // A closed stderr pipe is the consumer's choice; never panic on it.
    let _ = writeln!(stderr, "error: {args}");
}

/// Logs an error to stderr. Never suppressed: `--quiet` silences
/// progress and warnings, but an error is the one diagnostic a
/// machine-clean consumer still needs to see.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::term::log_error(format_args!($($arg)*))
    };
}

/// Logs a warning to stderr (suppressed by `--quiet`).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::term::log($crate::term::Verbosity::Warn, format_args!($($arg)*))
    };
}

/// Logs a progress/informational message to stderr (suppressed by
/// `--quiet` and by warn-only verbosity).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::term::log($crate::term::Verbosity::Info, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_round_trips() {
        let prev = verbosity();
        set_verbosity(Verbosity::Quiet);
        assert_eq!(verbosity(), Verbosity::Quiet);
        set_verbosity(Verbosity::Warn);
        assert_eq!(verbosity(), Verbosity::Warn);
        set_verbosity(prev);
    }

    #[test]
    fn ordering_matches_intent() {
        assert!(Verbosity::Quiet < Verbosity::Warn);
        assert!(Verbosity::Warn < Verbosity::Info);
    }
}
