//! Exit-code taxonomy.
//!
//! The paper's central classification: every job termination is assigned a
//! class from its Cobalt exit code, and every class an *attribution* (user
//! behavior vs. system). This table encodes the same domain knowledge the
//! authors drew from ALCF operations: small codes are application errors,
//! `128 + N` is death by signal `N`, `75` is the control system killing a
//! job after a fatal block event, and a scheduler SIGTERM (143) virtually
//! always means the user under-estimated the wall time — still user
//! behavior.

use std::fmt;

/// Who is responsible for a failure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Attribution {
    /// User behavior: bugs, mis-configuration, bad estimates.
    User,
    /// System-side faults (hardware/control system).
    System,
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Attribution::User => "user",
            Attribution::System => "system",
        })
    }
}

/// The termination class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExitClass {
    /// Exit code 0.
    Success,
    /// Exit 1: startup/configuration error.
    SetupError,
    /// Exit 2: bad usage / input deck.
    ConfigError,
    /// 134 = 128+SIGABRT: assertion/abort.
    Abort,
    /// 137 = 128+SIGKILL: out-of-memory kill.
    OomKill,
    /// 139 = 128+SIGSEGV: segmentation fault.
    Segfault,
    /// 143 = 128+SIGTERM: wall-time limit enforced by the scheduler.
    Walltime,
    /// 75: killed by the system after a fatal block event.
    SystemKill,
    /// Any other non-zero code: unclassified user failure.
    OtherUserFailure,
}

impl ExitClass {
    /// All classes, in report order.
    pub const ALL: [ExitClass; 9] = [
        ExitClass::Success,
        ExitClass::SetupError,
        ExitClass::ConfigError,
        ExitClass::Abort,
        ExitClass::OomKill,
        ExitClass::Segfault,
        ExitClass::Walltime,
        ExitClass::SystemKill,
        ExitClass::OtherUserFailure,
    ];

    /// The failure classes attributed to users whose execution length the
    /// paper fits against distribution families (wall-time kills excluded:
    /// their length is the request, not a random failure time).
    pub const FITTED_USER_CLASSES: [ExitClass; 5] = [
        ExitClass::SetupError,
        ExitClass::ConfigError,
        ExitClass::Abort,
        ExitClass::OomKill,
        ExitClass::Segfault,
    ];

    /// Classifies a raw Cobalt exit code.
    pub fn from_exit_code(code: i32) -> Self {
        match code {
            0 => ExitClass::Success,
            1 => ExitClass::SetupError,
            2 => ExitClass::ConfigError,
            75 => ExitClass::SystemKill,
            134 => ExitClass::Abort,
            137 => ExitClass::OomKill,
            139 => ExitClass::Segfault,
            143 => ExitClass::Walltime,
            _ => ExitClass::OtherUserFailure,
        }
    }

    /// `true` for every class except [`ExitClass::Success`].
    pub fn is_failure(&self) -> bool {
        *self != ExitClass::Success
    }

    /// Responsibility for the failure; `None` for successes.
    pub fn attribution(&self) -> Option<Attribution> {
        match self {
            ExitClass::Success => None,
            ExitClass::SystemKill => Some(Attribution::System),
            _ => Some(Attribution::User),
        }
    }

    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            ExitClass::Success => "success",
            ExitClass::SetupError => "setup-error",
            ExitClass::ConfigError => "config-error",
            ExitClass::Abort => "abort",
            ExitClass::OomKill => "oom-kill",
            ExitClass::Segfault => "segfault",
            ExitClass::Walltime => "walltime",
            ExitClass::SystemKill => "system-kill",
            ExitClass::OtherUserFailure => "other-user",
        }
    }
}

impl fmt::Display for ExitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_known_codes() {
        assert_eq!(ExitClass::from_exit_code(0), ExitClass::Success);
        assert_eq!(ExitClass::from_exit_code(1), ExitClass::SetupError);
        assert_eq!(ExitClass::from_exit_code(2), ExitClass::ConfigError);
        assert_eq!(ExitClass::from_exit_code(75), ExitClass::SystemKill);
        assert_eq!(ExitClass::from_exit_code(134), ExitClass::Abort);
        assert_eq!(ExitClass::from_exit_code(137), ExitClass::OomKill);
        assert_eq!(ExitClass::from_exit_code(139), ExitClass::Segfault);
        assert_eq!(ExitClass::from_exit_code(143), ExitClass::Walltime);
        assert_eq!(ExitClass::from_exit_code(42), ExitClass::OtherUserFailure);
        assert_eq!(ExitClass::from_exit_code(-1), ExitClass::OtherUserFailure);
    }

    #[test]
    fn attribution_matches_the_paper() {
        assert_eq!(ExitClass::Success.attribution(), None);
        assert_eq!(
            ExitClass::SystemKill.attribution(),
            Some(Attribution::System)
        );
        for class in [
            ExitClass::SetupError,
            ExitClass::ConfigError,
            ExitClass::Abort,
            ExitClass::OomKill,
            ExitClass::Segfault,
            ExitClass::Walltime,
            ExitClass::OtherUserFailure,
        ] {
            assert_eq!(class.attribution(), Some(Attribution::User), "{class}");
        }
    }

    #[test]
    fn taxonomy_agrees_with_the_simulator_catalog() {
        // The analysis-side table is independent domain knowledge; this
        // test pins it against the generator's catalog.
        use bgq_sim::catalog::{exit_code, failure_modes};
        assert_eq!(
            ExitClass::from_exit_code(exit_code::SUCCESS),
            ExitClass::Success
        );
        assert_eq!(
            ExitClass::from_exit_code(exit_code::SYSTEM_KILL),
            ExitClass::SystemKill
        );
        for mode in failure_modes() {
            let class = ExitClass::from_exit_code(mode.exit_code);
            assert!(class.is_failure());
            assert_eq!(
                class.attribution(),
                Some(Attribution::User),
                "{}",
                mode.label
            );
        }
    }

    #[test]
    fn fitted_classes_are_user_attributed_and_not_walltime() {
        for c in ExitClass::FITTED_USER_CLASSES {
            assert_eq!(c.attribution(), Some(Attribution::User));
            assert_ne!(c, ExitClass::Walltime);
        }
    }
}
