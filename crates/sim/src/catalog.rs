//! The exit-code catalog and the RAS message catalog.
//!
//! These tables are the simulator's ground-truth vocabulary. The analysis
//! side (`bgq-core`) carries its *own* taxonomy derived from the paper —
//! the integration tests check the two agree, mimicking how the authors
//! validated their classification against ALCF operations knowledge.

use bgq_model::ras::{Category, Component, MsgId, Severity};
use bgq_stats::dist::Dist;

/// Exit codes emitted by the simulator (Cobalt conventions: 0 success,
/// `128 + signal` for signal terminations, small codes for application
/// errors, 75 for system-side kills).
pub mod exit_code {
    /// Successful completion.
    pub const SUCCESS: i32 = 0;
    /// Generic startup/configuration error (application `exit(1)`).
    pub const SETUP_ERROR: i32 = 1;
    /// Wrong usage / bad input deck (application `exit(2)`).
    pub const CONFIG_ERROR: i32 = 2;
    /// System-side kill: the control system terminated the job after a
    /// fatal block event (`EX_TEMPFAIL` convention).
    pub const SYSTEM_KILL: i32 = 75;
    /// Abort (SIGABRT = 6): assertion failures, MPI aborts.
    pub const ABORT: i32 = 134;
    /// Kill (SIGKILL = 9): out-of-memory kills by CNK.
    pub const OOM_KILL: i32 = 137;
    /// Segmentation fault (SIGSEGV = 11).
    pub const SEGFAULT: i32 = 139;
    /// Scheduler SIGTERM (15): requested wall time exceeded.
    pub const WALLTIME: i32 = 143;
}

/// A user-failure mode with its ground-truth execution-length law.
#[derive(Debug, Clone)]
pub struct FailureMode {
    /// Exit code recorded by Cobalt.
    pub exit_code: i32,
    /// Short label used in reports.
    pub label: &'static str,
    /// Relative frequency among user failures.
    pub weight: f64,
    /// Ground-truth distribution of the time-to-failure in seconds, or
    /// `None` for the walltime mode (whose length is the request itself).
    pub length_dist: Option<Dist>,
}

/// The user-failure catalog: frequencies and time-to-failure laws.
///
/// The families deliberately cover the four the abstract reports as best
/// fits — Weibull (segfaults), Pareto (aborts), inverse Gaussian (OOM
/// kills), and Erlang/exponential (setup/config errors) — so that
/// experiment E7's model selection can be validated against ground truth.
pub fn failure_modes() -> Vec<FailureMode> {
    vec![
        FailureMode {
            exit_code: exit_code::SETUP_ERROR,
            label: "setup-error",
            weight: 0.30,
            // Mean 500 s: well below every wall-time request, so the
            // observed sample is effectively untruncated and experiment E7
            // can recover the family.
            length_dist: Some(Dist::exponential(1.0 / 500.0).expect("static params")),
        },
        FailureMode {
            exit_code: exit_code::CONFIG_ERROR,
            label: "config-error",
            weight: 0.11,
            length_dist: Some(Dist::erlang(3, 3.0 / 1500.0).expect("static params")),
        },
        FailureMode {
            exit_code: exit_code::ABORT,
            label: "abort",
            weight: 0.13,
            length_dist: Some(Dist::pareto(45.0, 1.6).expect("static params")),
        },
        FailureMode {
            exit_code: exit_code::SEGFAULT,
            label: "segfault",
            weight: 0.22,
            length_dist: Some(Dist::weibull(0.7, 1500.0).expect("static params")),
        },
        FailureMode {
            exit_code: exit_code::OOM_KILL,
            label: "oom-kill",
            weight: 0.08,
            length_dist: Some(Dist::inverse_gaussian(3000.0, 12000.0).expect("static params")),
        },
        FailureMode {
            exit_code: exit_code::WALLTIME,
            label: "walltime",
            weight: 0.16,
            length_dist: None,
        },
    ]
}

/// One RAS message-catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The 8-hex-digit message id.
    pub msg_id: MsgId,
    /// Severity fixed by the catalog.
    pub severity: Severity,
    /// Category fixed by the catalog.
    pub category: Category,
    /// Reporting component.
    pub component: Component,
    /// Message template; `{}` is filled with a record-specific payload.
    pub template: &'static str,
}

const fn entry(
    raw: u32,
    severity: Severity,
    category: Category,
    component: Component,
    template: &'static str,
) -> CatalogEntry {
    CatalogEntry {
        msg_id: MsgId::new(raw),
        severity,
        category,
        component,
        template,
    }
}

/// Fatal hardware messages, grouped by the incident category that raises
/// them. Message-id families share the high 16 bits so the similarity
/// filter's msg-id heuristic has something real to work with.
pub const FATAL_DDR: [CatalogEntry; 3] = [
    entry(
        0x0008_0001,
        Severity::Fatal,
        Category::Ddr,
        Component::Mc,
        "DDR arbiter detected an uncorrectable error on rank {}",
    ),
    entry(
        0x0008_0002,
        Severity::Fatal,
        Category::Ddr,
        Component::Mc,
        "DDR controller chipkill fail on bank {}",
    ),
    entry(
        0x0008_0003,
        Severity::Fatal,
        Category::Ddr,
        Component::Firmware,
        "memory controller initialization failure, retry count {}",
    ),
];

/// Fatal compute-chip messages.
pub const FATAL_BQC: [CatalogEntry; 3] = [
    entry(
        0x0004_0001,
        Severity::Fatal,
        Category::BqcChip,
        Component::Mc,
        "BQC L2 array uncorrectable ECC error at index {}",
    ),
    entry(
        0x0004_0002,
        Severity::Fatal,
        Category::BqcChip,
        Component::Firmware,
        "BQC core {} machine check, thread state lost",
    ),
    entry(
        0x0004_0003,
        Severity::Fatal,
        Category::BqcChip,
        Component::Diags,
        "processor clock domain {} failed consistency check",
    ),
];

/// Fatal torus/link messages.
pub const FATAL_LINK: [CatalogEntry; 3] = [
    entry(
        0x0010_0001,
        Severity::Fatal,
        Category::BqlLink,
        Component::Mudm,
        "torus receiver link {} retrain limit exceeded",
    ),
    entry(
        0x0010_0002,
        Severity::Fatal,
        Category::BqlLink,
        Component::Mc,
        "BQL optical module {} loss of signal",
    ),
    entry(
        0x0010_0003,
        Severity::Fatal,
        Category::BqlLink,
        Component::Firmware,
        "sender retransmission queue overflow on port {}",
    ),
];

/// Fatal facility-level (rack) messages.
pub const FATAL_FACILITY: [CatalogEntry; 3] = [
    entry(
        0x0020_0001,
        Severity::Fatal,
        Category::CoolantMonitor,
        Component::Mc,
        "coolant flow below threshold, valve {}",
    ),
    entry(
        0x0020_0002,
        Severity::Fatal,
        Category::AcToDcPower,
        Component::Mc,
        "bulk power module {} shutdown on overcurrent",
    ),
    entry(
        0x0020_0003,
        Severity::Fatal,
        Category::DcToDcPower,
        Component::Mc,
        "domain {} voltage droop beyond limit",
    ),
];

/// Warning messages used both as incident precursors and as background.
pub const WARN_HARDWARE: [CatalogEntry; 4] = [
    entry(
        0x0008_1001,
        Severity::Warn,
        Category::Ddr,
        Component::Mc,
        "DDR correctable error threshold reached on rank {}",
    ),
    entry(
        0x0004_1001,
        Severity::Warn,
        Category::BqcChip,
        Component::Mc,
        "BQC L1P correctable parity event count {}",
    ),
    entry(
        0x0010_1001,
        Severity::Warn,
        Category::BqlLink,
        Component::Mudm,
        "link {} CRC retry rate elevated",
    ),
    entry(
        0x0020_1001,
        Severity::Warn,
        Category::CoolantMonitor,
        Component::Mc,
        "coolant temperature rising, sensor {}",
    ),
];

/// Informational background messages.
pub const INFO_BACKGROUND: [CatalogEntry; 4] = [
    entry(
        0x0001_0001,
        Severity::Info,
        Category::Card,
        Component::Mc,
        "service card {} environmental poll ok",
    ),
    entry(
        0x0001_0002,
        Severity::Info,
        Category::Ethernet,
        Component::Linux,
        "I/O node {} network statistics rollover",
    ),
    entry(
        0x0001_0003,
        Severity::Info,
        Category::Infiniband,
        Component::Linux,
        "IB port {} counters sampled",
    ),
    entry(
        0x0001_0004,
        Severity::Info,
        Category::SoftwareError,
        Component::Mmcs,
        "block status poll {} complete",
    ),
];

/// Job-lifecycle messages emitted by the compute-node kernel.
pub const INFO_JOB: [CatalogEntry; 3] = [
    entry(
        0x0002_0001,
        Severity::Info,
        Category::Process,
        Component::Cnk,
        "job step {} started on block",
    ),
    entry(
        0x0002_0002,
        Severity::Info,
        Category::Process,
        Component::Cnk,
        "collective {} completed",
    ),
    entry(
        0x0002_0003,
        Severity::Info,
        Category::SoftwareError,
        Component::Mmcs,
        "boot sequence {} finished",
    ),
];

/// Diagnostics emitted when a user process dies abnormally.
pub const WARN_PROCESS: [CatalogEntry; 3] = [
    entry(
        0x0002_1001,
        Severity::Warn,
        Category::Process,
        Component::Cnk,
        "process terminated with signal {}",
    ),
    entry(
        0x0002_1002,
        Severity::Warn,
        Category::Process,
        Component::Cnk,
        "rank {} exited before barrier completion",
    ),
    entry(
        0x0002_1003,
        Severity::Warn,
        Category::SoftwareError,
        Component::Mmcs,
        "runjob {} cleanup after abnormal exit",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_stats::dist::DistKind;

    #[test]
    fn failure_mode_weights_sum_to_one() {
        let total: f64 = failure_modes().iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn failure_modes_cover_the_papers_families() {
        let kinds: Vec<DistKind> = failure_modes()
            .iter()
            .filter_map(|m| m.length_dist.as_ref().map(|d| d.kind()))
            .collect();
        for want in [
            DistKind::Weibull,
            DistKind::Pareto,
            DistKind::InverseGaussian,
            DistKind::Erlang,
            DistKind::Exponential,
        ] {
            assert!(kinds.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn exit_codes_are_unique() {
        let modes = failure_modes();
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                assert_ne!(a.exit_code, b.exit_code);
            }
            assert_ne!(a.exit_code, exit_code::SUCCESS);
            assert_ne!(a.exit_code, exit_code::SYSTEM_KILL);
        }
    }

    #[test]
    fn catalog_severities_match_their_tables() {
        for e in FATAL_DDR
            .iter()
            .chain(&FATAL_BQC)
            .chain(&FATAL_LINK)
            .chain(&FATAL_FACILITY)
        {
            assert_eq!(e.severity, Severity::Fatal);
            assert!(e.template.contains("{}"));
        }
        for e in WARN_HARDWARE.iter().chain(&WARN_PROCESS) {
            assert_eq!(e.severity, Severity::Warn);
        }
        for e in INFO_BACKGROUND.iter().chain(&INFO_JOB) {
            assert_eq!(e.severity, Severity::Info);
        }
    }

    #[test]
    fn msg_id_families_group_by_subsystem() {
        assert!(FATAL_DDR.iter().all(|e| e.msg_id.family() == 0x0008));
        assert!(FATAL_BQC.iter().all(|e| e.msg_id.family() == 0x0004));
        assert!(FATAL_LINK.iter().all(|e| e.msg_id.family() == 0x0010));
        assert!(FATAL_FACILITY.iter().all(|e| e.msg_id.family() == 0x0020));
    }
}
