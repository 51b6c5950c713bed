//! The RAS (reliability, availability, serviceability) log schema.
//!
//! Every BG/Q control-system component reports events into a central RAS
//! database. Each event carries an 8-hex-digit message id whose catalog
//! entry fixes the severity, component, and category; the record itself
//! adds the timestamp, hardware location, and a rendered message string.

use std::fmt;
use std::str::FromStr;

use crate::ids::RecId;
use crate::location::Location;
use crate::time::Timestamp;

/// Event severity. BG/Q defines more levels; the paper's analysis uses the
/// three that survive in the Mira RAS archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational event; never affects a job.
    Info,
    /// Warning; may precede a failure.
    Warn,
    /// Fatal event; kills the block (and any job on it).
    Fatal,
}

impl Severity {
    /// All severities, in increasing order.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warn, Severity::Fatal];

    /// Stable uppercase name used in logs.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Fatal => "FATAL",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing an enum name in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRasEnumError {
    kind: &'static str,
    input: String,
}

impl fmt::Display for ParseRasEnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} name: {:?}", self.kind, self.input)
    }
}

impl std::error::Error for ParseRasEnumError {}

impl FromStr for Severity {
    type Err = ParseRasEnumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Severity::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| ParseRasEnumError {
                kind: "severity",
                input: s.to_owned(),
            })
    }
}

/// Hardware/software category of a RAS message (the `CATEGORY` column of
/// the BG/Q message catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// BQC compute ASIC (cores, L2, memory controller).
    BqcChip,
    /// BQL link chip / torus optics.
    BqlLink,
    /// DDR memory subsystem.
    Ddr,
    /// PCIe / I/O adapters.
    Pci,
    /// External Ethernet fabric.
    Ethernet,
    /// Infiniband fabric towards the I/O nodes and GPFS.
    Infiniband,
    /// Water-cooling plant sensors.
    CoolantMonitor,
    /// Bulk AC→DC power supplies.
    AcToDcPower,
    /// On-board DC→DC regulators.
    DcToDcPower,
    /// Card-level hardware (service, clock, fan cards).
    Card,
    /// User process events (signals, exits) reported by CNK.
    Process,
    /// Control-system software errors.
    SoftwareError,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 12] = [
        Category::BqcChip,
        Category::BqlLink,
        Category::Ddr,
        Category::Pci,
        Category::Ethernet,
        Category::Infiniband,
        Category::CoolantMonitor,
        Category::AcToDcPower,
        Category::DcToDcPower,
        Category::Card,
        Category::Process,
        Category::SoftwareError,
    ];

    /// Stable catalog name used in logs.
    pub fn name(&self) -> &'static str {
        match self {
            Category::BqcChip => "BQC",
            Category::BqlLink => "BQL",
            Category::Ddr => "DDR",
            Category::Pci => "PCI",
            Category::Ethernet => "Ethernet",
            Category::Infiniband => "Infiniband",
            Category::CoolantMonitor => "Coolant_Monitor",
            Category::AcToDcPower => "AC_TO_DC_PWR",
            Category::DcToDcPower => "DC_TO_DC_PWR",
            Category::Card => "Card",
            Category::Process => "Process",
            Category::SoftwareError => "Software_Error",
        }
    }

    /// `true` for categories that describe hardware (as opposed to user
    /// processes or control software).
    pub fn is_hardware(&self) -> bool {
        !matches!(self, Category::Process | Category::SoftwareError)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Category {
    type Err = ParseRasEnumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Category::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| ParseRasEnumError {
                kind: "category",
                input: s.to_owned(),
            })
    }
}

/// Reporting component (the subsystem that raised the event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Machine controller (low-level hardware monitor).
    Mc,
    /// Midplane management control system.
    Mmcs,
    /// Compute node kernel.
    Cnk,
    /// Bare-metal diagnostics environment.
    Baremetal,
    /// I/O node Linux.
    Linux,
    /// Hardware diagnostics suite.
    Diags,
    /// Messaging unit device driver.
    Mudm,
    /// Node firmware.
    Firmware,
}

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; 8] = [
        Component::Mc,
        Component::Mmcs,
        Component::Cnk,
        Component::Baremetal,
        Component::Linux,
        Component::Diags,
        Component::Mudm,
        Component::Firmware,
    ];

    /// Stable catalog name used in logs.
    pub fn name(&self) -> &'static str {
        match self {
            Component::Mc => "MC",
            Component::Mmcs => "MMCS",
            Component::Cnk => "CNK",
            Component::Baremetal => "BAREMETAL",
            Component::Linux => "LINUX",
            Component::Diags => "DIAGS",
            Component::Mudm => "MUDM",
            Component::Firmware => "FIRMWARE",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Component {
    type Err = ParseRasEnumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Component::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| ParseRasEnumError {
                kind: "component",
                input: s.to_owned(),
            })
    }
}

/// An 8-hex-digit RAS message identifier (e.g. `00010001`).
///
/// The high half identifies the catalog family; the low half the specific
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(u32);

impl MsgId {
    /// Wraps a raw message id.
    pub const fn new(raw: u32) -> Self {
        MsgId(raw)
    }

    /// The raw 32-bit id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The catalog family (high 16 bits).
    pub const fn family(self) -> u16 {
        (self.0 >> 16) as u16
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08X}", self.0)
    }
}

/// Error produced when parsing a [`MsgId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMsgIdError(String);

impl fmt::Display for ParseMsgIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid message id (expected 8 hex digits): {:?}",
            self.0
        )
    }
}

impl std::error::Error for ParseMsgIdError {}

impl FromStr for MsgId {
    type Err = ParseMsgIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 8 {
            return Err(ParseMsgIdError(s.to_owned()));
        }
        u32::from_str_radix(s, 16)
            .map(MsgId)
            .map_err(|_| ParseMsgIdError(s.to_owned()))
    }
}

bgq_intern::intern_pool! {
    /// Interned rendered message text of a RAS record.
    ///
    /// The control system renders every event from a small catalog of
    /// templates, so distinct message texts number in the thousands
    /// while records number in the millions; each distinct text is
    /// stored once in a process-wide pool and records carry a `Copy`
    /// symbol. Symbol equality is string equality (the pool dedups), so
    /// swapping the owned `String` for [`MsgText`] cannot change any
    /// comparison-based analysis; ordering compares the resolved text.
    pub struct MsgText
}

/// One record of the RAS log.
///
/// Deliberately does **not** carry a job id: attributing events to jobs via
/// the time-and-location join is part of the analysis, exactly as in the
/// paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasRecord {
    /// Monotonic record id.
    pub rec_id: RecId,
    /// Catalog message id.
    pub msg_id: MsgId,
    /// Severity fixed by the catalog entry.
    pub severity: Severity,
    /// Category fixed by the catalog entry.
    pub category: Category,
    /// Component that raised the event.
    pub component: Component,
    /// Event time.
    pub event_time: Timestamp,
    /// Hardware location the event names (any granularity).
    pub location: Location,
    /// Rendered message text (interned; see [`MsgText`]).
    pub message: MsgText,
    /// Hardware-deduplicated repeat count (the control system coalesces
    /// identical back-to-back events and bumps this counter).
    pub count: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_names() {
        assert!(Severity::Info < Severity::Warn && Severity::Warn < Severity::Fatal);
        for s in Severity::ALL {
            assert_eq!(s.name().parse::<Severity>().unwrap(), s);
        }
        assert!("FATAL!".parse::<Severity>().is_err());
    }

    #[test]
    fn category_roundtrip_and_hardware_split() {
        for c in Category::ALL {
            assert_eq!(c.name().parse::<Category>().unwrap(), c);
        }
        assert!(Category::Ddr.is_hardware());
        assert!(!Category::Process.is_hardware());
        assert!(!Category::SoftwareError.is_hardware());
    }

    #[test]
    fn component_roundtrip() {
        for c in Component::ALL {
            assert_eq!(c.name().parse::<Component>().unwrap(), c);
        }
        assert!("KERNEL".parse::<Component>().is_err());
    }

    #[test]
    fn msg_id_hex_roundtrip() {
        let id = MsgId::new(0x0006_000B);
        assert_eq!(id.to_string(), "0006000B");
        assert_eq!("0006000B".parse::<MsgId>().unwrap(), id);
        assert_eq!(id.family(), 6);
        assert!("6000B".parse::<MsgId>().is_err());
        assert!("0006000G".parse::<MsgId>().is_err());
    }
}
