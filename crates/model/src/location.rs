//! Blue Gene/Q hardware location codes.
//!
//! RAS events name the hardware element they were raised on using a
//! hierarchical location code, e.g. `R17-M0-N08-J23-C05`:
//!
//! * `R17` — rack 17 (row `1`, column `7`; Mira has 3 rows × 16 columns),
//! * `M0` — midplane 0 of the rack (each rack holds 2),
//! * `N08` — node board 8 of the midplane (each midplane holds 16),
//! * `J23` — compute card (node) 23 of the board (each board holds 32),
//! * `C05` — core 5 of the node (16 application cores).
//!
//! Events are raised at any level of the hierarchy (a coolant event names a
//! rack, a DDR event names a compute card, ...), so [`Location`] is a
//! variable-granularity value with containment tests used by the job↔RAS
//! spatial join and by the locality analysis.

use std::fmt;
use std::str::FromStr;

use crate::machine::Machine;

/// Granularity level of a [`Location`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// Whole rack (e.g. coolant, bulk power events).
    Rack,
    /// One midplane of a rack.
    Midplane,
    /// One node board of a midplane.
    NodeBoard,
    /// One compute card (node) of a node board.
    ComputeCard,
    /// One core of a compute card.
    Core,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Granularity::Rack => "rack",
            Granularity::Midplane => "midplane",
            Granularity::NodeBoard => "node-board",
            Granularity::ComputeCard => "compute-card",
            Granularity::Core => "core",
        };
        f.write_str(name)
    }
}

/// A hardware location at any granularity of the BG/Q hierarchy.
///
/// Internally stored as the full coordinate tuple plus the granularity; the
/// coordinates beyond the granularity are zero and ignored. Ordering is the
/// physical order (rack, midplane, board, card, core) with coarser
/// granularities sorting before their children.
///
/// # Examples
///
/// ```
/// use bgq_model::location::Location;
///
/// let card: Location = "R17-M0-N08-J23".parse()?;
/// let rack = card.rack_location();
/// assert_eq!(rack.to_string(), "R17");
/// assert!(rack.contains(&card));
/// assert!(!card.contains(&rack));
/// # Ok::<(), bgq_model::location::ParseLocationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    rack: u8,
    midplane: u8,
    board: u8,
    card: u8,
    core: u8,
    granularity: Granularity,
}

impl Location {
    /// A whole-rack location.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is outside the Mira machine (48 racks).
    pub fn rack(rack: u8) -> Self {
        assert!(
            (rack as usize) < Machine::MIRA.racks(),
            "rack index {rack} out of range"
        );
        Location {
            rack,
            midplane: 0,
            board: 0,
            card: 0,
            core: 0,
            granularity: Granularity::Rack,
        }
    }

    /// A midplane location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn midplane(rack: u8, midplane: u8) -> Self {
        let mut loc = Location::rack(rack);
        assert!(
            (midplane as usize) < Machine::MIRA.midplanes_per_rack(),
            "midplane index {midplane} out of range"
        );
        loc.midplane = midplane;
        loc.granularity = Granularity::Midplane;
        loc
    }

    /// A node-board location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn node_board(rack: u8, midplane: u8, board: u8) -> Self {
        let mut loc = Location::midplane(rack, midplane);
        assert!(
            (board as usize) < Machine::MIRA.boards_per_midplane(),
            "node board index {board} out of range"
        );
        loc.board = board;
        loc.granularity = Granularity::NodeBoard;
        loc
    }

    /// A compute-card (node) location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn compute_card(rack: u8, midplane: u8, board: u8, card: u8) -> Self {
        let mut loc = Location::node_board(rack, midplane, board);
        assert!(
            (card as usize) < Machine::MIRA.cards_per_board(),
            "compute card index {card} out of range"
        );
        loc.card = card;
        loc.granularity = Granularity::ComputeCard;
        loc
    }

    /// A core location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn core(rack: u8, midplane: u8, board: u8, card: u8, core: u8) -> Self {
        let mut loc = Location::compute_card(rack, midplane, board, card);
        assert!(
            (core as usize) < Machine::MIRA.cores_per_card(),
            "core index {core} out of range"
        );
        loc.core = core;
        loc.granularity = Granularity::Core;
        loc
    }

    /// The granularity at which this location names hardware.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The rack index, `0..48`.
    pub fn rack_index(&self) -> u8 {
        self.rack
    }

    /// The midplane index within the rack, if this location is at midplane
    /// granularity or finer.
    pub fn midplane_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::Midplane).then_some(self.midplane)
    }

    /// The node-board index within the midplane, if at board granularity or
    /// finer.
    pub fn board_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::NodeBoard).then_some(self.board)
    }

    /// This location truncated to rack granularity.
    pub fn rack_location(&self) -> Location {
        Location::rack(self.rack)
    }

    /// This location truncated to midplane granularity, if possible.
    ///
    /// Returns `None` when the location is a whole rack: a rack-level event
    /// does not identify a single midplane.
    pub fn midplane_location(&self) -> Option<Location> {
        self.midplane_index()
            .map(|m| Location::midplane(self.rack, m))
    }

    /// This location truncated to node-board granularity, if possible.
    pub fn board_location(&self) -> Option<Location> {
        self.board_index()
            .map(|b| Location::node_board(self.rack, self.midplane, b))
    }

    /// The global linear midplane index (`rack * 2 + midplane`), if the
    /// location is at midplane granularity or finer.
    ///
    /// This is the coordinate system used by [`crate::block::Block`].
    pub fn midplane_linear(&self) -> Option<u16> {
        self.midplane_index().map(|m| {
            u16::from(self.rack) * Machine::MIRA.midplanes_per_rack() as u16 + u16::from(m)
        })
    }

    /// `true` if `other` names hardware contained in (or equal to) the
    /// hardware named by `self`.
    ///
    /// A rack contains its midplanes, boards, cards, and cores; containment
    /// never holds upward (`card.contains(&rack)` is false) nor between
    /// siblings.
    pub fn contains(&self, other: &Location) -> bool {
        if other.granularity < self.granularity || self.rack != other.rack {
            return false;
        }
        let g = self.granularity;
        (g < Granularity::Midplane || self.midplane == other.midplane)
            && (g < Granularity::NodeBoard || self.board == other.board)
            && (g < Granularity::ComputeCard || self.card == other.card)
            && (g < Granularity::Core || self.core == other.core)
    }

    /// `true` if the two locations name overlapping hardware (one contains
    /// the other).
    pub fn overlaps(&self, other: &Location) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Topological proximity between two locations: `0` same board (or
    /// finer agreement), `1` same midplane, `2` same rack, `3` different
    /// racks. Coarse locations compare by their common prefix.
    ///
    /// Used by the locality analysis to score how tightly clustered fatal
    /// events are.
    pub fn proximity(&self, other: &Location) -> u8 {
        if self.rack != other.rack {
            return 3;
        }
        let both_fine = |g: Granularity| self.granularity >= g && other.granularity >= g;
        if !both_fine(Granularity::Midplane) || self.midplane != other.midplane {
            return 2;
        }
        if !both_fine(Granularity::NodeBoard) || self.board != other.board {
            return 1;
        }
        0
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = self.rack / 16;
        let col = self.rack % 16;
        write!(f, "R{row}{col:X}")?;
        if self.granularity >= Granularity::Midplane {
            write!(f, "-M{}", self.midplane)?;
        }
        if self.granularity >= Granularity::NodeBoard {
            write!(f, "-N{:02}", self.board)?;
        }
        if self.granularity >= Granularity::ComputeCard {
            write!(f, "-J{:02}", self.card)?;
        }
        if self.granularity >= Granularity::Core {
            write!(f, "-C{:02}", self.core)?;
        }
        Ok(())
    }
}

/// Error produced when parsing a [`Location`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLocationError {
    input: String,
    reason: &'static str,
}

impl ParseLocationError {
    fn new(input: &str, reason: &'static str) -> Self {
        ParseLocationError {
            input: input.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParseLocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid location {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseLocationError {}

impl FromStr for Location {
    type Err = ParseLocationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('-');
        let rack_part = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| ParseLocationError::new(s, "empty input"))?;
        let rack_digits = rack_part
            .strip_prefix('R')
            .ok_or_else(|| ParseLocationError::new(s, "expected rack segment like R17"))?;
        if rack_digits.len() != 2 {
            return Err(ParseLocationError::new(
                s,
                "rack segment must be R<row><col>",
            ));
        }
        let row = rack_digits[0..1]
            .parse::<u8>()
            .map_err(|_| ParseLocationError::new(s, "rack row must be a decimal digit"))?;
        let col = u8::from_str_radix(&rack_digits[1..2], 16)
            .map_err(|_| ParseLocationError::new(s, "rack column must be a hex digit"))?;
        let rack = row
            .checked_mul(16)
            .and_then(|r| r.checked_add(col))
            .filter(|&r| (r as usize) < Machine::MIRA.racks())
            .ok_or_else(|| ParseLocationError::new(s, "rack index out of range"))?;
        let mut loc = Location::rack(rack);

        let expect = |prefix: char,
                      max: usize,
                      input: Option<&str>|
         -> Result<Option<u8>, ParseLocationError> {
            let Some(seg) = input else { return Ok(None) };
            let digits = seg
                .strip_prefix(prefix)
                .ok_or_else(|| ParseLocationError::new(s, "unexpected segment prefix"))?;
            let v = digits
                .parse::<u8>()
                .map_err(|_| ParseLocationError::new(s, "segment index must be decimal"))?;
            if (v as usize) >= max {
                return Err(ParseLocationError::new(s, "segment index out of range"));
            }
            Ok(Some(v))
        };

        let machine = Machine::MIRA;
        if let Some(m) = expect('M', machine.midplanes_per_rack(), parts.next())? {
            loc.midplane = m;
            loc.granularity = Granularity::Midplane;
        } else {
            return Ok(loc);
        }
        if let Some(n) = expect('N', machine.boards_per_midplane(), parts.next())? {
            loc.board = n;
            loc.granularity = Granularity::NodeBoard;
        } else {
            return Ok(loc);
        }
        if let Some(j) = expect('J', machine.cards_per_board(), parts.next())? {
            loc.card = j;
            loc.granularity = Granularity::ComputeCard;
        } else {
            return Ok(loc);
        }
        if let Some(c) = expect('C', machine.cores_per_card(), parts.next())? {
            loc.core = c;
            loc.granularity = Granularity::Core;
        } else {
            return Ok(loc);
        }
        if parts.next().is_some() {
            return Err(ParseLocationError::new(s, "trailing segments after core"));
        }
        Ok(loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_row_and_hex_column() {
        assert_eq!(Location::rack(0).to_string(), "R00");
        assert_eq!(Location::rack(15).to_string(), "R0F");
        assert_eq!(Location::rack(16).to_string(), "R10");
        assert_eq!(Location::rack(47).to_string(), "R2F");
        assert_eq!(
            Location::core(23, 1, 8, 23, 5).to_string(),
            "R17-M1-N08-J23-C05"
        );
    }

    #[test]
    fn parse_all_granularities() {
        for text in [
            "R00",
            "R2F-M1",
            "R17-M0-N15",
            "R17-M0-N08-J31",
            "R17-M0-N08-J23-C15",
        ] {
            let loc: Location = text.parse().unwrap();
            assert_eq!(loc.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        for bad in [
            "",
            "X00",
            "R",
            "R3F",        // row 3 does not exist on Mira
            "R0G",        // bad hex column
            "R00-M2",     // midplane out of range
            "R00-M0-N16", // board out of range
            "R00-M0-N00-J32",
            "R00-M0-N00-J00-C16",
            "R00-M0-N00-J00-C00-X1",
            "R00-N00", // skipped level
        ] {
            assert!(bad.parse::<Location>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn containment_is_downward_only() {
        let rack: Location = "R17".parse().unwrap();
        let mid: Location = "R17-M0".parse().unwrap();
        let board: Location = "R17-M0-N08".parse().unwrap();
        let card: Location = "R17-M0-N08-J23".parse().unwrap();
        let core: Location = "R17-M0-N08-J23-C05".parse().unwrap();

        for fine in [mid, board, card, core] {
            assert!(rack.contains(&fine));
            assert!(!fine.contains(&rack) || fine == rack);
        }
        assert!(mid.contains(&core));
        assert!(board.contains(&card));
        assert!(card.contains(&core));
        assert!(card.contains(&card));

        let other_mid: Location = "R17-M1".parse().unwrap();
        assert!(!mid.contains(&other_mid));
        assert!(!other_mid.contains(&core));
    }

    #[test]
    fn overlap_is_symmetric() {
        let mid: Location = "R17-M0".parse().unwrap();
        let card: Location = "R17-M0-N08-J23".parse().unwrap();
        assert!(mid.overlaps(&card));
        assert!(card.overlaps(&mid));
        let other: Location = "R18".parse().unwrap();
        assert!(!card.overlaps(&other));
    }

    #[test]
    fn proximity_levels() {
        let a: Location = "R17-M0-N08-J23".parse().unwrap();
        assert_eq!(a.proximity(&"R17-M0-N08-J01".parse().unwrap()), 0);
        assert_eq!(a.proximity(&"R17-M0-N09".parse().unwrap()), 1);
        assert_eq!(a.proximity(&"R17-M1-N08".parse().unwrap()), 2);
        assert_eq!(a.proximity(&"R18-M0-N08".parse().unwrap()), 3);
        // Coarse locations only agree down to their own granularity.
        assert_eq!(a.proximity(&"R17".parse().unwrap()), 2);
    }

    #[test]
    fn midplane_linear_indexing() {
        assert_eq!(Location::midplane(0, 0).midplane_linear(), Some(0));
        assert_eq!(Location::midplane(0, 1).midplane_linear(), Some(1));
        assert_eq!(Location::midplane(47, 1).midplane_linear(), Some(95));
        assert_eq!(Location::rack(3).midplane_linear(), None);
    }

    #[test]
    fn truncation_helpers() {
        let core: Location = "R17-M1-N08-J23-C05".parse().unwrap();
        assert_eq!(core.rack_location().to_string(), "R17");
        assert_eq!(core.midplane_location().unwrap().to_string(), "R17-M1");
        assert_eq!(core.board_location().unwrap().to_string(), "R17-M1-N08");
        assert_eq!(Location::rack(1).midplane_location(), None);
    }
}
