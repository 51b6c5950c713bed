//! The Blue Gene/Q machine model.
//!
//! Mira (Argonne Leadership Computing Facility) is the machine studied by
//! the paper: 48 racks, 2 midplanes per rack, 16 node boards per midplane,
//! 32 compute cards per board, 16 application cores per card — 49,152 nodes
//! and 786,432 cores in total. The allocation unit for production jobs is
//! the 512-node midplane.

use crate::location::Location;

/// Static description of a BG/Q installation.
///
/// All analyses are parameterized by a `Machine` so that the toolkit also
/// works on smaller test configurations (see [`Machine::TOY`]).
///
/// # Examples
///
/// ```
/// use bgq_model::machine::Machine;
///
/// let mira = Machine::MIRA;
/// assert_eq!(mira.total_nodes(), 49_152);
/// assert_eq!(mira.total_cores(), 786_432);
/// assert_eq!(mira.total_midplanes(), 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Machine {
    racks: usize,
    midplanes_per_rack: usize,
    boards_per_midplane: usize,
    cards_per_board: usize,
    cores_per_card: usize,
}

impl Machine {
    /// The Mira configuration studied by the paper.
    pub const MIRA: Machine = Machine {
        racks: 48,
        midplanes_per_rack: 2,
        boards_per_midplane: 16,
        cards_per_board: 32,
        cores_per_card: 16,
    };

    /// A 2-rack toy configuration used in unit tests and examples where the
    /// full machine would be wasteful.
    ///
    /// Note that location codes are validated against [`Machine::MIRA`]
    /// bounds, so toy locations are always valid Mira locations too.
    pub const TOY: Machine = Machine {
        racks: 2,
        midplanes_per_rack: 2,
        boards_per_midplane: 16,
        cards_per_board: 32,
        cores_per_card: 16,
    };

    /// Number of racks.
    pub const fn racks(&self) -> usize {
        self.racks
    }

    /// Midplanes per rack (2 on BG/Q).
    pub const fn midplanes_per_rack(&self) -> usize {
        self.midplanes_per_rack
    }

    /// Node boards per midplane (16 on BG/Q).
    pub const fn boards_per_midplane(&self) -> usize {
        self.boards_per_midplane
    }

    /// Compute cards (nodes) per node board (32 on BG/Q).
    pub const fn cards_per_board(&self) -> usize {
        self.cards_per_board
    }

    /// Application cores per compute card (16 on BG/Q).
    pub const fn cores_per_card(&self) -> usize {
        self.cores_per_card
    }

    /// Total number of midplanes in the machine.
    pub const fn total_midplanes(&self) -> usize {
        self.racks * self.midplanes_per_rack
    }

    /// Nodes per midplane (512 on BG/Q).
    pub const fn nodes_per_midplane(&self) -> usize {
        self.boards_per_midplane * self.cards_per_board
    }

    /// Total number of compute nodes.
    pub const fn total_nodes(&self) -> usize {
        self.total_midplanes() * self.nodes_per_midplane()
    }

    /// Total number of application cores.
    pub const fn total_cores(&self) -> usize {
        self.total_nodes() * self.cores_per_card
    }

    /// The midplane [`Location`] for a global linear midplane index.
    ///
    /// # Panics
    ///
    /// Panics if `linear >= self.total_midplanes()`.
    pub fn midplane_from_linear(&self, linear: u16) -> Location {
        assert!(
            (linear as usize) < self.total_midplanes(),
            "midplane linear index {linear} out of range"
        );
        let rack = linear as usize / self.midplanes_per_rack;
        let mid = linear as usize % self.midplanes_per_rack;
        Location::midplane(rack as u8, mid as u8)
    }

    /// Iterates over every midplane location in linear order.
    pub fn midplanes(&self) -> impl Iterator<Item = Location> + '_ {
        (0..self.total_midplanes() as u16).map(move |i| self.midplane_from_linear(i))
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::MIRA
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_dimensions_match_the_paper() {
        let m = Machine::MIRA;
        assert_eq!(m.racks(), 48);
        assert_eq!(m.total_midplanes(), 96);
        assert_eq!(m.nodes_per_midplane(), 512);
        assert_eq!(m.total_nodes(), 49_152);
        assert_eq!(m.total_cores(), 786_432);
    }

    #[test]
    fn linear_midplane_roundtrip() {
        let m = Machine::MIRA;
        for i in 0..m.total_midplanes() as u16 {
            let loc = m.midplane_from_linear(i);
            assert_eq!(loc.midplane_linear(), Some(i));
        }
    }

    #[test]
    fn midplane_iterator_covers_machine_in_order() {
        let m = Machine::TOY;
        let mids: Vec<_> = m.midplanes().collect();
        assert_eq!(mids.len(), 4);
        assert_eq!(mids[0].to_string(), "R00-M0");
        assert_eq!(mids[3].to_string(), "R01-M1");
        assert!(mids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn linear_index_is_validated() {
        Machine::TOY.midplane_from_linear(4);
    }
}
