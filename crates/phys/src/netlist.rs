//! Gate-equivalent inventory and the group interconnect netlist.
//!
//! The physical model needs two kinds of structural information:
//!
//! * **cell inventories** — how many gate equivalents each block
//!   synthesizes to (the paper gives 60 kGE per Snitch core; the rest are
//!   representative of the published MemPool implementation);
//! * **the group-level netlist** — the buses of the four 16x16 radix-4
//!   butterfly networks, with their logical endpoints, from which wire
//!   length, channel routing demand, buffer counts, and critical paths are
//!   all derived geometrically.

/// Gate-equivalent counts of MemPool's building blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateInventory {
    /// One Snitch core (the paper states 60 kGE).
    pub snitch_core_ge: f64,
    /// Per-tile logic besides the cores: the fully connected logarithmic
    /// crossbar, remote-port demultiplexers and arbiters, AXI plumbing,
    /// and the I$ controller.
    pub tile_other_ge: f64,
    /// The four group-level butterfly networks plus glue, per group.
    pub group_interconnect_ge: f64,
}

impl GateInventory {
    /// The published MemPool inventory.
    pub fn mempool() -> Self {
        GateInventory {
            snitch_core_ge: 60_000.0,
            tile_other_ge: 225_000.0,
            group_interconnect_ge: 450_000.0,
        }
    }

    /// Total tile standard-cell GE (4 cores + everything else).
    pub(crate) fn tile_logic_ge(&self, cores_per_tile: u32) -> f64 {
        self.snitch_core_ge * cores_per_tile as f64 + self.tile_other_ge
    }
}

impl Default for GateInventory {
    fn default() -> Self {
        Self::mempool()
    }
}

/// Logical endpoint of a group-level bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetEndpoint {
    /// A tile port, by tile index in the 4x4 grid.
    Tile(u32),
    /// A butterfly switch, by (network, stage, switch) index; switches sit
    /// in the congested group center.
    Switch {
        /// Which of the four group networks.
        network: u32,
        /// Butterfly stage (0 or 1 for a 16x16 radix-4 network).
        stage: u32,
        /// Switch index within the stage.
        index: u32,
    },
    /// The group's boundary port toward another group (north, northeast,
    /// east), at the group edge.
    Boundary(u32),
}

/// One bus of the group netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bus {
    /// Driving endpoint.
    pub from: NetEndpoint,
    /// Receiving endpoint.
    pub to: NetEndpoint,
    /// Bus width in wires.
    pub bits: u32,
}

/// The group-level netlist: all buses of the four butterfly networks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupNetlist {
    buses: Vec<Bus>,
}

/// Width of a TCDM request bus: 32 address + 32 data + byte strobes +
/// routing metadata (core id, tile id, write flag).
fn request_bits(addr_bits: u32) -> u32 {
    addr_bits + 32 + 4 + 12
}

/// Width of a TCDM response bus: 32 data + routing metadata.
const RESPONSE_BITS: u32 = 32 + 10;

impl GroupNetlist {
    /// Builds the netlist for a group of `tiles` tiles (must be a perfect
    /// square) with the given SPM address width.
    ///
    /// Each of the four networks is a radix-4 butterfly over the tiles:
    /// with 16 tiles it has two stages of four 4x4 switches. Buses:
    /// tile→stage-0, stage-0→stage-1, stage-1→tile (requests), and the
    /// mirrored response path. The three remote networks additionally
    /// connect stage-1 to the group boundary.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is not a nonzero perfect square.
    pub(crate) fn build(tiles: u32, addr_bits: u32) -> Self {
        let side = (tiles as f64).sqrt() as u32;
        assert!(
            side > 0 && side * side == tiles,
            "tiles must be a perfect square"
        );
        let radix = 4u32.min(tiles);
        let switches = tiles.div_ceil(radix);
        let req = request_bits(addr_bits);
        let mut buses = Vec::new();
        for network in 0..4 {
            for tile in 0..tiles {
                let sw0 = NetEndpoint::Switch {
                    network,
                    stage: 0,
                    index: tile / radix,
                };
                let sw1 = NetEndpoint::Switch {
                    network,
                    stage: 1,
                    index: tile % switches,
                };
                // Request path and its response mirror.
                buses.push(Bus {
                    from: NetEndpoint::Tile(tile),
                    to: sw0,
                    bits: req,
                });
                buses.push(Bus {
                    from: sw0,
                    to: sw1,
                    bits: req,
                });
                buses.push(Bus {
                    from: sw1,
                    to: NetEndpoint::Tile(tile),
                    bits: req,
                });
                buses.push(Bus {
                    from: NetEndpoint::Tile(tile),
                    to: sw0,
                    bits: RESPONSE_BITS,
                });
                buses.push(Bus {
                    from: sw0,
                    to: sw1,
                    bits: RESPONSE_BITS,
                });
                buses.push(Bus {
                    from: sw1,
                    to: NetEndpoint::Tile(tile),
                    bits: RESPONSE_BITS,
                });
            }
            // Remote networks reach the group boundary.
            if network > 0 {
                for index in 0..switches {
                    buses.push(Bus {
                        from: NetEndpoint::Switch {
                            network,
                            stage: 1,
                            index,
                        },
                        to: NetEndpoint::Boundary(network),
                        bits: req + RESPONSE_BITS,
                    });
                }
            }
        }
        GroupNetlist { buses }
    }

    /// All buses.
    pub(crate) fn buses(&self) -> &[Bus] {
        &self.buses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_inventory_values() {
        let inv = GateInventory::mempool();
        assert_eq!(inv.snitch_core_ge, 60_000.0, "paper: 60 kGE per Snitch");
        assert_eq!(inv.tile_logic_ge(4), 465_000.0);
    }

    #[test]
    fn netlist_has_expected_bus_count() {
        let n = GroupNetlist::build(16, 20);
        // 4 networks x 16 tiles x 6 buses + 3 remote networks x 4 boundary
        // buses.
        assert_eq!(n.buses().len(), 4 * 16 * 6 + 3 * 4);
    }

    #[test]
    fn address_width_only_changes_request_buses() {
        let wires = |n: GroupNetlist| n.buses.iter().map(|b| u64::from(b.bits)).sum::<u64>();
        let delta = wires(GroupNetlist::build(16, 23)) - wires(GroupNetlist::build(16, 20));
        // Request buses: 4 networks x 16 tiles x 3 hops, plus boundary
        // buses (3 x 4), each grows by 3 bits.
        assert_eq!(delta, 3 * (4 * 16 * 3 + 3 * 4));
    }

    #[test]
    fn scaled_down_groups_build() {
        assert!(!GroupNetlist::build(4, 16).buses().is_empty());
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_tile_count_panics() {
        let _ = GroupNetlist::build(12, 20);
    }
}
