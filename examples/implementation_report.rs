//! The full implementation dossier of one design point: the area report,
//! the memory-die floorplan, the density map, and the to-scale 2D/3D
//! comparison — everything a physical-design review of the
//! 4 MiB configuration would want on one page.
//!
//! ```text
//! cargo run --release --example implementation_report
//! ```

use mempool_3d::mempool_arch::SpmCapacity;
use mempool_3d::mempool_phys::{viz, AreaReport, Flow, GroupImplementation, TileImplementation};

fn main() {
    let capacity = SpmCapacity::MiB4;

    println!("=== tile (3D): memory die ===");
    let tile = TileImplementation::implement(capacity, Flow::ThreeD);
    println!("{}", viz::memory_die_floorplan(&tile, 48));

    let g2d = GroupImplementation::implement(capacity, Flow::TwoD);
    let g3d = GroupImplementation::implement(capacity, Flow::ThreeD);

    println!("=== group floorplans, to scale ===");
    println!("{}", viz::group_floorplan(&g2d, &g3d));

    println!("=== density map (3D) ===");
    println!("{}", viz::group_density_map(&g3d, 72));

    println!("=== area reports ===");
    println!("{}", AreaReport::from_group(&g2d));
    println!("{}", AreaReport::from_group(&g3d));

    println!("=== headline ===");
    println!(
        "3D vs 2D at {capacity}: footprint {:.0} % smaller, frequency {:+.1} %, power {:+.1} %",
        100.0 * (1.0 - g3d.footprint_um2() / g2d.footprint_um2()),
        100.0 * (g3d.frequency_ghz() / g2d.frequency_ghz() - 1.0),
        100.0 * (g3d.total_power_mw() / g2d.total_power_mw() - 1.0),
    );
}
