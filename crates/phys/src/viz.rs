//! Text renderings of the paper's implementation figures.
//!
//! The paper's Figures 3-5 are screenshots of the Innovus database; this
//! module renders the equivalent views of the analytic model:
//!
//! * [`memory_die_floorplan`] — Figure 3: the memory die of a 3D tile,
//!   with the SRAM macros shelf-packed to scale and the utilization in the
//!   header;
//! * [`group_density_map`] — Figure 4: a cell-density heat map of the
//!   group (dense tiles, hot interconnect pockets at the center, empty
//!   channel corners);
//! * [`group_floorplan`] — Figure 5: the 2D and 3D groups side by side,
//!   *to scale*, showing the footprint difference and the channel widths.
//!
//! All renderings are deterministic ASCII so they can be asserted on in
//! tests and diffed in CI.

use crate::flow::Flow;
use crate::group::GroupImplementation;
use crate::tile::TileImplementation;

/// Shades from empty to full, used by the density map.
const SHADES: &[u8] = b" .:-=+*#%@";

fn shade(value: f64) -> char {
    let clamped = value.clamp(0.0, 1.0);
    let index = ((SHADES.len() - 1) as f64 * clamped).round() as usize;
    SHADES[index] as char
}

/// Renders the memory die of a 3D tile (Figure 3), shelf-packing the
/// macros to scale. Returns a fixed-width ASCII drawing.
///
/// # Panics
///
/// Panics if called on a 2D tile (which has no memory die).
pub fn memory_die_floorplan(tile: &TileImplementation, width_chars: usize) -> String {
    let util = tile
        .memory_die_utilization()
        .expect("2D tiles have no memory die");
    let side_um = tile.side_um();
    let partition = tile.partition();
    let banks = tile.num_banks() - partition.banks_on_logic_die;
    let bank = tile.bank_macro();

    // Shelf packing: try both macro orientations, keep the one that packs
    // more macros per row (the paper rotates the 8 MiB macros into a 5x3
    // array).
    let (mw, mh) = {
        let a = (bank.width_um(), bank.height_um());
        let b = (bank.height_um(), bank.width_um());
        let per_row_a = (side_um / a.0) as u32;
        let per_row_b = (side_um / b.0) as u32;
        let rows_needed = |per_row: u32| {
            if per_row == 0 {
                u32::MAX
            } else {
                banks.div_ceil(per_row)
            }
        };
        // Prefer the orientation that fits with fewer wasted shelves.
        if rows_needed(per_row_b) as f64 * b.1 <= rows_needed(per_row_a) as f64 * a.1 {
            b
        } else {
            a
        }
    };
    let per_row = ((side_um / mw) as u32).max(1);
    let rows = banks.div_ceil(per_row);

    let scale = side_um / width_chars as f64;
    let height_chars = (side_um / (2.0 * scale)) as usize; // chars are ~2:1
    let mut grid = vec![vec![' '; width_chars]; height_chars.max(1)];
    for index in 0..banks {
        let row = index / per_row;
        let col = index % per_row;
        let x0 = (col as f64 * mw / scale) as usize;
        let x1 = (((col + 1) as f64 * mw - 2.0) / scale) as usize;
        let y0 = (row as f64 * mh / (2.0 * scale)) as usize;
        let y1 = (((row + 1) as f64 * mh - 2.0) / (2.0 * scale)) as usize;
        for row_cells in grid.iter_mut().take((y1 + 1).min(height_chars)).skip(y0) {
            for cell in row_cells
                .iter_mut()
                .take((x1 + 1).min(width_chars))
                .skip(x0)
            {
                *cell = '#';
            }
        }
    }
    // I$ banks, if they live here.
    if !partition.icache_on_logic_die {
        let y = ((rows as f64 * mh) / (2.0 * scale)) as usize;
        if y < height_chars {
            let icache_w = tile.icache_macro().width_um();
            for i in 0..tile.num_icache_banks() as usize {
                let x0 = (i as f64 * (icache_w + 4.0) / scale) as usize;
                let x1 = (((i + 1) as f64 * (icache_w + 4.0) - 6.0) / scale) as usize;
                for cell in grid[y].iter_mut().take((x1 + 1).min(width_chars)).skip(x0) {
                    *cell = '=';
                }
            }
        }
    }

    let mut out = format!(
        "memory die, {} ({}): {} SPM banks{}  util {:.0} %  side {:.0} um\n",
        tile.capacity(),
        tile.flow(),
        banks,
        if partition.icache_on_logic_die {
            ""
        } else {
            " & I$"
        },
        util * 100.0,
        side_um,
    );
    out.push('+');
    out.push_str(&"-".repeat(width_chars));
    out.push_str("+\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out.push('+');
    out.push_str(&"-".repeat(width_chars));
    out.push_str("+\n");
    out
}

/// Renders a cell-density heat map of the group (Figure 4).
pub fn group_density_map(group: &GroupImplementation, width_chars: usize) -> String {
    let side = group.side_um();
    let tile_side = group.tile().side_um();
    let ch = group.channel_width_um();
    let pitch = tile_side + ch;
    let scale = side / width_chars as f64;
    let height_chars = (width_chars / 2).max(1);
    let center = side / 2.0;

    // Density of group-level cells in the channels, concentrated at the
    // four interconnect pockets near the center (cf. the red pockets in
    // the paper's Figure 4b).
    let channel_density = group.density() * 0.6;
    let tile_density = group.tile().logic_die_utilization();

    let mut out = format!(
        "group density map, {} ({}): avg {:.0} %  side {:.0} um\n",
        group.capacity(),
        group.flow(),
        group.density() * 100.0,
        side,
    );
    for gy in 0..height_chars {
        let y = (gy as f64 + 0.5) * 2.0 * scale;
        let mut line = String::with_capacity(width_chars);
        for gx in 0..width_chars {
            let x = (gx as f64 + 0.5) * scale;
            // Inside a tile?
            let in_tile = |coord: f64| {
                let within = (coord - ch).rem_euclid(pitch);
                (coord - ch) >= 0.0 && within < tile_side && coord < side - ch / 2.0
            };
            let density = if in_tile(x) && in_tile(y) {
                tile_density
            } else {
                // Channel: hot near the center pockets, cooling outward.
                let d = ((x - center).abs() + (y - center).abs()) / side;
                (channel_density + 0.9 * (0.3 - d).max(0.0)).min(1.0)
            };
            line.push(shade(density));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders the 2D and 3D groups of one capacity side by side, to scale
/// (Figure 5).
pub fn group_floorplan(g2d: &GroupImplementation, g3d: &GroupImplementation) -> String {
    assert_eq!(
        g2d.flow(),
        Flow::TwoD,
        "first argument must be the 2D group"
    );
    assert_eq!(
        g3d.flow(),
        Flow::ThreeD,
        "second argument must be the 3D group"
    );
    let chars_per_um = 72.0 / g2d.side_um();
    let render = |g: &GroupImplementation| -> Vec<String> {
        let width = (g.side_um() * chars_per_um) as usize;
        let height = (width / 2).max(2);
        let tile_side = g.tile().side_um();
        let ch = g.channel_width_um();
        let pitch = tile_side + ch;
        let scale = g.side_um() / width as f64;
        let mut lines = Vec::with_capacity(height + 3);
        lines.push(format!(
            "{} ({}): side {:.0} um, channels {:.0} um",
            g.capacity(),
            g.beol_label(),
            g.side_um(),
            ch,
        ));
        lines.push(format!("+{}+", "-".repeat(width)));
        for gy in 0..height {
            let y = (gy as f64 + 0.5) * 2.0 * scale;
            let mut line = String::from("|");
            for gx in 0..width {
                let x = (gx as f64 + 0.5) * scale;
                let in_tile = |coord: f64| {
                    let within = (coord - ch).rem_euclid(pitch);
                    (coord - ch) >= 0.0 && within < tile_side && coord < g.side_um() - ch / 2.0
                };
                line.push(if in_tile(x) && in_tile(y) { 'T' } else { ' ' });
            }
            line.push('|');
            lines.push(line);
        }
        lines.push(format!("+{}+", "-".repeat(width)));
        lines
    };
    let left = render(g2d);
    let right = render(g3d);
    let left_width = left.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for i in 0..left.len().max(right.len()) {
        let l = left.get(i).map_or("", String::as_str);
        let r = right.get(i).map_or("", String::as_str);
        let line = format!("{l:<left_width$}   {r}");
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

impl GroupImplementation {
    /// The BEOL label used in figure headers.
    fn beol_label(&self) -> String {
        format!("{} {}", self.flow(), self.flow().beol_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::SpmCapacity;

    #[test]
    fn memory_die_floorplans_render_for_all_3d_tiles() {
        for cap in SpmCapacity::ALL {
            let tile = TileImplementation::implement(cap, Flow::ThreeD);
            let art = memory_die_floorplan(&tile, 48);
            assert!(art.contains("memory die"), "{cap}");
            assert!(art.contains('#'), "{cap}: no macros drawn");
            // The frame must be closed.
            assert_eq!(art.matches('+').count(), 4, "{cap}");
        }
    }

    #[test]
    fn one_mib_die_is_half_empty_eight_mib_is_full() {
        let small = TileImplementation::implement(SpmCapacity::MiB1, Flow::ThreeD);
        let large = TileImplementation::implement(SpmCapacity::MiB8, Flow::ThreeD);
        let count = |s: &str| s.chars().filter(|&c| c == '#').count() as f64;
        let area = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with('|'))
                .map(|l| l.len() - 2)
                .sum::<usize>() as f64
        };
        let small_art = memory_die_floorplan(&small, 48);
        let large_art = memory_die_floorplan(&large, 48);
        let small_fill = count(&small_art) / area(&small_art);
        let large_fill = count(&large_art) / area(&large_art);
        assert!(
            small_fill < 0.7,
            "1 MiB die should look sparse ({small_fill:.2})"
        );
        assert!(
            large_fill > small_fill + 0.2,
            "8 MiB die should look much fuller ({large_fill:.2} vs {small_fill:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "no memory die")]
    fn two_d_tiles_have_no_memory_die() {
        let tile = TileImplementation::implement(SpmCapacity::MiB1, Flow::TwoD);
        let _ = memory_die_floorplan(&tile, 48);
    }

    #[test]
    fn density_map_shows_hot_center() {
        let group = GroupImplementation::implement(SpmCapacity::MiB4, Flow::ThreeD);
        let art = group_density_map(&group, 64);
        let lines: Vec<&str> = art.lines().skip(1).collect();
        let middle = lines[lines.len() / 2];
        let center_char = middle.as_bytes()[middle.len() / 2] as char;
        let corner_char = lines[0].as_bytes()[0] as char;
        let rank = |c: char| SHADES.iter().position(|&s| s as char == c).unwrap();
        assert!(
            rank(center_char) > rank(corner_char),
            "center `{center_char}` must be denser than corner `{corner_char}`\n{art}"
        );
    }

    #[test]
    fn floorplans_are_to_scale() {
        let g2 = GroupImplementation::implement(SpmCapacity::MiB8, Flow::TwoD);
        let g3 = GroupImplementation::implement(SpmCapacity::MiB8, Flow::ThreeD);
        let art = group_floorplan(&g2, &g3);
        // The 3D frame must be visibly narrower than the 2D frame.
        let frames: Vec<usize> = art
            .lines()
            .filter(|l| l.contains("+--"))
            .map(|l| l.trim().len())
            .collect();
        assert!(frames.len() >= 2);
        let ratio = g3.side_um() / g2.side_um();
        // Measure both frames from a line holding all four corners.
        let combined = art
            .lines()
            .find(|l| l.matches('+').count() >= 4)
            .expect("side-by-side frame line");
        let plus: Vec<usize> = combined
            .char_indices()
            .filter(|(_, c)| *c == '+')
            .map(|(i, _)| i)
            .collect();
        let left_width = (plus[1] - plus[0]) as f64;
        let right_width = (plus[3] - plus[2]) as f64;
        let drawn_ratio = right_width / left_width;
        assert!(
            (drawn_ratio - ratio).abs() < 0.15,
            "drawn ratio {drawn_ratio:.2} vs real {ratio:.2}\n{art}"
        );
        assert!(art.contains('T'), "tiles must be drawn");
        // The 3D group is the shorter drawing: past its end, no line
        // pads the empty right-hand side.
        assert!(art.lines().all(|l| !l.ends_with(' ')), "{art}");
    }
}
