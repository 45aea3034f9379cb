//! Plane geometry: points, distances, and the hexagonal disk overlay used in
//! the paper's probabilistic analysis.
//!
//! The correctness proofs of the MIS and CCDS algorithms (Sections 4–5) cover
//! the plane with disks of radius 1/2 whose centers sit on a hexagonal
//! (triangular) lattice, and repeatedly use the constant `I_r`: the maximum
//! number of overlay disks that can intersect a disk of radius `r`
//! (Fact 4.1: `I_c = O(1)` for constant `c`). This module provides that
//! overlay ([`DiskOverlay`]) and a numeric evaluation of `I_r`
//! ([`overlap_bound`]), which the experiment suite uses to check the MIS
//! density bound of Corollary 4.7.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the two-dimensional plane where nodes are embedded.
///
/// # Examples
///
/// ```
/// use radio_sim::geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert!((a.dist(b) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper; use for comparisons).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// Points bucketed into square cells at least `reach` wide, so that any two
/// points at distance at most `reach` lie in the same or adjacent cells.
///
/// The side is `max(reach·(1 + 1e-6), extent/⌈√n⌉)`. The margin absorbs
/// rounding: two points whose computed distance is at most `reach` never
/// land two cells apart. The second term caps the grid at about `n` cells
/// however sparse the points are. A point with a non-finite coordinate is
/// at a non-finite (or NaN) distance from every point, so it is left out.
/// Each cell lists its members in ascending order.
#[derive(Debug)]
pub(crate) struct CellGrid {
    cols: usize,
    rows: usize,
    /// Each point's cell as `(col, row)`; `None` if left out.
    place: Vec<Option<(u32, u32)>>,
    /// `cols · rows + 1` boundaries into `members`, row by row.
    start: Vec<u32>,
    /// Point indices grouped by cell.
    members: Vec<u32>,
}

impl CellGrid {
    /// Buckets `points` into cells at least `reach` wide.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` points.
    pub(crate) fn new(points: &[Point], reach: f64) -> Self {
        assert!(
            u32::try_from(points.len()).is_ok(),
            "cell grid point ids are u32; {} points",
            points.len()
        );
        let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points.iter().filter(|p| finite(p)) {
            (x0, x1) = (x0.min(p.x), x1.max(p.x));
            (y0, y1) = (y0.min(p.y), y1.max(p.y));
        }
        // At most `k + 1` cells a side, so `(col, row)` fits in `u32`.
        let k = (points.len() as f64).sqrt().ceil().max(1.0);
        let side = (reach * (1.0 + 1e-6)).max((x1 - x0).max(y1 - y0) / k);
        // `as usize` saturates, and maps NaN (an overflowed extent over an
        // infinite side) to 0: one cell then holds every point.
        let span = |extent: f64| ((extent / side) as usize).min(k as usize) + 1;
        let (cols, rows) = (span(x1 - x0), span(y1 - y0));
        let place: Vec<Option<(u32, u32)>> = points
            .iter()
            .map(|p| {
                finite(p).then(|| {
                    let col = (((p.x - x0) / side) as usize).min(cols - 1);
                    let row = (((p.y - y0) / side) as usize).min(rows - 1);
                    (col as u32, row as u32)
                })
            })
            .collect();
        let cell = |(col, row): (u32, u32)| row as usize * cols + col as usize;
        let mut start = vec![0u32; cols * rows + 1];
        for &at in place.iter().flatten() {
            start[cell(at) + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut next = start.clone();
        let mut members = vec![0u32; start[cols * rows] as usize];
        for (v, &at) in place.iter().enumerate() {
            if let Some(at) = at {
                members[next[cell(at)] as usize] = v as u32;
                next[cell(at)] += 1;
            }
        }
        CellGrid {
            cols,
            rows,
            place,
            start,
            members,
        }
    }

    /// Calls `f` with the members of each cell of the 3×3 block around
    /// point `v`'s cell (never, if `v` was left out), one ascending list
    /// per cell. Every point within `reach` of `v` is among them, and the
    /// members below `v` are a prefix of each list.
    pub(crate) fn for_each_block_cell(&self, v: usize, mut f: impl FnMut(&[u32])) {
        let Some((col, row)) = self.place[v] else {
            return;
        };
        let (col, row) = (col as usize, row as usize);
        for y in row.saturating_sub(1)..=(row + 1).min(self.rows - 1) {
            for x in col.saturating_sub(1)..=(col + 1).min(self.cols - 1) {
                let c = y * self.cols + x;
                f(&self.members[self.start[c] as usize..self.start[c + 1] as usize]);
            }
        }
    }
}

/// Identifier of a cell (disk) of the hexagonal overlay.
///
/// Cells are indexed by axial lattice coordinates; two points share a cell id
/// exactly when they are assigned to the same overlay disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Lattice row.
    pub row: i64,
    /// Lattice column (within the row).
    pub col: i64,
}

/// The hexagonal overlay of disks of radius `r` covering the plane.
///
/// Centers sit on a triangular lattice chosen so the disks cover the plane
/// with minimal overlap: rows are `1.5·r` apart, centers within a row are
/// `√3·r` apart, and odd rows are offset by half a column. Every point of the
/// plane is within distance `r` of the nearest center (the Voronoi cells are
/// hexagons of circumradius `r`).
///
/// The paper's proofs use `r = 1/2`; [`DiskOverlay::paper`] builds exactly
/// that overlay.
///
/// # Examples
///
/// ```
/// use radio_sim::geometry::{DiskOverlay, Point};
/// let overlay = DiskOverlay::paper();
/// let c = overlay.cell_of(Point::new(0.3, 0.1));
/// // The assigned center is within the disk radius.
/// assert!(overlay.center(c).dist(Point::new(0.3, 0.1)) <= overlay.radius() + 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskOverlay {
    radius: f64,
    row_step: f64,
    col_step: f64,
}

impl DiskOverlay {
    /// An overlay of disks of radius `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive and finite.
    pub fn new(r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "overlay radius must be positive");
        DiskOverlay {
            radius: r,
            row_step: 1.5 * r,
            col_step: 3.0_f64.sqrt() * r,
        }
    }

    /// The radius-1/2 overlay used throughout the paper's analysis.
    pub fn paper() -> Self {
        Self::new(0.5)
    }

    /// Disk radius of this overlay.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The overlay disk (cell) containing `p`.
    ///
    /// Points are assigned to the lattice center of their hexagonal Voronoi
    /// cell; ties on cell boundaries are broken deterministically.
    pub fn cell_of(&self, p: Point) -> CellId {
        // Candidate rows around p.y; candidate columns around p.x, accounting
        // for the half-column offset of odd rows. Pick the nearest center.
        let row_guess = (p.y / self.row_step).floor() as i64;
        let mut best = CellId { row: 0, col: 0 };
        let mut best_d = f64::INFINITY;
        for row in (row_guess - 1)..=(row_guess + 2) {
            let off = self.row_offset(row);
            let col_guess = ((p.x - off) / self.col_step).floor() as i64;
            for col in (col_guess - 1)..=(col_guess + 2) {
                let c = CellId { row, col };
                let d = self.center(c).dist_sq(p);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
        }
        best
    }

    /// The center point of cell `c`.
    pub fn center(&self, c: CellId) -> Point {
        Point::new(
            c.col as f64 * self.col_step + self.row_offset(c.row),
            c.row as f64 * self.row_step,
        )
    }

    #[inline]
    fn row_offset(&self, row: i64) -> f64 {
        if row.rem_euclid(2) == 1 {
            self.col_step / 2.0
        } else {
            0.0
        }
    }

    /// Numeric evaluation of the paper's constant `I_r` for this overlay: the
    /// maximum number of overlay disks intersecting a disk of radius `r`.
    ///
    /// An overlay disk (radius `ρ`, center `c`) intersects a query disk
    /// (radius `r`, center `q`) iff `dist(c, q) ≤ r + ρ`. We maximize the
    /// count of lattice centers within `r + ρ` over a dense grid of query
    /// centers inside one lattice fundamental domain (the count is periodic
    /// in the query center).
    ///
    /// This matches Fact 4.1: the returned value is a constant depending only
    /// on `r` (and the overlay radius), not on the network size.
    pub fn overlap_bound(&self, r: f64) -> usize {
        assert!(
            r.is_finite() && r >= 0.0,
            "query radius must be nonnegative"
        );
        let reach = r + self.radius;
        let row_span = (reach / self.row_step).ceil() as i64 + 2;
        let col_span = (reach / self.col_step).ceil() as i64 + 2;
        let mut best = 0usize;
        // Sample query centers across one fundamental domain (two rows by one
        // column, sampled at a resolution fine enough for the radii we use).
        const SAMPLES: i64 = 24;
        for sy in 0..SAMPLES {
            for sx in 0..SAMPLES {
                let q = Point::new(
                    sx as f64 / SAMPLES as f64 * self.col_step,
                    sy as f64 / SAMPLES as f64 * (2.0 * self.row_step),
                );
                let mut count = 0usize;
                for row in -row_span..=row_span {
                    for col in -col_span..=col_span {
                        let c = self.center(CellId { row, col });
                        if c.dist(q) <= reach + 1e-9 {
                            count += 1;
                        }
                    }
                }
                best = best.max(count);
            }
        }
        best
    }
}

/// `I_r` for the paper's radius-1/2 overlay (Fact 4.1).
///
/// Convenience wrapper over [`DiskOverlay::overlap_bound`] on
/// [`DiskOverlay::paper`].
///
/// # Examples
///
/// ```
/// use radio_sim::geometry::overlap_bound;
/// // A disk of radius 0 still intersects at least one overlay disk.
/// assert!(overlap_bound(0.0) >= 1);
/// // Monotone in r.
/// assert!(overlap_bound(2.0) >= overlap_bound(1.0));
/// ```
pub fn overlap_bound(r: f64) -> usize {
    DiskOverlay::paper().overlap_bound(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_covers_plane() {
        // Every sampled point must lie within the radius of its assigned cell
        // center — that is what "covering" means.
        let overlay = DiskOverlay::paper();
        for i in -20..20 {
            for j in -20..20 {
                let p = Point::new(i as f64 * 0.37, j as f64 * 0.29);
                let c = overlay.cell_of(p);
                assert!(
                    overlay.center(c).dist(p) <= overlay.radius() + 1e-9,
                    "point {p} not covered by its cell"
                );
            }
        }
    }

    #[test]
    fn cell_assignment_picks_nearest_center() {
        let overlay = DiskOverlay::paper();
        let p = Point::new(1.234, -0.567);
        let c = overlay.cell_of(p);
        let d = overlay.center(c).dist(p);
        // No lattice center in a local window is strictly closer.
        for row in -10..10 {
            for col in -10..10 {
                let other = CellId { row, col };
                assert!(overlay.center(other).dist(p) >= d - 1e-9);
            }
        }
    }

    #[test]
    fn overlap_bound_small_radii() {
        // A radius-0 disk can touch at most 3 hexagonal cells' disks in
        // degenerate positions but must touch at least 1.
        let b0 = overlap_bound(0.0);
        assert!((1..=4).contains(&b0), "I_0 = {b0}");
        // Known ballpark: a unit-radius query disk intersects a handful of
        // radius-1/2 overlay disks; certainly constant and > I_0.
        let b1 = overlap_bound(1.0);
        assert!(b1 > b0 && b1 < 30, "I_1 = {b1}");
    }

    #[test]
    fn overlap_bound_monotone() {
        let mut last = 0;
        for k in 0..6 {
            let b = overlap_bound(k as f64 * 0.5);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn distances() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(b) - 25.0).abs() < 1e-12);
    }
}
