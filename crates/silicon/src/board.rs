//! A fabricated board: a grid of delay units with die coordinates.
//!
//! Die coordinates are normalized to `[-1, 1]²` so the systematic
//! variation field (and the distiller's regression basis) are
//! scale-independent.

use crate::device::DelayUnit;

/// Identifier of a board within a simulated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BoardId(pub u32);

impl std::fmt::Display for BoardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "board{:03}", self.0)
    }
}

/// A fabricated board: delay units placed on a `cols`-wide grid.
///
/// Units are stored in row-major placement order; unit `i` sits at grid
/// cell `(i % cols, i / cols)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    id: BoardId,
    units: Vec<DelayUnit>,
    cols: usize,
}

impl Board {
    /// Assembles a board from fabricated units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty or `cols == 0`.
    pub fn new(id: BoardId, units: Vec<DelayUnit>, cols: usize) -> Self {
        assert!(!units.is_empty(), "a board needs at least one delay unit");
        assert!(cols > 0, "grid width must be nonzero");
        Self { id, units, cols }
    }

    /// The board's fleet identifier.
    pub fn id(&self) -> BoardId {
        self.id
    }

    /// All delay units in placement order.
    pub fn units(&self) -> &[DelayUnit] {
        &self.units
    }

    /// Number of delay units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the board has no units (never true for a constructed
    /// board; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Grid width used for placement.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height implied by the unit count and width.
    pub fn rows(&self) -> usize {
        self.units.len().div_ceil(self.cols)
    }

    /// The delay unit at `index`, or `None` if out of range.
    pub fn unit(&self, index: usize) -> Option<&DelayUnit> {
        self.units.get(index)
    }

    /// Normalized die coordinates of unit `index` in `[-1, 1]²`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_silicon::board::{Board, BoardId};
    /// use ropuf_silicon::DelayUnit;
    ///
    /// let unit = DelayUnit::new(100.0, 35.0, 30.0, 0.0, 0.0);
    /// let board = Board::new(BoardId(0), vec![unit; 4], 2);
    /// assert_eq!(board.position(0), (-1.0, -1.0));
    /// assert_eq!(board.position(3), (1.0, 1.0));
    /// ```
    pub fn position(&self, index: usize) -> (f64, f64) {
        assert!(index < self.units.len(), "unit index {index} out of range");
        grid_position(index, self.units.len(), self.cols)
    }

    /// Normalized positions of every unit, in placement order.
    pub fn positions(&self) -> Vec<(f64, f64)> {
        (0..self.units.len()).map(|i| self.position(i)).collect()
    }
}

/// Normalized die coordinates in `[-1, 1]²` of unit `index` on a grid
/// of `units` units, `cols` wide (`units.div_ceil(cols)` rows): the
/// placement [`Board::position`] reports, computable before the board
/// exists.
pub(crate) fn grid_position(index: usize, units: usize, cols: usize) -> (f64, f64) {
    (
        grid_coordinate(index % cols, cols),
        grid_coordinate(index / cols, units.div_ceil(cols)),
    )
}

/// Normalized coordinate in `[-1, 1]` of cell `i` of `n` along one grid
/// axis; `0.0` when the axis has a single cell.
pub(crate) fn grid_coordinate(i: usize, n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        2.0 * i as f64 / (n - 1) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> DelayUnit {
        DelayUnit::new(100.0, 35.0, 30.0, 0.0, 0.0)
    }

    #[test]
    fn grid_geometry() {
        let b = Board::new(BoardId(1), vec![unit(); 12], 4);
        assert_eq!(b.cols(), 4);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.len(), 12);
        assert!(!b.is_empty());
    }

    #[test]
    fn positions_span_unit_square() {
        let b = Board::new(BoardId(0), vec![unit(); 9], 3);
        assert_eq!(b.position(0), (-1.0, -1.0));
        assert_eq!(b.position(4), (0.0, 0.0));
        assert_eq!(b.position(8), (1.0, 1.0));
        assert_eq!(b.positions().len(), 9);
    }

    #[test]
    fn single_row_centres_y() {
        let b = Board::new(BoardId(0), vec![unit(); 5], 5);
        for i in 0..5 {
            assert_eq!(b.position(i).1, 0.0);
        }
    }

    #[test]
    fn ragged_last_row_positions_stay_in_range() {
        let b = Board::new(BoardId(0), vec![unit(); 7], 3); // 3 rows, last ragged
        for i in 0..7 {
            let (x, y) = b.position(i);
            assert!((-1.0..=1.0).contains(&x));
            assert!((-1.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn grid_position_is_the_board_position_on_every_grid_shape() {
        // Ragged, single-row, single-column, square and one-unit grids.
        for (units, cols) in [(7, 3), (480, 16), (5, 5), (4, 1), (9, 3), (1, 1), (3, 8)] {
            let b = Board::new(BoardId(0), vec![unit(); units], cols);
            for i in 0..units {
                assert_eq!(
                    grid_position(i, units, cols),
                    b.position(i),
                    "unit {i} of {units} on {cols} columns"
                );
            }
        }
        // A single column centres x and spreads y over [-1, 1].
        assert_eq!(grid_position(0, 4, 1), (0.0, -1.0));
        assert_eq!(grid_position(3, 4, 1), (0.0, 1.0));
    }

    #[test]
    fn unit_accessor_bounds() {
        let b = Board::new(BoardId(0), vec![unit(); 3], 3);
        assert!(b.unit(2).is_some());
        assert!(b.unit(3).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one delay unit")]
    fn empty_board_panics() {
        let _ = Board::new(BoardId(0), vec![], 4);
    }

    #[test]
    fn board_id_display() {
        assert_eq!(BoardId(7).to_string(), "board007");
    }
}
