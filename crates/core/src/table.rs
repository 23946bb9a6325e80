//! Minimal fixed-width text table formatter for the experiment reports.

use std::fmt;

/// A simple right-aligned text table.
#[derive(Debug, Clone)]
pub(crate) struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub(crate) fn new<const N: usize>(headers: [&str; N]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the cell count must match the header count.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header row.
    pub(crate) fn row<const N: usize>(&mut self, cells: [String; N]) -> &mut Self {
        assert_eq!(N, self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row from a vector (for dynamic column counts).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header row.
    pub(crate) fn row_vec(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i == 0 {
                    write!(f, "{cell:<width$}")?;
                } else {
                    write!(f, "  {cell:>width$}")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a".into(), "1".into()]);
        t.row(["long-name".into(), "123.456".into()]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All lines equal width (right-aligned last column).
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row_vec(vec!["only-one".into()]);
    }
}
