//! Plain-text table rendering for the experiment harnesses.

/// A simple aligned-column table writer.
///
/// # Example
///
/// ```
/// use fg_bench::report::Table;
///
/// let mut t = Table::new("demo", &["app", "runtime"]);
/// t.row(&["bfs".into(), "1.23 s".into()]);
/// let text = t.render();
/// assert!(text.contains("bfs"));
/// ```
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a large count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0}×")
    } else {
        format!("{r:.2}×")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["xxxxxx".into(), "y".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        // lines: "", "== t ==", header, separator, row.
        assert_eq!(lines[1], "== t ==");
        assert!(lines[2].contains("long-header"));
        // The row's second column starts where the header's does.
        assert_eq!(
            lines[2].find("long-header"),
            lines[4].find('y'),
            "columns must align"
        );
        assert!(r.contains("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.0000005), "0.5 µs");
        assert_eq!(secs(0.5), "500.0 ms");
        assert_eq!(secs(2.0), "2.00 s");
        assert_eq!(count(1234567), "1,234,567");
        assert_eq!(ratio(2.5), "2.50×");
        assert_eq!(ratio(150.0), "150×");
    }
}
