//! Plain-text / markdown rendering of experiment results.

use stencil_serve::json::Value;

/// Formats a duration in seconds with a human-friendly unit (µs / ms / s),
/// matching the magnitude conventions of the paper's tables.
pub fn format_seconds(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "n/a".to_string();
    }
    if seconds < 1e-3 {
        format!("{:.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} s", seconds)
    }
}

/// Renders a markdown table from a header row and data rows.
pub fn format_markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for &w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Renders a simple ASCII bar for quick terminal visualisation (used by the
/// figure binaries to sketch the speedup plots).
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

/// Types that can render themselves as a JSON [`Value`]: the figure and
/// table rows the binaries dump with [`Value::pretty`].
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Value;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_seconds_selects_units() {
        assert_eq!(format_seconds(0.0000171), "17.1 µs");
        assert_eq!(format_seconds(0.0641), "64.100 ms");
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(f64::NAN), "n/a");
    }

    #[test]
    fn markdown_table_aligns_columns() {
        let table = format_markdown_table(
            &["alg", "Jsum"],
            &[
                vec!["Hyperplane".to_string(), "1328".to_string()],
                vec!["k-d Tree".to_string(), "1732".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("alg"));
        assert!(lines[1].starts_with("|---"));
        assert!(lines[2].contains("Hyperplane"));
        // all lines have equal length
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn ascii_bar_scales() {
        assert_eq!(ascii_bar(5.0, 10.0, 10), "#####");
        assert_eq!(ascii_bar(10.0, 10.0, 4), "####");
        assert_eq!(ascii_bar(0.0, 10.0, 4), "");
        assert_eq!(ascii_bar(1.0, 0.0, 4), "");
    }
}
