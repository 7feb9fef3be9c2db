//! Plain-text tables and CSV output for the experiment binaries.
//!
//! Every experiment prints a human-readable table to stdout and writes the
//! same rows as CSV under the `out/` directory of the workspace (override with
//! the `HIST_BENCH_OUT_DIR` environment variable), so plots can be regenerated
//! without re-running the experiments.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// The directory experiment CSVs are written to.
pub fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HIST_BENCH_OUT_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from("out")
}

/// Writes a CSV file with the given header and rows, creating the parent
/// directory if needed. Returns the full path written.
pub fn write_csv(
    file_name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Renders a fixed-width text table (header + rows) for terminal output.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(columns) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut output = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("{:>width$}", cell, width = widths[c.min(widths.len() - 1)]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    output.push_str(&render_row(&header_cells, &widths));
    output.push('\n');
    output.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
    output.push('\n');
    for row in rows {
        output.push_str(&render_row(row, &widths));
        output.push('\n');
    }
    output
}

/// Formats a float with a sensible number of significant digits for tables.
pub fn fmt_float(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Prints a section banner followed by a formatted table, and writes the CSV.
pub fn emit(
    title: &str,
    csv_name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    println!("\n== {title} ==");
    println!("{}", format_table(header, rows));
    let path = write_csv(csv_name, header, rows)?;
    println!("(csv written to {})", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let header = ["name", "value"];
        let rows = vec![
            vec!["alpha".to_string(), "1.5".to_string()],
            vec!["a-much-longer-name".to_string(), "2".to_string()],
        ];
        let table = format_table(&header, &rows);
        assert!(table.contains("alpha"));
        assert!(table.contains("a-much-longer-name"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header + separator + 2 rows");
    }

    #[test]
    fn float_formatting_is_reasonable() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(1234.5678), "1235");
        assert_eq!(fmt_float(12.34567), "12.346");
        assert_eq!(fmt_float(0.012345), "0.01235");
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("hist_bench_report_test");
        std::env::set_var("HIST_BENCH_OUT_DIR", &dir);
        let path =
            write_csv("unit_test.csv", &["a", "b"], &[vec!["1".to_string(), "2".to_string()]])
                .unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.trim(), "a,b\n1,2");
        std::env::remove_var("HIST_BENCH_OUT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
