//! Minimal ASCII table rendering for experiment reports.

/// Renders rows (first row = header) as an aligned ASCII table.
pub fn render(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (idx, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(|s| s.as_str()).unwrap_or("");
            line.push_str(&format!("{cell:<width$}", width = w));
            if i + 1 < cols {
                line.push_str("  ");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if idx == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Formats `n` with a comma between each group of three digits.
pub fn group(n: u64) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*d);
    }
    out.chars().rev().collect()
}

/// Convenience: turns anything displayable into a row of strings.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$(format!("{}", $cell)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(&[row!["name", "value"], row!["alpha", 1], row!["b", 22222]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    fn empty_is_empty() {
        assert!(render(&[]).is_empty());
    }
}
