//! A minimal CSV writer for experiment output.
//!
//! The artifact scripts of the original paper emit one `.csv` per figure;
//! this module reproduces that workflow without pulling in a CSV dependency.
//! Fields containing commas, quotes or newlines are quoted per RFC 4180.

use std::fmt::Display;
use std::io::{self, Write};

/// Writes rows of an experiment result table as CSV.
///
/// # Examples
///
/// ```
/// use pccheck_util::CsvWriter;
/// let mut out = Vec::new();
/// {
///     let mut w = CsvWriter::new(&mut out, &["interval", "throughput"]);
///     w.row(&[&10, &0.95f64]).unwrap();
/// }
/// assert_eq!(String::from_utf8(out).unwrap(), "interval,throughput\n10,0.95\n");
/// ```
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    inner: W,
    columns: usize,
    header_written: bool,
    header: String,
}

impl<W: Write> CsvWriter<W> {
    /// Wraps a writer; the header row is emitted lazily before the first row.
    pub fn new(inner: W, header: &[&str]) -> Self {
        CsvWriter {
            inner,
            columns: header.len(),
            header_written: false,
            header: header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// Writes one row of display-formatted fields.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the number of fields differs from the header width.
    pub fn row(&mut self, fields: &[&dyn Display]) -> io::Result<()> {
        assert_eq!(
            fields.len(),
            self.columns,
            "row width {} != header width {}",
            fields.len(),
            self.columns
        );
        if !self.header_written {
            writeln!(self.inner, "{}", self.header)?;
            self.header_written = true;
        }
        let line = fields
            .iter()
            .map(|f| escape(&f.to_string()))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(self.inner, "{line}")
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.header_written {
            writeln!(self.inner, "{}", self.header)?;
            self.header_written = true;
        }
        self.inner.flush()
    }
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(&mut CsvWriter<&mut Vec<u8>>)) -> String {
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf, &["a", "b"]);
            f(&mut w);
            w.flush().unwrap();
        }
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn writes_header_then_rows() {
        let out = render(|w| {
            w.row(&[&1, &"x"]).unwrap();
            w.row(&[&2, &"y"]).unwrap();
        });
        assert_eq!(out, "a,b\n1,x\n2,y\n");
    }

    #[test]
    fn header_written_even_without_rows() {
        let out = render(|_| {});
        assert_eq!(out, "a,b\n");
    }

    #[test]
    fn quotes_fields_with_commas_and_quotes() {
        let out = render(|w| {
            w.row(&[&"hello, world", &"say \"hi\""]).unwrap();
        });
        assert_eq!(out, "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        render(|w| {
            w.row(&[&1]).unwrap();
        });
    }
}
