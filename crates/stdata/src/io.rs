//! Ingestion of *real* datasets.
//!
//! The reproduction trains on synthetic analogues, but a downstream user
//! with the actual METR-LA / PEMS CSV exports can load them here: a
//! `[T, N]`/`[T, N*C]` reading matrix plus a distance-based adjacency
//! list become a [`crate::dataset::SequenceData`]-compatible series and a
//! `SensorNetwork`, after which the whole framework applies unchanged.

use urcl_graph::SensorNetwork;
use urcl_tensor::Tensor;

/// Errors raised while parsing dataset files.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number, with (line, column).
    Parse(usize, usize),
    /// Rows have inconsistent column counts, with (line, expected, got).
    Ragged(usize, usize, usize),
    /// A cell parsed to `NaN` or an infinity, with (line, column).
    NonFinite(usize, usize),
    /// A row's column count is not a multiple of the channel count, with
    /// (line, columns, channels).
    Channels(usize, usize, usize),
    /// A node id is not below the node count, with (line, column, id,
    /// node count).
    NodeOutOfRange(usize, usize, usize, usize),
    /// The file contained no data rows.
    Empty,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(l, c) => write!(f, "unparseable number at line {l}, column {c}"),
            IoError::Ragged(l, want, got) => {
                write!(f, "line {l} has {got} columns, expected {want}")
            }
            IoError::NonFinite(l, c) => write!(f, "non-finite number at line {l}, column {c}"),
            IoError::Channels(l, cols, ch) => {
                write!(
                    f,
                    "line {l} has {cols} columns, not a multiple of {ch} channels"
                )
            }
            IoError::NodeOutOfRange(l, c, id, n) => {
                write!(
                    f,
                    "node id {id} at line {l}, column {c} is not below {n} nodes"
                )
            }
            IoError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a CSV of sensor readings into a `[T, N, C]` tensor.
///
/// Each row is one time slot; columns are sensors (channel-major per
/// sensor when `channels > 1`, i.e. `s0c0, s0c1, …, s1c0, …`). A header
/// row is detected (first cell non-numeric) and skipped. Empty lines are
/// ignored. `NaN` and infinite cells are rejected: Rust's `f32` parser
/// accepts them, and one would poison every window that reads it.
pub fn parse_series_csv(text: &str, channels: usize) -> Result<Tensor, IoError> {
    assert!(channels > 0, "channels must be positive");
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut expected_cols: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        match expected_cols {
            Some(want) if cells.len() != want => {
                return Err(IoError::Ragged(lineno + 1, want, cells.len()));
            }
            Some(_) => {}
            None => {
                if cells.len() % channels != 0 {
                    return Err(IoError::Channels(lineno + 1, cells.len(), channels));
                }
                expected_cols = Some(cells.len());
                // Header detection: skip the first non-empty row if it
                // fails to parse entirely.
                if !cells.iter().all(|c| c.parse::<f32>().is_ok()) {
                    continue;
                }
            }
        }
        let mut row = Vec::with_capacity(cells.len());
        for (col, cell) in cells.iter().enumerate() {
            let v: f32 = cell
                .parse()
                .map_err(|_| IoError::Parse(lineno + 1, col + 1))?;
            if !v.is_finite() {
                return Err(IoError::NonFinite(lineno + 1, col + 1));
            }
            row.push(v);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(IoError::Empty);
    }
    let n = rows[0].len() / channels;
    let t = rows.len();
    let data: Vec<f32> = rows.into_iter().flatten().collect();
    Ok(Tensor::from_vec(data, &[t, n, channels]))
}

/// Reads a series CSV from disk; see [`parse_series_csv`].
pub fn load_series_csv(
    path: impl AsRef<std::path::Path>,
    channels: usize,
) -> Result<Tensor, IoError> {
    let text = std::fs::read_to_string(path)?;
    parse_series_csv(&text, channels)
}

/// Parses a distance-list CSV (`from,to,distance` per row, header
/// optional) into a [`SensorNetwork`] with `1/distance` edge weights
/// (Eq. 20). A node id not below `num_nodes` is an error.
pub fn parse_distance_csv(text: &str, num_nodes: usize) -> Result<SensorNetwork, IoError> {
    let mut adj = Tensor::zeros(&[num_nodes, num_nodes]);
    let mut saw_any = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != 3 {
            return Err(IoError::Ragged(lineno + 1, 3, cells.len()));
        }
        // Header row: skip if unparseable.
        let parsed: Option<(usize, usize, f32)> = (|| {
            Some((
                cells[0].parse().ok()?,
                cells[1].parse().ok()?,
                cells[2].parse().ok()?,
            ))
        })();
        let Some((from, to, dist)) = parsed else {
            if !saw_any {
                continue; // header
            }
            return Err(IoError::Parse(lineno + 1, 1));
        };
        for (col, id) in [(1, from), (2, to)] {
            if id >= num_nodes {
                return Err(IoError::NodeOutOfRange(lineno + 1, col, id, num_nodes));
            }
        }
        let w = if dist > 0.0 { 1.0 / dist } else { 0.0 };
        adj.data_mut()[from * num_nodes + to] = w;
        saw_any = true;
    }
    if !saw_any {
        return Err(IoError::Empty);
    }
    let coords = (0..num_nodes).map(|i| (i as f32, 0.0)).collect();
    Ok(SensorNetwork::new(coords, adj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_single_channel() {
        let csv = "1.0,2.0,3.0\n4.0,5.0,6.0\n";
        let t = parse_series_csv(csv, 1).unwrap();
        assert_eq!(t.shape(), &[2, 3, 1]);
        assert_eq!(t.at(&[1, 2, 0]), 6.0);
    }

    #[test]
    fn parse_skips_header_and_blank_lines() {
        let csv = "sensor_a,sensor_b\n\n1.5,2.5\n3.5,4.5\n\n";
        let t = parse_series_csv(csv, 1).unwrap();
        assert_eq!(t.shape(), &[2, 2, 1]);
        assert_eq!(t.at(&[0, 0, 0]), 1.5);
    }

    #[test]
    fn parse_multichannel_layout() {
        // 2 sensors x 2 channels: s0c0, s0c1, s1c0, s1c1.
        let csv = "10,0.1,20,0.2\n30,0.3,40,0.4\n";
        let t = parse_series_csv(csv, 2).unwrap();
        assert_eq!(t.shape(), &[2, 2, 2]);
        assert_eq!(t.at(&[0, 1, 0]), 20.0);
        assert_eq!(t.at(&[1, 0, 1]), 0.3);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = parse_series_csv("1,2\n3\n", 1).unwrap_err();
        assert!(matches!(err, IoError::Ragged(2, 2, 1)));
    }

    #[test]
    fn bad_cell_reported_with_position() {
        let err = parse_series_csv("1,2\n3,oops\n", 1).unwrap_err();
        assert!(matches!(err, IoError::Parse(2, 2)));
    }

    #[test]
    fn non_finite_cells_rejected_with_position() {
        for cell in ["NaN", "inf", "-infinity", "1e39"] {
            let err = parse_series_csv(&format!("1,2\n3,{cell}\n"), 1).unwrap_err();
            assert!(matches!(err, IoError::NonFinite(2, 2)), "{cell}: {err}");
        }
    }

    #[test]
    fn columns_not_divisible_by_channels_rejected() {
        let err = parse_series_csv("\n1,2,3\n4,5,6\n", 2).unwrap_err();
        assert!(matches!(err, IoError::Channels(2, 3, 2)), "{err}");
        let err = parse_series_csv("a,b,c\n1,2,3\n", 2).unwrap_err();
        assert!(matches!(err, IoError::Channels(1, 3, 2)), "{err}");
    }

    #[test]
    fn distance_csv_node_out_of_range_rejected() {
        let err = parse_distance_csv("0,1,2.0\n1,3,1.0\n", 3).unwrap_err();
        assert!(matches!(err, IoError::NodeOutOfRange(2, 2, 3, 3)), "{err}");
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(parse_series_csv("", 1), Err(IoError::Empty)));
        assert!(matches!(
            parse_series_csv("only,a,header\n", 1),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn distance_csv_inverse_weights() {
        let csv = "from,to,distance\n0,1,2.0\n1,0,2.0\n1,2,0.5\n";
        let net = parse_distance_csv(csv, 3).unwrap();
        assert_eq!(net.num_nodes(), 3);
        assert!((net.weight(0, 1) - 0.5).abs() < 1e-6);
        assert!((net.weight(1, 2) - 2.0).abs() < 1e-6);
        assert_eq!(net.weight(2, 1), 0.0); // directed as given
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("urcl-io-test-{}.csv", std::process::id()));
        std::fs::write(&p, "1,2\n3,4\n").unwrap();
        let t = load_series_csv(&p, 1).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(t.shape(), &[2, 2, 1]);
    }

    #[test]
    fn loaded_series_feeds_the_pipeline() {
        // A loaded series must work with windows + normalizer.
        use crate::normalize::Normalizer;
        use crate::window::sliding_windows;
        let csv: String = (0..20)
            .map(|t| format!("{},{}\n", t as f32, (t * 2) as f32))
            .collect();
        let series = parse_series_csv(&csv, 1).unwrap();
        let norm = Normalizer::fit(&series);
        let normed = norm.transform(&series);
        let ws = sliding_windows(&normed, 4, 1, 0);
        assert_eq!(ws.len(), 20 - 5 + 1);
        assert!(ws[0].x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
