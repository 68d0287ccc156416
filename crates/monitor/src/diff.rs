//! Byte- and tensor-level deltas between checkpoints.

use pccheck_gpu::tensor::StateLayout;

/// Comparison of two checkpoint payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Total payload length compared.
    pub total_bytes: u64,
    /// Bytes that differ.
    pub changed_bytes: u64,
    /// Per-tensor changed fractions, in layout order: `(name, fraction)`.
    pub per_tensor: Vec<(String, f64)>,
}

impl DiffReport {
    /// Fraction of all bytes that changed, in `[0, 1]`.
    pub fn changed_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.changed_bytes as f64 / self.total_bytes as f64
    }

    /// The tensor with the highest changed fraction.
    pub fn hottest_tensor(&self) -> Option<&(String, f64)> {
        self.per_tensor
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("fractions are finite"))
    }
}

/// Diffs two equally sized checkpoint payloads against a state layout.
///
/// # Panics
///
/// Panics if the payloads differ in length or do not match the layout's
/// total size.
///
/// # Examples
///
/// ```
/// use pccheck_monitor::diff;
/// let layout = vec![("w".to_string(), pccheck_util::ByteSize::from_bytes(4))];
/// let report = diff(&[1, 2, 3, 4], &[1, 2, 9, 9], &layout);
/// assert_eq!(report.changed_bytes, 2);
/// assert_eq!(report.changed_fraction(), 0.5);
/// ```
pub fn diff(a: &[u8], b: &[u8], layout: &StateLayout) -> DiffReport {
    assert_eq!(a.len(), b.len(), "payloads must be the same size");
    let layout_total: u64 = layout.iter().map(|(_, s)| s.as_u64()).sum();
    assert_eq!(
        a.len() as u64,
        layout_total,
        "layout must cover the payload"
    );

    let mut per_tensor = Vec::with_capacity(layout.len());
    let mut changed_total = 0u64;
    let mut off = 0usize;
    for (name, size) in layout {
        let n = size.as_usize();
        let changed = a[off..off + n]
            .iter()
            .zip(&b[off..off + n])
            .filter(|(x, y)| x != y)
            .count() as u64;
        changed_total += changed;
        let fraction = if n == 0 {
            0.0
        } else {
            changed as f64 / n as f64
        };
        per_tensor.push((name.clone(), fraction));
        off += n;
    }
    DiffReport {
        total_bytes: a.len() as u64,
        changed_bytes: changed_total,
        per_tensor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_gpu::TrainingState;
    use pccheck_util::rng::{check, DEFAULT_CASES};
    use pccheck_util::ByteSize;

    fn layout_of(state: &TrainingState) -> StateLayout {
        state.layout()
    }

    #[test]
    fn identical_payloads_diff_to_zero() {
        let s = TrainingState::synthetic(ByteSize::from_bytes(300), 1);
        let mut buf = vec![0u8; 300];
        s.serialize_into(&mut buf);
        let report = diff(&buf, &buf, &layout_of(&s));
        assert_eq!(report.changed_bytes, 0);
        assert_eq!(report.changed_fraction(), 0.0);
        assert!(report.per_tensor.iter().all(|(_, f)| *f == 0.0));
    }

    #[test]
    fn one_training_step_changes_nearly_everything() {
        // The synthetic optimizer step mutates every byte — consecutive
        // checkpoints should be ~100% changed (a byte can collide by
        // chance, so allow a tiny margin).
        let mut s = TrainingState::synthetic(ByteSize::from_bytes(3000), 2);
        let mut before = vec![0u8; 3000];
        s.serialize_into(&mut before);
        s.step();
        let mut after = vec![0u8; 3000];
        s.serialize_into(&mut after);
        let report = diff(&before, &after, &layout_of(&s));
        assert!(
            report.changed_fraction() > 0.98,
            "got {}",
            report.changed_fraction()
        );
    }

    #[test]
    fn hottest_tensor_identifies_localized_change() {
        let s = TrainingState::synthetic(ByteSize::from_bytes(300), 3);
        let mut a = vec![0u8; 300];
        s.serialize_into(&mut a);
        let mut b = a.clone();
        // Corrupt only the middle tensor ("adam_m", second of three).
        for byte in &mut b[110..190] {
            *byte ^= 0xFF;
        }
        let report = diff(&a, &b, &layout_of(&s));
        let (name, fraction) = report.hottest_tensor().expect("has tensors");
        assert_eq!(name, "adam_m");
        assert!(*fraction > 0.5);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_sizes_panic() {
        diff(&[1], &[1, 2], &StateLayout::new());
    }

    #[test]
    #[should_panic(expected = "layout must cover")]
    fn wrong_layout_panics() {
        diff(&[1, 2], &[1, 2], &StateLayout::new());
    }

    #[test]
    fn changed_bytes_counts_exact_positions() {
        check(DEFAULT_CASES, |r| {
            let base = r.bytes(30);
            let flips: std::collections::BTreeSet<usize> = (0..r.range(0..10))
                .map(|_| r.range(0..30) as usize)
                .collect();
            let mut other = base.clone();
            for &i in &flips {
                other[i] ^= 0x01; // guaranteed different
            }
            let layout = vec![("t".to_string(), ByteSize::from_bytes(30))];
            let report = diff(&base, &other, &layout);
            assert_eq!(report.changed_bytes, flips.len() as u64);
        });
    }
}
