//! Minimal row-major f32 tensor.

/// A dense, row-major, 2-D f32 matrix (the only shape the engine needs:
/// vectors are `1 x n`).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Immutable row view.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data view.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Serialize to little-endian bytes (for sealing/encrypting weights).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.data.len() * 4);
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        out.extend_from_slice(&(self.cols as u32).to_le_bytes());
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`Matrix::to_bytes`] output. Returns `None` on a
    /// malformed buffer.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let rows = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let cols = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        let body = &bytes[8..];
        if rows.checked_mul(cols)?.checked_mul(4)? != body.len() {
            return None;
        }
        let (floats, _) = body.as_chunks::<4>();
        let data = floats.iter().map(|&f| f32::from_le_bytes(f)).collect();
        Some(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_elements() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn bytes_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.5, 3.25, 0.0]);
        let back = Matrix::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Matrix::from_bytes(&[1, 2, 3]).is_none());
        let mut b = Matrix::zeros(2, 2).to_bytes();
        b.pop();
        assert!(Matrix::from_bytes(&b).is_none());
    }

    #[test]
    fn from_bytes_rejects_overflowing_header() {
        let mut b = u32::MAX.to_le_bytes().to_vec();
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Matrix::from_bytes(&b).is_none());
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
