//! A minimal NCHW `f32` tensor.

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n = Tensor::check_shape(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        let n = Tensor::check_shape(shape);
        assert_eq!(data.len(), n, "data length {} != shape product {n}", data.len());
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor by calling `f(flat_index)` for each element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Tensor {
        let n = Tensor::check_shape(shape);
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    fn check_shape(shape: &[usize]) -> usize {
        assert!(!shape.is_empty(), "tensor shape cannot be empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor shape {shape:?} has a zero dimension"
        );
        shape.iter().product()
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has zero elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a 3-D (C, H, W) index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the index is out of bounds.
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        assert_eq!(self.shape.len(), 3, "at3 on {:?}", self.shape);
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w]
    }

    /// Sets the element at a 3-D (C, H, W) index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the index is out of bounds.
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: f32) {
        assert_eq!(self.shape.len(), 3, "set3 on {:?}", self.shape);
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w] = v;
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0
    }

    /// Reshapes in place (element count must match).
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&mut self, shape: &[usize]) {
        let n = Tensor::check_shape(shape);
        assert_eq!(n, self.data.len(), "reshape changes element count");
        self.shape = shape.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        t.set3(1, 2, 3, 5.0);
        assert_eq!(t.at3(1, 2, 3), 5.0);
        assert_eq!(t.at3(0, 0, 0), 0.0);
    }

    #[test]
    fn from_fn_layout() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_first_max() {
        let t = Tensor::from_vec(&[4], vec![1.0, 7.0, 7.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(&[6], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        t.reshape(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_panics() {
        Tensor::zeros(&[2, 0]);
    }
}
