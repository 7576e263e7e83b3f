//! A minimal CHW float tensor.

/// A `(channels, height, width)` tensor of `f32`. The default is the empty
/// `(0, 0, 0)` tensor — the starting state of a reusable output buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width, data: vec![0.0; channels * height * width] }
    }

    /// Creates a tensor from raw CHW data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != channels * height * width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), channels * height * width, "tensor data length mismatch");
        Self { channels, height, width, data }
    }

    /// Re-dimensions the tensor in place, keeping its allocation. Element
    /// values are unspecified afterwards: the caller overwrites all of them.
    pub fn resize(&mut self, channels: usize, height: usize, width: usize) {
        (self.channels, self.height, self.width) = (channels, height, width);
        self.data.resize(channels * height * width, 0.0);
    }

    /// Channel count.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &mut self.data[(c * self.height + y) * self.width + x]
    }

    /// Raw data (CHW order).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Applies ReLU in place.
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            *v = v.max(0.0);
        }
    }

    /// Applies tanh in place.
    pub fn tanh_inplace(&mut self) {
        for v in &mut self.data {
            *v = v.tanh();
        }
    }

    /// Applies the logistic sigmoid in place.
    pub fn sigmoid_inplace(&mut self) {
        for v in &mut self.data {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
    }

    /// Concatenates two tensors along the channel axis (test oracles only:
    /// [`crate::Conv2d::forward_into`] reads channel ranges in place).
    ///
    /// # Panics
    ///
    /// Panics when spatial dimensions differ.
    #[cfg(test)]
    pub(crate) fn concat_channels(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.height, self.width),
            (other.height, other.width),
            "concat spatial dims mismatch"
        );
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor::from_vec(self.channels + other.channels, self.height, self.width, data)
    }

    /// The elements' bit patterns, for exact-equality assertions.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<u32> {
        self.data.iter().map(|v| v.to_bits()).collect()
    }

    /// Mean of all elements (0.0 when empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32 / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros(2, 3, 4);
        assert_eq!(t.len(), 24);
        *t.at_mut(1, 2, 3) = 5.0;
        assert_eq!(t.at(1, 2, 3), 5.0);
        assert_eq!(t.at(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_length_panics() {
        let _ = Tensor::from_vec(1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn relu_and_sigmoid() {
        let mut t = Tensor::from_vec(1, 1, 3, vec![-1.0, 0.0, 2.0]);
        t.relu_inplace();
        assert_eq!(t.data(), &[0.0, 0.0, 2.0]);
        let mut s = Tensor::from_vec(1, 1, 1, vec![0.0]);
        s.sigmoid_inplace();
        assert_eq!(s.data(), &[0.5]);
    }

    #[test]
    fn tanh_bounds() {
        let mut t = Tensor::from_vec(1, 1, 2, vec![-100.0, 100.0]);
        t.tanh_inplace();
        assert!((t.data()[0] + 1.0).abs() < 1e-6);
        assert!((t.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec(1, 1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 1, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_channels(&b);
        assert_eq!(c.channels(), 3);
        assert_eq!(c.at(0, 0, 1), 2.0);
        assert_eq!(c.at(2, 0, 0), 5.0);
    }
}
