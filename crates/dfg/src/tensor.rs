//! Host-side tensors: f64 data plus a shape.
//!
//! Host data is `f64`; quantization to the chip's 32-bit fixed point
//! happens when the runtime loads data into the arrays (see
//! `imp-compiler`/`imp-sim`). Keeping the reference semantics in `f64`
//! lets tests measure exactly the error introduced by fixed-point
//! execution.

use crate::{DfgError, Shape};
use std::fmt;

/// A multi-dimensional array of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Tensor {
    /// A rank-0 scalar.
    pub fn scalar(value: f64) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// A tensor from data in row-major order.
    ///
    /// # Errors
    /// Returns [`DfgError::DataShapeMismatch`] if `data.len()` differs from
    /// `shape.elems()`.
    pub fn from_vec(data: Vec<f64>, shape: Shape) -> Result<Self, DfgError> {
        if data.len() != shape.elems() {
            return Err(DfgError::DataShapeMismatch {
                len: data.len(),
                expect: shape.elems(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with `value`.
    pub fn filled(value: f64, shape: Shape) -> Self {
        let data = vec![value; shape.elems()];
        Tensor { shape, data }
    }

    /// A zero tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor::filled(0.0, shape)
    }

    /// Builds a tensor by evaluating `f` at each linear index.
    pub fn from_fn(shape: Shape, f: impl FnMut(usize) -> f64) -> Self {
        let data = (0..shape.elems()).map(f).collect();
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The elements in row-major order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the elements.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn at(&self, index: &[usize]) -> f64 {
        self.data[self.shape.offset(index)]
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two compatible tensors (scalar operands
    /// broadcast).
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible shapes.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Result<Tensor, DfgError> {
        let shape = self
            .shape
            .broadcast(&other.shape)
            .ok_or_else(|| DfgError::ShapeMismatch {
                op: "zip".into(),
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            })?;
        let n = shape.elems();
        // A prefix-shaped operand broadcasts over the trailing axes: its
        // element for output index i is i / (n / len).
        let pick = |t: &Tensor, i: usize| {
            let len = t.data.len();
            if len == n {
                t.data[i]
            } else if len == 1 {
                t.data[0]
            } else {
                t.data[i / (n / len)]
            }
        };
        let data = (0..n).map(|i| f(pick(self, i), pick(other, i))).collect();
        Ok(Tensor { shape, data })
    }

    /// Reinterprets the same data with a new shape of equal element count.
    ///
    /// # Errors
    /// Returns [`DfgError::BadReshape`] if the element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor, DfgError> {
        if shape.elems() != self.shape.elems() {
            return Err(DfgError::BadReshape {
                from: self.shape.clone(),
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc: f64, &x| acc.max(x.abs()))
    }

    /// Largest absolute difference versus another tensor of the same shape.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |acc: f64, (&a, &b)| acc.max((a - b).abs()))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{}, {}, … ({} elems)]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap();
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert!(Tensor::from_vec(vec![1.0], Shape::vector(2)).is_err());
        assert_eq!(Tensor::zeros(Shape::vector(3)).data(), &[0.0; 3]);
    }

    #[test]
    fn map_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], Shape::vector(2)).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], Shape::vector(2)).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).unwrap().data(), &[11.0, 22.0]);
        // Scalar broadcast both ways.
        let s = Tensor::scalar(100.0);
        assert_eq!(a.zip(&s, |x, y| y - x).unwrap().data(), &[99.0, 98.0]);
        assert_eq!(s.zip(&a, |x, y| x - y).unwrap().data(), &[99.0, 98.0]);
        // Incompatible.
        let c = Tensor::zeros(Shape::vector(3));
        assert!(a.zip(&c, |x, _| x).is_err());
    }

    #[test]
    fn reshape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::vector(4)).unwrap();
        let m = t.reshape(Shape::matrix(2, 2)).unwrap();
        assert_eq!(m.at(&[1, 1]), 4.0);
        assert!(t.reshape(Shape::vector(3)).is_err());
    }

    #[test]
    fn diffs() {
        let a = Tensor::from_vec(vec![1.0, -5.0], Shape::vector(2)).unwrap();
        let b = Tensor::from_vec(vec![1.5, -5.0], Shape::vector(2)).unwrap();
        assert_eq!(a.max_abs(), 5.0);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
