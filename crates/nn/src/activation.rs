use hadfl_tensor::Tensor;

use crate::error::NnError;
use crate::layer::Layer;

/// Rectified linear unit: `y = max(x, 0)` elementwise.
///
/// The backward pass gates `grad_out` by the sign of the cached input.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Layer, Relu};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[1, 3])?, true)?;
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.mask = Some(input.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Relu"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch(format!(
                "relu backward length {} does not match cached mask {}",
                grad_out.len(),
                mask.len()
            )));
        }
        let mut gx = grad_out.clone();
        for (g, &m) in gx.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(gx)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r
            .forward(
                &Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]).unwrap(),
                false,
            )
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn backward_gates_by_input_sign() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap(), true)
            .unwrap();
        let gx = r
            .backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[1, 2]), true).unwrap();
        let gx = r.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_rejects_wrong_length() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[1, 2]), true).unwrap();
        assert!(r.backward(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
