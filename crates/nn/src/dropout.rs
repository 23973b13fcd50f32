use hadfl_tensor::{SeedStream, Tensor};

use crate::error::NnError;
use crate::layer::Layer;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`, so
/// evaluation needs no rescaling. The real VGG-16 uses dropout in its
/// classifier; [`crate::models::vgg16_lite_dropout`] mirrors that.
///
/// The mask stream is seeded, keeping training runs reproducible.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Dropout, Layer};
/// use hadfl_tensor::Tensor;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut drop = Dropout::new(0.5, 7)?;
/// // Evaluation mode is the identity.
/// let x = Tensor::ones(&[2, 4]);
/// assert_eq!(drop.forward(&x, false)?, x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: SeedStream,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Result<Self, NnError> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidConfig(format!(
                "dropout probability must be in [0, 1), got {p}"
            )));
        }
        Ok(Dropout {
            p,
            rng: SeedStream::new(seed ^ 0xD20_0001),
            mask: None,
        })
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if !train || self.p == 0.0 {
            if train {
                self.mask = Some(vec![true; input.len()]);
            }
            return Ok(input.clone());
        }
        let keep_scale = 1.0 / (1.0 - self.p);
        let mask: Vec<bool> = (0..input.len())
            .map(|_| self.rng.uniform(0.0, 1.0) >= self.p)
            .collect();
        let mut out = input.clone();
        for (v, &keep) in out.as_mut_slice().iter_mut().zip(&mask) {
            *v = if keep { *v * keep_scale } else { 0.0 };
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Dropout"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch(format!(
                "dropout backward length {} does not match cached mask {}",
                grad_out.len(),
                mask.len()
            )));
        }
        let keep_scale = 1.0 / (1.0 - self.p);
        let mut gx = grad_out.clone();
        for (g, &keep) in gx.as_mut_slice().iter_mut().zip(mask) {
            *g = if keep { *g * keep_scale } else { 0.0 };
        }
        Ok(gx)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.8, 1).unwrap();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        assert_eq!(d.forward(&x, false).unwrap(), x);
    }

    #[test]
    fn training_drops_roughly_p_fraction() {
        let mut d = Dropout::new(0.5, 2).unwrap();
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, true).unwrap();
        let dropped = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let rate = dropped as f32 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.05, "drop rate {rate}");
        // survivors are scaled by 1/(1-p) = 2
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut d = Dropout::new(0.3, 3).unwrap();
        let x = Tensor::ones(&[1, 50_000]);
        let y = d.forward(&x, true).unwrap();
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 50_000.0;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn backward_reuses_forward_mask() {
        let mut d = Dropout::new(0.5, 4).unwrap();
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, true).unwrap();
        let gx = d.backward(&Tensor::ones(&[1, 100])).unwrap();
        for (o, g) in y.as_slice().iter().zip(gx.as_slice()) {
            assert_eq!(*o == 0.0, *g == 0.0, "mask must match between passes");
        }
    }

    #[test]
    fn p_zero_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 5).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        assert_eq!(d.forward(&x, true).unwrap(), x);
        let gx = d.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gx.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(f32::NAN, 0).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut d = Dropout::new(0.5, 6).unwrap();
        assert!(matches!(
            d.backward(&Tensor::ones(&[1, 2])),
            Err(NnError::BackwardBeforeForward("Dropout"))
        ));
    }
}
