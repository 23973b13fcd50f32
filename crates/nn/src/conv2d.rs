use hadfl_tensor::{
    col2im, im2col, matmul_a_bt, matmul_at_b, Conv2dGeometry, Initializer, SeedStream, Tensor,
};

use crate::error::NnError;
use crate::layer::Layer;

/// A 2-D convolution over NCHW batches, lowered to a matrix product via
/// [`im2col`].
///
/// The filter bank is stored as a `(out_channels, C·kh·kw)` matrix; forward
/// computes `patches · Wᵀ + b` and reshapes to `(N, out_channels, out_h,
/// out_w)`.
///
/// # Example
///
/// ```
/// use hadfl_nn::{Conv2d, Layer};
/// use hadfl_tensor::{SeedStream, Tensor};
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let mut conv = Conv2d::new(3, 8, 4, 4, 3, 1, 1, &mut SeedStream::new(0))?;
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 4, 4]), true)?;
/// assert_eq!(y.dims(), &[2, 8, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_cols: Option<Tensor>,
    cached_batch: usize,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if the geometry is invalid (zero
    /// extents, zero stride, or kernel larger than the padded input).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeedStream,
    ) -> Result<Self, NnError> {
        if out_channels == 0 {
            return Err(NnError::InvalidConfig(
                "conv2d needs at least one output channel".into(),
            ));
        }
        let geom = Conv2dGeometry::new(in_channels, in_h, in_w, kernel, stride, padding)?;
        let fan_in = geom.patch_len();
        let weight = Initializer::HeNormal { fan_in }.init(&[out_channels, fan_in], rng);
        Ok(Conv2d {
            geom,
            out_channels,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: None,
            cached_batch: 0,
        })
    }

    /// The convolution geometry (kernel, stride, padding, output extents).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// `(out_channels, out_h, out_w)` — per-sample output dimensions.
    pub fn out_dims(&self) -> [usize; 3] {
        [self.out_channels, self.geom.out_h, self.geom.out_w]
    }

    /// Transposes the `(rows, oc)` patch-major product into NCHW layout.
    ///
    /// Each image owns a disjoint `oc·ppi` window of the output, so
    /// images parallelize with chunk boundaries fixed by the batch
    /// layout alone — bit-identical at any thread count.
    fn patches_to_nchw(&self, prod: &Tensor, batch: usize) -> Tensor {
        let ppi = self.geom.patches_per_image();
        let oc = self.out_channels;
        let mut out = Tensor::zeros(&[batch, oc, self.geom.out_h, self.geom.out_w]);
        let src = prod.as_slice();
        let bias = self.bias.as_slice();
        let img_stride = oc * ppi;
        let work = (batch as u64) * (img_stride as u64);
        hadfl_par::plan(work).chunks_mut(out.as_mut_slice(), img_stride.max(1), |img, dimg| {
            for p in 0..ppi {
                let row = (img * ppi + p) * oc;
                for c in 0..oc {
                    dimg[c * ppi + p] = src[row + c] + bias[c];
                }
            }
        });
        out
    }

    /// Transposes an NCHW gradient into the `(rows, oc)` patch-major
    /// layout. Image-parallel like [`Conv2d::patches_to_nchw`].
    fn nchw_to_patches(&self, grad: &Tensor, batch: usize) -> Tensor {
        let ppi = self.geom.patches_per_image();
        let oc = self.out_channels;
        let mut out = Tensor::zeros(&[batch * ppi, oc]);
        let src = grad.as_slice();
        let img_stride = oc * ppi;
        let work = (batch as u64) * (img_stride as u64);
        hadfl_par::plan(work).chunks_mut(out.as_mut_slice(), img_stride.max(1), |img, dimg| {
            let sbase = img * img_stride;
            for c in 0..oc {
                for p in 0..ppi {
                    dimg[p * oc + c] = src[sbase + c * ppi + p];
                }
            }
        });
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("conv2d_fwd");
        let batch = *input
            .dims()
            .first()
            .ok_or_else(|| NnError::BatchMismatch("conv input must be rank 4".into()))?;
        let cols = im2col(input, &self.geom)?;
        // (rows, patch_len) · (oc, patch_len)ᵀ -> (rows, oc)
        let prod = matmul_a_bt(&cols, &self.weight)?;
        let out = self.patches_to_nchw(&prod, batch);
        if train {
            self.cached_cols = Some(cols);
            self.cached_batch = batch;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let _prof = hadfl_prof::scope("conv2d_bwd");
        let cols = self
            .cached_cols
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Conv2d"))?;
        let batch = self.cached_batch;
        let want = [batch, self.out_channels, self.geom.out_h, self.geom.out_w];
        if grad_out.dims() != want {
            return Err(NnError::BatchMismatch(format!(
                "conv backward got {:?}, expected {:?}",
                grad_out.dims(),
                want
            )));
        }
        let gp = self.nchw_to_patches(grad_out, batch); // (rows, oc)
                                                        // dW += gpᵀ · cols  : (oc, patch_len)
        let gw = matmul_at_b(&gp, cols)?;
        self.grad_weight.add_assign_t(&gw)?;
        // db += per-channel sums of grad_out
        let ppi = self.geom.patches_per_image();
        let gov = grad_out.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for img in 0..batch {
            for (c, g) in gb.iter_mut().enumerate() {
                let base = img * self.out_channels * ppi + c * ppi;
                *g += gov[base..base + ppi].iter().sum::<f32>();
            }
        }
        // dx = col2im(gp · W)
        let gcols = hadfl_tensor::matmul(&gp, &self.weight)?;
        Ok(col2im(&gcols, &self.geom, batch)?)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_params(conv: &mut Conv2d, w: &[f32], b: &[f32]) {
        conv.visit_params_mut(&mut |p| {
            if p.dims().len() == 2 {
                p.as_mut_slice().copy_from_slice(w);
            } else {
                p.as_mut_slice().copy_from_slice(b);
            }
        });
    }

    #[test]
    fn identity_1x1_kernel_passes_input_through() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng).unwrap();
        set_params(&mut conv, &[1.0], &[0.0]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 2, 2, 2, 1, 1, 0, &mut rng).unwrap();
        set_params(&mut conv, &[0.0, 0.0], &[1.0, -1.0]);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&y.as_slice()[4..], &[-1.0; 4]);
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut rng).unwrap();
        set_params(&mut conv, &[1.0; 9], &[0.0]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, false).unwrap();
        // centre pixel sees all 9 ones; corners see 4
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn output_dims_follow_geometry() {
        let mut rng = SeedStream::new(0);
        let conv = Conv2d::new(3, 8, 8, 8, 3, 2, 1, &mut rng).unwrap();
        assert_eq!(conv.out_dims(), [8, 4, 4]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SeedStream::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut rng).unwrap();
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }

    #[test]
    fn numeric_gradient_check_weights_and_input() {
        // Check dW and dx against central finite differences on L = sum(y).
        let mut rng = SeedStream::new(3);
        let mut conv = Conv2d::new(2, 2, 4, 4, 3, 1, 1, &mut rng).unwrap();
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for v in x.as_mut_slice() {
            *v = rng.normal();
        }
        conv.forward(&x, true).unwrap();
        let gy = Tensor::ones(&[1, 2, 4, 4]);
        let gx = conv.backward(&gy).unwrap();
        let mut analytic_w = Tensor::default();
        conv.visit_params_grads_mut(&mut |p, g| {
            if p.dims().len() == 2 {
                analytic_w = g.clone();
            }
        });

        let eps = 1e-2;
        // weight check on a few entries
        for &i in &[0usize, 5, 17, 35] {
            let mut wplus = conv.weight.clone();
            wplus.as_mut_slice()[i] += eps;
            let mut wminus = conv.weight.clone();
            wminus.as_mut_slice()[i] -= eps;
            let orig = conv.weight.clone();
            conv.weight = wplus;
            let yp: f32 = conv.forward(&x, false).unwrap().as_slice().iter().sum();
            conv.weight = wminus;
            let ym: f32 = conv.forward(&x, false).unwrap().as_slice().iter().sum();
            conv.weight = orig;
            let num = (yp - ym) / (2.0 * eps);
            let ana = analytic_w.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "w[{i}]: {num} vs {ana}"
            );
        }
        // input check on a few entries
        for &i in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let yp: f32 = conv.forward(&xp, false).unwrap().as_slice().iter().sum();
            let ym: f32 = conv.forward(&xm, false).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(1.0),
                "x[{i}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn rejects_zero_output_channels() {
        let mut rng = SeedStream::new(0);
        assert!(Conv2d::new(1, 0, 3, 3, 3, 1, 1, &mut rng).is_err());
    }
}
