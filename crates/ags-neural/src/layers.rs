//! Convolution and ConvGRU layers with exact MAC accounting.
//!
//! # Accumulation-order contract
//!
//! Every output element is `bias`, then `weight * input` added tap by tap in
//! ascending `(in channel, ky, kx)` order, taps that fall outside the image
//! skipped, no fused multiply-add. The blocked kernel keeps that order per
//! output channel — it only computes several output channels side by side —
//! so its results are bit-identical to the six-deep scalar loop kept as the
//! test oracle, and nothing downstream of the hidden state can move.

use crate::tensor::Tensor;
use ags_math::Pcg32;

/// A strided, zero-padded 2D convolution.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Weights in `(in, ky, kx, out)` order: the output channels of one tap
    /// are contiguous, which is what the blocked kernel streams.
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with deterministic He-style initialisation.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized configuration.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Pcg32,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let taps = in_channels * kernel * kernel;
        let std = (2.0 / taps as f32).sqrt();
        // Drawn in `(out, in, ky, kx)` order — the order the seeds were fixed
        // under — and stored tap-major.
        let mut weights = vec![0.0; taps * out_channels];
        for oc in 0..out_channels {
            for tap in 0..taps {
                weights[tap * out_channels + oc] = rng.normal_f32() * std;
            }
        }
        let bias = vec![0.0; out_channels];
        Self { in_channels, out_channels, kernel, stride, padding, weights, bias }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Number of multiply-accumulates for an input of `(h, w)`.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_size(h, w);
        (oh * ow * self.out_channels * self.in_channels * self.kernel * self.kernel) as u64
    }

    /// Parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Runs the convolution into a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics when the input channel count differs from the layer's.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(&[input], &mut out);
        out
    }

    /// Runs the convolution over the channel-wise concatenation of `inputs`
    /// (read in place, never materialised) into `out`, which is resized and
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is empty, the inputs' spatial sizes differ or
    /// their channel counts do not add up to the layer's.
    pub fn forward_into(&self, inputs: &[&Tensor], out: &mut Tensor) {
        let (h, w) = (inputs[0].height(), inputs[0].width());
        assert!(
            inputs.iter().all(|t| (t.height(), t.width()) == (h, w)),
            "conv input spatial dims mismatch"
        );
        let channels: usize = inputs.iter().map(|t| t.channels()).sum();
        assert_eq!(channels, self.in_channels, "conv input channel mismatch");
        let (oh, ow) = self.output_size(h, w);
        out.resize(self.out_channels, oh, ow);
        let mut oc0 = 0;
        while oc0 < self.out_channels {
            oc0 += match self.out_channels - oc0 {
                16.. => self.forward_block::<16>(inputs, out, oc0),
                8.. => self.forward_block::<8>(inputs, out, oc0),
                4.. => self.forward_block::<4>(inputs, out, oc0),
                _ => self.forward_block::<1>(inputs, out, oc0),
            };
        }
    }

    /// Computes output channels `oc0..oc0 + B` at every output position and
    /// returns `B`. The `B` accumulators are independent per-channel f32
    /// chains updated by one fixed-width loop per tap, so the loop
    /// autovectorises while each chain keeps the scalar summation order.
    fn forward_block<const B: usize>(
        &self,
        inputs: &[&Tensor],
        out: &mut Tensor,
        oc0: usize,
    ) -> usize {
        let (h, w) = (inputs[0].height(), inputs[0].width());
        let (oh, ow) = (out.height(), out.width());
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let bias: [f32; B] =
            self.bias[oc0..oc0 + B].try_into().expect("block lies inside out_channels");
        let out = out.data_mut();
        for oy in 0..oh {
            // Taps `ky` with `0 <= oy*s + ky - p < h`; likewise `kx` below.
            let ky_range = p.saturating_sub(oy * s)..k.min((h + p).saturating_sub(oy * s));
            for ox in 0..ow {
                let kx_range = p.saturating_sub(ox * s)..k.min((w + p).saturating_sub(ox * s));
                let mut acc = bias;
                let mut tap_base = 0;
                for plane in inputs.iter().flat_map(|t| t.data().chunks_exact(h * w)) {
                    for ky in ky_range.clone() {
                        let row = &plane[(oy * s + ky - p) * w..][..w];
                        for kx in kx_range.clone() {
                            let v = row[ox * s + kx - p];
                            let at = (tap_base + ky * k + kx) * self.out_channels + oc0;
                            let wv: &[f32; B] =
                                self.weights[at..at + B].try_into().expect("slice has B weights");
                            for l in 0..B {
                                acc[l] += wv[l] * v;
                            }
                        }
                    }
                    tap_base += k * k;
                }
                for l in 0..B {
                    out[((oc0 + l) * oh + oy) * ow + ox] = acc[l];
                }
            }
        }
        B
    }

    /// The scalar loop the blocked kernel replaced, kept as its oracle.
    #[cfg(test)]
    fn forward_naive(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.channels(), self.in_channels, "conv input channel mismatch");
        let (oh, ow) = self.output_size(input.height(), input.width());
        let mut out = Tensor::zeros(self.out_channels, oh, ow);
        let k = self.kernel;
        for oc in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    let base_y = (oy * self.stride) as isize - self.padding as isize;
                    let base_x = (ox * self.stride) as isize - self.padding as isize;
                    for ic in 0..self.in_channels {
                        for ky in 0..k {
                            let iy = base_y + ky as isize;
                            if iy < 0 || iy >= input.height() as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = base_x + kx as isize;
                                if ix < 0 || ix >= input.width() as isize {
                                    continue;
                                }
                                let w =
                                    self.weights[((ic * k + ky) * k + kx) * self.out_channels + oc];
                                acc += w * input.at(ic, iy as usize, ix as usize);
                            }
                        }
                    }
                    *out.at_mut(oc, oy, ox) = acc;
                }
            }
        }
        out
    }
}

/// A convolutional GRU cell — the Droid-SLAM update operator.
///
/// Gates are computed by 3×3 convolutions over the concatenation of the
/// hidden state and the input:
///
/// ```text
/// z = σ(Conv([h, x]))      update gate
/// r = σ(Conv([h, x]))      reset gate
/// h̃ = tanh(Conv([r∘h, x]))
/// h' = (1-z)∘h + z∘h̃
/// ```
#[derive(Debug, Clone)]
pub struct ConvGru {
    hidden_channels: usize,
    /// `z` and `r` read the same input, so they are one convolution whose
    /// output channels are `z` (first half) then `r` (second half).
    conv_zr: Conv2d,
    conv_h: Conv2d,
}

/// Intermediate tensors of [`ConvGru::step`], owned by the caller so that
/// repeated steps allocate nothing. Every step overwrites all of it.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    gates: Tensor,
    reset_hidden: Tensor,
    candidate: Tensor,
}

impl ConvGru {
    /// Creates a ConvGRU with `hidden_channels` state channels receiving
    /// `input_channels` input channels.
    pub fn new(hidden_channels: usize, input_channels: usize, rng: &mut Pcg32) -> Self {
        let cat = hidden_channels + input_channels;
        Self {
            hidden_channels,
            // Draws the weights of `z` then `r`, as two separate layers would.
            conv_zr: Conv2d::new(cat, 2 * hidden_channels, 3, 1, 1, rng),
            conv_h: Conv2d::new(cat, hidden_channels, 3, 1, 1, rng),
        }
    }

    /// Hidden state channel count.
    pub fn hidden_channels(&self) -> usize {
        self.hidden_channels
    }

    /// MACs per step for a `(h, w)` spatial grid.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        self.conv_zr.macs(h, w) + self.conv_h.macs(h, w)
    }

    /// Parameter count of the three gate convolutions.
    pub fn num_params(&self) -> usize {
        self.conv_zr.num_params() + self.conv_h.num_params()
    }

    /// One GRU step, updating `hidden` in place.
    ///
    /// # Panics
    ///
    /// Panics when `hidden` has the wrong channel count or spatial dims
    /// differ from `input`.
    pub fn step(&self, hidden: &mut Tensor, input: &Tensor, scratch: &mut GruScratch) {
        assert_eq!(hidden.channels(), self.hidden_channels, "hidden channel mismatch");
        let GruScratch { gates, reset_hidden, candidate } = scratch;
        self.conv_zr.forward_into(&[hidden, input], gates);
        gates.sigmoid_inplace();
        let (z, r) = gates.data().split_at(hidden.len());

        reset_hidden.resize(hidden.channels(), hidden.height(), hidden.width());
        for ((rh, &h), &g) in reset_hidden.data_mut().iter_mut().zip(hidden.data()).zip(r) {
            *rh = h * g;
        }
        self.conv_h.forward_into(&[reset_hidden, input], candidate);
        candidate.tanh_inplace();

        for ((h, &zi), &c) in hidden.data_mut().iter_mut().zip(z).zip(candidate.data()) {
            *h = (1.0 - zi) * *h + zi * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Pcg32 {
        Pcg32::seeded(77)
    }

    #[test]
    fn conv_output_dims() {
        let conv = Conv2d::new(1, 4, 3, 2, 1, &mut rng());
        assert_eq!(conv.output_size(16, 16), (8, 8));
        let out = conv.forward(&Tensor::zeros(1, 16, 16));
        assert_eq!((out.channels(), out.height(), out.width()), (4, 8, 8));
    }

    #[test]
    fn conv_macs_formula() {
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        // 8*8 output * 3 out * 2 in * 9 = 3456
        assert_eq!(conv.macs(8, 8), 3456);
        assert_eq!(conv.num_params(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn conv_identity_kernel_passthrough() {
        // Hand-build a 1x1 identity convolution.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.weights = vec![1.0];
        conv.bias = vec![0.0];
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_zero_padding_ignores_border() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng());
        // Sum kernel.
        conv.weights = vec![1.0; 9];
        conv.bias = vec![0.0];
        let input = Tensor::from_vec(1, 2, 2, vec![1.0; 4]);
        let out = conv.forward(&input);
        // Corner output only sees 4 valid pixels.
        assert_eq!(out.at(0, 0, 0), 4.0);
    }

    #[test]
    fn conv_deterministic_weights() {
        let a = Conv2d::new(2, 2, 3, 1, 1, &mut Pcg32::seeded(5));
        let b = Conv2d::new(2, 2, 3, 1, 1, &mut Pcg32::seeded(5));
        let input = Tensor::from_vec(2, 3, 3, (0..18).map(|i| i as f32 * 0.1).collect());
        assert_eq!(a.forward(&input).data(), b.forward(&input).data());
    }

    #[test]
    fn gru_preserves_shape_and_stays_bounded() {
        let gru = ConvGru::new(4, 2, &mut rng());
        let mut h = Tensor::zeros(4, 6, 6);
        let x = Tensor::from_vec(2, 6, 6, (0..72).map(|i| (i as f32 * 0.37).sin()).collect());
        let mut scratch = GruScratch::default();
        for _ in 0..5 {
            gru.step(&mut h, &x, &mut scratch);
            assert_eq!((h.channels(), h.height(), h.width()), (4, 6, 6));
            // GRU state is a convex combination of bounded quantities.
            assert!(h.data().iter().all(|v| v.abs() <= 1.0 + 1e-5));
        }
    }

    #[test]
    fn gru_state_responds_to_input() {
        let gru = ConvGru::new(3, 1, &mut rng());
        let x_zero = Tensor::zeros(1, 4, 4);
        let x_strong = Tensor::from_vec(1, 4, 4, vec![1.0; 16]);
        let mut scratch = GruScratch::default();
        let (mut h_zero, mut h_strong) = (Tensor::zeros(3, 4, 4), Tensor::zeros(3, 4, 4));
        gru.step(&mut h_zero, &x_zero, &mut scratch);
        gru.step(&mut h_strong, &x_strong, &mut scratch);
        assert_ne!(h_zero.data(), h_strong.data());
    }

    #[test]
    fn gru_macs_counts_three_convs() {
        let gru = ConvGru::new(4, 2, &mut rng());
        // Each gate conv: (4+2) in, 4 out, 3x3, same spatial -> h*w*4*6*9.
        assert_eq!(gru.macs(5, 5), 3 * (5 * 5 * 4 * 6 * 9) as u64);
        assert_eq!(gru.num_params(), 3 * (4 * 6 * 9 + 4));
    }

    fn random_tensor(rng: &mut Pcg32, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(c, h, w, (0..c * h * w).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
    }

    #[test]
    fn blocked_kernel_equals_naive_oracle_bit_for_bit() {
        // Channel pairs cover every block width (16, 8, 4, 1) and their
        // mixes; sizes include 1x1 and inputs smaller than the kernel.
        let mut rng = Pcg32::seeded(0xb10c);
        let mut cases = 0;
        for (ic, oc) in [(2, 8), (8, 12), (12, 16), (32, 16), (32, 32), (3, 5), (1, 1)] {
            for (k, s, p) in [(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (1, 1, 0), (1, 2, 1)] {
                for (h, w) in [(1, 1), (2, 2), (1, 4), (3, 3), (7, 6), (9, 5), (6, 11)] {
                    if h + 2 * p < k || w + 2 * p < k {
                        continue; // no output position exists
                    }
                    let mut conv = Conv2d::new(ic, oc, k, s, p, &mut rng);
                    conv.bias = (0..oc).map(|_| rng.next_f32() - 0.5).collect();
                    let input = random_tensor(&mut rng, ic, h, w);
                    let what = format!("{ic}->{oc} k{k} s{s} p{p} on {h}x{w}");
                    let fast = conv.forward(&input);
                    let naive = conv.forward_naive(&input);
                    assert_eq!((fast.height(), fast.width()), conv.output_size(h, w), "{what}");
                    assert_eq!(fast.bits(), naive.bits(), "{what}");

                    // Two channel ranges read in place == their concatenation.
                    if ic > 1 {
                        let split = 1 + rng.index(ic - 1);
                        let plane = h * w;
                        let (a, b) = input.data().split_at(split * plane);
                        let a = Tensor::from_vec(split, h, w, a.to_vec());
                        let b = Tensor::from_vec(ic - split, h, w, b.to_vec());
                        // A dirty, wrongly sized buffer must be fully overwritten.
                        let mut out = Tensor::from_vec(1, 1, 3, vec![f32::NAN; 3]);
                        conv.forward_into(&[&a, &b], &mut out);
                        assert_eq!(out.bits(), naive.bits(), "{what} split at {split}");
                    }
                    cases += 1;
                }
            }
        }
        assert!(cases > 200, "only {cases} cases ran");
    }

    #[test]
    fn packed_weights_keep_the_seeded_values() {
        // Tap-major storage must not change which weight multiplies which
        // tap: draw the same stream by hand in (out, in, ky, kx) order.
        let (ic, oc, k) = (3, 5, 3);
        let conv = Conv2d::new(ic, oc, k, 1, 1, &mut Pcg32::seeded(21));
        let mut rng = Pcg32::seeded(21);
        let std = (2.0 / (ic * k * k) as f32).sqrt();
        for o in 0..oc {
            for tap in 0..ic * k * k {
                assert_eq!(conv.weights[tap * oc + o], rng.normal_f32() * std);
            }
        }
    }

    #[test]
    fn gru_step_equals_composed_formulation_on_production_shape() {
        // The formulation `step` replaced: three separate 32→16 convolutions
        // (naive loop) over materialised concatenations, out-of-place gates.
        let (hc, xc, h, w) = (16, 16, 7, 6);
        let gru = ConvGru::new(hc, xc, &mut Pcg32::seeded(0xd201d));
        let mut rng = Pcg32::seeded(0xd201d);
        let conv_z = Conv2d::new(hc + xc, hc, 3, 1, 1, &mut rng);
        let conv_r = Conv2d::new(hc + xc, hc, 3, 1, 1, &mut rng);
        let conv_h = Conv2d::new(hc + xc, hc, 3, 1, 1, &mut rng);
        let composed = |hidden: &Tensor, input: &Tensor| {
            let hx = hidden.concat_channels(input);
            let mut z = conv_z.forward_naive(&hx);
            z.sigmoid_inplace();
            let mut r = conv_r.forward_naive(&hx);
            r.sigmoid_inplace();
            let mut rh = hidden.clone();
            for (v, g) in rh.data_mut().iter_mut().zip(r.data()) {
                *v *= g;
            }
            let mut h_tilde = conv_h.forward_naive(&rh.concat_channels(input));
            h_tilde.tanh_inplace();
            let mut out = hidden.clone();
            for i in 0..out.len() {
                let zi = z.data()[i];
                out.data_mut()[i] = (1.0 - zi) * hidden.data()[i] + zi * h_tilde.data()[i];
            }
            out
        };

        let mut data = Pcg32::seeded(5);
        let x = random_tensor(&mut data, xc, h, w);
        let mut expected = random_tensor(&mut data, hc, h, w);
        let mut hidden = expected.clone();
        let mut scratch = GruScratch::default();
        for iteration in 0..8 {
            expected = composed(&expected, &x);
            gru.step(&mut hidden, &x, &mut scratch);
            assert_eq!(hidden.bits(), expected.bits(), "iteration {iteration}");
        }
    }
}
