//! Adam optimizers for Gaussian parameters and camera poses.

use crate::backward::{GradBuffers, PoseGrad};
use crate::compact::Remap;
use crate::gaussian::GaussianCloud;
use ags_math::{Se3, Vec3};

/// Per-parameter-group learning rates (3DGS-style defaults scaled for the
/// small scenes this workspace trains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate for positions.
    pub lr_position: f32,
    /// Learning rate for log-scales.
    pub lr_log_scale: f32,
    /// Learning rate for rotations.
    pub lr_rotation: f32,
    /// Learning rate for colors.
    pub lr_color: f32,
    /// Learning rate for opacity logits.
    pub lr_opacity: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr_position: 1e-3,
            lr_log_scale: 5e-3,
            lr_rotation: 1e-3,
            lr_color: 2.5e-3,
            lr_opacity: 5e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Moments {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Moments {
    fn ensure(&mut self, n: usize) {
        if self.m.len() < n {
            self.m.resize(n, 0.0);
            self.v.resize(n, 0.0);
        }
    }

    fn remap(&mut self, remap: &Remap, stride: usize) {
        self.m = remap.gather_strided(&self.m, stride);
        self.v = remap.gather_strided(&self.v, stride);
    }
}

/// Adam state over a Gaussian cloud's parameter arrays.
///
/// The state resizes automatically as the cloud grows (densification); newly
/// added Gaussians start with zero moments. When Gaussians are *removed*
/// (pruning) the caller must [`Adam::remap`] with the prune's remap table —
/// ids shift, so stale moments would otherwise be applied to the wrong
/// parameters.
#[derive(Debug, Clone, Default)]
pub struct Adam {
    config: AdamConfig,
    step_count: u64,
    position: Moments,
    log_scale: Moments,
    rotation: Moments,
    color: Moments,
    opacity: Moments,
}

/// Serializable snapshot of one moment pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MomentState {
    /// First moments.
    pub m: Vec<f32>,
    /// Second moments.
    pub v: Vec<f32>,
}

/// Serializable snapshot of the full optimizer state — what a stream
/// checkpoint captures so a restored run continues bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub step_count: u64,
    /// Position moments.
    pub position: MomentState,
    /// Log-scale moments.
    pub log_scale: MomentState,
    /// Rotation moments.
    pub rotation: MomentState,
    /// Color moments.
    pub color: MomentState,
    /// Opacity moments.
    pub opacity: MomentState,
}

impl Adam {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Number of steps taken.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Snapshots the optimizer state for checkpointing.
    pub fn export_state(&self) -> AdamState {
        let export = |mo: &Moments| MomentState { m: mo.m.clone(), v: mo.v.clone() };
        AdamState {
            step_count: self.step_count,
            position: export(&self.position),
            log_scale: export(&self.log_scale),
            rotation: export(&self.rotation),
            color: export(&self.color),
            opacity: export(&self.opacity),
        }
    }

    /// Rebuilds an optimizer from a checkpointed state.
    pub fn from_state(config: AdamConfig, state: AdamState) -> Self {
        let import = |ms: MomentState| Moments { m: ms.m, v: ms.v };
        Self {
            config,
            step_count: state.step_count,
            position: import(state.position),
            log_scale: import(state.log_scale),
            rotation: import(state.rotation),
            color: import(state.color),
            opacity: import(state.opacity),
        }
    }

    /// Compacts the moment arrays after a prune so every surviving Gaussian
    /// keeps its momentum under its new id. `step_count` (and with it the
    /// bias correction schedule) is preserved.
    pub fn remap(&mut self, remap: &Remap) {
        self.position.remap(remap, 3);
        self.log_scale.remap(remap, 3);
        self.rotation.remap(remap, 4);
        self.color.remap(remap, 3);
        self.opacity.remap(remap, 1);
    }

    /// Applies one Adam step to every *touched* Gaussian.
    ///
    /// # Panics
    ///
    /// Panics when `grads` buffers are shorter than the cloud.
    pub fn step(&mut self, cloud: &mut GaussianCloud, grads: &GradBuffers) {
        let n = cloud.len();
        assert!(grads.touched.len() >= n, "gradient buffers shorter than cloud");
        self.step_count += 1;
        self.position.ensure(n * 3);
        self.log_scale.ensure(n * 3);
        self.rotation.ensure(n * 4);
        self.color.ensure(n * 3);
        self.opacity.ensure(n);

        let c = self.config;
        let t = self.step_count as f32;
        let bias1 = 1.0 - c.beta1.powf(t);
        let bias2 = 1.0 - c.beta2.powf(t);

        let update = |m: &mut f32, v: &mut f32, grad: f32, lr: f32, param: &mut f32| {
            *m = c.beta1 * *m + (1.0 - c.beta1) * grad;
            *v = c.beta2 * *v + (1.0 - c.beta2) * grad * grad;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *param -= lr * m_hat / (v_hat.sqrt() + c.eps);
        };

        for (i, g) in cloud.gaussians_mut().iter_mut().enumerate() {
            if !grads.touched[i] {
                continue;
            }
            for axis in 0..3 {
                update(
                    &mut self.position.m[i * 3 + axis],
                    &mut self.position.v[i * 3 + axis],
                    grads.position[i][axis],
                    c.lr_position,
                    &mut g.position[axis],
                );
                update(
                    &mut self.log_scale.m[i * 3 + axis],
                    &mut self.log_scale.v[i * 3 + axis],
                    grads.log_scale[i][axis],
                    c.lr_log_scale,
                    &mut g.log_scale[axis],
                );
                update(
                    &mut self.color.m[i * 3 + axis],
                    &mut self.color.v[i * 3 + axis],
                    grads.color[i][axis],
                    c.lr_color,
                    &mut g.color[axis],
                );
            }
            let mut q = [g.rotation.w, g.rotation.x, g.rotation.y, g.rotation.z];
            for (k, qk) in q.iter_mut().enumerate() {
                update(
                    &mut self.rotation.m[i * 4 + k],
                    &mut self.rotation.v[i * 4 + k],
                    grads.rotation[i][k],
                    c.lr_rotation,
                    qk,
                );
            }
            g.rotation = ags_math::Quat::new(q[0], q[1], q[2], q[3]).normalized();
            update(
                &mut self.opacity.m[i],
                &mut self.opacity.v[i],
                grads.opacity_logit[i],
                c.lr_opacity,
                &mut g.opacity_logit,
            );
            // Keep colors in the renderable range.
            g.color = g.color.max_elem(Vec3::ZERO).min_elem(Vec3::ONE);
        }
    }
}

/// Adam over a 6-DoF pose twist (SplaTAM optimizes camera poses with Adam,
/// with a smaller learning rate on rotation than translation).
#[derive(Debug, Clone)]
pub struct PoseAdam {
    lr_translation: f32,
    lr_rotation: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: [f32; 6],
    v: [f32; 6],
    t: u64,
}

impl PoseAdam {
    /// Creates a pose optimizer with the given translation learning rate;
    /// the rotation rate defaults to a quarter of it (SplaTAM-style), which
    /// tames the translation/rotation gauge valley of near-planar scenes.
    pub fn new(lr: f32) -> Self {
        Self::with_rates(lr, lr * 0.25)
    }

    /// Creates a pose optimizer with explicit translation/rotation rates.
    pub fn with_rates(lr_translation: f32, lr_rotation: f32) -> Self {
        Self {
            lr_translation,
            lr_rotation,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: [0.0; 6],
            v: [0.0; 6],
            t: 0,
        }
    }

    /// Resets moments (call when starting a new frame's refinement).
    pub fn reset(&mut self) {
        self.m = [0.0; 6];
        self.v = [0.0; 6];
        self.t = 0;
    }

    /// Applies one step, returning the updated camera-to-world pose.
    pub fn step(&mut self, pose_c2w: &Se3, grad: &PoseGrad) -> Se3 {
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powf(self.t as f32);
        let bias2 = 1.0 - self.beta2.powf(self.t as f32);
        let mut twist = [0.0f32; 6];
        for (k, tw) in twist.iter_mut().enumerate() {
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * grad.twist[k];
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * grad.twist[k] * grad.twist[k];
            let m_hat = self.m[k] / bias1;
            let v_hat = self.v[k] / bias2;
            let lr = if k < 3 { self.lr_translation } else { self.lr_rotation };
            *tw = -lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        let w2c = pose_c2w.inverse();
        (Se3::exp(&twist) * w2c).inverse().renormalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;

    fn one_gaussian_cloud() -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.2, Vec3::splat(0.5), 0.5));
        cloud
    }

    fn grads_with_color_x(n: usize, idx: usize, g: f32) -> GradBuffers {
        let mut grads = GradBuffers::zeros(n);
        grads.touched[idx] = true;
        grads.color[idx].x = g;
        grads
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut cloud = one_gaussian_cloud();
        let before = cloud.gaussians()[0].color.x;
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut cloud, &grads_with_color_x(1, 0, 1.0));
        assert!(cloud.gaussians()[0].color.x < before, "positive gradient decreases param");
        assert_eq!(adam.step_count(), 1);
    }

    #[test]
    fn untouched_gaussians_do_not_move() {
        let mut cloud = one_gaussian_cloud();
        cloud.push(Gaussian::isotropic(Vec3::new(1.0, 0.0, 2.0), 0.2, Vec3::splat(0.5), 0.5));
        let before = cloud.gaussians()[1];
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut cloud, &grads_with_color_x(2, 0, 1.0));
        assert_eq!(cloud.gaussians()[1], before);
    }

    #[test]
    fn state_resizes_after_densification() {
        let mut cloud = one_gaussian_cloud();
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut cloud, &grads_with_color_x(1, 0, 1.0));
        cloud.push(Gaussian::isotropic(Vec3::new(0.5, 0.0, 2.0), 0.2, Vec3::splat(0.5), 0.5));
        // Now two Gaussians; must not panic.
        adam.step(&mut cloud, &grads_with_color_x(2, 1, 0.5));
        assert_eq!(adam.step_count(), 2);
    }

    #[test]
    fn rotation_stays_normalized() {
        let mut cloud = one_gaussian_cloud();
        let mut grads = GradBuffers::zeros(1);
        grads.touched[0] = true;
        grads.rotation[0] = [0.5, -0.3, 0.2, 0.7];
        let mut adam = Adam::new(AdamConfig::default());
        for _ in 0..10 {
            adam.step(&mut cloud, &grads);
        }
        let q = cloud.gaussians()[0].rotation;
        assert!((q.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn colors_stay_in_unit_range() {
        let mut cloud = one_gaussian_cloud();
        let mut adam = Adam::new(AdamConfig { lr_color: 0.5, ..Default::default() });
        for _ in 0..20 {
            adam.step(&mut cloud, &grads_with_color_x(1, 0, 1.0));
        }
        let c = cloud.gaussians()[0].color;
        assert!(c.x >= 0.0, "color clamped at zero, got {}", c.x);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (color.x - 0.9)^2 via its gradient.
        let mut cloud = one_gaussian_cloud();
        let mut adam = Adam::new(AdamConfig { lr_color: 0.05, ..Default::default() });
        for _ in 0..300 {
            let x = cloud.gaussians()[0].color.x;
            adam.step(&mut cloud, &grads_with_color_x(1, 0, 2.0 * (x - 0.9)));
        }
        assert!((cloud.gaussians()[0].color.x - 0.9).abs() < 0.05);
    }

    #[test]
    fn remap_keeps_survivor_moments_under_new_ids() {
        let mut cloud = one_gaussian_cloud();
        cloud.push(Gaussian::isotropic(Vec3::new(1.0, 0.0, 2.0), 0.2, Vec3::splat(0.5), 0.5));
        cloud.push(Gaussian::isotropic(Vec3::new(2.0, 0.0, 2.0), 0.2, Vec3::splat(0.5), 0.5));
        let mut adam = Adam::new(AdamConfig::default());
        // Give id 2 distinctive momentum, id 0 some other momentum.
        adam.step(&mut cloud, &grads_with_color_x(3, 2, 0.7));
        adam.step(&mut cloud, &grads_with_color_x(3, 0, 0.3));
        let before = adam.export_state();
        // Prune id 1: id 2 becomes id 1.
        let remap = Remap::from_keep(&[true, false, true]);
        adam.remap(&remap);
        let after = adam.export_state();
        assert_eq!(after.step_count, before.step_count);
        assert_eq!(after.color.m[0], before.color.m[0]);
        assert_eq!(after.color.m[3], before.color.m[6]);
        assert_eq!(after.color.v[3], before.color.v[6]);
        assert_eq!(after.opacity.m.len(), 2);
        assert_eq!(after.rotation.m.len(), 8);
    }

    #[test]
    fn pose_adam_descends() {
        // dL/dtwist constant in +x: pose should translate in -x (in w2c frame).
        let mut opt = PoseAdam::new(0.01);
        let mut pose = Se3::IDENTITY;
        let grad = PoseGrad { twist: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0] };
        for _ in 0..5 {
            pose = opt.step(&pose, &grad);
        }
        // w2c translation decreased along x => c2w translation increased.
        assert!(pose.translation.x > 0.0);
        opt.reset();
        assert_eq!(opt.m, [0.0; 6]);
    }
}
