//! Weight initializers (He / Xavier), matching the PyTorch defaults the
//! paper's models rely on.

use fca_tensor::{Shape, Tensor};
use rand::Rng;

/// Kaiming (He) normal initialization for ReLU networks:
/// `std = sqrt(2 / fan_in)`.
pub fn kaiming_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(shape, std, rng)
}

/// Xavier (Glorot) uniform initialization:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Tensor::rand_uniform(shape, -a, a, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = seeded_rng(41);
        let t = kaiming_normal([64, 128], 128, &mut rng);
        let var = t.sq_norm() / t.numel() as f32;
        let expect = 2.0 / 128.0;
        assert!(
            (var - expect).abs() < expect * 0.2,
            "var {var} vs expected {expect}"
        );
    }

    #[test]
    fn xavier_bounds_respected() {
        let mut rng = seeded_rng(42);
        let t = xavier_uniform([32, 32], 32, 32, &mut rng);
        let a = (6.0f32 / 64.0).sqrt();
        assert!(t.data().iter().all(|&v| v >= -a && v < a));
    }
}
