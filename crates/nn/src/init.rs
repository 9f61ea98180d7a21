//! The weight initializer (He), matching the PyTorch default the paper's
//! models rely on.

use fca_tensor::rng::SnapRng;
use fca_tensor::{Shape, Tensor};

/// Kaiming (He) normal initialization for ReLU networks:
/// `std = sqrt(2 / fan_in)`.
pub fn kaiming_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut SnapRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(shape, std, rng)
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
}
