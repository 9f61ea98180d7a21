//! # fca-nn
//!
//! Neural-network layers with **manual backpropagation**, the training
//! substrate of the FedClassAvg reproduction. The Rust deep-learning
//! ecosystem is not mature enough for this workload, so the stack is built
//! from scratch on top of `fca-tensor`.
//!
//! Design: instead of a dynamic autograd tape, every [`Module`] caches what
//! its backward pass needs during `forward` and exposes an explicit
//! `backward` that consumes the upstream gradient and accumulates parameter
//! gradients. Composite modules ([`structure::Sequential`],
//! [`structure::Residual`], [`structure::InceptionBlock`]) route gradients
//! through their children, which is sufficient for the block-structured
//! CNNs the paper evaluates and keeps the hot path allocation-light and
//! easy to reason about.
//!
//! The [`loss`] module implements the paper's composite objective: the
//! supervised contrastive loss of Khosla et al. (with exact analytic
//! gradient, finite-difference-verified), cross-entropy, the L2 proximal
//! classifier regularizer, plus the KL-distillation and prototype losses
//! the KT-pFL and FedProto baselines need.

pub mod activation;
pub mod conv;
pub mod gradcheck;
pub mod init;
pub mod linear;
pub mod loss;
pub mod module;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod structure;

pub use module::{Module, Param};

/// Convenience prelude importing the layer types and core traits.
pub mod prelude {
    pub use crate::activation::{Dropout, Relu};
    pub use crate::conv::Conv2d;
    pub use crate::linear::Linear;
    pub use crate::module::{Module, Param};
    pub use crate::norm::BatchNorm2d;
    pub use crate::optim::{Adam, Optimizer};
    pub use crate::pool::{GlobalAvgPool, MaxPool2d};
    pub use crate::structure::{ChannelShuffle, Flatten, InceptionBlock, Residual, Sequential};
}
