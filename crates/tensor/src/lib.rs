//! # fca-tensor
//!
//! Dense, row-major, `f32` tensor library underpinning the FedClassAvg
//! reproduction. The design goals, in order:
//!
//! 1. **Correctness** — every numeric kernel has a naive reference
//!    implementation it is property-tested against.
//! 2. **Throughput on CPU** — convolutions run on the packed,
//!    register-blocked GEMM engine in [`gemm`] (MR×NR microkernel, KC/MC/NC
//!    cache blocking); elementwise kernels operate on contiguous slices so
//!    LLVM can autovectorize them. Every kernel runs on its caller's thread:
//!    the one parallel layer is `fca-core`'s client waves.
//! 3. **Determinism** — all randomness flows through explicitly seeded
//!    generators from [`rng`]; no global RNG state.
//!
//! The API is deliberately small: the [`Tensor`] type plus free-function
//! kernels in [`linalg`] and [`ops`]. Higher layers (`fca-nn`) build layer
//! semantics on top.
//!
//! Slice-level products have one checked entry, [`linalg::gemm`], and one
//! precision, f32. It carries `fca-trace` probes (pack vs. kernel time,
//! flop counts); tracing observes and never branches, so traced results
//! stay bit-identical to untraced ones — see `linalg`'s module docs and
//! DESIGN.md §7.4.
//!
//! GEMM kernels are selected once per process by [`simd::active`]
//! (runtime CPUID dispatch: scalar / AVX2+FMA / AVX-512, overridable via
//! `FCA_GEMM_KERNEL`); all arms are bit-identical.

#![warn(missing_docs)]

pub mod gemm;
pub mod linalg;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod workspace;

pub use shape::Shape;
pub use simd::Kernel;
pub use tensor::Tensor;
pub use workspace::{PoolStats, SlotId, Workspace, WorkspacePool, WorkspaceStats};

/// Convenience prelude importing the types and traits most users need.
pub mod prelude {
    pub use crate::linalg::matmul;
    pub use crate::rng::{derive_seed, seeded_rng};
    pub use crate::shape::Shape;
    pub use crate::tensor::Tensor;
    pub use crate::workspace::{PoolStats, SlotId, Workspace, WorkspacePool, WorkspaceStats};
}
