//! Static registries of instrumented operations and round phases.
//!
//! Hot-path probes index a fixed array of atomic counters by these ids, so
//! recording an op costs three relaxed atomic adds and no allocation, lock,
//! or hash. Adding an op or phase is one line in its `registry!` list,
//! `Variant = "journal_name"`: the variant's counter cell, its place in
//! `ALL` and its journal name all follow from that line. The journal
//! schema itself does not change (names travel as strings), so
//! [`crate::event::SCHEMA_VERSION`] stays put.

/// Declares an id enum from one list of `Variant = "journal_name"` and
/// derives `COUNT`, `ALL` (the counter-array order, which is the list's)
/// and `as_str` from it.
macro_rules! registry {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $journal:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Number of registered ids.
            pub const COUNT: usize = Self::ALL.len();

            /// Every id, in counter-array order.
            pub const ALL: [$name; [$($journal),*].len()] = [$($name::$variant),*];

            /// The journal name of this id.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $journal, )*
                }
            }
        }
    };
}

registry! {
    /// Instrumented operations, ordered roughly bottom-up through the stack.
    pub enum OpId {
        /// GEMM operand packing (pack_a + pack_b) on any path.
        GemmPack = "gemm_pack",
        /// The packed register-blocked GEMM engine; carries the canonical
        /// `2·m·k·n` flop count.
        GemmKernel = "gemm_kernel",
        /// `C += A·B` calls of the one GEMM entry (`Layout::Nn`).
        GemmNn = "gemm_nn",
        /// `C += Aᵀ·B` calls (`Layout::Tn`).
        GemmTn = "gemm_tn",
        /// `C += A·Bᵀ` calls (`Layout::Nt`).
        GemmNt = "gemm_nt",
        /// Convolution forward operand: the zero-bordered copy of an image
        /// that the products read in place (the name is the lowering it
        /// replaced).
        Im2col = "im2col",
        /// Convolution input-gradient operand and fold: the zero-bordered
        /// copy of an image's output gradient that the product reads in
        /// place, or, on the `dcol` path (below `MR` input channels per
        /// group, strided 1×1 kernels), col2im's scatter-add.
        Col2im = "col2im",
        /// Whole `Conv2d::forward` call.
        ConvForward = "conv_forward",
        /// Whole `Conv2d::backward` call.
        ConvBackward = "conv_backward",
        /// Whole `Linear` forward call (training or inference path).
        LinearForward = "linear_forward",
        /// Whole `Linear::backward` call.
        LinearBackward = "linear_backward",
    }
}

registry! {
    /// The phases of one synchronous federated round, plus evaluation.
    pub enum PhaseId {
        /// Pre-round fleet re-sharding under a drift schedule.
        Drift = "drift_reshard",
        /// Server→client sends at round start.
        Broadcast = "broadcast",
        /// Parallel client-local training (and distillation, for the
        /// knowledge-transfer algorithms).
        LocalTrain = "local_train",
        /// Deadline-bounded server collection of uplinks.
        Collect = "collect",
        /// Server-side aggregation/coefficient work.
        Aggregate = "aggregate",
        /// Fleet evaluation at curve points.
        Evaluate = "evaluate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        assert_eq!(OpId::ALL.len(), OpId::COUNT);
        assert_eq!(PhaseId::ALL.len(), PhaseId::COUNT);
        for (i, op) in OpId::ALL.iter().enumerate() {
            assert_eq!(OpId::ALL.iter().position(|o| o == op), Some(i));
            assert!(!op.as_str().is_empty());
        }
        let mut names: Vec<&str> = OpId::ALL.iter().map(|o| o.as_str()).collect();
        names.extend(PhaseId::ALL.iter().map(|p| p.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate op/phase journal name");
    }
}
