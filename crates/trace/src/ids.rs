//! Static registries of instrumented operations and round phases.
//!
//! Hot-path probes index a fixed array of atomic counters by these ids, so
//! recording an op costs three relaxed atomic adds and no allocation, lock,
//! or hash. Adding an op/phase means adding a variant here plus its entry
//! in `ALL`/`as_str` — the journal schema itself does not change (names
//! travel as strings), so [`crate::event::SCHEMA_VERSION`] stays put.

/// Instrumented operations, ordered roughly bottom-up through the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpId {
    /// GEMM operand packing (pack_a + pack_b) on any path.
    GemmPack,
    /// The packed register-blocked GEMM engine; carries the canonical
    /// `2·m·k·n` flop count.
    GemmKernel,
    /// `C += A·B` calls of the one GEMM entry (`Layout::Nn`).
    GemmNn,
    /// `C += Aᵀ·B` calls (`Layout::Tn`).
    GemmTn,
    /// `C += A·Bᵀ` calls (`Layout::Nt`).
    GemmNt,
    /// Convolution input lowering: the im2col matrix, or the zero-bordered
    /// copy of an image.
    Im2col,
    /// Convolution gradient fold: col2im's scatter-add, or the copy of the
    /// interior out of padded input-gradient planes.
    Col2im,
    /// Whole `Conv2d::forward` call.
    ConvForward,
    /// Whole `Conv2d::backward` call.
    ConvBackward,
    /// Whole `Linear` forward call (training or inference path).
    LinearForward,
    /// Whole `Linear::backward` call.
    LinearBackward,
}

impl OpId {
    /// Number of registered operations.
    pub const COUNT: usize = 11;

    /// Every operation, in counter-array order.
    pub const ALL: [OpId; Self::COUNT] = [
        OpId::GemmPack,
        OpId::GemmKernel,
        OpId::GemmNn,
        OpId::GemmTn,
        OpId::GemmNt,
        OpId::Im2col,
        OpId::Col2im,
        OpId::ConvForward,
        OpId::ConvBackward,
        OpId::LinearForward,
        OpId::LinearBackward,
    ];

    /// The journal name of this operation.
    pub fn as_str(self) -> &'static str {
        match self {
            OpId::GemmPack => "gemm_pack",
            OpId::GemmKernel => "gemm_kernel",
            OpId::GemmNn => "gemm_nn",
            OpId::GemmTn => "gemm_tn",
            OpId::GemmNt => "gemm_nt",
            OpId::Im2col => "im2col",
            OpId::Col2im => "col2im",
            OpId::ConvForward => "conv_forward",
            OpId::ConvBackward => "conv_backward",
            OpId::LinearForward => "linear_forward",
            OpId::LinearBackward => "linear_backward",
        }
    }
}

/// The phases of one synchronous federated round, plus evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseId {
    /// Pre-round fleet re-sharding under a drift schedule.
    Drift,
    /// Server→client sends at round start.
    Broadcast,
    /// Parallel client-local training (and distillation, for the
    /// knowledge-transfer algorithms).
    LocalTrain,
    /// Deadline-bounded server collection of uplinks.
    Collect,
    /// Server-side aggregation/coefficient work.
    Aggregate,
    /// Fleet evaluation at curve points.
    Evaluate,
}

impl PhaseId {
    /// Number of registered phases.
    pub const COUNT: usize = 6;

    /// Every phase, in counter-array order.
    pub const ALL: [PhaseId; Self::COUNT] = [
        PhaseId::Drift,
        PhaseId::Broadcast,
        PhaseId::LocalTrain,
        PhaseId::Collect,
        PhaseId::Aggregate,
        PhaseId::Evaluate,
    ];

    /// The journal name of this phase.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseId::Drift => "drift_reshard",
            PhaseId::Broadcast => "broadcast",
            PhaseId::LocalTrain => "local_train",
            PhaseId::Collect => "collect",
            PhaseId::Aggregate => "aggregate",
            PhaseId::Evaluate => "evaluate",
        }
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
