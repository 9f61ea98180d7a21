//! The compute precision: f32, and only f32.
//!
//! Every product in the workspace accumulates and stores f32. [`Precision`]
//! is the one-valued type `FedConfig::eval_precision` still carries because
//! `benchmark/` names both in a config literal; ROADMAP item 4 sends it out
//! with the paired benchmark change.

/// Numeric precision of every forward pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 compute.
    #[default]
    F32,
}

impl Precision {
    /// Stable lowercase name (`f32`), as recorded in the trace `run_start`
    /// event.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_default_and_as_str() {
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F32.as_str(), "f32");
    }
}
