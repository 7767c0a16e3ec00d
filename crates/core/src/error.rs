//! Workspace-wide error type.

use std::fmt;

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, DappleError>;

/// Errors produced by the DAPPLE planner, profiler, simulator and engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DappleError {
    /// A requested configuration is structurally invalid (bad layer range,
    /// zero devices, zero micro-batches, ...).
    InvalidConfig(String),
    /// Device memory capacity would be exceeded.
    ///
    /// Carries a human-readable description of what overflowed where.
    OutOfMemory(String),
    /// The planner could not produce any feasible plan.
    NoFeasiblePlan(String),
    /// Device allocation failed (not enough free devices for a policy).
    AllocationFailed(String),
    /// A pipeline worker waited longer than the configured receive
    /// timeout for a boundary message or, on a replicated stage's replica
    /// 0, its peers' gradients. `step` is the index into the
    /// stage's deterministic step order
    /// (`dapple_sim::schedule::stage_order`).
    Stalled {
        /// Stage whose worker timed out.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// Step index the worker was blocked on.
        step: usize,
    },
    /// A pipeline worker thread panicked; the payload is preserved.
    WorkerPanicked {
        /// Stage whose worker panicked.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A micro-batch produced a NaN/Inf loss or gradient value, which
    /// fails the step: a finished step carries exactly the batch's
    /// gradient.
    NonFinite {
        /// Stage that detected the non-finite contribution.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// Micro-batch whose gradient contribution was non-finite.
        micro: usize,
    },
    /// A worker received rows beyond its schedule (a duplicated message:
    /// a "trailing message", at an over-full receive or after the step).
    ChannelProtocol {
        /// Stage that observed the violation.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// What was observed.
        detail: String,
    },
    /// A worker was stopped at this step because another op of the step
    /// failed first: its wait received the step's stop, its thread
    /// stopped, or a peer it sent to had exited. Always fallout, so the
    /// coordinator reports the root cause in preference to this.
    ChannelClosed {
        /// Stage whose worker lost the channel.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// Step index the worker was blocked on.
        step: usize,
    },
    /// The recovery supervisor gave up on a training step: every retry
    /// budgeted by the policy failed (and no degraded-mode fallback was
    /// left). Carries the coordinates of the last failure so operators
    /// can locate the sick worker.
    RetriesExhausted {
        /// Stage of the last observed failure.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// Training-step number that could not be completed.
        step: u64,
        /// How many attempts were made (including the first).
        attempts: usize,
        /// The error of the final attempt.
        last: Box<DappleError>,
    },
    /// A training step failed with an error the retry policy classifies
    /// as fatal (misconfiguration rather than a transient fault) —
    /// retrying would deterministically fail again.
    FatalFault {
        /// Training-step number the fatal error surfaced at.
        step: u64,
        /// The underlying error.
        source: Box<DappleError>,
    },
    /// A checkpoint carried a per-layer shard that failed its integrity
    /// check. Names the bad shard so operators can tell which layer's
    /// record is damaged without parsing the file.
    ShardCorrupt {
        /// Position of the shard record within its checkpoint file.
        shard: usize,
        /// Layer index the shard claims to hold.
        layer: usize,
        /// What failed (checksum mismatch, truncation, bad layer id).
        detail: String,
    },
}

impl fmt::Display for DappleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DappleError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            DappleError::OutOfMemory(m) => write!(f, "out of device memory: {m}"),
            DappleError::NoFeasiblePlan(m) => write!(f, "no feasible plan: {m}"),
            DappleError::AllocationFailed(m) => write!(f, "device allocation failed: {m}"),
            DappleError::Stalled {
                stage,
                replica,
                step,
            } => write!(
                f,
                "pipeline stalled: stage {stage} replica {replica} timed out at step {step}"
            ),
            DappleError::WorkerPanicked {
                stage,
                replica,
                message,
            } => write!(
                f,
                "worker panicked: stage {stage} replica {replica}: {message}"
            ),
            DappleError::NonFinite {
                stage,
                replica,
                micro,
            } => write!(
                f,
                "non-finite gradients: stage {stage} replica {replica} micro-batch {micro}"
            ),
            DappleError::ChannelProtocol {
                stage,
                replica,
                detail,
            } => write!(
                f,
                "channel protocol violation: stage {stage} replica {replica}: {detail}"
            ),
            DappleError::ChannelClosed {
                stage,
                replica,
                step,
            } => write!(
                f,
                "channel closed: stage {stage} replica {replica} disconnected at step {step}"
            ),
            DappleError::RetriesExhausted {
                stage,
                replica,
                step,
                attempts,
                last,
            } => write!(
                f,
                "retries exhausted: training step {step} failed {attempts} times, \
                 last at stage {stage} replica {replica}: {last}"
            ),
            DappleError::FatalFault { step, source } => {
                write!(f, "fatal fault at training step {step}: {source}")
            }
            DappleError::ShardCorrupt {
                shard,
                layer,
                detail,
            } => write!(
                f,
                "corrupt checkpoint shard {shard} (layer {layer}): {detail}"
            ),
        }
    }
}

impl std::error::Error for DappleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = DappleError::OutOfMemory("stage 0 needs 20 GB on a 16 GB device".into());
        let s = e.to_string();
        assert!(s.contains("out of device memory"));
        assert!(s.contains("20 GB"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DappleError::InvalidConfig("x".into()));
    }

    #[test]
    fn runtime_errors_carry_coordinates() {
        let cases = [
            (
                DappleError::Stalled {
                    stage: 1,
                    replica: 0,
                    step: 5,
                },
                "stalled",
            ),
            (
                DappleError::WorkerPanicked {
                    stage: 2,
                    replica: 1,
                    message: "boom".into(),
                },
                "panicked",
            ),
            (
                DappleError::NonFinite {
                    stage: 1,
                    replica: 0,
                    micro: 3,
                },
                "non-finite",
            ),
            (
                DappleError::ChannelProtocol {
                    stage: 0,
                    replica: 0,
                    detail: "duplicate rows".into(),
                },
                "protocol",
            ),
            (
                DappleError::ChannelClosed {
                    stage: 2,
                    replica: 0,
                    step: 7,
                },
                "closed",
            ),
        ];
        for (err, needle) in cases {
            let s = err.to_string();
            assert!(s.contains(needle), "{s} should mention {needle}");
            assert!(s.contains("stage"), "{s} should carry coordinates");
        }
    }

    #[test]
    fn recovery_errors_carry_coordinates_and_cause() {
        let last = DappleError::Stalled {
            stage: 1,
            replica: 0,
            step: 5,
        };
        let e = DappleError::RetriesExhausted {
            stage: 1,
            replica: 0,
            step: 42,
            attempts: 3,
            last: Box::new(last.clone()),
        };
        let s = e.to_string();
        assert!(s.contains("retries exhausted"));
        assert!(s.contains("step 42"));
        assert!(s.contains("3 times"));
        assert!(s.contains("stalled"), "cause must be rendered: {s}");
        let f = DappleError::FatalFault {
            step: 7,
            source: Box::new(DappleError::InvalidConfig("bad split".into())),
        };
        let s = f.to_string();
        assert!(s.contains("fatal fault at training step 7"));
        assert!(s.contains("bad split"));
        assert_eq!(e.clone(), e);
        assert_ne!(e, f);
    }

    #[test]
    fn shard_corrupt_names_the_shard() {
        let e = DappleError::ShardCorrupt {
            shard: 3,
            layer: 5,
            detail: "checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("shard 3"));
        assert!(s.contains("layer 5"));
        assert!(s.contains("checksum mismatch"));
    }

    #[test]
    fn runtime_errors_compare_structurally() {
        let a = DappleError::Stalled {
            stage: 1,
            replica: 0,
            step: 5,
        };
        assert_eq!(a.clone(), a);
        assert_ne!(
            a,
            DappleError::Stalled {
                stage: 1,
                replica: 0,
                step: 6,
            }
        );
    }
}
