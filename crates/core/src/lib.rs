//! # urcl-core
//!
//! The Unified Replay-based Continuous Learning framework (URCL) of
//! *Miao et al., ICDE 2024* — the paper's primary contribution, built on
//! the substrates in the sibling crates.
//!
//! The framework's three modules (Fig. 1) map onto this crate as:
//!
//! * **Data integration** — [`replay::ReplayBuffer`] stores previously
//!   learned observations; [`rmir`] implements the ranking-based maximally
//!   interfered retrieval sampler (Eq. 3 + Pearson ranking); [`mixup`]
//!   fuses replayed and current observations with λ ~ Beta(α, α)
//!   (Eq. 4–5).
//! * **Spatio-temporal continuous representation learning (STCRL)** —
//!   [`augment`] provides the five augmentations DN/DE/SG/AE/TS
//!   (Eq. 6–11); [`simsiam::StSimSiam`] is the two-encoder + projector
//!   network trained with the symmetric GraphCL loss (Eq. 12–16).
//! * **Spatio-temporal prediction** — any [`urcl_models::Backbone`]
//!   supplies the shared STEncoder and the STDecoder (Eq. 17, 27–28).
//!
//! [`trainer::ContinualTrainer`] ties it all together following
//! Algorithm 1, and also implements the paper's comparison strategies
//! (OneFitAll, FinetuneST) and the four ablations of Fig. 6.

#![warn(missing_docs)]

pub mod augment;
pub mod ewc;
pub mod metrics;
pub mod mixup;
pub mod persist;
pub mod pipeline;
pub mod replay;
pub mod rmir;
pub mod simsiam;
pub mod trainer;

pub use augment::{Augmentation, AugmentedView, TimeShiftKind};
pub use ewc::EwcState;
pub use metrics::{mae, rmse, Metrics};
pub use mixup::st_mixup;
pub use persist::{Checkpoint, CheckpointDir, CheckpointFingerprint, PersistError, PipelineState};
pub use pipeline::UrclPipeline;
pub use replay::ReplayBuffer;
pub use rmir::{rmir_sample, RmirStats};
pub use simsiam::StSimSiam;
pub use trainer::{
    Ablation, ContinualTrainer, ForwardPlan, HookAction, NoopHook, RunOutcome, RunReport,
    SetReport, StepBudget, StepInfo, Strategy, TaskLossPlan, TrainCursor, TrainHook, TrainerConfig,
    TrainerSnapshot,
};
pub use urcl_trace::Stopwatch;
