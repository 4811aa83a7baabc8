//! # pp-core — predictable performance for software packet processing
//!
//! The primary contribution of *Toward Predictable Performance in Software
//! Packet-Processing Platforms* (Dobrescu, Argyraki, Ratnasamy — NSDI
//! 2012), reimplemented as a library:
//!
//! * **Profiling** ([`profiler`]) — solo-run characterization of each
//!   packet-processing flow type (Table 1): refs/sec, hits/sec, CPI,
//!   per-packet cache behaviour.
//! * **Sensitivity curves** ([`sensitivity`]) — a target's drop as a
//!   function of competing L3 refs/sec, measured against a SYN ramp
//!   (Figs. 4, 5).
//! * **Prediction** ([`predictor`]) — the paper's three-step method: sum
//!   the co-runners' *solo* refs/sec and read the target's curve there.
//!   The paper (and this reproduction) achieve errors below 3% (Figs. 8, 9).
//! * **Analytical models** ([`model`]) — Equation 1's worst-case bound
//!   (Fig. 6) and the Appendix A cache-sharing model explaining the
//!   conversion-rate shape (Fig. 7).
//! * **Placement study** ([`placement`]) — exhaustive best/worst flow-to-
//!   core placement evaluation, showing contention-aware scheduling buys
//!   only ~2% for realistic mixes (Fig. 10).
//! * **Containment** ([`throttle`]) — monitoring + control-element
//!   feedback that clamps a flow to its profiled refs/sec (§4).
//! * **Adaptive batch control** ([`batch_control`]) — beyond the paper:
//!   the closed loop that picks each flow's datapath batch size from the
//!   fitted `F/b + p` (+ `C/b + S·ceil(b/L)/b` for pipelines) cost models
//!   subject to a p99 latency budget, and re-validates the contention
//!   predictor on the batched datapath; the adaptive sweep (`repro
//!   adaptive`) verifies every decision against the measured latency
//!   histogram.
//! * **Runtime guard** ([`guard`]) — beyond the paper: the windowed
//!   envelope check and hysteresis-protected degradation ladder
//!   (re-probe → shrink batch → throttle → shed) that keeps the closed
//!   loop honest under churn, overload, and loss (`repro chaos`).
//! * **Tenant supervisor** ([`supervisor`]) — beyond the paper: one guard
//!   per admitted flow composed into a machine-level control plane —
//!   circuit-breaker admission with jittered half-open probes, core
//!   failover under sustained violation, and drift-triggered model
//!   re-calibration (`repro fleet-chaos`).
//! * **Fleet controller** ([`fleet`], [`telemetry`]) — beyond the paper:
//!   the cluster-level control plane — timestamped EWMA telemetry with
//!   staleness-decayed confidence, heartbeat-timeout machine-death
//!   detection with capped probe backoff, and budgeted admission-gated
//!   re-placement across survivors (`repro cluster-chaos`).
//! * **Tenant runtime** ([`tenant`]) — the mechanism side of those three
//!   controllers, shared by their drivers: the measurement-window
//!   protocol, the ladder's knob writes, and the placement-anchored
//!   conservation ledger.
//!
//! The measurement substrate is `pp-sim` (a deterministic multicore
//! simulator) with workloads from `pp-click`; see ARCHITECTURE.md at the
//! repository root for the crate map and charging-model invariants.
//!
//! ## Example: predict a mix you never measured
//!
//! ```no_run
//! use pp_core::prelude::*;
//!
//! // Offline: profile each type alone (solo run + SYN ramp).
//! let params = ExpParams::paper();
//! let predictor = Predictor::profile(
//!     &[FlowType::Mon, FlowType::Fw, FlowType::Vpn],
//!     8,
//!     params,
//!     default_threads(),
//! );
//!
//! // Online: predict MON's drop in a mix that was never co-run.
//! let drop = predictor.predict_drop(
//!     FlowType::Mon,
//!     &[FlowType::Fw, FlowType::Fw, FlowType::Vpn, FlowType::Vpn, FlowType::Mon],
//! );
//! println!("expected MON drop: {drop:.1}%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch_control;
pub mod experiment;
pub mod fleet;
pub mod guard;
pub mod model;
pub mod placement;
pub mod predictor;
pub mod profiler;
pub mod report;
pub mod sensitivity;
pub mod supervisor;
pub mod telemetry;
pub mod tenant;
pub mod throttle;
pub mod workload;

/// Glob-import of the commonly used names.
pub mod prelude {
    pub use crate::admission::{AdmissionController, AdmissionDecision, FlowVerdict, Sla};
    pub use crate::batch_control::{
        plan_socket, revalidate_predictor, BatchChoice, BatchController, BatchProbe,
        LatencyBudget, Revalidation, SocketPlan, CANDIDATE_BATCHES,
    };
    pub use crate::experiment::{
        corun_against_solo, corun_mixes, corun_scenario, default_threads, run_corun,
        run_many, run_scenario, solo_scenario, ContentionConfig, CoRunOutcome,
        ExpParams, FlowPlacement, FlowResult, LatencySummary, Scenario, ScenarioResult,
    };
    pub use crate::fleet::{FleetAction, FleetConfig, FleetController, MachineState};
    pub use crate::guard::{
        DegradeLevel, GuardConfig, GuardDirective, GuardEnvelope, GuardTransition,
        RuntimeGuard, WindowObservation,
    };
    pub use crate::model::{
        eq1_drop, worst_case_drop, BatchAmortization, CacheModel, CrossCoreHandoff,
        PAPER_DELTA_SECS,
    };
    pub use crate::placement::{
        enumerate_placements, evaluate_measured, evaluate_predicted, study_measured,
        study_predicted, Placement, PlacementEval,
    };
    pub use crate::predictor::{ErrorStats, MixPrediction, PredictionError, Predictor};
    pub use crate::profiler::SoloProfile;
    pub use crate::report::{f as fmt_f, millions, Table};
    pub use crate::sensitivity::SensitivityCurve;
    pub use crate::supervisor::{
        Supervisor, SupervisorAction, SupervisorConfig, SupervisorDirective, TenantId,
        TenantState, TenantStats,
    };
    pub use crate::telemetry::{EwmaTracker, TelemetryReport, TenantTelemetry};
    pub use crate::tenant::{conservation_slack, observed_loss, TenantRt, SHED_PER_MILLE};
    pub use crate::throttle::{
        run_containment_demo, ContainmentResult, ContainmentSample, ThrottleController,
    };
    pub use crate::workload::{FlowType, Scale, EXTENDED, REALISTIC};
}
