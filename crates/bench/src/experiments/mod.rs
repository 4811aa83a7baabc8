//! One module per table/figure of the paper's evaluation, plus the §2.2
//! pipeline-vs-parallel study, the §4 containment demo, and the extension
//! studies (new applications, cache partitioning, prediction robustness,
//! the machine-level and cluster-level chaos harnesses).

pub mod ablations;
pub mod adaptive;
pub mod batch;
pub mod chaos;
pub mod cluster_chaos;
pub mod extended;
pub mod fig10;
pub mod fleet_chaos;
pub mod mixes;
pub mod partition;
pub mod results_json;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod pipeline;
pub mod pipeline_batch;
pub mod table1;
pub mod tables;
pub mod throttle;
