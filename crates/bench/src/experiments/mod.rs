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
pub mod sweep;
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

use pp_click::elements::synthetic::SynParams;
use pp_click::pipelines::{build_flow, ChainKind, FlowSpec};
use pp_core::prelude::{fmt_f, ExpParams, FlowType, Scale, Table, REALISTIC};
use pp_sim::config::MachineConfig;
use pp_sim::engine::{CoreTask, Engine, Measurement};
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};

/// Every `target` against five co-runners of each `competitors` type,
/// target-major: the homogeneous mixes of Figs. 2 and 8.
pub(crate) fn five_of_each(
    targets: &[FlowType],
    competitors: &[FlowType],
) -> Vec<(FlowType, Vec<FlowType>)> {
    targets.iter().flat_map(|&t| competitors.iter().map(move |&c| (t, vec![c; 5]))).collect()
}

/// The `REALISTIC × REALISTIC` matrix table of Figs. 2(a), 8(a) and 8(b):
/// a row per target, a `5x NAME<unit>` column per competitor type, filled
/// from `cell(index into five_of_each(&REALISTIC, &REALISTIC))`.
pub(crate) fn pair_matrix(title: &str, unit: &str, cell: impl Fn(usize) -> f64) -> Table {
    let mut headers = vec!["target".to_string()];
    headers.extend(REALISTIC.iter().map(|c| format!("5x {}{unit}", c.name())));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for (ti, t) in REALISTIC.iter().enumerate() {
        let cells = (0..REALISTIC.len()).map(|ci| fmt_f(cell(ti * REALISTIC.len() + ci), 2));
        table.row(std::iter::once(t.name()).chain(cells).collect());
    }
    table
}

/// A task and the core it sits on, as [`measure_window`] installs them.
pub(crate) type Seat = (CoreId, Box<dyn CoreTask>);

/// The one measure lifecycle: a fresh machine under `cfg`, the tasks
/// `build` stands up on it installed on their cores, `params`' warm-up,
/// then one window.
pub(crate) fn measure_window(
    cfg: MachineConfig,
    params: ExpParams,
    build: impl FnOnce(&mut Machine) -> Vec<Seat>,
) -> Measurement {
    let (warmup, window) = (params.warmup_cycles(&cfg), params.window_cycles(&cfg));
    let mut machine = Machine::new(cfg);
    let seats = build(&mut machine);
    let mut engine = Engine::new(machine);
    for (core, task) in seats {
        engine.set_task(core, task);
    }
    engine.measure(warmup, window)
}

/// `task` seated on `core`.
pub(crate) fn seat(core: u16, task: impl CoreTask + 'static) -> Seat {
    (CoreId(core), Box::new(task))
}

/// A standard chain seated on `core`: `kind` at `scale`, ring and structures
/// local to socket 0, traffic from `seed`, structures from
/// `structure_seed`.
pub(crate) fn seat_flow(
    machine: &mut Machine,
    scale: Scale,
    core: u16,
    kind: ChainKind,
    seed: u64,
    structure_seed: u64,
) -> Seat {
    let mut spec = FlowSpec::new(kind, scale, seed);
    spec.structure_seed = structure_seed;
    seat(core, build_flow(machine, MemDomain(0), &spec).task)
}

/// The SYN competitor the co-run experiments seat beside their target:
/// `syn` on `core` with traffic seed `100 + core` (a SYN chain builds
/// nothing from a structure seed).
pub(crate) fn seat_syn(machine: &mut Machine, scale: Scale, core: u16, syn: SynParams) -> Seat {
    seat_flow(machine, scale, core, ChainKind::Syn(syn), 100 + core as u64, 0)
}
