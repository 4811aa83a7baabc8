//! Pins of the control stack's default behaviour: the supervisor (and the
//! guard it drives) and the fleet controller, each run over a scripted
//! trace at its default configuration, every directive and action folded
//! into one FNV-1a digest. A change to any hysteresis depth, backoff
//! schedule, budget or threshold moves a digest; a refactor that keeps the
//! rules keeps both.

use pp_core::prelude::*;

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const ENVELOPE: GuardEnvelope =
    GuardEnvelope { min_pps: 1_000_000.0, max_p99_us: 100.0, max_loss_frac: 0.005 };
const GOOD: WindowObservation =
    WindowObservation { pps: 2_000_000.0, p99_us: 40.0, loss_frac: 0.0 };
const BAD: WindowObservation = WindowObservation { pps: 400_000.0, p99_us: 40.0, loss_frac: 0.0 };
/// Clean against the envelope, 25 % off the 2 Mpps model.
const DRIFTED: WindowObservation =
    WindowObservation { pps: 1_500_000.0, p99_us: 40.0, loss_frac: 0.0 };
/// Full rate, but a tail that violates the envelope.
const SLOW: WindowObservation =
    WindowObservation { pps: 2_000_000.0, p99_us: 500.0, loss_frac: 0.0 };

/// SplitMix64, for the one pseudo-random tenant of the supervisor trace.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tenant `t`'s window `w`: the observation, whether a sibling core is
/// free, and whether a targeted fault is active.
fn supervisor_script(t: usize, w: u32) -> (WindowObservation, bool, bool) {
    match t {
        // Sinks with a sibling free (two migrations spend the budget, then
        // the ladder rides to a trip), fails its probes, is re-admitted,
        // drifts, then flaps.
        0 => match w {
            0..50 => (BAD, true, true),
            50..100 => (GOOD, w.is_multiple_of(2), false),
            100..140 => (DRIFTED, false, w.is_multiple_of(9)),
            _ => (if w % 7 < 3 { BAD } else { GOOD }, !w.is_multiple_of(3), w.is_multiple_of(5)),
        },
        // Sinks with no sibling (trips without migrating), then drift held
        // across violating windows, then sinks again with a sibling free.
        1 => match w {
            0..30 => (GOOD, false, false),
            30..90 => (BAD, false, w.is_multiple_of(4)),
            90..150 => ([DRIFTED, SLOW, GOOD][(w as usize / 3) % 3], false, false),
            _ => (BAD, true, false),
        },
        _ => {
            let h = mix(w as u64);
            let obs = [GOOD, GOOD, BAD, DRIFTED, SLOW][(h % 5) as usize];
            (obs, (h >> 8) & 1 == 1, (h >> 9).is_multiple_of(3))
        }
    }
}

fn action_word(a: SupervisorAction) -> u64 {
    match a {
        SupervisorAction::Continue => 0,
        SupervisorAction::Migrate => 1,
        SupervisorAction::Evict { retry_in } => 2 | (retry_in as u64) << 8,
        SupervisorAction::Probe => 3,
        SupervisorAction::Readmit => 4,
        SupervisorAction::Recalibrate => 5,
    }
}

/// The supervisor trace at `config`: its digest and how often each action
/// fired (indexed like [`action_word`]'s low byte).
fn supervisor_trace(config: SupervisorConfig) -> (u64, [u32; 6]) {
    let mut s = Supervisor::new(config);
    let tenants: Vec<TenantId> = [FlowType::Ip, FlowType::Mon, FlowType::Fw]
        .iter()
        .map(|&f| s.admit(f, ENVELOPE, 2_000_000.0))
        .collect();
    let mut fnv = Fnv::new();
    let mut seen = [0u32; 6];
    for w in 0..200u32 {
        for (i, &t) in tenants.iter().enumerate() {
            let (obs, sibling, fault) = supervisor_script(i, w);
            let d =
                if s.is_running(t) { s.observe(t, &obs, sibling, fault) } else { s.tick_parked(t) };
            let a = action_word(d.action);
            seen[(a & 0xFF) as usize] += 1;
            fnv.word(a);
            fnv.word(d.level as u64);
            fnv.word(d.reprobe_now as u64);
            if d.action == SupervisorAction::Recalibrate {
                // The driver's protocol: refit at the measured rate.
                s.set_model(t, obs.pps, GuardEnvelope { min_pps: 0.7 * obs.pps, ..ENVELOPE });
            }
        }
    }
    for &t in &tenants {
        let st = s.stats(t);
        for x in [st.trips, st.failed_probes, st.migrations, st.recalibrations, st.evicted_windows]
        {
            fnv.word(x as u64);
        }
        fnv.word(s.guard(t).transitions_recorded());
    }
    // Budget exhaustion: tenant 0 spent its migrations and still tripped.
    assert_eq!(s.stats(tenants[0]).migrations, 2);
    assert!(s.stats(tenants[0]).trips >= 1);
    (fnv.0, seen)
}

/// `config` with its jitter seed replaced.
fn reseeded(mut config: SupervisorConfig, seed: u64) -> SupervisorConfig {
    config.seed = seed;
    config
}

#[test]
fn supervisor_default_behaviour_is_pinned() {
    let (digest, seen) = supervisor_trace(SupervisorConfig::default());
    let [_, migrate, evict, probe, readmit, recalibrate] = seen;
    assert!(
        migrate >= 2 && evict >= 2 && probe >= 2 && readmit >= 1 && recalibrate >= 1,
        "{seen:?}"
    );
    assert_eq!(digest, 1908396860729957215, "supervisor trace at the default seed");
    let (digest, _) = supervisor_trace(reseeded(Default::default(), 7));
    assert_eq!(digest, 5600217931578766745, "supervisor trace at seed 7");
}

fn fleet_action_word(a: FleetAction) -> u64 {
    match a {
        FleetAction::ProbeMachine { machine } => (machine.index() as u64) << 8,
        FleetAction::DeclareDead { machine } => 1 | (machine.index() as u64) << 8,
        FleetAction::Replace { tenant, to } => {
            2 | (tenant.0 as u64) << 8 | (to.index() as u64) << 16
        }
        FleetAction::Park { tenant } => 3 | (tenant.0 as u64) << 8,
    }
}

#[test]
fn fleet_default_behaviour_is_pinned() {
    let mut c = FleetController::new(Default::default());
    let machines: Vec<_> = (0..4).map(|_| c.add_machine()).collect();
    let homes = [0, 0, 0, 1, 1, 2, 2, 3, 3];
    let flows = [FlowType::Ip, FlowType::Mon, FlowType::Fw];
    let tenants: Vec<TenantId> = homes
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            let t = c.add_tenant(flows[i % 3], (i % 3) as u8, machines[h]);
            c.set_floor(t, 1000.0);
            t
        })
        .collect();
    // m1 dies at w10 and restarts at w40; m2 dies for good at w52.
    let alive = |m: usize, w: u32| match m {
        1 => !(10..40).contains(&w),
        2 => w < 52,
        _ => true,
    };
    let mut admit =
        |m: pp_sim::cluster::MachineId, f: FlowType| !(m.index() == 3 && f == FlowType::Fw);
    let mut fnv = Fnv::new();
    let mut seen = [0u32; 4];
    for w in 0..80u32 {
        for (mi, &m) in machines.iter().enumerate() {
            if alive(mi, w) {
                c.heartbeat(m, w);
            }
        }
        // Reports describe the previous window; none arrive in the
        // blackout, and every seventh window re-delivers a stale one.
        if w >= 1 && !(60..68).contains(&w) {
            for (i, &t) in tenants.iter().enumerate() {
                let Some(m) = c.placement(t) else { continue };
                if !alive(m.index(), w) {
                    continue;
                }
                // The priority-2 tenant at home on m0 misses its floor.
                let pps = if i == 2 && (18..26).contains(&w) { 500.0 } else { 2000.0 };
                c.ingest(t, &TelemetryReport { window: w - 1, pps, p99_us: 50.0, loss_frac: 0.0 });
                if w % 7 == 0 && w >= 3 {
                    c.ingest(
                        t,
                        &TelemetryReport { window: w - 3, pps, p99_us: 50.0, loss_frac: 0.0 },
                    );
                }
            }
        }
        for a in c.tick(w, &mut admit) {
            let x = fleet_action_word(a);
            seen[(x & 0xFF) as usize] += 1;
            fnv.word(w as u64);
            fnv.word(x);
        }
    }
    fnv.word(c.replacements_used() as u64);
    fnv.word(c.decisions());
    let [probes, deaths, replaces, parks] = seen;
    assert!(probes >= 4 && deaths == 2 && replaces >= 5 && parks >= 1, "{seen:?}");
    assert_eq!(fnv.0, 13647389608596293630, "fleet trace");
}
