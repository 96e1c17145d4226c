//! The co-emulation window loop: the two emulation workloads, their output
//! checks, and the traced replay that composes the loop from the layers'
//! public calls.

use crate::layers::{Counts, Layers, WindowSpans};
use crate::stats::{peak_rss_mb, Report, Rng, Samples, Tail};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};
use temu_framework::{
    ResultCache, RunBudget, Scenario, ScenarioRun, Sweep, ThermalEmulation, TraceSample, Workload,
};
use temu_isa::Width;
use temu_link::{EthernetConfig, EthernetLink, StatsPacket, TempPacket};
use temu_platform::{DfsPolicy, IcChoice, Machine, PlatformConfig, WindowStats, EVENT_BYTES};
use temu_power::floorplans::quad_core;
use temu_power::{CoreKind, FloorplanMap, PowerModel};
use temu_thermal::{GridConfig, ImplicitSolve, ThermalGrid, ThermalModel};
use temu_workloads::matrix::{self, MatrixConfig};
use temu_workloads::SHARED_BASE;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Largest relative energy-balance error accepted:
/// `|(E_in − E_out) − E_stored| ≤ ENERGY_TOL · E_in`. The same tolerance
/// the thermal crate's own semi-implicit conservation test uses.
pub const ENERGY_TOL: f64 = 1e-3;

/// One runnable experiment: the product's [`Scenario`] plus the knobs the
/// composed loop needs and the scenario does not expose. The traced replay
/// checks that the two agree bitwise.
#[derive(Clone, Debug)]
pub struct Case {
    pub scenario: Scenario,
    pub matrix: MatrixConfig,
    pub window_s: f64,
    pub grid: GridConfig,
    pub policy: Option<DfsPolicy>,
    pub budget: RunBudget,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fig6,
    Mega,
}

/// The `mega` mesh rung of the thermal scaling ladder (~110k cells).
pub fn mega_grid() -> GridConfig {
    GridConfig {
        default_div: 28,
        hot_div: 56,
        filler_pitch_um: 80.0,
        implicit_solve: ImplicitSolve::Multigrid,
        strict_convergence: true,
        ..GridConfig::default()
    }
}

/// The workload's inputs, made from the seed.
pub fn case(kind: Kind, seed: u64) -> Res<Case> {
    let mut rng = Rng::new(seed);
    Ok(match kind {
        Kind::Fig6 => {
            // The band sits between the die temperature a 500 MHz window
            // reaches (>301.7 K) and the one a 100 MHz window falls back to
            // (<300.9 K) early in the run, so the policy throttles,
            // releases and throttles again before the package warms the
            // 100 MHz level past the cool threshold.
            let matrix = MatrixConfig::thermal(4, rng.range(130, 133) as u32);
            let policy = DfsPolicy::new(
                rng.kelvin(301.45, 301.60),
                rng.kelvin(300.90, 301.00),
                500_000_000,
                100_000_000,
            )?;
            let scenario = Scenario::paper_fig6()
                .policy(policy.clone())
                .workload(Workload::Matrix(matrix))
                .to_halt(64)
                .name("bench-fig6-dfs");
            Case {
                scenario,
                matrix,
                window_s: 0.010,
                grid: GridConfig::default(),
                policy: Some(policy),
                budget: RunBudget::ToHalt { max_windows: 64 },
            }
        }
        Kind::Mega => {
            // Eight windows of a MATRIX run too long to halt: every round is
            // the same eight full windows whatever the seed.
            let matrix = MatrixConfig::thermal(4, rng.range(5_000, 6_000) as u32);
            let platform = PlatformConfig {
                virtual_hz: 100_000_000,
                ..PlatformConfig::paper_thermal(4)
            };
            let grid = mega_grid();
            let scenario = Scenario::paper_fig6_unmanaged()
                .platform(platform)
                .grid(grid)
                .workload(Workload::Matrix(matrix))
                .windows(8)
                .name("bench-thermal-mega");
            Case {
                scenario,
                matrix,
                window_s: 0.010,
                grid,
                policy: None,
                budget: RunBudget::Windows(8),
            }
        }
    })
}

/// The loop of `ThermalEmulation::run_window`, composed from each layer's
/// public calls in the product's order, with a span around each call.
pub struct Composed {
    machine: Machine,
    map: FloorplanMap,
    model: ThermalModel,
    link: EthernetLink,
    power: PowerModel,
    policy: Option<DfsPolicy>,
    window_s: f64,
    seq: u32,
    pub trace: Vec<TraceSample>,
    pub windows: u64,
    virtual_seconds: f64,
    virtual_cycles: u64,
    fpga_seconds: f64,
    aggregate: WindowStats,
}

impl Composed {
    /// Builds the parts exactly as `Scenario::build` does for a derived
    /// Fig. 4 floorplan and no artifact cache.
    pub fn build(case: &Case, layers: &mut Layers) -> Res<Composed> {
        let platform = case.scenario.platform_config().clone();
        let program = case.scenario.workload_config().program()?;
        let mut machine = Machine::new(platform.clone())?;
        machine.load_program_all(&program)?;
        let switches = match &platform.interconnect {
            IcChoice::Bus(_) => 0,
            IcChoice::Noc(n) => n.topology.switches(),
        };
        let map = quad_core(CoreKind::Arm11, platform.cores, switches);
        let t = Instant::now();
        let grid = ThermalGrid::build(&map.floorplan, &case.grid)?;
        layers.mesh_ms.push_ms(t.elapsed());
        let model = ThermalModel::with_artifacts(Arc::new(grid), None, &case.grid)?;
        Ok(Composed {
            machine,
            map,
            model,
            link: EthernetLink::new(EthernetConfig::default()),
            power: PowerModel::default(),
            policy: case.policy.clone(),
            window_s: case.window_s,
            seq: 0,
            trace: Vec::new(),
            windows: 0,
            virtual_seconds: 0.0,
            virtual_cycles: 0,
            fpga_seconds: 0.0,
            aggregate: WindowStats::default(),
        })
    }

    /// One sampling window: platform → power → link → thermal → feedback.
    fn window(&mut self, layers: &mut Layers) -> Res<()> {
        let start = Instant::now();
        let mut spans = Duration::ZERO;
        let mut span = |t: Instant| {
            let d = t.elapsed();
            spans += d;
            d
        };

        let t = Instant::now();
        let hz = self.machine.vpcm().virtual_hz();
        let cycles = (self.window_s * hz as f64).round() as u64;
        let stats = self.machine.run_window(cycles)?;
        let platform = span(t);

        let t = Instant::now();
        let powers = self.power.window_powers(&self.map, &stats, hz);
        let power = span(t);

        let t = Instant::now();
        let packet = StatsPacket {
            seq: self.seq,
            window_start: stats.start_cycle,
            window_cycles: stats.cycles(),
            virtual_hz: hz,
            power_mw: powers
                .iter()
                .map(|&p| (p * 1000.0).round() as u32)
                .collect(),
        };
        let mut payload = packet.encode().to_vec();
        if let Some(events) = self.machine.uncore_mut().events_mut() {
            let drained = events.drain(usize::MAX >> 1).len() as u64 + stats.events_overflowed;
            payload.extend(std::iter::repeat_n(0u8, (drained as usize) * EVENT_BYTES));
        }
        let frames = self.link.packetize(&payload.into(), true);
        let fpga_hz = self.machine.vpcm().fpga_hz;
        let physical_window_s = (stats.cycles() + stats.freeze_mem) as f64 / fpga_hz as f64;
        let link_freeze_s = self.link.send_window(&frames, physical_window_s);
        self.machine
            .vpcm_mut()
            .record_link_freeze((link_freeze_s * fpga_hz as f64).round() as u64);
        let link = span(t);

        let substeps_before = self.model.solver_stats().substeps;
        let t = Instant::now();
        self.model.set_powers(&powers);
        self.model.try_step(self.window_s)?;
        let thermal = span(t);
        let substeps = self.model.solver_stats().substeps - substeps_before;

        let t = Instant::now();
        let temps = self.model.component_temps();
        let reply = TempPacket {
            seq: self.seq,
            temps_centi_k: temps.iter().map(|&t| (t * 100.0).round() as u32).collect(),
        };
        let reply_frames = self.link.packetize(&reply.encode().to_vec().into(), false);
        let _ = self.link.tx_seconds(&reply_frames);
        for (i, &t) in temps.iter().enumerate() {
            self.machine.set_sensor_kelvin(i, t);
        }
        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if let Some(policy) = &mut self.policy {
            let new_hz = policy.update(hottest);
            if new_hz != hz {
                self.machine.set_virtual_hz(new_hz);
            }
        }
        let feedback = span(t);

        self.seq = self.seq.wrapping_add(1);
        self.windows += 1;
        self.virtual_seconds += self.window_s;
        self.virtual_cycles += stats.cycles();
        self.fpga_seconds += physical_window_s + link_freeze_s;
        self.aggregate.merge(&stats);
        self.trace.push(TraceSample {
            t_virtual_s: self.virtual_seconds,
            temps_k: temps,
            max_temp_k: hottest,
            virtual_hz: hz,
            total_power_w: powers.iter().sum(),
            fpga_seconds: self.fpga_seconds,
        });
        let wall = start.elapsed();

        let instructions = stats.total_instructions();
        if self.windows == 1 {
            layers.first_step_ms.push_ms(thermal);
        } else {
            layers.thermal_ms.push_ms(thermal);
            if substeps > 0 {
                layers
                    .substep_ms
                    .push(thermal.as_secs_f64() * 1e3 / substeps as f64);
            }
        }
        layers.platform_ms.push_ms(platform);
        if instructions > 0 {
            layers
                .ns_per_instr
                .push(platform.as_secs_f64() * 1e9 / instructions as f64);
        }
        layers.power_us.push_us(power);
        layers.link_us.push_us(link);
        layers.feedback_us.push_us(feedback);
        layers.window_ms.push_ms(wall);
        layers.spans.push(WindowSpans {
            window: self.windows,
            platform,
            power,
            link,
            thermal,
            feedback,
            wall,
        });
        layers.windows += 1;
        if (spans.as_secs_f64() - wall.as_secs_f64()).abs() <= 0.05 * wall.as_secs_f64() {
            layers.covered += 1;
        }
        Ok(())
    }

    /// Runs the case's budget with the product's stopping rule.
    pub fn run(&mut self, budget: RunBudget, layers: &mut Layers) -> Res<()> {
        match budget {
            RunBudget::ToHalt { max_windows } => {
                for _ in 0..max_windows {
                    self.window(layers)?;
                    if self.machine.all_halted() {
                        break;
                    }
                }
            }
            RunBudget::Windows(n) => {
                for _ in 0..n {
                    self.window(layers)?;
                }
            }
        }
        Ok(())
    }

    pub fn counts(&self) -> Counts {
        Counts::of(
            &self.aggregate,
            self.link.stats(),
            &self.model.solver_stats(),
        )
    }

    /// Bitwise comparison with the product's own run of the same case;
    /// returns the first difference.
    pub fn diff(&self, reference: &ScenarioRun) -> Option<String> {
        let r = &reference.report;
        let fields: [(&str, bool); 8] = [
            ("windows", r.windows == self.windows),
            (
                "virtual_seconds",
                r.virtual_seconds.to_bits() == self.virtual_seconds.to_bits(),
            ),
            ("virtual_cycles", r.virtual_cycles == self.virtual_cycles),
            (
                "fpga_seconds",
                r.fpga_seconds.to_bits() == self.fpga_seconds.to_bits(),
            ),
            ("all_halted", r.all_halted == self.machine.all_halted()),
            ("aggregate statistics", r.aggregate == self.aggregate),
            ("link statistics", r.link == *self.link.stats()),
            ("solver statistics", r.solver == self.model.solver_stats()),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, same)| !same) {
            return Some(format!("report field {name} differs"));
        }
        if reference.trace.samples.len() != self.trace.len() {
            return Some(format!(
                "trace length {} vs {}",
                reference.trace.samples.len(),
                self.trace.len()
            ));
        }
        for (i, (a, b)) in reference.trace.samples.iter().zip(&self.trace).enumerate() {
            let same = a.t_virtual_s.to_bits() == b.t_virtual_s.to_bits()
                && a.max_temp_k.to_bits() == b.max_temp_k.to_bits()
                && a.virtual_hz == b.virtual_hz
                && a.total_power_w.to_bits() == b.total_power_w.to_bits()
                && a.fpga_seconds.to_bits() == b.fpga_seconds.to_bits()
                && a.temps_k.len() == b.temps_k.len()
                && a.temps_k
                    .iter()
                    .zip(&b.temps_k)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                return Some(format!("trace sample {i} differs"));
            }
        }
        None
    }
}

/// Replays `case` through the composed loop with spans on, and checks the
/// result bitwise against the product's `reference` run.
pub fn traced_replay(
    case: &Case,
    reference: &ScenarioRun,
    layers: &mut Layers,
    report: &mut Report,
) -> Res<Duration> {
    let t = Instant::now();
    let mut c = Composed::build(case, layers)?;
    c.run(case.budget, layers)?;
    let wall = t.elapsed();
    let diff = c.diff(reference);
    report.check(diff.is_none(), || {
        format!(
            "{}: composed loop differs from Scenario::run: {}",
            case.scenario.label(),
            diff.unwrap_or_default()
        )
    });
    if layers.counts.is_none() {
        layers.counts = Some(c.counts());
    }
    Ok(wall)
}

/// Every output check an emulation round must pass, against computations
/// made apart from the program.
fn check_round(kind: Kind, case: &Case, emu: &ThermalEmulation, report: &mut Report) {
    let label = case.scenario.label();
    let totals = emu.totals();
    report.check(totals.solver.unconverged_substeps == 0, || {
        format!(
            "{label}: {} unconverged substeps",
            totals.solver.unconverged_substeps
        )
    });
    let m = emu.model();
    let (e_in, e_out, stored) = (m.energy_in(), m.energy_out(), m.stored_energy());
    let err = ((e_in - e_out) - stored).abs();
    report.check(e_in > 0.0 && err <= ENERGY_TOL * e_in, || {
        format!("{label}: energy in {e_in} J − out {e_out} J vs stored {stored} J")
    });
    let ambient = case.grid.ambient_k;
    let trace_ok = emu
        .trace()
        .samples
        .iter()
        .flat_map(|s| s.temps_k.iter())
        .chain(m.temps())
        .all(|t| t.is_finite() && *t >= ambient);
    report.check(trace_ok, || {
        format!("{label}: a temperature is non-finite or below ambient {ambient} K")
    });
    if kind == Kind::Fig6 {
        report.check(emu.machine().all_halted(), || {
            format!("{label}: the workload did not halt")
        });
        let off = matrix::layout().total_addr - SHARED_BASE;
        let total = emu.machine().shared().read(off, Width::Word).ok();
        let expected = matrix::reference_total(&case.matrix);
        report.check(total == Some(expected), || {
            format!("{label}: shared-memory total {total:?} vs reference {expected}")
        });
        if let Some(policy) = &case.policy {
            check_dfs(policy, &emu.trace().samples, &label, report);
        }
    }
}

/// Re-implements the dual-threshold hysteresis rule and checks every
/// window's clock against it, applied to the previous window's peak
/// temperature; the run must both throttle and release.
fn check_dfs(policy: &DfsPolicy, samples: &[TraceSample], label: &str, report: &mut Report) {
    let (levels, band) = (policy.levels_hz(), policy.bands()[0]);
    let (high, low) = (levels[0], levels[1]);
    let mut hz = high;
    let (mut throttles, mut releases) = (0, 0);
    for (i, s) in samples.iter().enumerate() {
        report.check(s.virtual_hz == hz, || {
            format!(
                "{label}: window {i} ran at {} Hz, the rule says {hz} Hz",
                s.virtual_hz
            )
        });
        if hz == high && s.max_temp_k > band.hot_k {
            hz = low;
            throttles += 1;
        } else if hz == low && s.max_temp_k < band.cool_k {
            hz = high;
            releases += 1;
        }
    }
    report.check(throttles > 0 && releases > 0, || {
        format!("{label}: {throttles} throttle(s), {releases} release(s)")
    });
}

/// Runs one job window by window with the product's stopping rule,
/// handing each window's host time to `window` with whether the window
/// was full (the halting window of a run-to-halt job is partial).
fn run_job(
    emu: &mut ThermalEmulation,
    budget: RunBudget,
    mut window: impl FnMut(&ThermalEmulation, f64, bool),
) -> Res<()> {
    let (cap, to_halt) = match budget {
        RunBudget::ToHalt { max_windows } => (max_windows, true),
        RunBudget::Windows(n) => (n, false),
    };
    for _ in 0..cap {
        let t = Instant::now();
        emu.run_window()?;
        let dt = t.elapsed().as_secs_f64();
        let halted = to_halt && emu.machine().all_halted();
        window(emu, dt, !halted);
        if halted {
            break;
        }
    }
    Ok(())
}

/// Times `reps` product builds, in seconds, into `into`.
fn time_builds(case: &Case, reps: usize, into: &mut Samples) -> Res<()> {
    for _ in 0..reps {
        let t = Instant::now();
        let emu = case.scenario.build()?;
        into.push(t.elapsed().as_secs_f64());
        drop(emu);
    }
    Ok(())
}

/// Builds timed before the first job and after each round, so `setup_s`
/// samples the host across the whole run: a `fig6_dfs` build takes well
/// under a millisecond, a `thermal_mega` build tens of milliseconds.
fn build_reps(kind: Kind) -> (usize, usize) {
    match kind {
        Kind::Fig6 => (21, 8),
        Kind::Mega => (3, 1),
    }
}

/// Cached resubmissions timed after each job.
const RESUBMITS: usize = 25;

/// The untraced run: repeated builds for `setup_s`, a warm-up job, then
/// whole rounds until `seconds` have passed. The warm-up runs the
/// experiment as a one-point sweep into the product's result cache. A
/// round is one job — the experiment from build to the end of its budget,
/// every window executed and timed from outside
/// `ThermalEmulation::run_window` — followed by resubmissions of the
/// sweep, which the cache serves without executing.
pub fn run_e2e(kind: Kind, seed: u64, seconds: f64, report: &mut Report) -> Res<()> {
    let case = case(kind, seed)?;
    let (first_builds, round_builds) = build_reps(kind);
    let mut setup = Samples::default();
    time_builds(&case, first_builds, &mut setup)?;
    let sweep = Sweep::new("bench", case.scenario.clone()).threads(1);
    let cache = ResultCache::in_memory();
    let (mut mips, mut wps) = (Samples::default(), Samples::default());
    let (mut cold_s, mut cached_ms, mut jobs_per_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let warm = sweep.run_cached(&cache);
    report.attempted += 1;
    let summary = warm
        .points
        .first()
        .and_then(|p| p.outcome.as_ref().ok())
        .cloned();
    report.check(warm.executed == 1 && summary.is_some(), || {
        format!("{}: the warm-up job did not execute", case.scenario.label())
    });
    let summary = summary.ok_or("warm-up job failed")?;
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || t0.elapsed().as_secs_f64() < seconds {
        let round_t = Instant::now();
        {
            let mut emu = case.scenario.build()?;
            let mut last = 0u64;
            run_job(&mut emu, case.budget, |emu, dt, full| {
                report.attempted += 1;
                let instr = emu.totals().aggregate.total_instructions();
                if full {
                    mips.push((instr - last) as f64 / dt / 1e6);
                    wps.push(1.0 / dt);
                }
                last = instr;
            })?;
            cold_s.push(round_t.elapsed().as_secs_f64());
            check_round(kind, &case, &emu, report);
            report.check(emu.totals().windows == summary.windows, || {
                format!(
                    "{}: job ran {} windows, its sweep run {}",
                    case.scenario.label(),
                    emu.totals().windows,
                    summary.windows
                )
            });
        }
        for _ in 0..RESUBMITS {
            let t = Instant::now();
            let r = sweep.run_cached(&cache);
            cached_ms.push_ms(t.elapsed());
            report.attempted += 1;
            let served = r.points.first().and_then(|p| p.outcome.as_ref().ok());
            report.check(
                r.cache_hits == 1 && r.executed == 0 && served == Some(&summary),
                || {
                    format!(
                        "{}: a resubmission was not served from the cache",
                        case.scenario.label()
                    )
                },
            );
        }
        jobs_per_s.push((1 + RESUBMITS) as f64 / round_t.elapsed().as_secs_f64());
        time_builds(&case, round_builds, &mut setup)?;
        rounds += 1;
    }
    println!("rounds {rounds}, full windows {}", wps.len());
    report.median("setup_s", "s", &setup, Tail::High);
    report.median("emu_mips", "Minstr/s", &mips, Tail::Low);
    report.median("windows_per_s", "1/s", &wps, Tail::Low);
    report.value("peak_rss_mb", "MiB", peak_rss_mb());
    report.median("cold_job_p50_s", "s", &cold_s, Tail::High);
    report.median("cached_job_p50_ms", "ms", &cached_ms, Tail::High);
    report.median("jobs_per_s", "1/s", &jobs_per_s, Tail::Low);
    Ok(())
}

/// The traced run: one product run as the reference, then rounds that
/// alternate an untraced product round with a traced composed replay,
/// each replay checked bitwise against the reference.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    report: &mut Report,
) -> Res<()> {
    let case = case(kind, seed)?;
    let mut builds = Samples::default();
    time_builds(&case, build_reps(kind).0, &mut builds)?;
    for s in builds.values() {
        layers.build_ms.push(s * 1e3);
    }
    let reference = case.scenario.run()?;
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    while plain.len() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut emu = case.scenario.build()?;
        run_job(&mut emu, case.budget, |_, _, _| {})?;
        plain.push(t.elapsed().as_secs_f64());
        report.attempted += emu.totals().windows;
        check_round(kind, &case, &emu, report);
        checkpoint_probe(&emu, layers)?;
        traced.push(traced_replay(&case, &reference, layers, report)?.as_secs_f64());
        report.attempted += reference.report.windows;
    }
    report.check(layers.covered == layers.windows, || {
        format!(
            "layer spans cover the window time within 5% in only {} of {} windows",
            layers.covered, layers.windows
        )
    });
    println!(
        "trace overhead {:+.2}% (traced round {:.4} s vs untraced {:.4} s, {} pairs)",
        (traced.median() / plain.median() - 1.0) * 100.0,
        traced.median(),
        plain.median(),
        plain.len()
    );
    Ok(())
}

/// Times the run-state layer on a finished emulation: capture, encode,
/// decode.
pub fn checkpoint_probe(emu: &ThermalEmulation, layers: &mut Layers) -> Res<Vec<u8>> {
    let t = Instant::now();
    let state = emu.checkpoint()?;
    layers.capture_ms.push_ms(t.elapsed());
    let t = Instant::now();
    let bytes = state.to_bytes();
    layers.encode_ms.push_ms(t.elapsed());
    let t = Instant::now();
    let back = temu_framework::EmulationState::from_bytes(&bytes)?;
    layers.decode_ms.push_ms(t.elapsed());
    if back.windows() != state.windows() || back.scenario_key() != state.scenario_key() {
        return Err("a decoded checkpoint differs from the captured one".into());
    }
    layers.state_bytes = bytes.len() as u64;
    Ok(bytes)
}
