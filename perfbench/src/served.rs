//! The served workload: one client connection in a closed loop against
//! an in-process `temu-router` fronting two `temu-serve` members that
//! share a result store, each with its own job journal and window
//! checkpoints on.

use crate::emu::{self, Case, Res};
use crate::layers::Layers;
use crate::stats::{peak_rss_mb, Report, Rng, Samples, Tail};
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;
use temu_fleet::{MemberTable, Router, RouterConfig, RouterHandle};
use temu_framework::{
    AxisSpec, JsonValue, ResultCache, RunBudget, ScenarioSpec, SweepSpec, Workload, WorkloadSpec,
};
use temu_serve::{CheckpointStore, Client, Journal, Request, ServeConfig, Server, ServerHandle};
use temu_thermal::GridConfig;

/// Virtual seconds per sampling window of every served point.
const WINDOW_S: f64 = 0.0005;
/// Window budgets of a sweep's points: the 3-window points cross the
/// members' 2-window checkpoint interval once.
const WINDOWS: [u64; 2] = [1, 3];
/// Members persist each running point's state every this many windows.
const CHECKPOINT_EVERY: u64 = 2;
/// Matrix order of the pre-filled sweeps; cold sweeps use order 4, so the
/// two never share a content key.
const PREFILL_N: u32 = 5;
const COLD_N: u32 = 4;

/// How much the served loop does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Sweeps pre-filled into the shared store.
    pub prefill_sweeps: usize,
    /// Terminal jobs pre-filled into each member's journal.
    pub journal_jobs: u64,
    /// One more fleet start-up is timed for `setup_s` after every this
    /// many rounds (the first start-up serves the loop).
    pub startup_every: usize,
    /// Stop after this many rounds (`None`: after the run's seconds).
    pub rounds: Option<usize>,
}

pub const FULL: Plan = Plan {
    prefill_sweeps: 32,
    journal_jobs: 256,
    startup_every: 8,
    rounds: None,
};
/// The short stream an emulation workload's traced run uses to cover the
/// serve, sweep and fleet layers.
pub const PROBE: Plan = Plan {
    prefill_sweeps: 4,
    journal_jobs: 16,
    startup_every: 1,
    rounds: Some(3),
};

/// A small sweep: two matrix workloads × the window budgets, one thread.
fn sweep(name: String, n: u32, iters: u32) -> SweepSpec {
    let base = ScenarioSpec {
        cores: Some(1),
        workload: Some(WorkloadSpec::Matrix { n, iters, cores: 1 }),
        sampling_window_s: Some(WINDOW_S),
        strict_convergence: Some(true),
        windows: Some(1),
        ..ScenarioSpec::default()
    };
    let mut spec = SweepSpec::new(name, base);
    spec.axes = vec![
        AxisSpec::Workloads(vec![
            WorkloadSpec::Matrix { n, iters, cores: 1 },
            WorkloadSpec::Matrix {
                n,
                iters: iters + 1,
                cores: 1,
            },
        ]),
        AxisSpec::Windows(WINDOWS.to_vec()),
    ];
    spec.threads = Some(1);
    spec
}

/// The cases of a sweep's points in expansion order (first axis slowest),
/// for the traced replay. The replay's bitwise check against
/// `Scenario::run` proves these knobs match the lowered spec.
fn point_cases(spec: &SweepSpec) -> Res<Vec<Case>> {
    let points = spec.lower()?.expand();
    let mut cases = Vec::new();
    for (i, p) in points.into_iter().enumerate() {
        let scenario = p.scenario?;
        let Workload::Matrix(matrix) = *scenario.workload_config() else {
            return Err("served sweeps run matrix workloads".into());
        };
        let windows = WINDOWS[i % WINDOWS.len()];
        cases.push(Case {
            scenario,
            matrix,
            window_s: WINDOW_S,
            grid: GridConfig {
                strict_convergence: true,
                ..GridConfig::default()
            },
            policy: None,
            budget: RunBudget::Windows(windows),
        });
    }
    Ok(cases)
}

/// The run's scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Res<WorkDir> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Writes the seeded start state: a shared store holding the pre-filled
/// sweeps' points, and one journal per member full of finished jobs.
/// Returns each sweep with the points of its in-process execution.
fn prefill(dir: &Path, plan: &Plan, rng: &mut Rng) -> Res<Vec<(SweepSpec, Vec<JsonValue>)>> {
    std::fs::create_dir_all(dir)?;
    let cache = ResultCache::with_store(dir.join("store.jsonl"))?;
    let mut specs = Vec::new();
    for i in 0..plan.prefill_sweeps {
        let spec = sweep(
            format!("prefill-{i}"),
            PREFILL_N,
            200_000 + rng.range(0, 1_000_000) as u32 * 2,
        );
        let report = spec.lower()?.run_cached(&cache);
        if !report.all_ok() || report.executed != report.points.len() {
            return Err(format!("pre-fill sweep {i} did not execute cleanly").into());
        }
        specs.push((spec, report_points(&JsonValue::parse(&report.to_json())?)));
    }
    cache.sync();
    for member in ["a", "b"] {
        let (journal, _) = Journal::open(dir.join(format!("{member}.jsonl")))?;
        for id in 1..=plan.journal_jobs {
            let spec = &specs[id as usize % specs.len()].0;
            journal.record_submit(id, &spec.name, 0, spec);
            journal.record_start(id);
            journal.record_terminal(id, "done");
        }
    }
    Ok(specs)
}

struct Fleet {
    members: Vec<ServerHandle>,
    router: RouterHandle,
    client: Client,
}

impl Fleet {
    fn start(dir: &Path) -> Res<Fleet> {
        let mut members = Vec::new();
        for name in ["a", "b"] {
            members.push(Server::spawn(ServeConfig {
                addr: String::from("127.0.0.1:0"),
                workers: 1,
                store: Some(dir.join("store.jsonl")),
                journal: Some(dir.join(format!("{name}.jsonl"))),
                member: Some(String::from(name)),
                window_checkpoint: CHECKPOINT_EVERY,
                history_limit: 1 << 16,
                ..ServeConfig::default()
            })?);
        }
        let router = Router::spawn(RouterConfig {
            addr: String::from("127.0.0.1:0"),
            members: members.iter().map(|m| m.addr().to_string()).collect(),
            history_limit: 1 << 16,
            ..RouterConfig::default()
        })?;
        let client = Client::connect(&router.addr().to_string())?;
        Ok(Fleet {
            members,
            router,
            client,
        })
    }

    fn member_addrs(&self) -> Vec<String> {
        self.members.iter().map(|m| m.addr().to_string()).collect()
    }

    fn shutdown(self) {
        drop(self.client);
        self.router.shutdown();
        for m in self.members {
            m.shutdown();
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// A sweep never seen before: every point executes.
    Cold,
    /// A resubmission of an earlier sweep: every point is a cache hit.
    Cached,
}

struct Job {
    spec: SweepSpec,
    op: Op,
    id: u64,
}

/// One point of a served report, without the fields that legitimately
/// differ between an execution and its cached copy (`wall_s`,
/// `cache_hit`).
fn comparable(point: &JsonValue) -> Vec<(String, JsonValue)> {
    point
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| k != "wall_s" && k != "cache_hit")
        .cloned()
        .collect()
}

fn report_points(report: &JsonValue) -> Vec<JsonValue> {
    report
        .get("points")
        .and_then(JsonValue::as_arr)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default()
}

/// Fetches the result frames of `ids`, pipelining requests on the one
/// connection so a verification pass does not pay a round trip per job.
fn fetch_results(client: &mut Client, ids: &[u64]) -> Res<Vec<JsonValue>> {
    let mut frames = Vec::with_capacity(ids.len());
    for chunk in ids.chunks(32) {
        for &job in chunk {
            client.send(&Request::Result { job })?;
        }
        for _ in chunk {
            frames.push(client.recv()?);
        }
    }
    Ok(frames)
}

/// Starts a fleet on a fresh copy of the pre-filled files and times it
/// until its first submit — a fully cached pre-filled sweep — is
/// accepted. A traced run also times opening the store and a journal.
fn start_up(
    work: &Path,
    pristine: &Path,
    n: usize,
    probe: &SweepSpec,
    layers: Option<&mut Layers>,
    report: &mut Report,
) -> Res<(Fleet, f64, PathBuf)> {
    let instance = work.join(format!("fleet-{n}"));
    copy_dir(pristine, &instance)?;
    if let Some(l) = layers {
        let t = Instant::now();
        let cache = ResultCache::with_store(instance.join("store.jsonl"))?;
        l.store_open_ms.push_ms(t.elapsed());
        drop(cache);
        let scratch = work.join(format!("journal-{n}.jsonl"));
        std::fs::copy(instance.join("a.jsonl"), &scratch)?;
        let t = Instant::now();
        let opened = Journal::open(&scratch)?;
        l.journal_open_ms.push_ms(t.elapsed());
        drop(opened);
    }
    let t = Instant::now();
    let mut fleet = Fleet::start(&instance)?;
    let ack = fleet.client.submit(probe, false, |_| {})?;
    let setup_s = t.elapsed().as_secs_f64();
    let done = fleet.client.watch(ack.job, |_| {})?;
    report.check(done.ok && done.executed == 0, || {
        format!("start-up probe job was not served from the pre-filled store: {done:?}")
    });
    Ok((fleet, setup_s, instance))
}

/// The traced run's own handles: the member table the router shards by,
/// one direct connection per member, a handle on the shared store, and a
/// checkpoint file.
struct Probes {
    table: MemberTable,
    direct: Vec<Client>,
    cache: ResultCache,
    checkpoints: CheckpointStore,
}

impl Probes {
    fn new(fleet: &Fleet, work: &Path, instance: &Path) -> Res<Probes> {
        let direct = fleet
            .member_addrs()
            .iter()
            .map(|a| Client::connect(a))
            .collect::<Result<_, _>>()?;
        Ok(Probes {
            table: MemberTable::new(fleet.member_addrs()),
            direct,
            cache: ResultCache::with_store(instance.join("store.jsonl"))?,
            checkpoints: CheckpointStore::open(work.join("bench.checkpoints.jsonl"))?.0,
        })
    }

    /// The timings around one job of the stream.
    fn job(
        &mut self,
        spec: &SweepSpec,
        op: Op,
        routed_ms: f64,
        job: u64,
        layers: &mut Layers,
        report: &mut Report,
    ) -> Res<()> {
        for key in spec.point_keys()?.into_iter().flatten() {
            let t = Instant::now();
            let hit = self.cache.get(key);
            layers.cache_get_us.push_us(t.elapsed());
            report.check(hit.is_some(), || {
                format!(
                    "{}: point {key:016x} missing from the shared store",
                    spec.name
                )
            });
        }
        match op {
            Op::Cached => {
                // The same resubmission sent straight to the member that
                // owns it; the difference is the router's hop.
                let owner = self.table.rendezvous(spec.content_key()?)[0];
                let t = Instant::now();
                let sub = self.direct[owner].submit(spec, true, |_| {})?;
                let direct_ms = t.elapsed().as_secs_f64() * 1e3;
                let cached = sub.done.is_some_and(|d| d.ok && d.executed == 0);
                report.check(cached, || {
                    format!("{}: direct resubmission was not fully cached", spec.name)
                });
                layers.member_cached_ms.push(direct_ms);
                layers.hop_ms.push(routed_ms - direct_ms);
            }
            Op::Cold => {
                for case in point_cases(spec)? {
                    let t = Instant::now();
                    let mut emu = case.scenario.build()?;
                    layers.build_ms.push_ms(t.elapsed());
                    if matches!(case.budget, RunBudget::Windows(n) if n > CHECKPOINT_EVERY) {
                        for _ in 0..CHECKPOINT_EVERY {
                            emu.run_window()?;
                        }
                        let bytes = emu::checkpoint_probe(&emu, layers)?;
                        let t = Instant::now();
                        self.checkpoints.record(
                            job,
                            case.scenario.content_key(),
                            CHECKPOINT_EVERY,
                            &bytes,
                        );
                        layers.checkpoint_record_ms.push_ms(t.elapsed());
                    }
                    let reference = case.scenario.run()?;
                    emu::traced_replay(&case, &reference, layers, report)?;
                }
            }
        }
        Ok(())
    }
}

/// Runs the served loop. With `layers`, the sweep, serve, state and fleet
/// calls around the same job stream are timed, and every cold point is
/// replayed through the composed window loop.
pub fn run(
    seed: u64,
    seconds: f64,
    plan: Plan,
    mut layers: Option<&mut Layers>,
    report: &mut Report,
) -> Res<()> {
    let mut rng = Rng::new(seed);
    let work = WorkDir::new(if layers.is_some() { "traced" } else { "e2e" })?;
    let pristine = work.0.join("pristine");
    let prefilled = prefill(&pristine, &plan, &mut rng)?;
    let probe_spec = |n: usize| &prefilled[n % prefilled.len()].0;

    // Start-up: members replay the store and their journals, the router
    // comes up, and the first submit is accepted. The loop's own fleet is
    // the first start-up; the others run between rounds, so the samples
    // span the whole run.
    let mut setup = Samples::default();
    let (mut fleet, setup_s, instance) = start_up(
        &work.0,
        &pristine,
        0,
        probe_spec(0),
        layers.as_deref_mut(),
        report,
    )?;
    setup.push(setup_s);
    let mut probes = if layers.is_some() {
        Some(Probes::new(&fleet, &work.0, &instance)?)
    } else {
        None
    };

    let mut earlier: Vec<SweepSpec> = prefilled.iter().map(|(spec, _)| spec.clone()).collect();
    let mut jobs: Vec<Job> = Vec::new();
    let (mut cold_s, mut cached_ms, mut jobs_per_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let cold_base = 1_000_000 + rng.range(0, 100_000_000) as u32 * 8;
    let t0 = Instant::now();
    let mut round = 0usize;
    loop {
        let finished = plan
            .rounds
            .map_or(round > 0 && t0.elapsed().as_secs_f64() >= seconds, |n| {
                round >= n
            });
        if finished {
            break;
        }
        let fresh = sweep(
            format!("cold-{round}"),
            COLD_N,
            cold_base + 2 * round as u32,
        );
        let old = earlier[rng.range(0, earlier.len() as u64 - 1) as usize].clone();
        let ops = [
            (fresh.clone(), Op::Cold),
            (fresh.clone(), Op::Cached),
            (old, Op::Cached),
        ];
        let round_t = Instant::now();
        for (spec, op) in ops {
            if let Some(l) = layers.as_deref_mut() {
                let t = Instant::now();
                std::hint::black_box(spec.content_key()?);
                l.key_us.push_us(t.elapsed());
            }
            report.attempted += 1;
            let t = Instant::now();
            let outcome = fleet.client.submit(&spec, true, |_| {});
            let dt = t.elapsed();
            let sub = match outcome {
                Ok(sub) => sub,
                Err(e) => {
                    report.failed += 1;
                    report.check(false, || format!("submit of {} failed: {e}", spec.name));
                    continue;
                }
            };
            let Some(done) = sub.done else {
                return Err("watched submit returned no done event".into());
            };
            let right = match op {
                Op::Cold => done.ok && done.executed == done.points && done.cache_hits == 0,
                Op::Cached => done.ok && done.executed == 0 && done.cache_hits == done.points,
            };
            report.check(right && done.points == 4, || {
                format!("{op:?} job {} ({}): {done:?}", sub.job, spec.name)
            });
            match op {
                Op::Cold => cold_s.push(dt.as_secs_f64()),
                Op::Cached => cached_ms.push_ms(dt),
            }
            if let (Some(p), Some(l)) = (probes.as_mut(), layers.as_deref_mut()) {
                p.job(&spec, op, dt.as_secs_f64() * 1e3, sub.job, l, report)?;
            }
            jobs.push(Job {
                spec,
                op,
                id: sub.job,
            });
        }
        jobs_per_s.push(3.0 / round_t.elapsed().as_secs_f64());
        earlier.push(fresh);
        round += 1;
        if round.is_multiple_of(plan.startup_every) {
            let n = setup.len();
            let (extra, setup_s, _) = start_up(
                &work.0,
                &pristine,
                n,
                probe_spec(n),
                layers.as_deref_mut(),
                report,
            )?;
            setup.push(setup_s);
            extra.shutdown();
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();

    // Every served point summary against an in-process run of its spec
    // (one run per distinct sweep).
    let mut local: HashMap<String, Vec<JsonValue>> = prefilled
        .into_iter()
        .map(|(spec, points)| (spec.name, points))
        .collect();
    let (mut mips, mut wps) = (Samples::default(), Samples::default());
    let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    for (job, served) in jobs.iter().zip(fetch_results(&mut fleet.client, &ids)?) {
        let served_points = served.get("report").map(report_points).unwrap_or_default();
        let local_points = match local.entry(job.spec.name.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(report_points(&JsonValue::parse(
                &job.spec.lower()?.run().to_json(),
            )?)),
        };
        let same = served_points.len() == local_points.len()
            && served_points
                .iter()
                .zip(local_points.iter())
                .all(|(a, b)| comparable(a) == comparable(b));
        report.check(same, || {
            format!(
                "job {} ({}): served summaries differ from Sweep::run",
                job.id, job.spec.name
            )
        });
        if job.op == Op::Cold {
            let sum = |key: &str| {
                served_points
                    .iter()
                    .filter_map(|p| p.get(key).and_then(JsonValue::as_f64))
                    .sum::<f64>()
            };
            let wall = sum("wall_s");
            if wall > 0.0 {
                mips.push(sum("instructions") / wall / 1e6);
                wps.push(sum("windows") / wall);
            }
        }
    }
    drop(probes);
    fleet.shutdown();

    // A restart on the final store sees every point.
    let restarted = ResultCache::with_store(instance.join("store.jsonl"))?;
    let mut missing = 0usize;
    for spec in &earlier {
        for key in spec.point_keys()?.into_iter().flatten() {
            missing += usize::from(restarted.get(key).is_none());
        }
    }
    report.check(missing == 0, || {
        format!("restart on the final store misses {missing} point(s)")
    });

    println!(
        "rounds {round}, jobs {}, loop {loop_s:.3} s, start-ups {}",
        jobs.len(),
        setup.len()
    );
    if layers.is_none() {
        report.median("setup_s", "s", &setup, Tail::High);
        report.median("emu_mips", "Minstr/s", &mips, Tail::Low);
        report.median("windows_per_s", "1/s", &wps, Tail::Low);
        report.value("peak_rss_mb", "MiB", peak_rss_mb());
        report.median("cold_job_p50_s", "s", &cold_s, Tail::High);
        report.median("cached_job_p50_ms", "ms", &cached_ms, Tail::High);
        report.median("jobs_per_s", "1/s", &jobs_per_s, Tail::Low);
    }
    Ok(())
}
