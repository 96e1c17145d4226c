//! Per-layer spans of a traced run: times of public calls into each layer,
//! taken from the benchmark's own code, kept in memory and reported at the
//! end.

use crate::stats::{Report, Samples, Tail};
use std::time::Duration;
use temu_framework::SolverStats;
use temu_link::LinkStats;
use temu_platform::WindowStats;

/// Exact simulated counts of one unit of work (one round of an emulation
/// workload, one cold job of the served stream). They repeat exactly for a
/// seed, so they tell a change to the model apart from a change to the
/// emulator's speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    pub instructions: u64,
    pub stall_cycles: u64,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    pub ic_transactions: u64,
    pub ic_contention: u64,
    pub wire_bytes: u64,
    pub substeps: u64,
    pub mg_cycles: u64,
    pub unconverged: u64,
}

impl Counts {
    pub fn of(stats: &WindowStats, link: &LinkStats, solver: &SolverStats) -> Counts {
        Counts {
            instructions: stats.total_instructions(),
            stall_cycles: stats.cores.iter().map(|c| c.stall_cycles).sum(),
            icache_misses: stats.icaches.iter().map(|c| c.misses).sum(),
            dcache_misses: stats.dcaches.iter().map(|c| c.misses).sum(),
            ic_transactions: stats.interconnect.transactions,
            ic_contention: stats.interconnect.contention_cycles,
            wire_bytes: link.wire_bytes,
            substeps: solver.substeps,
            mg_cycles: solver.total_cycles,
            unconverged: solver.unconverged_substeps,
        }
    }
}

/// The spans of one traced window, in the product's order.
pub struct WindowSpans {
    /// The window's index within its job, from 1.
    pub window: u64,
    pub platform: Duration,
    pub power: Duration,
    pub link: Duration,
    pub thermal: Duration,
    pub feedback: Duration,
    /// The whole window, bookkeeping included.
    pub wall: Duration,
}

/// Every span and count a traced run collects.
#[derive(Default)]
pub struct Layers {
    // Window loop (emulation workloads, and the served stream's replayed
    // points).
    pub platform_ms: Samples,
    pub ns_per_instr: Samples,
    pub power_us: Samples,
    pub link_us: Samples,
    pub feedback_us: Samples,
    pub thermal_ms: Samples,
    pub substep_ms: Samples,
    pub first_step_ms: Samples,
    pub window_ms: Samples,
    /// Every traced window's spans, written out at the end of the run.
    pub spans: Vec<WindowSpans>,
    /// Traced windows whose layer spans sum to within 5% of the window.
    pub covered: u64,
    pub windows: u64,
    /// The counts of the first traced unit.
    pub counts: Option<Counts>,
    // Build.
    pub build_ms: Samples,
    pub mesh_ms: Samples,
    // Run state.
    pub capture_ms: Samples,
    pub encode_ms: Samples,
    pub decode_ms: Samples,
    pub state_bytes: u64,
    // Sweep, serve and fleet.
    pub key_us: Samples,
    pub cache_get_us: Samples,
    pub store_open_ms: Samples,
    pub journal_open_ms: Samples,
    pub checkpoint_record_ms: Samples,
    pub member_cached_ms: Samples,
    pub hop_ms: Samples,
}

impl Layers {
    /// Takes the sweep, serve and fleet spans of another traced run.
    pub fn take_serving(&mut self, other: Layers) {
        self.key_us = other.key_us;
        self.cache_get_us = other.cache_get_us;
        self.store_open_ms = other.store_open_ms;
        self.journal_open_ms = other.journal_open_ms;
        self.checkpoint_record_ms = other.checkpoint_record_ms;
        self.member_cached_ms = other.member_cached_ms;
        self.hop_ms = other.hop_ms;
    }

    /// Writes out every traced window's spans, one line each.
    pub fn print_spans(&self) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for s in &self.spans {
            println!(
                "span window {} platform_ms {:.6} power_ms {:.6} link_ms {:.6} thermal_ms {:.6} feedback_ms {:.6} window_ms {:.6}",
                s.window,
                ms(s.platform),
                ms(s.power),
                ms(s.link),
                ms(s.thermal),
                ms(s.feedback),
                ms(s.wall)
            );
        }
    }

    /// Adds every per-layer metric to `report`.
    pub fn report(&self, report: &mut Report, calib: &Samples) {
        let c = self.counts.unwrap_or_default();
        report.median("platform.window_ms", "ms", &self.platform_ms, Tail::High);
        report.median(
            "platform.ns_per_instr",
            "ns",
            &self.ns_per_instr,
            Tail::High,
        );
        report.value("cpu.instructions", "count", c.instructions as f64);
        report.value("cpu.stall_cycles", "count", c.stall_cycles as f64);
        report.value("mem.icache_misses", "count", c.icache_misses as f64);
        report.value("mem.dcache_misses", "count", c.dcache_misses as f64);
        report.value(
            "interconnect.transactions",
            "count",
            c.ic_transactions as f64,
        );
        report.value(
            "interconnect.contention_cycles",
            "count",
            c.ic_contention as f64,
        );
        report.median("power.window_us", "us", &self.power_us, Tail::High);
        report.median("link.window_us", "us", &self.link_us, Tail::High);
        report.value("link.wire_bytes", "B", c.wire_bytes as f64);
        report.median("core.feedback_us", "us", &self.feedback_us, Tail::High);
        report.median("thermal.step_ms", "ms", &self.thermal_ms, Tail::High);
        report.median("thermal.substep_ms", "ms", &self.substep_ms, Tail::High);
        report.median(
            "thermal.first_step_ms",
            "ms",
            &self.first_step_ms,
            Tail::High,
        );
        report.value("thermal.substeps", "count", c.substeps as f64);
        report.value("thermal.mg_cycles", "count", c.mg_cycles as f64);
        report.value("thermal.unconverged", "count", c.unconverged as f64);
        report.median("core.window_ms", "ms", &self.window_ms, Tail::High);
        report.median("core.build_ms", "ms", &self.build_ms, Tail::High);
        report.median("core.mesh_ms", "ms", &self.mesh_ms, Tail::High);
        report.median("state.capture_ms", "ms", &self.capture_ms, Tail::High);
        report.median("state.encode_ms", "ms", &self.encode_ms, Tail::High);
        report.median("state.decode_ms", "ms", &self.decode_ms, Tail::High);
        report.value("state.bytes", "B", self.state_bytes as f64);
        report.median("sweep.key_us", "us", &self.key_us, Tail::High);
        report.median("sweep.cache_get_us", "us", &self.cache_get_us, Tail::High);
        report.median("sweep.store_open_ms", "ms", &self.store_open_ms, Tail::High);
        report.median(
            "serve.journal_open_ms",
            "ms",
            &self.journal_open_ms,
            Tail::High,
        );
        report.median(
            "serve.checkpoint_record_ms",
            "ms",
            &self.checkpoint_record_ms,
            Tail::High,
        );
        report.median(
            "serve.member_cached_ms",
            "ms",
            &self.member_cached_ms,
            Tail::High,
        );
        report.median("fleet.hop_ms", "ms", &self.hop_ms, Tail::High);
        report.median("host.calib_ms", "ms", calib, Tail::None);
    }
}
