//! The traced in-process replay: the same frames as the wire run, served
//! by composing the public layer calls that `PqoService::get_plan` and
//! `get_plan_batch` compose —
//!
//! sVector → snapshot load → `try_cached_plan_with` → (on a miss)
//! `optimize` → `manage_cache_entry` (redundancy check, admission,
//! publish), and for replicated workloads `encode_generation` →
//! `PqoService::apply_generation` on a replica service.
//!
//! Each call gets a span whose parent is its request span. Spans stay in
//! memory until the run ends; per-layer numbers are self times. The same
//! replay also runs with span recording off, which gives the tracing
//! overhead: the two passes differ only in the recording.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use pqo_core::replication::{encode_generation, record_info};
use pqo_core::scr::{GetPlanScratch, Scr};
use pqo_core::{CacheWriter, PqoService, SnapshotCell};
use pqo_optimizer::engine::QueryEngine;

use crate::load::Decision;
use crate::oracle::config;
use crate::workload::{Inputs, Templates};

/// A layer boundary the replay records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Request,
    Svector,
    Snapshot,
    Check,
    Optimize,
    ManageCache,
    Encode,
    Apply,
}

/// Child stages, in `getPlan` order.
pub const CHILD_STAGES: [Stage; 7] = [
    Stage::Svector,
    Stage::Snapshot,
    Stage::Check,
    Stage::Optimize,
    Stage::ManageCache,
    Stage::Encode,
    Stage::Apply,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Svector => "svector",
            Stage::Snapshot => "snapshot",
            Stage::Check => "check",
            Stage::Optimize => "optimize",
            Stage::ManageCache => "manage_cache",
            Stage::Encode => "replication.encode",
            Stage::Apply => "replication.apply",
        }
    }
}

/// One recorded span; `parent` is 0 for request spans (ids start at 1).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub stage: Stage,
    pub template: u16,
    /// Whether the span belongs to the timed phase.
    pub timed: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A raw timestamp: TSC ticks on x86_64, where reading the counter costs
/// about half a clock read; nanoseconds since `epoch` elsewhere.
fn ticks(epoch: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = epoch;
        // SAFETY: `rdtsc` has no preconditions on x86_64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        epoch.elapsed().as_nanos() as u64
    }
}

/// Span recording; when off, it reads no clock and records nothing.
/// Spans hold raw [`ticks`] until [`Tracer::finish`] converts them to
/// nanoseconds since the tracer started.
struct Tracer {
    on: bool,
    epoch: Instant,
    tick0: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool, capacity: usize) -> Tracer {
        let epoch = Instant::now();
        Tracer {
            on,
            epoch,
            tick0: ticks(epoch),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        if self.on {
            ticks(self.epoch)
        } else {
            0
        }
    }

    /// The spans, in nanoseconds since the tracer started (the tick rate is
    /// calibrated against the monotonic clock over the tracer's lifetime).
    fn finish(self) -> Vec<Span> {
        let ns = self.epoch.elapsed().as_nanos() as f64;
        let per_tick = ns / ticks(self.epoch).saturating_sub(self.tick0).max(1) as f64;
        let to_ns = |t: u64| (t.saturating_sub(self.tick0) as f64 * per_tick) as u64;
        let mut spans = self.spans;
        for s in &mut spans {
            s.start_ns = to_ns(s.start_ns);
            s.end_ns = to_ns(s.end_ns);
        }
        spans
    }

    /// Record a span from `start` to now; its id (0 when recording is off).
    fn push(&mut self, stage: Stage, parent: u32, template: usize, timed: bool, start: u64) -> u32 {
        let end_ns = self.now();
        self.open(stage, parent, template, timed, start, end_ns)
    }

    /// Record a span whose end is filled in later by [`Tracer::close`].
    fn open(
        &mut self,
        stage: Stage,
        parent: u32,
        template: usize,
        timed: bool,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            stage,
            template: template as u16,
            timed,
            start_ns,
            end_ns,
        });
        id
    }

    fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize - 1].end_ns = self.now();
        }
    }
}

/// A replicated generation record.
#[derive(Debug, Clone, Copy)]
pub struct RecordStat {
    pub bytes: usize,
    pub full: bool,
    pub timed: bool,
}

/// What the traced replay produced.
pub struct Replay {
    pub spans: Vec<Span>,
    pub decisions: Vec<Vec<Decision>>,
    /// Timed request span ids, per template, keyed by frame start.
    pub timed_requests: Vec<Vec<(usize, u32)>>,
    /// Timed `manage_cache_entry` calls, and those that kept a new plan.
    pub manage_calls: usize,
    pub admitted: usize,
    pub records: Vec<RecordStat>,
    /// Wall time of the timed frames (per template, from its first timed
    /// frame to its last).
    pub timed_replay_s: f64,
}

impl Replay {
    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Write every span as CSV (`id,parent,stage,template,timed,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path, names: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,stage,template,timed,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.stage.name(),
                names[s.template as usize],
                s.timed as u8,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Replay every template's frames through the layer calls, recording
/// spans when `traced`.
pub fn replay(
    t: &Templates,
    inputs: &Inputs,
    replicate: bool,
    traced: bool,
) -> Result<Replay, String> {
    let replica = PqoService::new();
    if replicate {
        for template in &t.templates {
            replica
                .register(Arc::clone(template), config())
                .map_err(|e| e.to_string())?;
        }
    }
    let instances: usize = inputs.instances.iter().map(Vec::len).sum();
    // Room for a request, svector and check span per instance, so the
    // recording does not reallocate mid-run.
    let mut tr = Tracer::new(traced, 3 * instances);
    let mut out = Replay {
        spans: Vec::new(),
        decisions: Vec::new(),
        timed_requests: Vec::new(),
        manage_calls: 0,
        admitted: 0,
        records: Vec::new(),
        timed_replay_s: 0.0,
    };
    for (i, template) in t.templates.iter().enumerate() {
        let name = &t.names[i];
        let engine = QueryEngine::new(Arc::clone(template));
        let scr = Scr::with_config(config()).map_err(|e| e.to_string())?;
        let (mut writer, first) = CacheWriter::new(scr);
        let cell = SnapshotCell::new(first);
        let mut scratch = GetPlanScratch::new();
        let mut published = cell.load();
        let mut svs = Vec::new();
        let mut timed_start = None;
        let mut decisions = Vec::with_capacity(inputs.instances[i].len());
        let mut timed_requests = Vec::new();
        for frame in inputs.template_frames(i) {
            let timed = frame.start >= inputs.warm_len;
            if timed && timed_start.is_none() {
                timed_start = Some(Instant::now());
            }
            let instances = &inputs.instances[i][frame.start..frame.start + frame.len];
            svs.clear();
            // Open the request span first so children can name it; its end
            // is filled in when the request completes.
            let req_start = tr.now();
            let req = tr.open(Stage::Request, 0, i, timed, req_start, req_start);
            for q in instances {
                let s = tr.now();
                svs.push(engine.compute_svector(q));
                tr.push(Stage::Svector, req, i, timed, s);
            }
            let s = tr.now();
            let mut snapshot = cell.load();
            tr.push(Stage::Snapshot, req, i, timed, s);
            for sv in &svs {
                let s = tr.now();
                let hit = snapshot.try_cached_plan_with(sv, &engine, &mut scratch);
                tr.push(Stage::Check, req, i, timed, s);
                if let Some(choice) = hit {
                    decisions.push(Decision {
                        fingerprint: choice.plan.fingerprint().0,
                        optimized: false,
                    });
                    continue;
                }
                let s = tr.now();
                let opt = engine.optimize(sv);
                tr.push(Stage::Optimize, req, i, timed, s);
                let fingerprint = opt.plan.fingerprint().0;
                let s = tr.now();
                let (before, after) = writer.manage_cache_entry(sv, opt, &engine, &cell);
                tr.push(Stage::ManageCache, req, i, timed, s);
                if timed {
                    out.manage_calls += 1;
                    out.admitted += usize::from(after > before);
                }
                if replicate {
                    let latest = cell.load();
                    let s = tr.now();
                    let record = encode_generation(&latest, Some(&published));
                    tr.push(Stage::Encode, req, i, timed, s);
                    let s2 = tr.now();
                    replica
                        .apply_generation(name, &record)
                        .map_err(|e| format!("apply {name}: {e}"))?;
                    tr.push(Stage::Apply, req, i, timed, s2);
                    let full = record_info(&record)
                        .map_err(|e| e.to_string())?
                        .base
                        .is_none();
                    out.records.push(RecordStat {
                        bytes: record.len(),
                        full,
                        timed,
                    });
                    published = latest;
                }
                if frame.batch {
                    // `get_plan_batch` re-loads the just-published generation.
                    let s = tr.now();
                    snapshot = cell.load();
                    tr.push(Stage::Snapshot, req, i, timed, s);
                }
                decisions.push(Decision {
                    fingerprint,
                    optimized: true,
                });
            }
            tr.close(req);
            if timed {
                timed_requests.push((frame.start, req));
            }
        }
        if let Some(t0) = timed_start {
            out.timed_replay_s += t0.elapsed().as_secs_f64();
        }
        out.decisions.push(decisions);
        out.timed_requests.push(timed_requests);
    }
    out.spans = tr.finish();
    Ok(out)
}
