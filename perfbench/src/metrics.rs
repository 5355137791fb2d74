//! Metric definitions: the end-to-end metrics of an untraced run and the
//! per-layer metrics of a traced run, each with its unit and sample count.

use std::time::Instant;

use pqo_server::wire::{self, Request, Response, WireChoice};
use pqo_server::WireStats;

use crate::load::FrameSpan;
use crate::oracle::{Oracle, Quality};
use crate::round::Round;
use crate::stats::{median, percentile, ratio};
use crate::trace::{Replay, Stage, CHILD_STAGES};
use crate::workload::{build_catalog, Inputs, Templates, Workload};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

fn rtts_us<'a>(spans: impl Iterator<Item = &'a FrameSpan>) -> Vec<f64> {
    spans
        .filter(|s| s.decisions.is_some())
        .map(|s| s.rtt_ns() as f64 / 1e3)
        .collect()
}

/// Σ over servers and templates of one STATS field, after minus before.
fn delta(r: &Round, f: impl Fn(&WireStats) -> u64) -> f64 {
    let sum = |all: &[Vec<WireStats>]| -> u64 { all.iter().flatten().map(&f).sum() };
    sum(&r.after).saturating_sub(sum(&r.before)) as f64
}

/// The end-to-end metrics of an untraced run. Timings are per-round
/// values, reported as the median over the rounds, so one round slowed by
/// a noisy neighbour does not move the result. Throughput and latency
/// count the window in which every session was active; CPU per plan
/// covers the whole timed phase.
pub fn end_to_end(
    rounds: &[Round],
    oracle_timed: (usize, usize),
    quality: Quality,
    failed: usize,
    attempted: usize,
) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let setups = per_round(&|r| r.setup_s);
    let throughput =
        per_round(&|r| ratio(r.timed.timed_instances() as f64, r.timed.wall.as_secs_f64()));
    let rtts: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| rtts_us(r.timed.timed_frames()))
        .collect();
    let p50 = rtts.iter().map(|v| percentile(v, 50.0)).collect::<Vec<_>>();
    let p99 = rtts.iter().map(|v| percentile(v, 99.0)).collect::<Vec<_>>();
    let cpu = per_round(&|r| ratio(r.cpu_s * 1e6, r.timed.instances() as f64));
    let rss = per_round(&|r| r.rss_kib / 1024.0);
    let instances: usize = rounds.iter().map(|r| r.timed.instances()).sum();
    let frames: usize = rtts.iter().map(Vec::len).sum();
    let (optimized, timed) = oracle_timed;
    let plans: u64 = rounds[0].front_after().iter().map(|s| s.num_plans).sum();
    vec![
        metric("setup_s", "s", median(&setups), setups.len()),
        metric("plans_per_s", "1/s", median(&throughput), instances),
        metric("req_p50_us", "us", median(&p50), frames),
        metric("req_p99_us", "us", median(&p99), frames),
        metric(
            "ok_pct",
            "%",
            100.0 * ratio((attempted - failed) as f64, attempted as f64),
            attempted,
        ),
        metric("server_cpu_us_per_plan", "us", median(&cpu), instances),
        metric("server_rss_mb", "MiB", median(&rss), rss.len()),
        metric(
            "opt_calls_pct",
            "%",
            100.0 * ratio(optimized as f64, timed as f64),
            timed,
        ),
        metric(
            "plans_cached",
            "count",
            plans as f64,
            rounds[0].front_after().len(),
        ),
        metric("mso", "ratio", quality.mso, timed),
        metric("tc", "ratio", quality.tc, timed),
    ]
}

/// Requests a path needs before its stage-sum check counts.
const MIN_PATH_REQUESTS: usize = 20;

/// Per-request self time of each child stage (0 when the request did not
/// enter it) plus the request's own self time, over the timed requests of
/// one path.
#[derive(Default)]
pub struct PathBudget {
    /// Parallel to [`CHILD_STAGES`], then the request self time, in µs.
    stage_us: Vec<Vec<f64>>,
    request_us: Vec<f64>,
}

impl PathBudget {
    /// Σ child stage medians and the request median. The request's own
    /// self time (what no child span covers) is left out, so time the
    /// stages do not explain shows up as a gap.
    fn sums(&self) -> (f64, f64) {
        let sum = self.stage_us[..CHILD_STAGES.len()]
            .iter()
            .map(|v| median(v))
            .sum();
        (sum, median(&self.request_us))
    }

    /// |Σ stage medians − request median| as % of the request median.
    fn gap_pct(&self) -> f64 {
        let (sum, req) = self.sums();
        100.0 * ratio((sum - req).abs(), req)
    }
}

/// The in-process stage budget, split by path: hit requests (served from
/// the cache) and miss requests (at least one optimizer call). Stage
/// medians add up within one path; across a mix of paths they need not.
pub struct Budget {
    hit: PathBudget,
    miss: PathBudget,
    request_us: Vec<f64>,
}

impl Budget {
    pub fn from_replay(replay: &Replay) -> Budget {
        let n = replay.timed_requests.iter().map(Vec::len).sum();
        let mut index = vec![usize::MAX; replay.spans.len() + 1];
        let mut k = 0;
        for reqs in &replay.timed_requests {
            for &(_, id) in reqs {
                index[id as usize] = k;
                k += 1;
            }
        }
        let mut stage_us = vec![vec![0.0; CHILD_STAGES.len()]; n];
        let mut request_us = vec![0.0; n];
        for span in &replay.spans {
            let us = span.dur_ns() as f64 / 1e3;
            match span.stage {
                Stage::Request if index[span.id as usize] != usize::MAX => {
                    request_us[index[span.id as usize]] = us;
                }
                Stage::Request => {}
                stage => {
                    let k = index[span.parent as usize];
                    if k != usize::MAX {
                        let s = CHILD_STAGES
                            .iter()
                            .position(|c| *c == stage)
                            .expect("child stage");
                        stage_us[k][s] += us;
                    }
                }
            }
        }
        let optimize = CHILD_STAGES
            .iter()
            .position(|c| *c == Stage::Optimize)
            .expect("optimize is a child stage");
        let mut hit = PathBudget::default();
        let mut miss = PathBudget::default();
        for p in [&mut hit, &mut miss] {
            p.stage_us = vec![Vec::new(); CHILD_STAGES.len() + 1];
        }
        for (stages, req) in stage_us.iter().zip(&request_us) {
            let p = if stages[optimize] > 0.0 {
                &mut miss
            } else {
                &mut hit
            };
            for (s, us) in stages.iter().enumerate() {
                p.stage_us[s].push(*us);
            }
            let children: f64 = stages.iter().sum();
            p.stage_us[CHILD_STAGES.len()].push((req - children).max(0.0));
            p.request_us.push(*req);
        }
        Budget {
            hit,
            miss,
            request_us,
        }
    }

    /// Median in-process request time over every timed request, in µs.
    pub fn request_p50(&self) -> f64 {
        median(&self.request_us)
    }

    pub fn requests(&self) -> usize {
        self.request_us.len()
    }

    /// The largest stage-sum gap over the paths with enough requests.
    pub fn gap_pct(&self) -> f64 {
        [&self.hit, &self.miss]
            .iter()
            .filter(|p| p.request_us.len() >= MIN_PATH_REQUESTS)
            .map(|p| p.gap_pct())
            .fold(0.0, f64::max)
    }

    /// The stage budget table: one row per stage per path, the request's
    /// self time, the sum of the child stages, the in-process request, the
    /// stage-sum check, and the wire rows.
    /// `wire` holds (residual µs, round trip µs) per frame, split by path.
    pub fn table(&self, wire_hit: (&[f64], &[f64]), wire_miss: (&[f64], &[f64])) -> String {
        let paths = [(&self.hit, wire_hit), (&self.miss, wire_miss)];
        let mut out = String::from("stage budget (timed frames, self time, µs)\n");
        out += &format!(
            "  {:<22} {:>21} {:>21}\n",
            "",
            format!("hit path (n={})", self.hit.request_us.len()),
            format!("miss path (n={})", self.miss.request_us.len())
        );
        out += &format!(
            "  {:<22} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "p50", "p99", "p50", "p99"
        );
        let row = |name: &str, cols: [&[f64]; 2]| -> String {
            format!(
                "  {:<22} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                median(cols[0]),
                percentile(cols[0], 99.0),
                median(cols[1]),
                percentile(cols[1], 99.0)
            )
        };
        let names = CHILD_STAGES
            .iter()
            .map(|s| s.name())
            .chain(std::iter::once("request self"));
        for (s, name) in names.enumerate() {
            out += &row(name, [&self.hit.stage_us[s], &self.miss.stage_us[s]]);
        }
        let (hs, _) = self.hit.sums();
        let (ms, _) = self.miss.sums();
        out += &format!(
            "  {:<22} {:>10.3} {:>10} {:>10.3}\n",
            "Σ child stage medians", hs, "", ms
        );
        out += &row(
            "in-process request",
            [&self.hit.request_us, &self.miss.request_us],
        );
        for (label, (p, _)) in ["hit", "miss"].iter().zip(&paths) {
            let n = p.request_us.len();
            let verdict = if n < MIN_PATH_REQUESTS {
                "too few requests to check".to_string()
            } else if p.gap_pct() <= 10.0 {
                "PASS, <= 10%".to_string()
            } else {
                "FAIL, > 10%".to_string()
            };
            out += &format!(
                "  stage-sum check, {label} path: Σ child stage medians within {:.1}% of the request median ({verdict})\n",
                p.gap_pct()
            );
        }
        out += &row("wire residual", [paths[0].1 .0, paths[1].1 .0]);
        out += &row("wire round trip", [paths[0].1 .1, paths[1].1 .1]);
        out
    }
}

/// Per timed frame of `round`: client round trip minus the traced
/// replay's in-process time for the same frame (matched by template and
/// frame start), the round trip itself, both in µs, and whether the frame
/// took the miss path.
pub fn residuals(round: &Round, replay: &Replay) -> Vec<(f64, f64, bool)> {
    let mut out = Vec::new();
    for span in round.timed.frames().filter(|s| s.decisions.is_some()) {
        let reqs = &replay.timed_requests[span.frame.template];
        if let Ok(k) = reqs.binary_search_by_key(&span.frame.start, |(start, _)| *start) {
            let inproc = replay.span(reqs[k].1).dur_ns() as f64;
            let rtt = span.rtt_ns() as f64;
            out.push(((rtt - inproc) / 1e3, rtt / 1e3, span.any_optimized()));
        }
    }
    out
}

/// `encode_request` + `decode_response` time per timed frame, in ns.
fn codec_ns(t: &Templates, inputs: &Inputs, round: &Round) -> Vec<f64> {
    let mut body = Vec::new();
    let mut reply = Vec::new();
    let mut out = Vec::new();
    for span in round.timed.frames() {
        let Some(decisions) = &span.decisions else {
            continue;
        };
        let f = span.frame;
        let name = t.names[f.template].clone();
        let values = &inputs.values[f.template][f.start..f.start + f.len];
        let choices: Vec<WireChoice> = decisions
            .iter()
            .map(|d| WireChoice {
                fingerprint: d.fingerprint,
                optimized: d.optimized,
                generation: 1,
            })
            .collect();
        let (req, resp) = if f.batch {
            (
                Request::GetPlanBatch {
                    template: name,
                    instances: values.to_vec(),
                },
                Response::PlanBatch(choices),
            )
        } else {
            (
                Request::GetPlan {
                    template: name,
                    values: values[0].clone(),
                },
                Response::Plan(choices[0]),
            )
        };
        wire::encode_response(&resp, &mut reply);
        let t0 = Instant::now();
        wire::encode_request(std::hint::black_box(&req), &mut body);
        let decoded = wire::decode_response(std::hint::black_box(&reply));
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(decoded.is_ok());
        out.push(ns);
    }
    out
}

fn durations(replay: &Replay, stage: Stage, scale: f64) -> Vec<f64> {
    replay
        .spans
        .iter()
        .filter(|s| s.timed && s.stage == stage)
        .map(|s| s.dur_ns() as f64 / scale)
        .collect()
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub w: &'a Workload,
    pub t: &'a Templates,
    pub inputs: &'a Inputs,
    pub rounds: &'a [Round],
    pub oracle: &'a Oracle,
    pub replay: &'a Replay,
    /// Wall time of the timed frames in the replay with span recording
    /// off and on (fastest pass of each).
    pub replay_s: (f64, f64),
}

/// Time each catalog build once, in ms (the server builds all four for
/// every workload: the fixtures span all four catalogs, and the corpus
/// builds all four).
fn catalog_build_ms() -> Result<f64, String> {
    let mut total = 0.0;
    for name in ["tpch_skew", "tpcds", "rd1", "rd2"] {
        let t0 = Instant::now();
        std::hint::black_box(build_catalog(name)?);
        total += t0.elapsed().as_secs_f64() * 1e3;
    }
    Ok(total)
}

/// The per-layer metrics of a traced run. Metrics of a layer the workload
/// does not load read 0 with 0 samples.
pub fn per_layer(x: &LayerInputs) -> Result<Vec<Metric>, String> {
    let r0 = &x.rounds[0];
    let timed = r0.timed.instances() as f64;
    let rtts_all: Vec<&FrameSpan> = x.rounds.iter().flat_map(|r| r.timed.frames()).collect();
    let split = |optimized: bool| {
        rtts_us(
            rtts_all
                .iter()
                .copied()
                .filter(|s| s.any_optimized() == optimized),
        )
    };
    let (hit_us, miss_us) = (split(false), split(true));

    let svector = durations(x.replay, Stage::Svector, 1.0);
    let optimize = durations(x.replay, Stage::Optimize, 1e3);
    let snapshot = durations(x.replay, Stage::Snapshot, 1.0);
    let check = durations(x.replay, Stage::Check, 1e3);
    let manage = durations(x.replay, Stage::ManageCache, 1e3);
    let encode = durations(x.replay, Stage::Encode, 1e3);
    let apply = durations(x.replay, Stage::Apply, 1e3);
    let records: Vec<_> = x.replay.records.iter().filter(|r| r.timed).collect();
    let record_bytes: Vec<f64> = records.iter().map(|r| r.bytes as f64).collect();
    let full = records.iter().filter(|r| r.full).count() as f64;

    let recost_calls = delta(r0, |s| s.getplan_recost_calls);
    let publishes = delta(r0, |s| s.publishes);
    let front = r0.front_after();
    let server_wide =
        |f: fn(&WireStats) -> u64| -> f64 { front.first().map(f).unwrap_or(0) as f64 };
    let wakeups: u64 = r0.summaries.iter().map(|s| s.poll_wakeups).sum();
    let frames: u64 = r0.summaries.iter().map(|s| s.frames_served).sum();

    let residual: Vec<f64> = residuals(r0, x.replay).iter().map(|r| r.0).collect();
    let budget = Budget::from_replay(x.replay);
    let codec = codec_ns(x.t, x.inputs, r0);
    let compile = &x.t.compile_us;
    let replica = x.w.replica;
    let on_replica = |v: Vec<f64>| if replica { v } else { Vec::new() };
    let (local_us, forwarded_us) = (on_replica(hit_us.clone()), on_replica(miss_us.clone()));
    let (untraced_s, traced_s) = x.replay_s;
    let wire_instances: usize = x.rounds.iter().map(|r| r.timed.timed_instances()).sum();
    let wire_wall: f64 = x.rounds.iter().map(|r| r.timed.wall.as_secs_f64()).sum();
    let n = |v: &Vec<f64>| v.len();

    Ok(vec![
        metric("catalog.build_ms", "ms", catalog_build_ms()?, 4),
        metric("sql.compile_us_p50", "us", median(compile), compile.len()),
        metric(
            "service.register_us_p50",
            "us",
            median(&x.oracle.register_us),
            x.oracle.register_us.len(),
        ),
        metric("svector.ns_p50", "ns", median(&svector), n(&svector)),
        metric("optimize.us_p50", "us", median(&optimize), n(&optimize)),
        metric(
            "optimize.us_p99",
            "us",
            percentile(&optimize, 99.0),
            n(&optimize),
        ),
        metric(
            "optimize.calls",
            "count",
            optimize.len() as f64,
            n(&optimize),
        ),
        metric(
            "recost.calls_per_plan",
            "calls/plan",
            ratio(recost_calls, timed),
            timed as usize,
        ),
        metric(
            "recost.ns_per_call",
            "ns",
            ratio(delta(r0, |s| s.recost_nanos), recost_calls),
            recost_calls as usize,
        ),
        metric(
            "snapshot.load_ns_p50",
            "ns",
            median(&snapshot),
            n(&snapshot),
        ),
        metric("check.us_p50", "us", median(&check), n(&check)),
        metric("check.us_p99", "us", percentile(&check, 99.0), n(&check)),
        metric(
            "check.selectivity_hit_pct",
            "%",
            100.0 * ratio(delta(r0, |s| s.selectivity_hits), timed),
            timed as usize,
        ),
        metric(
            "check.cost_hit_pct",
            "%",
            100.0 * ratio(delta(r0, |s| s.cost_hits), timed),
            timed as usize,
        ),
        metric(
            "check.miss_pct",
            "%",
            100.0 * ratio(delta(r0, |s| s.optimizer_calls), timed),
            timed as usize,
        ),
        metric("manage_cache.us_p50", "us", median(&manage), n(&manage)),
        metric(
            "manage_cache.us_p99",
            "us",
            percentile(&manage, 99.0),
            n(&manage),
        ),
        metric(
            "manage_cache.admit_pct",
            "%",
            100.0 * ratio(x.replay.admitted as f64, x.replay.manage_calls as f64),
            x.replay.manage_calls,
        ),
        metric(
            "publish.us_per_publish",
            "us",
            ratio(delta(r0, |s| s.publish_nanos) / 1e3, publishes),
            publishes as usize,
        ),
        metric(
            "index.points_rebuilt_per_publish",
            "count",
            ratio(delta(r0, |s| s.index_points_rebuilt), publishes),
            publishes as usize,
        ),
        metric(
            "cache.instances_end",
            "count",
            front.iter().map(|s| s.num_instances).sum::<u64>() as f64,
            front.len(),
        ),
        metric("req.hit_us_p50", "us", median(&hit_us), n(&hit_us)),
        metric("req.miss_us_p50", "us", median(&miss_us), n(&miss_us)),
        metric(
            "req.miss_us_p99",
            "us",
            percentile(&miss_us, 99.0),
            n(&miss_us),
        ),
        metric(
            "replication.encode_us_p50",
            "us",
            median(&encode),
            n(&encode),
        ),
        metric(
            "replication.encode_us_p99",
            "us",
            percentile(&encode, 99.0),
            n(&encode),
        ),
        metric(
            "replication.record_bytes_p50",
            "B",
            median(&record_bytes),
            n(&record_bytes),
        ),
        metric(
            "replication.full_pct",
            "%",
            100.0 * ratio(full, records.len() as f64),
            records.len(),
        ),
        metric("replication.apply_us_p50", "us", median(&apply), n(&apply)),
        metric(
            "replication.apply_us_p99",
            "us",
            percentile(&apply, 99.0),
            n(&apply),
        ),
        metric(
            "replica.bytes_in_per_gen",
            "B",
            if replica {
                ratio(
                    server_wide(|s| s.replication_bytes_in),
                    server_wide(|s| s.gens_applied),
                )
            } else {
                0.0
            },
            if replica {
                server_wide(|s| s.gens_applied) as usize
            } else {
                0
            },
        ),
        metric(
            "replica.local_us_p50",
            "us",
            median(&local_us),
            n(&local_us),
        ),
        metric(
            "replica.forwarded_us_p50",
            "us",
            median(&forwarded_us),
            n(&forwarded_us),
        ),
        metric(
            "replica.forwarded_us_p99",
            "us",
            percentile(&forwarded_us, 99.0),
            n(&forwarded_us),
        ),
        metric("wire.codec_ns", "ns", median(&codec), n(&codec)),
        metric(
            "wire.residual_us_p50",
            "us",
            median(&residual),
            n(&residual),
        ),
        metric(
            "wire.residual_us_p99",
            "us",
            percentile(&residual, 99.0),
            n(&residual),
        ),
        metric(
            "event_loop.peak_queue_depth",
            "count",
            server_wide(|s| s.peak_queue_depth),
            1,
        ),
        metric(
            "event_loop.wakeups_per_frame",
            "count",
            ratio(wakeups as f64, frames as f64),
            frames as usize,
        ),
        metric(
            "inproc.request_us_p50",
            "us",
            budget.request_p50(),
            budget.requests(),
        ),
        metric(
            "stage_sum.gap_pct",
            "%",
            budget.gap_pct(),
            budget.requests(),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (1.0 - ratio(untraced_s, traced_s)),
            x.inputs.timed_instances(),
        ),
        metric(
            "trace.wire_plans_per_s",
            "1/s",
            ratio(wire_instances as f64, wire_wall),
            wire_instances,
        ),
    ])
}
