//! End-to-end and per-layer benchmark of plan serving.
//!
//! Drives real `pqo serve` processes over loopback TCP from one
//! load-generator process: one closed-loop session (thread + connection)
//! per core, each waiting for its plan before sending the next request.
//! Every decision is checked against an in-process oracle replay.
//!
//! ```text
//! pqo-perfbench --pqo PATH --workload NAME --seed N --seconds S --trace 0|1
//! pqo-perfbench --pqo PATH --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.sh`
//! builds everything and supplies `--pqo`; see `perfbench/README.md`.

mod load;
mod metrics;
mod oracle;
mod round;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pqo_rand::rngs::StdRng;
use pqo_rand::SeedableRng;

use metrics::{end_to_end, per_layer, Budget, LayerInputs, Metric};
use oracle::Oracle;
use round::{run_round, Round};
use workload::{load_templates, Inputs, Workload, LAMBDA, NAMES};

/// Rounds per run at least, so `setup_s` is a median of several set-ups.
const MIN_ROUNDS: usize = 3;
/// Stop starting rounds after this much wall time, whatever `--seconds` says.
const MAX_WALL_S: f64 = 100.0;
/// The held-out seed of the smoke mode (never used to tune the benchmark).
const SMOKE_SEED: u64 = 9001;
/// Replay passes per mode (spans off, spans on) behind `trace.overhead_pct`
/// at least, and the wall time they fill at least: short replays are
/// repeated until their fastest pass settles.
const OVERHEAD_MIN_PASSES: usize = 3;
const OVERHEAD_MIN_S: f64 = 3.0;
/// Where run records and span dumps go, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

struct Args {
    pqo: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pqo: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        if key == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{key} {value}: {e}");
        match key.as_str() {
            "--pqo" => args.pqo = PathBuf::from(value),
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if args.pqo.as_os_str().is_empty() {
        return Err("--pqo PATH (the `pqo` binary) is required".into());
    }
    if !args.smoke && Workload::named(&args.workload, false).is_none() {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// What one run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    record: String,
}

fn join(values: impl Iterator<Item = f64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Frames whose decisions differ from the oracle's, in one phase, and a
/// description of the first one.
fn mismatches(
    phase: &load::PhaseResult,
    oracle: &Oracle,
    names: &[String],
) -> (usize, Option<String>) {
    let mut count = 0;
    let mut first = None;
    for s in phase.frames() {
        let Some(d) = &s.decisions else { continue };
        let f = s.frame;
        let expected = &oracle.decisions[f.template][f.start..f.start + f.len];
        if let Some(k) = (0..f.len).find(|&k| d[k] != expected[k]) {
            count += 1;
            first.get_or_insert_with(|| {
                format!(
                    "{} instance {}: wire {:?}, oracle {:?}",
                    names[f.template],
                    f.start + k,
                    d[k],
                    expected[k]
                )
            });
        }
    }
    (count, first)
}

fn run(
    pqo: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_rounds: usize,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let t = load_templates(w.source)?;
    let connections = std::thread::available_parallelism().map_or(2, |n| n.get());
    let inputs = Inputs::generate(w, &t, connections);
    let oracle = Oracle::replay(&t, &inputs)?;
    eprintln!(
        "oracle replay done at {:.2} s",
        started.elapsed().as_secs_f64()
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let schedule = inputs.schedule(&mut rng);
        rounds.push(run_round(pqo, w, &t, &inputs, &schedule)?);
        let timed: f64 = rounds.iter().map(|r| r.timed.wall.as_secs_f64()).sum();
        let out_of_time = started.elapsed().as_secs_f64() > MAX_WALL_S;
        if rounds.len() >= min_rounds && (timed >= seconds || out_of_time) {
            break;
        }
    }

    let mut notes: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (k, r) in rounds.iter().enumerate() {
        for phase in [&r.warm, &r.timed] {
            let (wrong, first) = mismatches(phase, &oracle, &t.names);
            attempted += phase.frames().count();
            failed += phase.failed_frames() + wrong;
            if let Some(first) = first {
                notes.push(format!(
                    "round {k}: {wrong} frame(s) differ from the oracle, first at {first}"
                ));
            }
            notes.extend(phase.errors.iter().map(|e| format!("round {k}: {e}")));
        }
        notes.extend(r.errors.iter().map(|e| format!("round {k}: {e}")));
        let plans = |r: &Round| r.front_after().iter().map(|s| s.num_plans).sum::<u64>();
        if plans(r) != plans(&rounds[0]) {
            notes.push(format!("round {k}: plans cached differ from round 0"));
        }
    }

    let timed_decisions = oracle.decisions.iter().flat_map(|d| &d[inputs.warm_len..]);
    let optimized = timed_decisions.clone().filter(|d| d.optimized).count();
    let timed_count = timed_decisions.count();
    let quality = oracle.quality(&t, &inputs, connections);
    eprintln!(
        "{} rounds and scoring done at {:.2} s",
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    if quality.mso > LAMBDA {
        // The guarantee is SO ≤ λ; report a violation, do not hide it.
        eprintln!("DEFECT: mso {} exceeds λ = {LAMBDA}", quality.mso);
    }

    let metrics = if trace {
        // Alternate passes with span recording off and on, and compare the
        // fastest of each: the tracing overhead, on the same code path.
        let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
        let mut last = None;
        let replays_started = Instant::now();
        let mut passes = 0;
        while passes < 2 * OVERHEAD_MIN_PASSES
            || passes % 2 == 1
            || replays_started.elapsed().as_secs_f64() < OVERHEAD_MIN_S
        {
            let traced = passes % 2 == 1;
            passes += 1;
            let replay = trace::replay(&t, &inputs, w.replica, traced)?;
            if replay.decisions != oracle.decisions {
                notes.push("replay decisions differ from the oracle".into());
            }
            let best = if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            };
            *best = best.min(replay.timed_replay_s);
            if traced {
                last = Some(replay);
            }
        }
        let replay = last.expect("at least one traced pass");
        let x = LayerInputs {
            w,
            t: &t,
            inputs: &inputs,
            rounds: &rounds,
            oracle: &oracle,
            replay: &replay,
            replay_s: (untraced_s, traced_s),
        };
        let metrics = per_layer(&x)?;
        let wire = metrics::residuals(&rounds[0], &replay);
        let split = |miss: bool, f: fn(&(f64, f64, bool)) -> f64| -> Vec<f64> {
            wire.iter().filter(|r| r.2 == miss).map(f).collect()
        };
        let (hit_res, hit_rtt) = (split(false, |r| r.0), split(false, |r| r.1));
        let (miss_res, miss_rtt) = (split(true, |r| r.0), split(true, |r| r.1));
        println!(
            "{}",
            Budget::from_replay(&replay).table((&hit_res, &hit_rtt), (&miss_res, &miss_rtt))
        );
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("trace-{}.csv", w.name));
        replay
            .write_csv(&path, &t.names)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        metrics
    } else {
        end_to_end(
            &rounds,
            (optimized, timed_count),
            quality,
            failed,
            attempted,
        )
    };
    println!("mso {} (λ = {LAMBDA})", quality.mso);

    let correct = failed == 0 && notes.is_empty();
    let workers = rounds[0].front_after().first().map_or(0, |s| s.workers);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PQO_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let metric_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.value,
                m.samples
            )
        })
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {connections}, \"connections\": {connections}, \"server_workers\": {workers}, \
         \"lambda\": {LAMBDA}, \"policy\": \"scr\", \"commit\": {}, \"profile\": {}, \
         \"rounds\": {}, \"timed_instances_per_round\": {}, \"round_plans_per_s\": [{}], \
         \"round_setup_s\": [{}], \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"notes\": [{}], \"metrics\": [{}]}}",
        json_str(w.name),
        json_str(&commit),
        json_str(profile),
        rounds.len(),
        inputs.timed_instances(),
        join(
            rounds
                .iter()
                .map(|r| r.timed.timed_instances() as f64 / r.timed.wall.as_secs_f64())
        ),
        join(rounds.iter().map(|r| r.setup_s)),
        notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", "),
        metric_json.join(", ")
    );
    for note in &notes {
        eprintln!("FAILED: {note}");
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record,
    })
}

fn print_outcome(w: &Workload, trace: bool, o: &Outcome) -> Result<(), String> {
    println!(
        "{} ({}), {} frames attempted, {} failed",
        w.name,
        if trace {
            "traced run, per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        o.attempted,
        o.failed
    );
    for m in &o.metrics {
        println!(
            "  {:<34} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("record-{}-trace{}.json", w.name, u8::from(trace)));
    std::fs::write(&path, format!("{}\n", o.record))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("run record: {}", o.record);
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// The metric names `BENCHMARK.json` lists under `section`
/// (`end_to_end` or `per_layer`).
fn declared_names(section: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let start = text
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}`"))?;
    let body = &text[start..];
    let body = &body[..body[1..]
        .find("\"per_layer\"")
        .map_or(body.len(), |i| i + 1)];
    Ok(body
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next().map(str::to_string))
        .collect())
}

/// Short held-out-seed check of the benchmark itself: every workload at a
/// small size, twice untraced and once traced. Passes when every declared
/// metric prints with a unit, the oracle check passes, and the decision
/// metrics repeat exactly across the two untraced runs.
fn smoke(pqo: &Path) -> Result<bool, String> {
    let e2e = declared_names("end_to_end")?;
    let layer = declared_names("per_layer")?;
    let mut ok = true;
    for name in NAMES {
        let w = Workload::named(name, true).expect("known workload");
        let a = run(pqo, &w, SMOKE_SEED, 0.0, false, 1)?;
        let b = run(pqo, &w, SMOKE_SEED, 0.0, false, 1)?;
        let traced = run(pqo, &w, SMOKE_SEED, 0.0, true, 1)?;
        let mut problems = Vec::new();
        for (o, names) in [(&a, &e2e), (&b, &e2e), (&traced, &layer)] {
            if !o.correct {
                problems.push("oracle check failed".to_string());
            }
            for n in names {
                if !o.metrics.iter().any(|m| m.name == n && !m.unit.is_empty()) {
                    problems.push(format!("metric {n} missing"));
                }
            }
        }
        for n in ["opt_calls_pct", "plans_cached", "mso", "tc"] {
            let value = |o: &Outcome| {
                o.metrics
                    .iter()
                    .find(|m| m.name == n)
                    .map(|m| m.value.to_bits())
            };
            if value(&a) != value(&b) {
                problems.push(format!("{n} differs between two runs"));
            }
        }
        println!(
            "smoke {name}: {}",
            if problems.is_empty() {
                "PASS".to_string()
            } else {
                format!("FAIL: {}", problems.join("; "))
            }
        );
        ok &= problems.is_empty();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(&args.pqo) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let w = Workload::named(&args.workload, false).expect("validated");
    let result = run(
        &args.pqo,
        &w,
        args.seed,
        args.seconds,
        args.trace,
        MIN_ROUNDS,
    )
    .and_then(|o| print_outcome(&w, args.trace, &o));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
