//! One round: start fresh server(s), warm up, run the timed phase, take
//! STATS and `/proc` readings around it, and shut everything down.

use std::path::Path;
use std::time::{Duration, Instant};

use pqo_server::WireStats;

use crate::load::{run_phase, PhaseResult};
use crate::server::{stats_all, ExitSummary, ServerProc};
use crate::workload::{Inputs, Schedule, Templates, Workload};

/// How long a replica may take to subscribe and reach lag 0.
const SUBSCRIBE_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything one round measured.
pub struct Round {
    /// Spawn until every server is listening (and the replica is
    /// subscribed at lag 0).
    pub setup_s: f64,
    pub warm: PhaseResult,
    pub timed: PhaseResult,
    /// User + system CPU of every server process over the timed phase.
    pub cpu_s: f64,
    /// Σ `VmHWM` of the server processes at the end of the round.
    pub rss_kib: f64,
    /// Per server (primary first), per template STATS around the timed
    /// phase.
    pub before: Vec<Vec<WireStats>>,
    pub after: Vec<Vec<WireStats>>,
    /// Exit summaries of the servers that shut down cleanly.
    pub summaries: Vec<ExitSummary>,
    /// Server-side failures: a shutdown that did not drain, a non-zero exit.
    pub errors: Vec<String>,
}

impl Round {
    /// The STATS of the server the load generator talks to.
    pub fn front_after(&self) -> &[WireStats] {
        self.after.last().expect("at least one server")
    }
}

/// Poll until the replica's subscriber is connected to the primary and
/// every template reports lag 0.
fn wait_subscribed(
    primary: &ServerProc,
    replica: &ServerProc,
    names: &[String],
) -> Result<(), String> {
    let deadline = Instant::now() + SUBSCRIBE_TIMEOUT;
    let mut p = primary.connect()?;
    let mut r = replica.connect()?;
    loop {
        // Our own probe connection is one of the primary's open connections;
        // the replica's subscriber is the other.
        let subscribed = stats_all(&mut p, &names[..1])?[0].open_connections >= 2;
        if subscribed && stats_all(&mut r, names)?.iter().all(|s| s.replica_lag == 0) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("replica did not subscribe at lag 0".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn cpu_seconds(servers: &[&ServerProc]) -> Result<f64, String> {
    servers.iter().map(|s| s.cpu_seconds()).sum()
}

pub fn run_round(
    pqo: &Path,
    w: &Workload,
    t: &Templates,
    inputs: &Inputs,
    schedule: &Schedule,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut primary_args = t.server_args.clone();
    if w.replica {
        primary_args.push("--primary".into());
    }
    let primary = ServerProc::spawn(pqo, &primary_args)?;
    let replica = if w.replica {
        let mut args = t.server_args.clone();
        args.extend(["--replica-of".to_string(), primary.addr.clone()]);
        let replica = ServerProc::spawn(pqo, &args)?;
        wait_subscribed(&primary, &replica, &t.names)?;
        Some(replica)
    } else {
        None
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let servers: Vec<&ServerProc> = std::iter::once(&primary).chain(replica.as_ref()).collect();
    let front = *servers.last().expect("at least one server");
    let connect = || front.connect();
    let warm = run_phase(&connect, &t.names, inputs, &schedule.warm);

    let mut probes = servers
        .iter()
        .map(|s| s.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let before = probes
        .iter_mut()
        .map(|c| stats_all(c, &t.names))
        .collect::<Result<Vec<_>, _>>()?;
    let cpu0 = cpu_seconds(&servers)?;
    let timed = run_phase(&connect, &t.names, inputs, &schedule.timed);
    let cpu_s = cpu_seconds(&servers)? - cpu0;
    let after = probes
        .iter_mut()
        .map(|c| stats_all(c, &t.names))
        .collect::<Result<Vec<_>, _>>()?;
    let rss_kib = servers
        .iter()
        .map(|s| s.peak_rss_kib())
        .sum::<Result<f64, _>>()?;
    drop(probes);

    // Replica first: its subscriber must not outlive the primary's drain.
    let mut summaries = Vec::new();
    let mut errors = Vec::new();
    for server in replica.into_iter().chain(std::iter::once(primary)) {
        match server.shutdown() {
            Ok(s) => summaries.push(s),
            Err(e) => errors.push(e),
        }
    }
    Ok(Round {
        setup_s,
        warm,
        timed,
        cpu_s,
        rss_kib,
        before,
        after,
        summaries,
        errors,
    })
}
