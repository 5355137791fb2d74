//! `pqo serve` child processes: spawn, wait until listening, read CPU and
//! memory from `/proc`, and shut down.
//!
//! A [`ServerProc`] kills and reaps its child when dropped, so every exit
//! path of the benchmark — including errors and panics — leaves no server
//! behind. A graceful [`ServerProc::shutdown`] that times out or exits
//! non-zero is reported as an error.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pqo_server::{PqoClient, WireStats};

/// How long a server may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to drain and exit after `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Client read/write timeout; a reply slower than this fails the frame.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Linux `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Counters from the exit summary `pqo serve` prints after a shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExitSummary {
    pub frames_served: u64,
    pub poll_wakeups: u64,
}

/// One running `pqo serve` process.
pub struct ServerProc {
    child: Option<Child>,
    reader: Option<JoinHandle<Vec<String>>>,
    pub addr: String,
    pub pid: u32,
}

impl ServerProc {
    /// Start `pqo serve --listen 127.0.0.1:0 <args>` and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(pqo: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut command = Command::new(pqo);
        command
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        kill_with_parent(&mut command);
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pqo.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    // The receiver may be gone after a start timeout.
                    let _ = tx.send(addr.to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut server = ServerProc {
            child: Some(child),
            reader: Some(reader),
            addr: String::new(),
            pid,
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => server.addr = addr,
            Err(_) => return Err(format!("server {pid} did not start listening")),
        }
        Ok(server)
    }

    /// A fresh client connection to this server.
    pub fn connect(&self) -> Result<PqoClient, String> {
        PqoClient::connect_with_timeout(&self.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// User + system CPU seconds consumed so far (`/proc/<pid>/stat`).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("/proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|s| s.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
    }

    /// Peak resident set size in KiB (`VmHWM` in `/proc/<pid>/status`).
    pub fn peak_rss_kib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Ask the server to shut down, wait for it to drain and exit 0, and
    /// parse its exit summary.
    pub fn shutdown(mut self) -> Result<ExitSummary, String> {
        let pid = self.pid;
        let client = self.connect()?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown {pid}: {e}"))?;
        let mut child = self.child.take().expect("child is running");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server {pid} did not exit after SHUTDOWN"));
                }
                Err(e) => return Err(format!("wait {pid}: {e}")),
            }
        };
        let lines = self
            .reader
            .take()
            .expect("reader is running")
            .join()
            .map_err(|_| "stdout reader panicked".to_string())?;
        if !status.success() {
            return Err(format!("server {pid} exited with {status}"));
        }
        let field = |key: &str| -> Result<u64, String> {
            lines
                .iter()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    (k.trim() == key).then(|| v.trim().parse().ok())?
                })
                .ok_or_else(|| format!("server {pid}: no `{key}` in exit summary"))
        };
        Ok(ExitSummary {
            frames_served: field("frames served")?,
            poll_wakeups: field("poll wakeups")?,
        })
    }
}

/// Have the kernel kill the child if the benchmark dies first (a signal
/// from a timeout skips every `Drop`). The kernel acts when the spawning
/// thread exits; servers are spawned from the main thread.
#[cfg(target_os = "linux")]
fn kill_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and only
    // makes the prctl system call, which is async-signal-safe, allocates
    // nothing and touches no memory of the parent.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn kill_with_parent(_: &mut Command) {}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// STATS for every template, in `names` order. Per-template fields
/// (hits, plans, publishes) are summed by the caller; server-wide fields
/// (queue depth, replication bytes, workers) repeat in every entry.
pub fn stats_all(client: &mut PqoClient, names: &[String]) -> Result<Vec<WireStats>, String> {
    names
        .iter()
        .map(|name| client.stats(name).map_err(|e| format!("STATS {name}: {e}")))
        .collect()
}
