//! The closed-loop load generator: one thread and one connection per
//! session, each sending its next frame only after the previous reply.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pqo_server::PqoClient;

use crate::workload::{Frame, Inputs};

/// One served decision as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    pub fingerprint: u64,
    pub optimized: bool,
}

/// The client-side span of one frame: when it was written and when its
/// reply was read (nanoseconds from the phase start), which frame it was,
/// and what came back (`None` when the frame failed).
#[derive(Debug, Clone)]
pub struct FrameSpan {
    pub frame: Frame,
    pub start_ns: u64,
    pub end_ns: u64,
    pub decisions: Option<Vec<Decision>>,
}

impl FrameSpan {
    pub fn rtt_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether any instance in the frame forced an optimizer call.
    pub fn any_optimized(&self) -> bool {
        self.decisions
            .as_ref()
            .is_some_and(|d| d.iter().any(|x| x.optimized))
    }
}

/// One phase on every connection.
pub struct PhaseResult {
    /// Spans per connection, in send order.
    pub spans: Vec<Vec<FrameSpan>>,
    /// From the common start until the first connection finished: the
    /// window in which every session was active. Frames that end after it
    /// are still sent and checked, but not timed.
    pub wall: Duration,
    window_end_ns: u64,
    /// First error per failed connection.
    pub errors: Vec<String>,
}

impl PhaseResult {
    pub fn frames(&self) -> impl Iterator<Item = &FrameSpan> {
        self.spans.iter().flatten()
    }

    /// Frames that completed while every session was active.
    pub fn timed_frames(&self) -> impl Iterator<Item = &FrameSpan> {
        self.frames().filter(|s| s.end_ns <= self.window_end_ns)
    }

    pub fn failed_frames(&self) -> usize {
        self.frames().filter(|s| s.decisions.is_none()).count()
    }

    /// Every instance the phase sent.
    pub fn instances(&self) -> usize {
        self.frames().map(|s| s.frame.len).sum()
    }

    /// Instances answered inside the timed window.
    pub fn timed_instances(&self) -> usize {
        self.timed_frames()
            .filter(|s| s.decisions.is_some())
            .map(|s| s.frame.len)
            .sum()
    }
}

fn send(
    client: &mut PqoClient,
    name: &str,
    inputs: &Inputs,
    frame: &Frame,
) -> Result<Vec<Decision>, String> {
    let values = &inputs.values[frame.template][frame.start..frame.start + frame.len];
    let to_decision = |fingerprint: u64, optimized: bool| Decision {
        fingerprint,
        optimized,
    };
    if frame.batch {
        let choices = client
            .get_plan_batch(name, values)
            .map_err(|e| e.to_string())?;
        if choices.len() != frame.len {
            return Err(format!(
                "{} decisions for {} instances",
                choices.len(),
                frame.len
            ));
        }
        Ok(choices
            .iter()
            .map(|c| to_decision(c.fingerprint.0, c.optimized))
            .collect())
    } else {
        let c = client
            .get_plan(name, &values[0])
            .map_err(|e| e.to_string())?;
        Ok(vec![to_decision(c.fingerprint.0, c.optimized)])
    }
}

/// Send `frames[c]` on connection `c`, all connections starting together.
/// A connection stops at its first failure; that frame and every frame it
/// did not send count as failed.
pub fn run_phase(
    connect: &(dyn Fn() -> Result<PqoClient, String> + Sync),
    names: &[String],
    inputs: &Inputs,
    frames: &[Vec<Frame>],
) -> PhaseResult {
    let barrier = Barrier::new(frames.len());
    let epoch = Instant::now();
    let per_conn: Vec<(Vec<FrameSpan>, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = frames
            .iter()
            .map(|conn_frames| {
                let barrier = &barrier;
                s.spawn(move || {
                    let client = connect();
                    barrier.wait();
                    let mut spans = Vec::with_capacity(conn_frames.len());
                    let mut error = None;
                    let mut client = match client {
                        Ok(c) => Some(c),
                        Err(e) => {
                            error = Some(e);
                            None
                        }
                    };
                    for frame in conn_frames {
                        let start = Instant::now();
                        let decisions = match client.as_mut() {
                            Some(c) => match send(c, &names[frame.template], inputs, frame) {
                                Ok(d) => Some(d),
                                Err(e) => {
                                    error.get_or_insert(e);
                                    client = None;
                                    None
                                }
                            },
                            None => None,
                        };
                        let end = Instant::now();
                        spans.push(FrameSpan {
                            frame: *frame,
                            start_ns: (start - epoch).as_nanos() as u64,
                            end_ns: (end - epoch).as_nanos() as u64,
                            decisions,
                        });
                    }
                    (spans, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let first_start = per_conn
        .iter()
        .filter_map(|(spans, _)| spans.first().map(|s| s.start_ns))
        .min()
        .unwrap_or(0);
    let window_end_ns = per_conn
        .iter()
        .map(|(spans, _)| spans.last().map_or(first_start, |s| s.end_ns))
        .min()
        .unwrap_or(first_start);
    let mut spans = Vec::new();
    let mut errors = Vec::new();
    for (s, e) in per_conn {
        spans.push(s);
        errors.extend(e);
    }
    PhaseResult {
        spans,
        wall: Duration::from_nanos(window_end_ns.saturating_sub(first_start)),
        window_end_ns,
        errors,
    }
}
