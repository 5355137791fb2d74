//! The in-process oracle: a fresh `PqoService` (same λ, same policy)
//! replays every template's frames in send order. Because each template's
//! decisions are made in one sequential stream, its decisions must equal
//! the wire's exactly; any difference fails the frame.
//!
//! The oracle also scores decision quality (paper Section 7): for every
//! timed instance, SO = Cost(served plan, q) / Cost(optimal plan, q), with
//! the optimal plan from a full optimizer call.

use std::sync::Arc;
use std::time::Instant;

use pqo_core::scr::ScrConfig;
use pqo_core::PqoService;
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::plan::Plan;

use crate::load::Decision;
use crate::workload::{Inputs, Templates, LAMBDA};

/// What the oracle decided, per template and instance (warm-up + timed).
pub struct Oracle {
    pub decisions: Vec<Vec<Decision>>,
    /// Per template, the served plan of each timed instance.
    plans: Vec<Vec<Arc<Plan>>>,
    /// `PqoService::register` wall time per template.
    pub register_us: Vec<f64>,
}

/// Decision quality over the timed instances.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Max sub-optimality (MSO).
    pub mso: f64,
    /// Σ Cost(served) / Σ Cost(optimal) (TotalCostRatio).
    pub tc: f64,
}

/// The service configuration every server and oracle runs under.
pub fn config() -> ScrConfig {
    ScrConfig::new(LAMBDA).expect("λ = 2 is valid")
}

impl Oracle {
    pub fn replay(t: &Templates, inputs: &Inputs) -> Result<Oracle, String> {
        let service = PqoService::new();
        let mut register_us = Vec::new();
        for template in &t.templates {
            let t0 = Instant::now();
            service
                .register(Arc::clone(template), config())
                .map_err(|e| e.to_string())?;
            register_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let mut decisions = Vec::new();
        let mut plans = Vec::new();
        for (i, name) in t.names.iter().enumerate() {
            let mut out = Vec::with_capacity(inputs.instances[i].len());
            let mut timed_plans = Vec::new();
            for frame in inputs.template_frames(i) {
                let batch = &inputs.instances[i][frame.start..frame.start + frame.len];
                let choices = if frame.batch {
                    service.get_plan_batch(name, batch)
                } else {
                    service.get_plan(name, &batch[0]).map(|c| vec![c])
                }
                .map_err(|e| e.to_string())?;
                if frame.start >= inputs.warm_len {
                    timed_plans.extend(choices.iter().map(|c| Arc::clone(&c.plan)));
                }
                out.extend(choices.iter().map(|c| Decision {
                    fingerprint: c.plan.fingerprint().0,
                    optimized: c.optimized,
                }));
            }
            decisions.push(out);
            plans.push(timed_plans);
        }
        Ok(Oracle {
            decisions,
            plans,
            register_us,
        })
    }

    /// Score the timed decisions, one thread per template group.
    pub fn quality(&self, t: &Templates, inputs: &Inputs, threads: usize) -> Quality {
        let per_template: Vec<(f64, f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    s.spawn(move || {
                        (0..t.templates.len())
                            .filter(|i| i % threads == k)
                            .map(|i| (i, self.score(t, inputs, i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, (f64, f64, f64))> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("quality thread panicked"))
                .collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, q)| q).collect()
        });
        let mso = per_template.iter().map(|q| q.0).fold(1.0, f64::max);
        let served: f64 = per_template.iter().map(|q| q.1).sum();
        let optimal: f64 = per_template.iter().map(|q| q.2).sum();
        Quality {
            mso,
            tc: served / optimal,
        }
    }

    /// (max SO, Σ served cost, Σ optimal cost) of one template.
    fn score(&self, t: &Templates, inputs: &Inputs, i: usize) -> (f64, f64, f64) {
        let engine = QueryEngine::new(Arc::clone(&t.templates[i]));
        let timed = &inputs.instances[i][inputs.warm_len..];
        let (mut mso, mut served, mut optimal) = (1.0f64, 0.0, 0.0);
        for (q, plan) in timed.iter().zip(&self.plans[i]) {
            let sv = engine.compute_svector(q);
            let best = engine.optimize_untracked(&sv).cost;
            let cost = engine.recost_untracked(plan, &sv);
            mso = mso.max(cost / best);
            served += cost;
            optimal += best;
        }
        (mso, served, optimal)
    }
}
