//! The four traffic mixes and the inputs each one sends.
//!
//! Each template has a fixed reference stream, like the paper's workload
//! sequences: a region-bucketized warm-up stream and a timed stream drawn
//! from the same regions with another sub-seed (`pqo_workload::regions`,
//! paper Section 7.1). Template `i` belongs to connection
//! `i % connections`, so every run puts the same work on each connection.
//! `--seed` shapes the load: each round cycles through a connection's
//! templates in its own seeded order. Each template's decisions are made
//! in one sequential stream; they depend on the reference stream only,
//! never on `--seed`, and an in-process replay of the same frames is an
//! exact oracle. The decision metrics (numOpt, numPlans, MSO, TC) are
//! therefore the same in every run of a workload.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pqo_catalog::{schemas, Catalog};
use pqo_optimizer::template::{QueryInstance, QueryTemplate};
use pqo_rand::rngs::StdRng;
use pqo_rand::seq::SliceRandom;
use pqo_rand::{Rng, SeedableRng};
use pqo_workload::corpus::corpus;
use pqo_workload::regions;

/// The sub-optimality bound every server and oracle runs with.
pub const LAMBDA: f64 = 2.0;
/// Seed of the per-template reference streams.
const STREAM_SEED: u64 = 0;
/// Instances per `GET_PLAN_BATCH` frame (warm-up always uses batches).
pub const BATCH: usize = 32;
/// Directory of the committed SQL template fixtures.
pub const FIXTURE_DIR: &str = "templates";
/// The high-d corpus templates of the drift workloads (d = 10, 10, 8, 8, 7, 6).
pub const DRIFT_TEMPLATES: &[&str] = &[
    "rd2_T_d10",
    "rd2_P_d10",
    "rd2_P_d8",
    "rd2_S_d8",
    "rd2_T_d7",
    "rd2_Q_d6",
];

/// Where a workload's templates come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `templates/*.sql`, served with `--templates-dir`.
    Fixtures,
    /// [`DRIFT_TEMPLATES`] from the corpus, served with `--template`.
    Drift,
}

/// One traffic mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    /// Untimed warm-up instances per template (0 = cold).
    pub warm_per_template: usize,
    /// Timed instances per template in one round.
    pub timed_per_template: usize,
    /// Timed frames are `GET_PLAN_BATCH` of [`BATCH`] instead of `GET_PLAN`.
    pub batch: bool,
    /// Serve through a read replica of a cold primary.
    pub replica: bool,
}

/// Every workload name, in the order the smoke mode runs them.
pub const NAMES: &[&str] = &["steady_reuse", "batch_reuse", "cold_drift", "replica_drift"];

impl Workload {
    /// The named workload; `smoke` shrinks the streams for a quick check.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let (name, source, warm, timed, batch, replica) = match name {
            "steady_reuse" => ("steady_reuse", Source::Fixtures, 2000, 1000, false, false),
            "batch_reuse" => ("batch_reuse", Source::Fixtures, 2000, 12_000, true, false),
            "cold_drift" => ("cold_drift", Source::Drift, 0, 1000, false, false),
            "replica_drift" => ("replica_drift", Source::Drift, 0, 1000, false, true),
            _ => return None,
        };
        let (warm, timed) = if smoke {
            (warm.min(200), timed.min(320))
        } else {
            (warm, timed)
        };
        Some(Workload {
            name,
            source,
            warm_per_template: warm,
            timed_per_template: timed,
            batch,
            replica,
        })
    }
}

/// The templates a workload serves, with the server flags that register
/// the same set.
pub struct Templates {
    pub names: Vec<String>,
    pub templates: Vec<Arc<QueryTemplate>>,
    pub server_args: Vec<String>,
    /// `sql::compile` wall time per fixture (empty for corpus templates).
    pub compile_us: Vec<f64>,
}

/// Build a catalog by its directive name.
pub fn build_catalog(name: &str) -> Result<Catalog, String> {
    Ok(match name {
        "tpch_skew" => schemas::tpch_skew(),
        "tpcds" => schemas::tpcds(),
        "rd1" => schemas::rd1(),
        "rd2" => schemas::rd2(),
        other => return Err(format!("unknown catalog `{other}`")),
    })
}

/// Compile every fixture exactly as `pqo serve --templates-dir` does:
/// sorted by file name, named by file stem, bound against the catalog the
/// file's `pqo:catalog` directive names.
fn load_fixtures(dir: &Path) -> Result<Templates, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .sql template files", dir.display()));
    }
    let mut catalogs: Vec<Catalog> = Vec::new();
    let mut out = Templates {
        names: Vec::new(),
        templates: Vec::new(),
        server_args: vec!["--templates-dir".into(), dir.display().to_string()],
        compile_us: Vec::new(),
    };
    for path in &files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .ok_or_else(|| format!("{}: no file stem", path.display()))?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let dirs = pqo_sql::directives(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        let catalog_name = dirs
            .catalog
            .ok_or_else(|| format!("{}: no catalog directive", path.display()))?;
        let i = match catalogs.iter().position(|c| c.name() == catalog_name) {
            Some(i) => i,
            None => {
                catalogs.push(build_catalog(&catalog_name)?);
                catalogs.len() - 1
            }
        };
        let t0 = std::time::Instant::now();
        let compiled = pqo_sql::compile(&stem, &src, &catalogs[i])
            .map_err(|e| format!("{}: {}", path.display(), e.render(&src)))?;
        out.compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.names.push(stem);
        out.templates.push(compiled.template);
    }
    Ok(out)
}

fn load_drift() -> Result<Templates, String> {
    let mut out = Templates {
        names: Vec::new(),
        templates: Vec::new(),
        server_args: vec!["--template".into(), DRIFT_TEMPLATES.join(",")],
        compile_us: Vec::new(),
    };
    for id in DRIFT_TEMPLATES {
        let spec = corpus()
            .iter()
            .find(|s| s.id == *id)
            .ok_or_else(|| format!("corpus has no template `{id}`"))?;
        out.names.push(spec.id.clone());
        out.templates.push(Arc::clone(&spec.template));
    }
    Ok(out)
}

/// Load the workload's templates (fixtures are read relative to the
/// current directory, the repository root).
pub fn load_templates(source: Source) -> Result<Templates, String> {
    match source {
        Source::Fixtures => load_fixtures(Path::new(FIXTURE_DIR)),
        Source::Drift => load_drift(),
    }
}

/// One request frame: `len` consecutive instances of one template,
/// starting at `start` in that template's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub template: usize,
    pub start: usize,
    pub len: usize,
    pub batch: bool,
}

/// The per-template instance streams (warm-up first, then timed) that every
/// round sends.
pub struct Inputs {
    pub instances: Vec<Vec<QueryInstance>>,
    /// Raw parameter values, parallel to `instances` (what the wire sends).
    pub values: Vec<Vec<Vec<f64>>>,
    pub warm_len: usize,
    timed_len: usize,
    batch: bool,
    connections: usize,
}

/// One round's frames per connection, in send order.
pub struct Schedule {
    pub warm: Vec<Vec<Frame>>,
    pub timed: Vec<Vec<Frame>>,
}

impl Inputs {
    pub fn generate(w: &Workload, t: &Templates, connections: usize) -> Inputs {
        let mut sub_seeds = StdRng::seed_from_u64(STREAM_SEED);
        let mut instances = Vec::new();
        for template in &t.templates {
            let (warm_seed, timed_seed) = (sub_seeds.next_u64(), sub_seeds.next_u64());
            let mut stream = regions::generate(template, w.warm_per_template, warm_seed);
            stream.extend(regions::generate(
                template,
                w.timed_per_template,
                timed_seed,
            ));
            instances.push(stream);
        }
        let values = instances
            .iter()
            .map(|s| s.iter().map(|q| q.values.clone()).collect())
            .collect();
        Inputs {
            instances,
            values,
            warm_len: w.warm_per_template,
            timed_len: w.timed_per_template,
            batch: w.batch,
            connections,
        }
    }

    /// The frames of the next round: `rng` (seeded once per run) gives each
    /// round a fresh cycle order, so the rounds of one run sample different
    /// interleavings (and server memory layouts) rather than repeating one.
    pub fn schedule(&self, rng: &mut StdRng) -> Schedule {
        let n = self.instances.len();
        let owned: Vec<Vec<usize>> = (0..self.connections)
            .map(|c| (c..n).step_by(self.connections).collect())
            .collect();
        let mut frames = |from: usize, len: usize, batch: bool| -> Vec<Vec<Frame>> {
            owned
                .iter()
                .map(|mine| interleave(rng, mine, from, len, batch))
                .collect()
        };
        let warm = frames(0, self.warm_len, true);
        let timed = frames(self.warm_len, self.timed_len, self.batch);
        Schedule { warm, timed }
    }

    /// Every frame of one template in send order (warm-up, then timed); the
    /// same in every schedule.
    pub fn template_frames(&self, template: usize) -> Vec<Frame> {
        // A one-template cycle has one order; the generator is never drawn.
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = interleave(&mut rng, &[template], 0, self.warm_len, true);
        out.extend(interleave(
            &mut rng,
            &[template],
            self.warm_len,
            self.timed_len,
            self.batch,
        ));
        out
    }

    /// Timed instances per round.
    pub fn timed_instances(&self) -> usize {
        self.instances.len() * self.timed_len
    }
}

/// Frames covering `len` instances of each of `templates` from offset
/// `from`: one frame per template per cycle, in a fresh seeded order each
/// cycle.
fn interleave(
    rng: &mut StdRng,
    templates: &[usize],
    from: usize,
    len: usize,
    batch: bool,
) -> Vec<Frame> {
    let step = if batch { BATCH } else { 1 };
    let mut frames = Vec::new();
    let mut cycle = templates.to_vec();
    let mut offset = 0;
    while offset < len {
        let n = step.min(len - offset);
        cycle.shuffle(rng);
        for &t in &cycle {
            frames.push(Frame {
                template: t,
                start: from + offset,
                len: n,
                batch,
            });
        }
        offset += n;
    }
    frames
}
