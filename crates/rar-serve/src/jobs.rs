//! Job specifications: what a client may ask the daemon to run.
//!
//! Three request kinds map onto two internal shapes: a `sweep` (the cross
//! product of workloads × techniques × seeds), an `inject` campaign (the
//! same paired OoO/RAR cross-validation experiment the `inject` CLI
//! subcommand runs, so daemon output diffs byte-identically against CLI
//! goldens), and `single` — sugar for a one-cell sweep. Specs parse from
//! and render to flat JSON with the same hand-rolled discipline as the
//! `rar-inject` journal: we control both producer and consumer, so a
//! fixed schema beats a general parser.
//!
//! Rendering and parsing round-trip exactly — the queue journal persists
//! specs through [`JobSpec::to_json`], and a restarted daemon re-parses
//! them with [`JobSpec::parse`].

use rar_core::Technique;
use rar_sim::SimConfig;

/// A job's lifecycle phase, as reported by `GET /v1/jobs/{id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, journaled, waiting for a worker.
    Queued,
    /// Claimed by a pool worker.
    Running,
    /// Every unit of work finished and its result is available.
    Completed,
    /// Cooperatively canceled; finished units keep their results.
    Canceled,
    /// Finished with at least one failed unit of work.
    Failed,
}

impl JobPhase {
    /// The wire name (`"queued"`, `"running"`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Canceled => "canceled",
            JobPhase::Failed => "failed",
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Canceled | JobPhase::Failed
        )
    }
}

/// A sweep job: the cross product of its axes, run cell by cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Workload names (validated per cell by [`SimConfig::validate`]).
    pub workloads: Vec<String>,
    /// Techniques to run each workload under.
    pub techniques: Vec<Technique>,
    /// Workload seeds; empty means the config-default seed.
    pub seeds: Vec<u64>,
    /// Instructions per run.
    pub instructions: u64,
    /// Warmup instructions per run.
    pub warmup: u64,
}

impl SweepJob {
    /// Expands the axes into one [`SimConfig`] per cell, in a stable
    /// workload-major order.
    #[must_use]
    pub fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::new();
        let seeds: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().copied().map(Some).collect()
        };
        for w in &self.workloads {
            for &t in &self.techniques {
                for &seed in &seeds {
                    let mut b = SimConfig::builder();
                    b.workload(w)
                        .technique(t)
                        .instructions(self.instructions)
                        .warmup(self.warmup);
                    if let Some(s) = seed {
                        b.seed(s);
                    }
                    out.push(b.build());
                }
            }
        }
        out
    }
}

/// An injection-campaign job: `samples` injections under OoO and under
/// RAR, exactly like `rar-experiments inject`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectJob {
    /// Workload under injection.
    pub workload: String,
    /// Total sample indices per technique.
    pub samples: u64,
    /// Fault-site planning seed.
    pub inject_seed: u64,
    /// Instructions per run.
    pub instructions: u64,
    /// Warmup instructions per run.
    pub warmup: u64,
    /// Campaign worker threads (results are thread-count invariant).
    pub threads: usize,
}

/// What a job does, behind the shared priority/identity envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A grid of simulations.
    Sweep(SweepJob),
    /// A paired fault-injection campaign.
    Inject(InjectJob),
}

/// One submitted job: scheduling priority plus the work itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Higher runs first; ties claim in submission order.
    pub priority: i64,
    /// The work.
    pub kind: JobKind,
}

impl JobSpec {
    /// Units of work the job covers (sweep cells, or injections across
    /// both techniques) — the denominator for progress reporting.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        match &self.kind {
            JobKind::Sweep(s) => {
                let seeds = s.seeds.len().max(1);
                (s.workloads.len() * s.techniques.len() * seeds) as u64
            }
            JobKind::Inject(i) => i.samples * 2,
        }
    }

    /// Renders the spec as one flat JSON object (round-trips through
    /// [`JobSpec::parse`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        match &self.kind {
            JobKind::Sweep(s) => {
                let workloads: Vec<String> =
                    s.workloads.iter().map(|w| format!("\"{w}\"")).collect();
                let techniques: Vec<String> = s
                    .techniques
                    .iter()
                    .map(|t| format!("\"{}\"", t.to_string().to_ascii_lowercase()))
                    .collect();
                let seeds: Vec<String> = s.seeds.iter().map(u64::to_string).collect();
                format!(
                    "{{\"kind\":\"sweep\",\"priority\":{},\"workloads\":[{}],\
                     \"techniques\":[{}],\"seeds\":[{}],\"instructions\":{},\"warmup\":{}}}",
                    self.priority,
                    workloads.join(","),
                    techniques.join(","),
                    seeds.join(","),
                    s.instructions,
                    s.warmup
                )
            }
            JobKind::Inject(i) => format!(
                "{{\"kind\":\"inject\",\"priority\":{},\"workload\":\"{}\",\
                 \"samples\":{},\"inject_seed\":{},\"instructions\":{},\"warmup\":{},\"threads\":{}}}",
                self.priority, i.workload, i.samples, i.inject_seed, i.instructions, i.warmup, i.threads
            ),
        }
    }

    /// Parses a spec from a request body or a journaled line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found (unknown
    /// kind, missing field, empty axis, unknown technique).
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let text = text.trim();
        if !text.starts_with('{') || !text.ends_with('}') {
            return Err("job spec must be a JSON object".to_owned());
        }
        let priority = field(text, "priority")
            .map(|v| v.parse().map_err(|_| format!("bad priority {v:?}")))
            .transpose()?
            .unwrap_or(0);
        let instructions = u64_field(text, "instructions")?.unwrap_or(2_000);
        let warmup = u64_field(text, "warmup")?.unwrap_or(300);
        match field(text, "kind") {
            Some("sweep") => {
                let workloads =
                    str_list(text, "workloads").ok_or("sweep requires \"workloads\": [..]")?;
                let technique_names =
                    str_list(text, "techniques").ok_or("sweep requires \"techniques\": [..]")?;
                if workloads.is_empty() || technique_names.is_empty() {
                    return Err("sweep axes must be non-empty".to_owned());
                }
                let techniques = parse_techniques(&technique_names)?;
                let seeds = u64_list(text, "seeds")?.unwrap_or_default();
                Ok(JobSpec {
                    priority,
                    kind: JobKind::Sweep(SweepJob {
                        workloads,
                        techniques,
                        seeds,
                        instructions,
                        warmup,
                    }),
                })
            }
            Some("single") => {
                let workload = field(text, "workload")
                    .ok_or("single requires \"workload\"")?
                    .to_owned();
                let technique_name = field(text, "technique").unwrap_or("rar");
                let techniques = parse_techniques(&[technique_name.to_owned()])?;
                let seeds = match u64_field(text, "seed")? {
                    Some(s) => vec![s],
                    None => Vec::new(),
                };
                Ok(JobSpec {
                    priority,
                    kind: JobKind::Sweep(SweepJob {
                        workloads: vec![workload],
                        techniques,
                        seeds,
                        instructions,
                        warmup,
                    }),
                })
            }
            Some("inject") => Ok(JobSpec {
                priority,
                kind: JobKind::Inject(InjectJob {
                    workload: field(text, "workload")
                        .ok_or("inject requires \"workload\"")?
                        .to_owned(),
                    samples: u64_field(text, "samples")?.unwrap_or(1_000),
                    inject_seed: u64_field(text, "inject_seed")?.unwrap_or(1),
                    instructions,
                    warmup,
                    threads: usize::try_from(u64_field(text, "threads")?.unwrap_or(1))
                        .map_err(|_| "bad threads".to_owned())?
                        .max(1),
                }),
            }),
            Some(other) => Err(format!("unknown job kind {other:?}")),
            None => Err("job spec requires \"kind\"".to_owned()),
        }
    }
}

fn parse_techniques(names: &[String]) -> Result<Vec<Technique>, String> {
    names
        .iter()
        .map(|n| Technique::parse(n).ok_or_else(|| format!("unknown technique {n:?}")))
        .collect()
}

/// Extracts the raw value of `"key":` from a flat JSON object, quotes
/// stripped. Skips occurrences inside arrays by requiring the match at
/// the top nesting level of the object.
#[must_use]
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest.find([',', '}'])?;
    let value = rest[..end].trim().trim_matches('"');
    Some(value)
}

/// [`field`] parsed as `u64`; distinguishes absent (`Ok(None)`) from
/// malformed (`Err`).
///
/// # Errors
///
/// The key is present but its value does not parse as `u64`.
pub fn u64_field(text: &str, key: &str) -> Result<Option<u64>, String> {
    field(text, key)
        .map(|v| v.parse().map_err(|_| format!("bad {key} {v:?}")))
        .transpose()
}

/// Extracts `"key": [...]` (whitespace allowed before the bracket, as
/// ordinary JSON encoders write it) and returns the raw bracket contents.
fn list<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = text
        .match_indices(&pat)
        .find_map(|(at, _)| text[at + pat.len()..].trim_start().strip_prefix('['))?;
    let end = rest.find(']')?;
    Some(&rest[..end])
}

fn str_list(text: &str, key: &str) -> Option<Vec<String>> {
    let raw = list(text, key)?;
    Some(
        raw.split(',')
            .map(|s| s.trim().trim_matches('"').to_owned())
            .filter(|s| !s.is_empty())
            .collect(),
    )
}

fn u64_list(text: &str, key: &str) -> Result<Option<Vec<u64>>, String> {
    let Some(raw) = list(text, key) else {
        return Ok(None);
    };
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad {key} entry {s:?}")))
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> JobSpec {
        JobSpec {
            priority: 5,
            kind: JobKind::Sweep(SweepJob {
                workloads: vec!["mcf".to_owned(), "milc".to_owned()],
                techniques: vec![Technique::Ooo, Technique::Rar],
                seeds: vec![1, 2],
                instructions: 2_000,
                warmup: 300,
            }),
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let inject = JobSpec {
            priority: -1,
            kind: JobKind::Inject(InjectJob {
                workload: "mcf".to_owned(),
                samples: 50,
                inject_seed: 7,
                instructions: 2_000,
                warmup: 300,
                threads: 2,
            }),
        };
        for spec in [sweep_spec(), inject] {
            let json = spec.to_json();
            assert_eq!(JobSpec::parse(&json), Ok(spec), "{json}");
        }
    }

    #[test]
    fn encoder_whitespace_is_accepted() {
        // The layout Python's `json.dumps` writes by default.
        let body = "{\"kind\": \"sweep\", \"priority\": 5, \
                    \"workloads\": [\"mcf\", \"milc\"], \
                    \"techniques\": [\"ooo\", \"rar\"], \"seeds\": [1, 2], \
                    \"instructions\": 2000, \"warmup\": 300}";
        assert_eq!(JobSpec::parse(body), Ok(sweep_spec()));
        let newlines =
            "{\"kind\":\"sweep\",\"workloads\":\n  [\"mcf\"],\"techniques\":\t[\"rar\"]}";
        let spec = JobSpec::parse(newlines).expect("parse");
        assert_eq!(spec.total_units(), 1);
    }

    #[test]
    fn sweep_configs_are_the_cross_product() {
        let spec = sweep_spec();
        assert_eq!(spec.total_units(), 8);
        let JobKind::Sweep(s) = &spec.kind else {
            unreachable!()
        };
        let configs = s.configs();
        assert_eq!(configs.len(), 8);
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // Stable order: workload-major, then technique, then seed.
        assert_eq!(configs[0].workload, "mcf");
        assert_eq!(configs[7].workload, "milc");
    }

    #[test]
    fn single_is_sugar_for_a_one_cell_sweep() {
        let spec =
            JobSpec::parse("{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"rar\"}")
                .expect("parse");
        assert_eq!(spec.total_units(), 1);
        let JobKind::Sweep(s) = &spec.kind else {
            panic!("single must become a sweep")
        };
        assert_eq!(s.configs()[0].technique, Technique::Rar);
    }

    #[test]
    fn malformed_specs_are_descriptive_errors() {
        for (body, needle) in [
            ("not json", "JSON object"),
            ("{\"kind\":\"dance\"}", "unknown job kind"),
            ("{\"priority\":0}", "requires \"kind\""),
            (
                "{\"kind\":\"sweep\",\"workloads\":[],\"techniques\":[]}",
                "non-empty",
            ),
            (
                "{\"kind\":\"sweep\",\"workloads\":[\"mcf\"],\"techniques\":[\"warp\"]}",
                "unknown technique",
            ),
            ("{\"kind\":\"inject\"}", "requires \"workload\""),
        ] {
            let err = JobSpec::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn phases_name_and_terminate_consistently() {
        for (phase, name, terminal) in [
            (JobPhase::Queued, "queued", false),
            (JobPhase::Running, "running", false),
            (JobPhase::Completed, "completed", true),
            (JobPhase::Canceled, "canceled", true),
            (JobPhase::Failed, "failed", true),
        ] {
            assert_eq!(phase.name(), name);
            assert_eq!(phase.is_terminal(), terminal);
        }
    }
}
