//! From repetitions and spans to named metrics. `METRICS.md` is the
//! dictionary of every name defined here.

use crate::trace::{self, Span};
use crate::workloads::{RepOut, SetupTimes, Sizes, Workload};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("runs_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
    ("failed_frac", "frac"),
    ("fpu.bank_s", "s"),
    ("dta.warm_s", "s"),
    ("workloads.build_s", "s"),
    ("uarch.golden_s", "s"),
    ("uarch.golden_insn", "count"),
    ("uarch.golden_insn_per_s", "1/s"),
    ("uarch.golden_checkpoints", "count"),
    ("uarch.share", "frac"),
    ("dev.trace_s", "s"),
    ("dev.trace_pairs", "count"),
    ("dev.share", "frac"),
    ("dta.ia_s", "s"),
    ("dta.wa_s", "s"),
    ("dta.da_cal_s", "s"),
    ("dta.pairs", "count"),
    ("dta.ia_pairs_per_s", "1/s"),
    ("dta.wa_pairs_per_s", "1/s"),
    ("dta.share", "frac"),
    ("campaign.s", "s"),
    ("campaign.cells", "count"),
    ("campaign.runs", "count"),
    ("campaign.runs_per_s", "1/s"),
    ("campaign.cell_p50_s", "s"),
    ("campaign.cell_max_s", "s"),
    ("campaign.share", "frac"),
    ("campaign.no_error_frac", "frac"),
    ("campaign.wrong_path_frac", "frac"),
    ("journal.durable_s", "s"),
    ("journal.memory_s", "s"),
    ("journal.overhead_frac", "frac"),
    ("journal.durable_vs_memory", "ratio"),
    ("journal.appends", "count"),
    ("journal.appends_per_s", "1/s"),
    ("journal.bytes", "B"),
    ("journal.resume_s", "s"),
    ("journal.share", "frac"),
    ("fabric.s", "s"),
    ("fabric.first_lease_s", "s"),
    ("fabric.shutdown_s", "s"),
    ("fabric.leases", "count"),
    ("fabric.reassigned", "count"),
    ("fabric.workers_died", "count"),
    ("fabric.vs_threads", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
];

/// Median; the mean of the middle two for an even count.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub struct RunRep {
    pub idx: u32,
    pub traced: bool,
    pub wall: f64,
    /// Peak resident set during the repetition (the set-up products stay
    /// resident, so they are included).
    pub rss_mb: f64,
    pub out: RepOut,
}

/// Everything one workload run measured.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub sizes: Sizes,
    pub facts: Value,
    pub setups: Vec<SetupTimes>,
    pub reps: Vec<RunRep>,
    pub spans: Vec<Span>,
}

pub struct Metrics {
    pub values: BTreeMap<&'static str, f64>,
    pub digest: String,
    pub reference: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Metrics {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn print_table(&self, w: Workload) {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(v) = self.values.get(name) {
                eprintln!("{:13} {name:26} {v:>14.6} {unit}", w.name());
            }
        }
        eprintln!(
            "{:13} digest {} ({}), {} of {} operations failed{}",
            w.name(),
            self.digest,
            self.reference
                .as_deref()
                .map_or("no stored reference", |r| {
                    if r == self.digest {
                        "matches reference"
                    } else {
                        "DIFFERS from reference"
                    }
                }),
            self.failed,
            self.attempted,
            if self.violations.is_empty() {
                String::new()
            } else {
                format!("; violations: {}", self.violations.join("; "))
            }
        );
    }
}

impl Run {
    fn untraced(&self) -> impl Iterator<Item = &RunRep> {
        self.reps.iter().filter(|r| !r.traced)
    }

    fn traced_reps(&self) -> impl Iterator<Item = &RunRep> {
        self.reps.iter().filter(|r| r.traced)
    }

    /// Check every repetition against the stored reference digest, or,
    /// for a seed without one, against the first repetition, then derive
    /// every metric.
    pub fn metrics(&self, reference: Option<&str>) -> Metrics {
        let digest = self
            .reps
            .first()
            .map_or_else(String::new, |r| format!("{:016x}", r.out.digest));
        let expected = reference.unwrap_or(&digest);
        let (mut attempted, mut failed, mut violations) = (0, 0, Vec::new());
        for r in &self.reps {
            attempted += r.out.attempted;
            failed += r.out.failed;
            violations.extend(
                r.out
                    .violations
                    .iter()
                    .map(|v| format!("rep {}: {v}", r.idx)),
            );
            if format!("{:016x}", r.out.digest) != expected {
                failed += r.out.attempted;
                violations.push(format!(
                    "rep {}: digest {:016x} != {expected}",
                    r.idx, r.out.digest
                ));
            }
        }
        let mut values = BTreeMap::new();
        let walls: Vec<f64> = self.untraced().map(|r| r.wall).collect();
        values.insert("wall_s", median(&walls));
        values.insert(
            "setup_s",
            median(
                &self
                    .setups
                    .iter()
                    .map(SetupTimes::total)
                    .collect::<Vec<_>>(),
            ),
        );
        // The first repetition is what a process that sets up and runs the
        // pipeline once keeps resident. Later repetitions in the same
        // process drift by up to 15 MB as allocator arenas grow, at a
        // point that differs from run to run.
        values.insert("peak_rss_mb", self.reps.first().map_or(0.0, |r| r.rss_mb));
        let per_wall = |key: &str| -> f64 {
            median(
                &self
                    .untraced()
                    .map(|r| ratio(r.out.counts.get(key).copied().unwrap_or(0.0), r.wall))
                    .collect::<Vec<_>>(),
            )
        };
        values.insert("runs_per_s", per_wall("runs"));
        values.insert("pairs_per_s", per_wall("pairs"));
        values.insert("failed_frac", ratio(failed as f64, attempted as f64));
        let setup_median =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        values.insert("fpu.bank_s", setup_median(|s| s.bank_s));
        values.insert("dta.warm_s", setup_median(|s| s.warm_s));
        values.insert("workloads.build_s", setup_median(|s| s.build_s));
        if self.traced {
            self.layer_metrics(&mut values, median(&walls));
        }
        Metrics {
            values,
            digest,
            reference: reference.map(str::to_string),
            attempted,
            failed,
            violations,
        }
    }

    /// Per-layer numbers of each traced repetition, then their medians.
    fn layer_metrics(&self, values: &mut BTreeMap<&'static str, f64>, untraced_wall: f64) {
        let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut traced_walls = Vec::new();
        for r in self.traced_reps() {
            let st = trace::self_times(&self.spans, r.idx);
            let t = |k: &str| st.get(k).copied().unwrap_or(0.0);
            let c = |k: &str| r.out.counts.get(k).copied().unwrap_or(0.0);
            let wall = r.wall;
            traced_walls.push(wall);
            let cells: Vec<f64> = self
                .spans
                .iter()
                .filter(|s| s.rep == r.idx && s.layer == "campaign" && s.name == "cell")
                .map(Span::secs)
                .collect();
            let dta = t("dta.ia") + t("dta.wa") + t("dta.da_cal");
            // Each workload times the journal and the fabric either in its
            // pipeline or as references in the gate, never both.
            let durable = t("journal.durable") + t("journal.durable_ref");
            let resume = t("journal.resume") + t("journal.resume_ref");
            let fabric = t("fabric.campaign") + t("fabric.campaign_ref");
            let memory = t("campaign.memory_ref");
            let campaign_runs = c("campaign_runs");
            let rows = [
                ("uarch.golden_s", t("uarch.golden")),
                ("uarch.golden_insn", c("golden_insn")),
                (
                    "uarch.golden_insn_per_s",
                    ratio(c("golden_insn"), t("uarch.golden")),
                ),
                ("uarch.golden_checkpoints", c("golden_checkpoints")),
                ("uarch.share", ratio(t("uarch.golden"), wall)),
                ("dev.trace_s", t("dev.trace")),
                ("dev.trace_pairs", c("trace_pairs")),
                ("dev.share", ratio(t("dev.trace"), wall)),
                ("dta.ia_s", t("dta.ia")),
                ("dta.wa_s", t("dta.wa")),
                ("dta.da_cal_s", t("dta.da_cal")),
                ("dta.pairs", c("pairs")),
                ("dta.ia_pairs_per_s", ratio(c("ia_pairs"), t("dta.ia"))),
                ("dta.wa_pairs_per_s", ratio(c("wa_pairs"), t("dta.wa"))),
                ("dta.share", ratio(dta, wall)),
                ("campaign.s", t("campaign.cell")),
                ("campaign.cells", c("cells")),
                ("campaign.runs", campaign_runs),
                (
                    "campaign.runs_per_s",
                    ratio(campaign_runs, t("campaign.cell")),
                ),
                ("campaign.cell_p50_s", median(&cells)),
                (
                    "campaign.cell_max_s",
                    cells.iter().copied().fold(0.0, f64::max),
                ),
                ("campaign.share", ratio(t("campaign.cell"), wall)),
                (
                    "campaign.no_error_frac",
                    ratio(c("masked_no_error"), campaign_runs),
                ),
                (
                    "campaign.wrong_path_frac",
                    ratio(c("masked_wrong_path"), campaign_runs),
                ),
                ("journal.durable_s", durable),
                ("journal.memory_s", memory),
                (
                    "journal.overhead_frac",
                    if memory > 0.0 {
                        ratio(durable - memory, durable)
                    } else {
                        0.0
                    },
                ),
                ("journal.durable_vs_memory", ratio(durable, memory)),
                ("journal.appends", c("appends")),
                ("journal.appends_per_s", ratio(c("appends"), durable)),
                ("journal.bytes", c("journal_bytes")),
                ("journal.resume_s", resume),
                (
                    "journal.share",
                    ratio(t("journal.durable") + t("journal.resume"), wall),
                ),
                ("fabric.s", fabric),
                ("fabric.first_lease_s", c("first_lease_s")),
                ("fabric.shutdown_s", c("shutdown_s")),
                ("fabric.leases", c("leases")),
                ("fabric.reassigned", c("reassigned")),
                ("fabric.workers_died", c("workers_died")),
                ("fabric.vs_threads", ratio(fabric, durable)),
                (
                    "trace.coverage_frac",
                    ratio(self.child_secs(r.idx, "rep"), wall),
                ),
            ];
            for (k, v) in rows {
                per_rep.entry(k).or_default().push(v);
            }
        }
        for (k, v) in per_rep {
            values.insert(k, median(&v));
        }
        let traced_wall = median(&traced_walls);
        values.insert(
            "trace.overhead_frac",
            ratio(traced_wall - untraced_wall, untraced_wall),
        );
    }

    /// Summed duration of the direct children of repetition `idx`'s root
    /// span named `root`.
    fn child_secs(&self, idx: u32, root: &str) -> f64 {
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.rep == idx && s.layer == "harness" && s.name == root)
        else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum()
    }

    /// The full record written under `.bench_work/`.
    pub fn ledger(&self, m: &Metrics) -> Value {
        let reps: Vec<Value> = self
            .reps
            .iter()
            .map(|r| {
                let counts: Vec<(String, Value)> = r
                    .out
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                    .collect();
                json!({
                    "rep": r.idx,
                    "traced": r.traced,
                    "wall_s": r.wall,
                    "rss_mb": r.rss_mb,
                    "digest": format!("{:016x}", r.out.digest),
                    "attempted": r.out.attempted,
                    "failed": r.out.failed,
                    "violations": r.out.violations.clone(),
                    "counts": Value::Object(counts),
                })
            })
            .collect();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": format!("{}.{}", s.layer, s.name),
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent.map(|p| p as u64),
                    "rep": s.rep,
                })
            })
            .collect();
        let setups: Vec<Value> = self
            .setups
            .iter()
            .map(|s| json!({"bank_s": s.bank_s, "warm_s": s.warm_s, "build_s": s.build_s}))
            .collect();
        json!({
            "workload": self.workload.name(),
            "seed": self.seed,
            "traced": self.traced,
            "sizes": self.sizes.to_json(),
            "host": self.facts.clone(),
            "setups": setups,
            "reps": reps,
            "spans": spans,
            "digest": m.digest.clone(),
            "reference": m.reference.clone(),
            "correct": m.correct(),
            "attempted": m.attempted,
            "failed": m.failed,
            "violations": m.violations.clone(),
            "metrics": metric_object(&m.values, END_TO_END.iter().chain(PER_LAYER.iter()), ""),
        })
    }
}

fn metric_object<'a>(
    values: &BTreeMap<&'static str, f64>,
    names: impl Iterator<Item = &'a (&'a str, &'a str)>,
    prefix: &str,
) -> Value {
    Value::Object(
        names
            .filter_map(|(name, unit)| {
                let v = values.get(name)?;
                Some((
                    format!("{prefix}{name}"),
                    json!({"value": *v, "unit": *unit}),
                ))
            })
            .collect(),
    )
}

/// The contract's result object over one or more workload runs.
#[derive(Default)]
pub struct Summary {
    runs: Vec<(Workload, Metrics)>,
    errors: u64,
}

impl Summary {
    pub fn add(&mut self, w: Workload, m: Metrics) {
        self.runs.push((w, m));
    }

    /// A workload whose run ended in a typed error: one failed operation.
    pub fn fail(&mut self) {
        self.errors += 1;
    }

    pub fn result(&self, traced: bool) -> Value {
        let names = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let attempted: u64 = self.runs.iter().map(|(_, m)| m.attempted).sum::<u64>() + self.errors;
        let failed: u64 = self.runs.iter().map(|(_, m)| m.failed).sum::<u64>() + self.errors;
        let correct = self.errors == 0 && self.runs.iter().all(|(_, m)| m.correct());
        let metrics = match self.runs.as_slice() {
            [(_, m)] if self.errors == 0 => metric_object(&m.values, names.iter(), ""),
            runs => {
                let mut all = Vec::new();
                for (w, m) in runs {
                    if let Value::Object(entries) =
                        metric_object(&m.values, names.iter(), &format!("{}/", w.name()))
                    {
                        all.extend(entries);
                    }
                }
                Value::Object(all)
            }
        };
        json!({
            "correct": correct,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// BENCHMARK.json and the metric dictionary name exactly the metrics
    /// and workloads this benchmark reports.
    #[test]
    fn contract_and_dictionary_match_the_code() {
        let contract = read("../BENCHMARK.json");
        let dictionary = read("METRICS.md");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(
                contract.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
            let row = format!("| `{name}` | {unit} |");
            assert!(
                dictionary.contains(&row),
                "{name} ({unit}) missing from METRICS.md"
            );
        }
        assert_eq!(
            contract.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not report"
        );
        let listed = Workload::ALL
            .into_iter()
            .filter(|w| contract.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())))
            .count();
        assert_eq!(
            listed,
            contract.matches("\"why\"").count(),
            "BENCHMARK.json lists a workload the benchmark does not run"
        );
        for w in Workload::ALL {
            assert!(dictionary.contains(&format!("| `{}` |", w.name())));
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
