//! Declarative aggregation: group-by statistics over scenario runs.
//!
//! Every claim this repository reproduces is a *statistic over trials* —
//! the dual-graph model separates reliable structure from adversarial
//! noise, so a single run proves nothing. An [`AggregateSpec`] describes,
//! as plain serde data, how a [`ScenarioRun`]'s records fold into an
//! E1-style summary table: which axes group rows ([`GroupKey`]), which
//! record fields become columns ([`MetricSource`]), and which reductions
//! summarize them ([`Reduction`] — mean, stddev, min/max, median, p90/p99,
//! 95% CI — all computed by the single-pass accumulators in
//! [`crate::stats`]). An optional [`SlopeSpec`] appends the measured
//! log-log scaling exponent across groups to the caption, the way the
//! bespoke E1/E7 renderers report theirs.
//!
//! Wired into [`ScenarioSpec::aggregate`]: a user JSON spec with
//! `"render": "Aggregate"` (or `"Generic"` plus an `aggregate` block)
//! gets a grouped mean±CI table — and a CSV via `radio-lab --csv` — with
//! no custom renderer and no Rust changes.
//!
//! Records fold in unit (= trial-index) order, so aggregated tables are
//! bit-identical between serial and parallel sweeps, like everything else
//! downstream of [`crate::parallel::run_trials`].

use crate::scenario::{ScenarioRun, ScenarioSpec, TrialUnit};
pub use crate::stats::DROPPED_POINTS_MARKER;
use crate::stats::{dropped_points_note, loglog_exponent_counting, StreamingSummary};
use crate::table::{f1, f3, Table, ABSENT};
use radio_structures::params::ceil_log2;
use radio_structures::runner::RunRecord;
use serde::{Deserialize, Serialize};

/// One axis of the group-by key: records agreeing on every listed key
/// aggregate into one table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupKey {
    /// The topology entry's label (e.g. `rgg-64`).
    Topology,
    /// The adversary's name.
    Adversary,
    /// The workload's name.
    Workload,
    /// The record's algorithm name (differs from [`GroupKey::Workload`]
    /// for multi-record workloads like the backbone comparison).
    Algo,
    /// The record's network size `n`.
    N,
}

impl GroupKey {
    /// Column header for this key.
    fn header(self) -> &'static str {
        match self {
            GroupKey::Topology => "topology",
            GroupKey::Adversary => "adversary",
            GroupKey::Workload => "workload",
            GroupKey::Algo => "algo",
            GroupKey::N => "n",
        }
    }

    /// The key's rendered value for one record.
    fn value(
        self,
        spec: &ScenarioSpec,
        topo: usize,
        adv: usize,
        work: usize,
        rec: &RunRecord,
    ) -> String {
        match self {
            GroupKey::Topology => spec.topologies[topo].kind.label(),
            GroupKey::Adversary => spec.adversaries[adv].name().to_string(),
            GroupKey::Workload => spec.workloads[work].kind.name().to_string(),
            GroupKey::Algo => rec.algo.clone(),
            GroupKey::N => rec.n.to_string(),
        }
    }
}

/// Which scalar of a [`RunRecord`] a metric reads. Sources that a record
/// may not carry (`ScheduleTotal`, channel counters, `Extra`) simply skip
/// that record — the per-metric count reflects actual observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricSource {
    /// Round the run's goal was reached. Records that never reached it —
    /// timed-out runs, failed builds — are **excluded** from the
    /// reduction by default, so a cap never masquerades as a measurement;
    /// [`MetricSpec`]'s `include_invalid` field opts back into the
    /// historical E1 convention of substituting the rounds executed (the
    /// budget).
    SolveRound,
    /// Rounds the engine executed.
    RoundsExecuted,
    /// Total schedule length (fixed-schedule algorithms only).
    ScheduleTotal,
    /// Whether verification passed, as 0/1 (combine with
    /// [`Reduction::Frac`] for a `valid/trials` column or
    /// [`Reduction::Mean`] for a rate).
    Valid,
    /// Maximum reliable degree Δ of the record's network.
    MaxDegree,
    /// Channel collisions (records with engine metrics only).
    Collisions,
    /// Message deliveries (records with engine metrics only).
    Deliveries,
    /// Winners in the final structure (τ-CCDS records only).
    Winners,
    /// MIS nodes in the final structure (CCDS records only).
    MisSize,
    /// Maximum explorations by any MIS node (CCDS records only).
    MaxExplorations,
    /// A named scalar from the record's `extras`.
    Extra {
        /// The extra's key, e.g. `"max_latency"`.
        key: String,
    },
}

impl MetricSource {
    /// The metric's value for one record (`None` = record doesn't carry
    /// this source). `include_invalid` controls whether an unsolved
    /// record contributes its round budget to [`MetricSource::SolveRound`]
    /// (the pre-PR-4 behavior) or is skipped.
    fn value(&self, rec: &RunRecord, include_invalid: bool) -> Option<f64> {
        match self {
            MetricSource::SolveRound => match rec.solve_round {
                Some(r) => Some(r as f64),
                None if include_invalid => Some(rec.rounds_executed as f64),
                None => None,
            },
            MetricSource::RoundsExecuted => Some(rec.rounds_executed as f64),
            MetricSource::ScheduleTotal => rec.schedule_total.map(|v| v as f64),
            MetricSource::Valid => Some(f64::from(rec.valid)),
            MetricSource::MaxDegree => Some(rec.max_degree as f64),
            MetricSource::Collisions => rec.metrics.map(|m| m.collisions as f64),
            MetricSource::Deliveries => rec.metrics.map(|m| m.deliveries as f64),
            MetricSource::Winners => rec.winners.map(|v| v as f64),
            MetricSource::MisSize => rec.mis_size.map(|v| v as f64),
            MetricSource::MaxExplorations => rec.max_explorations.map(|v| v as f64),
            MetricSource::Extra { key } => rec.extra(key),
        }
    }

    /// Default column-label stem.
    fn label(&self) -> String {
        match self {
            MetricSource::SolveRound => "solve rounds".to_string(),
            MetricSource::RoundsExecuted => "rounds".to_string(),
            MetricSource::ScheduleTotal => "schedule rounds".to_string(),
            MetricSource::Valid => "valid".to_string(),
            MetricSource::MaxDegree => "Delta".to_string(),
            MetricSource::Collisions => "collisions".to_string(),
            MetricSource::Deliveries => "deliveries".to_string(),
            MetricSource::Winners => "winners".to_string(),
            MetricSource::MisSize => "mis size".to_string(),
            MetricSource::MaxExplorations => "max explorations".to_string(),
            MetricSource::Extra { key } => key.clone(),
        }
    }
}

/// How a metric's observations reduce to one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reduction {
    /// Number of observations (records carrying the source).
    Count,
    /// Arithmetic mean.
    Mean,
    /// Sample standard deviation (n−1).
    Stddev,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median (exact up to [`crate::stats::EXACT_QUANTILE_CAP`] samples).
    Median,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
    /// `mean ± half-width` of the normal-approximation 95% confidence
    /// interval.
    Ci95,
    /// Integer sum over count, rendered `sum/count` — the `valid/trials`
    /// column shape for 0/1 sources.
    Frac,
}

impl Reduction {
    /// Default column-label prefix composed with the source stem.
    fn label(self, source: &MetricSource) -> String {
        let stem = source.label();
        match self {
            Reduction::Count => "trials".to_string(),
            Reduction::Mean => format!("mean {stem}"),
            Reduction::Stddev => format!("sd {stem}"),
            Reduction::Min => format!("min {stem}"),
            Reduction::Max => format!("max {stem}"),
            Reduction::Median => format!("median {stem}"),
            Reduction::P90 => format!("p90 {stem}"),
            Reduction::P99 => format!("p99 {stem}"),
            Reduction::Ci95 => format!("{stem} (mean ± 95% CI)"),
            Reduction::Frac => stem,
        }
    }
}

/// Denominator applied to a metric's *reduced* value, keyed by the group's
/// network size `n` — the paper's scaling yardsticks. Meaningful when the
/// grouping includes [`GroupKey::N`] (mixed-`n` groups divide by the
/// group's largest `n`). Normalized cells render with 3 decimals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Normalizer {
    /// `⌈log₂ n⌉³` — the recurring round-complexity bound.
    Log3N,
    /// `⌈log₂ n⌉`.
    Log2N,
    /// `n`.
    N,
}

impl Normalizer {
    fn divisor(self, n: usize) -> f64 {
        let l = f64::from(ceil_log2(n));
        match self {
            Normalizer::Log3N => l * l * l,
            Normalizer::Log2N => l,
            Normalizer::N => n as f64,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Normalizer::Log3N => "/log^3 n",
            Normalizer::Log2N => "/log2 n",
            Normalizer::N => "/n",
        }
    }
}

/// One metric: a source, the reductions to print (one column each), an
/// optional normalizer, and an optional column-label override (applied
/// verbatim when a single reduction is requested, as a prefix otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSpec {
    /// The record field to read.
    pub source: MetricSource,
    /// The reductions to print, one column per entry.
    pub reductions: Vec<Reduction>,
    /// Optional denominator in the group's `n`.
    pub per: Option<Normalizer>,
    /// Optional column-label override.
    pub label: Option<String>,
    /// Whether records without a real observation still contribute a
    /// substitute value — today that is [`MetricSource::SolveRound`]
    /// falling back to the round budget for unsolved runs. Default
    /// (`None`/`Some(false)`): excluded, so timed-out and failed-build
    /// records cannot drag a mean toward the cap. Absent in older spec
    /// files — they parse unchanged.
    pub include_invalid: Option<bool>,
}

impl MetricSpec {
    /// A metric with default labels and no normalizer.
    pub fn new(source: MetricSource, reductions: Vec<Reduction>) -> Self {
        MetricSpec {
            source,
            reductions,
            per: None,
            label: None,
            include_invalid: None,
        }
    }

    /// [`MetricSpec::new`] with a column-label override.
    pub fn labeled(source: MetricSource, reductions: Vec<Reduction>, label: &str) -> Self {
        MetricSpec {
            source,
            reductions,
            per: None,
            label: Some(label.to_string()),
            include_invalid: None,
        }
    }

    /// The effective invalid-record policy (absent = exclude).
    fn include_invalid(&self) -> bool {
        self.include_invalid.unwrap_or(false)
    }
}

/// The x axis of a [`SlopeSpec`] fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlopeAxis {
    /// The group's network size `n` — the fitted exponent is `p` in
    /// `y ≈ c·n^p`.
    N,
    /// `⌈log₂ n⌉` — the fitted exponent is the *polylog* degree, the shape
    /// the paper's `O(log³ n)` bounds predict.
    Log2N,
}

/// A measured scaling exponent appended to the table caption: the log-log
/// slope (via [`loglog_exponent`](crate::stats::loglog_exponent)) of a
/// metric's per-group **mean**
/// (pre-normalizer) against the group's `n` axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlopeSpec {
    /// The fit's x axis.
    pub x: SlopeAxis,
    /// Index into [`AggregateSpec::metrics`] of the fitted metric.
    pub metric: usize,
    /// Caption suffix; every `{p}` is replaced by the exponent formatted
    /// to two decimals.
    pub caption: String,
}

/// The declarative aggregation: group-by keys, metric columns, optional
/// scaling fit. Lives in [`ScenarioSpec::aggregate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Group-by keys, outermost first (empty = one global row).
    pub group_by: Vec<GroupKey>,
    /// Metric columns.
    pub metrics: Vec<MetricSpec>,
    /// Optional measured-exponent caption suffix.
    pub slope: Option<SlopeSpec>,
}

impl Default for AggregateSpec {
    /// The house style for user specs with no explicit aggregation: one
    /// row per grid cell (topology × adversary × workload) with trial
    /// count, valid fraction, and solve-round statistics. The count
    /// column opts into `include_invalid` so "trials" really counts every
    /// record; the spread statistics keep the default exclusion, so
    /// unsolved runs never drag them toward the round budget.
    fn default() -> Self {
        AggregateSpec {
            group_by: vec![GroupKey::Topology, GroupKey::Adversary, GroupKey::Workload],
            metrics: vec![
                MetricSpec {
                    source: MetricSource::SolveRound,
                    reductions: vec![Reduction::Count],
                    per: None,
                    label: None,
                    include_invalid: Some(true),
                },
                MetricSpec::new(MetricSource::Valid, vec![Reduction::Frac]),
                MetricSpec::new(
                    MetricSource::SolveRound,
                    vec![
                        Reduction::Ci95,
                        Reduction::Median,
                        Reduction::Min,
                        Reduction::Max,
                    ],
                ),
            ],
            slope: None,
        }
    }
}

/// One group's accumulated state.
struct Group {
    /// Rendered key values, in `group_by` order.
    key: Vec<String>,
    /// Largest `n` among the group's records (normalizer/slope input).
    n_max: usize,
    /// One accumulator per metric.
    accs: Vec<StreamingSummary>,
}

/// One group of an [`AggregateSnapshot`]: the rendered key, the group's
/// `n`, and one lossless accumulator per metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSnapshot {
    /// Rendered key values, in `group_by` order.
    pub key: Vec<String>,
    /// Largest `n` among the group's records.
    pub n_max: usize,
    /// One accumulator per metric, in [`AggregateSpec::metrics`] order.
    pub accs: Vec<StreamingSummary>,
}

/// A serializable, **lossless** image of an [`AggregateState`]: groups in
/// first-encounter (row) order, each with its accumulators. Floats persist
/// as bit patterns (see [`crate::stats`]), so
/// [`AggregateState::restore`]d state is indistinguishable from the
/// original — a checkpointed sweep resumes, and a shard's partial merges,
/// with **byte-identical** rendered output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSnapshot {
    /// The groups, in first-encounter (= row) order.
    pub groups: Vec<GroupSnapshot>,
}

/// The incremental group-by fold behind [`render_aggregate`]: records push
/// in one at a time (in unit order) and the grouped table renders at any
/// point. Memory is O(groups), not O(records) — the accumulators are the
/// bounded [`StreamingSummary`]s — which is what lets the streaming sink
/// ([`crate::sink::StreamAggregate`]) aggregate a grid that never
/// materializes.
///
/// Feeding the same records in the same order as the materialized fold
/// produces a **byte-identical** table: both paths are this exact state
/// machine (the golden streaming test pins it).
pub struct AggregateState {
    agg: AggregateSpec,
    groups: Vec<Group>,
    /// Group index by rendered key — O(1) lookup per record, so folding a
    /// grid of millions of records over thousands of groups stays linear.
    /// The `groups` vector still owns first-encounter (row) order.
    by_key: std::collections::HashMap<Vec<String>, usize>,
}

impl AggregateState {
    /// An empty fold for `agg`.
    pub fn new(agg: AggregateSpec) -> Self {
        AggregateState {
            agg,
            groups: Vec::new(),
            by_key: std::collections::HashMap::new(),
        }
    }

    /// Folds one record in. Groups appear in first-encounter order, which
    /// is the planner's unit order — so the row order is deterministic and
    /// serial/parallel identical.
    pub fn push(&mut self, spec: &ScenarioSpec, unit: &TrialUnit, rec: &RunRecord) {
        let key: Vec<String> = self
            .agg
            .group_by
            .iter()
            .map(|k| k.value(spec, unit.topo, unit.adv, unit.work, rec))
            .collect();
        let group = match self.by_key.get(&key) {
            Some(&i) => &mut self.groups[i],
            None => {
                self.by_key.insert(key.clone(), self.groups.len());
                self.groups.push(Group {
                    key,
                    n_max: 0,
                    accs: vec![StreamingSummary::new(); self.agg.metrics.len()],
                });
                self.groups.last_mut().expect("just pushed")
            }
        };
        group.n_max = group.n_max.max(rec.n);
        for (metric, acc) in self.agg.metrics.iter().zip(&mut group.accs) {
            if let Some(v) = metric.source.value(rec, metric.include_invalid()) {
                acc.push(v);
            }
        }
    }

    /// A lossless serializable image of the fold (see
    /// [`AggregateSnapshot`]).
    pub fn snapshot(&self) -> AggregateSnapshot {
        AggregateSnapshot {
            groups: self
                .groups
                .iter()
                .map(|g| GroupSnapshot {
                    key: g.key.clone(),
                    n_max: g.n_max,
                    accs: g.accs.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds the fold from a snapshot taken under the same `agg` spec.
    /// The restored state is indistinguishable from the original: pushing
    /// the remaining records produces exactly the table the uninterrupted
    /// fold would have.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose shape disagrees with `agg` (wrong
    /// accumulator or key count) — the symptom of restoring against a
    /// different aggregation than the one that saved.
    pub fn restore(agg: AggregateSpec, snap: AggregateSnapshot) -> Result<Self, String> {
        let mut state = AggregateState::new(agg);
        for (i, g) in snap.groups.into_iter().enumerate() {
            if g.accs.len() != state.agg.metrics.len() {
                return Err(format!(
                    "group {i}: {} accumulators for {} metrics — snapshot from a different \
                     aggregate spec",
                    g.accs.len(),
                    state.agg.metrics.len()
                ));
            }
            if g.key.len() != state.agg.group_by.len() {
                return Err(format!(
                    "group {i}: {} key parts for {} group-by keys — snapshot from a different \
                     aggregate spec",
                    g.key.len(),
                    state.agg.group_by.len()
                ));
            }
            if state.by_key.contains_key(&g.key) {
                return Err(format!("group {i}: duplicate key {:?}", g.key));
            }
            state.by_key.insert(g.key.clone(), state.groups.len());
            state.groups.push(Group {
                key: g.key,
                n_max: g.n_max,
                accs: g.accs,
            });
        }
        Ok(state)
    }

    /// Folds a later slice's snapshot into this state. Merging shard
    /// partials **in shard (= index) order** replays each group's raw
    /// samples, so the combined state — and therefore the rendered table —
    /// is bit-for-bit the single-process fold (while per-shard groups stay
    /// below [`crate::stats::EXACT_QUANTILE_CAP`] observations; see
    /// [`StreamingSummary::merge`]). Groups keep first-encounter order
    /// across the concatenation, so row order is preserved too.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose shape disagrees with this state's spec.
    pub fn merge(&mut self, snap: &AggregateSnapshot) -> Result<(), String> {
        for (i, g) in snap.groups.iter().enumerate() {
            if g.accs.len() != self.agg.metrics.len() || g.key.len() != self.agg.group_by.len() {
                return Err(format!(
                    "group {i}: snapshot shape disagrees with the aggregate spec"
                ));
            }
            let group = match self.by_key.get(&g.key) {
                Some(&at) => &mut self.groups[at],
                None => {
                    self.by_key.insert(g.key.clone(), self.groups.len());
                    self.groups.push(Group {
                        key: g.key.clone(),
                        n_max: 0,
                        accs: vec![StreamingSummary::new(); self.agg.metrics.len()],
                    });
                    self.groups.last_mut().expect("just pushed")
                }
            };
            group.n_max = group.n_max.max(g.n_max);
            for (acc, theirs) in group.accs.iter_mut().zip(&g.accs) {
                acc.merge(theirs);
            }
        }
        Ok(())
    }

    /// Renders the fold's current state as the grouped table.
    pub fn table(&self, spec: &ScenarioSpec) -> Table {
        let agg = &self.agg;
        let mut header: Vec<String> = agg
            .group_by
            .iter()
            .map(|k| k.header().to_string())
            .collect();
        for metric in &agg.metrics {
            for &red in &metric.reductions {
                header.push(column_label(metric, red));
            }
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&spec.id, &spec.caption, &header_refs);
        for group in &self.groups {
            let mut row = group.key.clone();
            for (metric, acc) in agg.metrics.iter().zip(&group.accs) {
                let div = metric.per.map_or(1.0, |p| p.divisor(group.n_max.max(1)));
                for &red in &metric.reductions {
                    row.push(cell(red, acc, div, metric.per.is_some()));
                }
            }
            table.push(row);
        }
        if let Some(slope) = &agg.slope {
            let (fit, dropped) = slope_exponent(slope, &self.groups);
            if let Some(fit) = fit {
                table
                    .caption
                    .push_str(&slope.caption.replace("{p}", &format!("{fit:.2}")));
            }
            if dropped > 0 {
                table.caption.push_str(&dropped_points_note(dropped));
            }
        }
        table
    }
}

/// Folds the run's records into the grouped table — the materialized
/// wrapper over [`AggregateState`] (one `push` per record in unit order,
/// then render).
pub fn render_aggregate(spec: &ScenarioSpec, run: &ScenarioRun, agg: &AggregateSpec) -> Table {
    let mut state = AggregateState::new(agg.clone());
    for (unit, recs) in run.units.iter().zip(&run.records) {
        for rec in recs {
            state.push(spec, unit, rec);
        }
    }
    state.table(spec)
}

/// The fitted log-log exponent across groups (`None` when the fit is
/// degenerate — fewer than two usable groups, metric index out of range)
/// plus the number of points the positivity filter dropped. A non-zero
/// count means the exponent was fitted on a subset — the caption says so
/// rather than presenting it as a fit over every group.
fn slope_exponent(slope: &SlopeSpec, groups: &[Group]) -> (Option<f64>, usize) {
    let points: Vec<(f64, f64)> = groups
        .iter()
        .filter(|g| g.n_max > 0)
        .filter_map(|g| {
            let acc = g.accs.get(slope.metric)?;
            let x = match slope.x {
                SlopeAxis::N => g.n_max as f64,
                SlopeAxis::Log2N => f64::from(ceil_log2(g.n_max)),
            };
            Some((x, acc.mean()))
        })
        .collect();
    loglog_exponent_counting(&points)
}

/// A metric column's header: the label override verbatim (prefixed per
/// reduction when several are requested), or the generated
/// `reduction + source` stem with the normalizer's suffix.
fn column_label(metric: &MetricSpec, red: Reduction) -> String {
    match (&metric.label, metric.reductions.len()) {
        (Some(label), 1) => label.clone(),
        (Some(label), _) => format!("{label} {}", red.label(&metric.source)),
        (None, _) => {
            let base = red.label(&metric.source);
            match metric.per {
                Some(per) if red != Reduction::Count && red != Reduction::Frac => {
                    format!("{base}{}", per.suffix())
                }
                _ => base,
            }
        }
    }
}

/// One reduced cell. Unnormalized values print with 1 decimal (integral
/// min/max as integers); normalized values with 3, matching the bespoke
/// renderers' ratio columns. Spread statistics (stddev, 95% CI) need at
/// least two observations — below that they render as [`ABSENT`] (and the
/// CSV export omits the field) instead of leaking a NaN or presenting a
/// single sample as a spread.
fn cell(red: Reduction, acc: &StreamingSummary, div: f64, normalized: bool) -> String {
    let fmt = |v: f64| if normalized { f3(v) } else { f1(v) };
    let int_or = |v: f64| {
        if !normalized && v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
            format!("{}", v as i64)
        } else {
            fmt(v)
        }
    };
    match red {
        Reduction::Count => acc.count().to_string(),
        Reduction::Mean => fmt(acc.mean() / div),
        Reduction::Stddev => {
            if acc.count() < 2 {
                ABSENT.to_string()
            } else {
                fmt(acc.stddev() / div)
            }
        }
        Reduction::Min => int_or(acc.min() / div),
        Reduction::Max => int_or(acc.max() / div),
        Reduction::Median => fmt(acc.median() / div),
        Reduction::P90 => fmt(acc.p90() / div),
        Reduction::P99 => fmt(acc.p99() / div),
        Reduction::Ci95 => {
            if acc.count() < 2 {
                ABSENT.to_string()
            } else {
                format!("{} ± {}", fmt(acc.mean() / div), fmt(acc.ci95_half() / div))
            }
        }
        // `sum()` is `mean·count`, which for 0/1 streams can land a hair
        // below the true integer (e.g. one success in ten → 0.9999…);
        // round instead of truncating.
        Reduction::Frac => format!("{}/{}", acc.sum().round() as u64, acc.count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        run_spec, NestOrder, RenderKind, ScenarioSpec, SeedPolicy, StopCondition, TopologyEntry,
        WorkloadEntry,
    };
    use radio_sim::spec::{AdversaryKind, TopologyKind};
    use radio_structures::runner::AlgoKind;

    fn mis_spec(trials: u64) -> ScenarioSpec {
        ScenarioSpec {
            id: "AGG".to_string(),
            caption: "aggregate unit test".to_string(),
            render: RenderKind::Aggregate,
            topologies: vec![
                TopologyEntry::new(TopologyKind::Clique { n: 6 }),
                TopologyEntry::new(TopologyKind::GeometricDense { n: 16 }),
            ],
            adversaries: vec![
                AdversaryKind::ReliableOnly,
                AdversaryKind::Random { p: 0.5 },
            ],
            workloads: vec![WorkloadEntry::core(AlgoKind::Mis)],
            trials,
            nest: NestOrder::TopologyMajor,
            seeds: SeedPolicy {
                net_base: 500,
                run_base: 9,
            },
            stop: StopCondition::Default,
            aggregate: None,
        }
    }

    #[test]
    fn default_aggregate_groups_by_grid_cell() {
        let spec = mis_spec(3);
        let run = run_spec(&spec);
        let table = render_aggregate(&spec, &run, &AggregateSpec::default());
        // 2 topologies × 2 adversaries × 1 workload = 4 rows, trials folded.
        assert_eq!(table.rows.len(), 4);
        assert!(table.header.starts_with(&[
            "topology".to_string(),
            "adversary".to_string(),
            "workload".to_string()
        ]));
        // Count column reports the 3 trials per cell.
        let count_col = table.header.iter().position(|h| h == "trials").unwrap();
        assert!(table.rows.iter().all(|r| r[count_col] == "3"));
        // Frac column is k/3.
        let valid_col = table.header.iter().position(|h| h == "valid").unwrap();
        assert!(table.rows.iter().all(|r| r[valid_col].ends_with("/3")));
    }

    #[test]
    fn group_by_n_with_normalizer_and_slope() {
        let mut spec = mis_spec(2);
        spec.aggregate = Some(AggregateSpec {
            group_by: vec![GroupKey::N],
            metrics: vec![
                MetricSpec::new(MetricSource::SolveRound, vec![Reduction::Count]),
                MetricSpec {
                    source: MetricSource::SolveRound,
                    reductions: vec![Reduction::Mean],
                    per: Some(Normalizer::Log3N),
                    label: None,
                    include_invalid: None,
                },
            ],
            slope: Some(SlopeSpec {
                x: SlopeAxis::Log2N,
                metric: 1,
                caption: " [p = {p}]".to_string(),
            }),
        });
        let run = run_spec(&spec);
        let table = crate::scenario::render(&spec, &run);
        // Two distinct n values → two rows; both adversaries fold in.
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.header[0], "n");
        assert_eq!(table.header[2], "mean solve rounds/log^3 n");
        assert!(table.rows.iter().all(|r| r[1] == "4"), "2 advs × 2 trials");
        assert!(table.caption.contains("[p = "));
    }

    #[test]
    fn generic_render_honors_aggregate_block() {
        let mut spec = mis_spec(2);
        spec.render = RenderKind::Generic;
        spec.aggregate = Some(AggregateSpec::default());
        let run = run_spec(&spec);
        let table = crate::scenario::render(&spec, &run);
        assert_eq!(table.rows.len(), 4, "aggregated, not one row per record");
        spec.aggregate = None;
        let raw = crate::scenario::render(&spec, &run);
        assert_eq!(raw.rows.len(), 8, "raw generic rows without the block");
    }

    #[test]
    fn aggregate_spec_roundtrips_serde() {
        let agg = AggregateSpec {
            group_by: vec![GroupKey::N, GroupKey::Adversary],
            metrics: vec![
                MetricSpec::labeled(MetricSource::MaxDegree, vec![Reduction::Max], "Delta"),
                MetricSpec {
                    source: MetricSource::Extra {
                        key: "max_latency".to_string(),
                    },
                    reductions: vec![Reduction::Mean, Reduction::P90, Reduction::Ci95],
                    per: Some(Normalizer::Log3N),
                    label: None,
                    include_invalid: Some(true),
                },
            ],
            slope: Some(SlopeSpec {
                x: SlopeAxis::N,
                metric: 1,
                caption: " [{p}]".to_string(),
            }),
        };
        let json = serde_json::to_string_pretty(&agg).expect("serializes");
        let back: AggregateSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, agg);
    }

    #[test]
    fn frac_rounds_the_reconstructed_sum() {
        // One success in ten: the Welford mean is 0.9999999999999999·1/10ths
        // shy of exact, so a truncating cast would render "0/10".
        let mut acc = StreamingSummary::new();
        for i in 0..10 {
            acc.push(f64::from(u8::from(i == 5)));
        }
        assert_eq!(cell(Reduction::Frac, &acc, 1.0, false), "1/10");
    }

    /// A synthetic run: one unit per record, records supplied directly.
    fn synthetic_run(
        _spec: &ScenarioSpec,
        records: Vec<RunRecord>,
    ) -> crate::scenario::ScenarioRun {
        crate::scenario::ScenarioRun {
            units: records
                .iter()
                .enumerate()
                .map(|(i, _)| crate::scenario::TrialUnit {
                    topo: 0,
                    adv: 0,
                    work: 0,
                    trial: i as u64,
                    net_seed: i as u64,
                    run_seed: i as u64,
                    det_seed: None,
                })
                .collect(),
            records: records.into_iter().map(|r| vec![r]).collect(),
            wall_s: 0.0,
        }
    }

    fn solve_record(n: usize, solve_round: Option<u64>, rounds_executed: u64) -> RunRecord {
        let mut rec = RunRecord::blank("mis", n, 3);
        rec.valid = solve_round.is_some();
        rec.solve_round = solve_round;
        rec.rounds_executed = rounds_executed;
        rec
    }

    #[test]
    fn unsolved_records_are_excluded_from_solve_round_by_default() {
        // Two solved runs (10, 20 rounds) and one that timed out at the
        // 100-round cap: the pre-fix fold substituted the cap, dragging
        // the mean from 15.0 to 43.3.
        let spec = mis_spec(3);
        let run = synthetic_run(
            &spec,
            vec![
                solve_record(6, Some(10), 10),
                solve_record(6, Some(20), 20),
                solve_record(6, None, 100),
            ],
        );
        let agg = AggregateSpec {
            group_by: vec![],
            metrics: vec![MetricSpec::new(
                MetricSource::SolveRound,
                vec![Reduction::Count, Reduction::Mean],
            )],
            slope: None,
        };
        let table = render_aggregate(&spec, &run, &agg);
        assert_eq!(table.rows[0][0], "2", "the timed-out record is excluded");
        assert_eq!(table.rows[0][1], "15.0", "mean over real solves only");

        // The explicit opt-in restores the historical budget-substitution.
        let mut legacy = agg.clone();
        legacy.metrics[0].include_invalid = Some(true);
        let table = render_aggregate(&spec, &run, &legacy);
        assert_eq!(table.rows[0][0], "3");
        assert_eq!(table.rows[0][1], "43.3");
    }

    #[test]
    fn cap_forced_unsolved_runs_do_not_report_the_budget_as_a_mean() {
        // End-to-end: a 1-round cap no MIS run can meet. The pre-fix
        // default rendered "1.0" — the cap, not a measurement.
        let mut spec = mis_spec(2);
        spec.stop = crate::scenario::StopCondition::Rounds { max: 1 };
        spec.aggregate = Some(AggregateSpec {
            group_by: vec![GroupKey::Topology],
            metrics: vec![MetricSpec::new(
                MetricSource::SolveRound,
                vec![Reduction::Count, Reduction::Mean],
            )],
            slope: None,
        });
        let run = run_spec(&spec);
        assert!(
            run.records.iter().flatten().all(|r| !r.solved()),
            "the 1-round cap must leave every run unsolved"
        );
        let table = crate::scenario::render(&spec, &run);
        for row in &table.rows {
            assert_eq!(row[1], "0", "no solve-round observations");
            assert_eq!(row[2], ABSENT, "no mean, rather than the cap");
        }
        // Opting in reports the budget explicitly.
        spec.aggregate.as_mut().expect("set above").metrics[0].include_invalid = Some(true);
        let table = crate::scenario::render(&spec, &run);
        for row in &table.rows {
            assert_eq!(row[1], "4", "2 adversaries × 2 trials");
            assert_eq!(row[2], "1.0", "the cap, now labeled by opt-in");
        }
    }

    #[test]
    fn single_observation_groups_dash_spread_cells() {
        // One record per group: stddev and the 95% CI need two
        // observations, so both cells must be absent — not NaN, not a
        // single sample presented as a spread.
        let spec = mis_spec(1);
        let run = synthetic_run(&spec, vec![solve_record(6, Some(12), 12)]);
        let agg = AggregateSpec {
            group_by: vec![],
            metrics: vec![MetricSpec::new(
                MetricSource::SolveRound,
                vec![Reduction::Mean, Reduction::Stddev, Reduction::Ci95],
            )],
            slope: None,
        };
        let table = render_aggregate(&spec, &run, &agg);
        assert_eq!(table.rows[0], vec!["12.0", ABSENT, ABSENT]);
        // The CSV omits the absent cells entirely (empty fields), so
        // spreadsheets see missing values instead of dash strings.
        assert_eq!(
            table.to_csv(),
            "mean solve rounds,sd solve rounds,solve rounds (mean ± 95% CI)\n12.0,,\n"
        );
        // Two observations bring both statistics back.
        let run = synthetic_run(
            &spec,
            vec![solve_record(6, Some(10), 10), solve_record(6, Some(14), 14)],
        );
        let table = render_aggregate(&spec, &run, &agg);
        assert_eq!(table.rows[0][0], "12.0");
        assert_ne!(table.rows[0][1], ABSENT);
        assert!(table.rows[0][2].contains(" ± "));
    }

    #[test]
    fn snapshot_restore_continues_the_fold_byte_identically() {
        let spec = mis_spec(4);
        let run = run_spec(&spec);
        let agg = AggregateSpec::default();
        // Uninterrupted fold.
        let whole = render_aggregate(&spec, &run, &agg);
        // Interrupt after every prefix of the unit stream: snapshot,
        // round-trip through JSON, restore, fold the rest.
        let pairs: Vec<_> = run.units.iter().zip(&run.records).collect();
        for cut in 0..=pairs.len() {
            let mut state = AggregateState::new(agg.clone());
            for (unit, recs) in &pairs[..cut] {
                recs.iter().for_each(|r| state.push(&spec, unit, r));
            }
            let json = serde_json::to_string(&state.snapshot()).expect("snapshot serializes");
            let snap: AggregateSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            let mut resumed = AggregateState::restore(agg.clone(), snap).expect("shape matches");
            for (unit, recs) in &pairs[cut..] {
                recs.iter().for_each(|r| resumed.push(&spec, unit, r));
            }
            assert_eq!(
                resumed.table(&spec).render(),
                whole.render(),
                "resume at unit {cut} drifted"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let spec = mis_spec(2);
        let run = run_spec(&spec);
        let mut state = AggregateState::new(AggregateSpec::default());
        for (unit, recs) in run.units.iter().zip(&run.records) {
            recs.iter().for_each(|r| state.push(&spec, unit, r));
        }
        let snap = state.snapshot();
        // Default spec has 3 metrics; a single-metric spec must refuse it.
        let skinny = AggregateSpec {
            group_by: vec![GroupKey::Topology, GroupKey::Adversary, GroupKey::Workload],
            metrics: vec![MetricSpec::new(MetricSource::Valid, vec![Reduction::Frac])],
            slope: None,
        };
        assert!(AggregateState::restore(skinny.clone(), snap.clone()).is_err());
        let mut restored = AggregateState::restore(AggregateSpec::default(), snap.clone())
            .expect("matching shape restores");
        assert!(restored.merge(&snap).is_ok());
        let mut mismatched = AggregateState::new(skinny);
        assert!(mismatched.merge(&snap).is_err());
    }

    #[test]
    fn shard_merge_in_order_equals_single_fold() {
        let spec = mis_spec(3);
        let run = run_spec(&spec);
        let agg = AggregateSpec::default();
        let whole = render_aggregate(&spec, &run, &agg);
        let pairs: Vec<_> = run.units.iter().zip(&run.records).collect();
        for shards in [1usize, 2, 3, 5, pairs.len()] {
            // Contiguous shard ranges in index order.
            let mut snaps = Vec::new();
            for s in 0..shards {
                let (lo, hi) = (s * pairs.len() / shards, (s + 1) * pairs.len() / shards);
                let mut state = AggregateState::new(agg.clone());
                for (unit, recs) in &pairs[lo..hi] {
                    recs.iter().for_each(|r| state.push(&spec, unit, r));
                }
                snaps.push(state.snapshot());
            }
            let mut folded = AggregateState::new(agg.clone());
            for snap in &snaps {
                folded.merge(snap).expect("shapes match");
            }
            assert_eq!(
                folded.table(&spec).render(),
                whole.render(),
                "{shards}-shard merge drifted"
            );
        }
    }

    #[test]
    fn slope_caption_reports_dropped_nonpositive_points() {
        // Three groups (n = 2, 4, 8); the n = 8 group's metric mean is 0,
        // so the log-log fit silently ran on two points before the fix.
        let spec = mis_spec(1);
        let mut records = Vec::new();
        for (n, v) in [(2usize, 4.0), (4, 16.0), (8, 0.0)] {
            let mut rec = RunRecord::blank("mis", n, 1);
            rec.valid = true;
            rec.push_extra("m", v);
            records.push(rec);
        }
        let run = synthetic_run(&spec, records);
        let mut agg = AggregateSpec {
            group_by: vec![GroupKey::N],
            metrics: vec![MetricSpec::new(
                MetricSource::Extra { key: "m".into() },
                vec![Reduction::Mean],
            )],
            slope: Some(SlopeSpec {
                x: SlopeAxis::N,
                metric: 0,
                caption: " [p = {p}]".to_string(),
            }),
        };
        let table = render_aggregate(&spec, &run, &agg);
        assert!(table.caption.contains("[p = "), "{}", table.caption);
        assert!(
            table.caption.contains(DROPPED_POINTS_MARKER)
                && table.caption.contains("1 non-positive point "),
            "no dropped-point note in: {}",
            table.caption
        );
        // All points positive: no note.
        agg.slope = Some(SlopeSpec {
            x: SlopeAxis::N,
            metric: 0,
            caption: " [p = {p}]".to_string(),
        });
        let run = synthetic_run(
            &spec,
            [(2usize, 4.0), (4, 16.0), (8, 64.0)]
                .into_iter()
                .map(|(n, v)| {
                    let mut rec = RunRecord::blank("mis", n, 1);
                    rec.valid = true;
                    rec.push_extra("m", v);
                    rec
                })
                .collect(),
        );
        let table = render_aggregate(&spec, &run, &agg);
        assert!(!table.caption.contains(DROPPED_POINTS_MARKER));
    }

    #[test]
    fn missing_sources_are_skipped_not_zeroed() {
        let spec = mis_spec(2);
        let run = run_spec(&spec);
        let agg = AggregateSpec {
            group_by: vec![GroupKey::Topology],
            metrics: vec![
                // MIS records carry no schedule_total: count must be 0.
                MetricSpec::new(MetricSource::ScheduleTotal, vec![Reduction::Count]),
                MetricSpec::new(MetricSource::SolveRound, vec![Reduction::Count]),
            ],
            slope: None,
        };
        let table = render_aggregate(&spec, &run, &agg);
        for row in &table.rows {
            assert_eq!(row[1], "0");
            assert_eq!(row[2], "4");
        }
    }
}
