//! History-based runtime estimation (§6.1).
//!
//! "To estimate the runtime, we identify similar tasks in the history
//! and then compute a statistical estimate (the mean and linear
//! regression) of their runtimes. We use this as the predicted
//! runtime."
//!
//! Similar tasks come from a [`TemplateHierarchy`]; the statistical
//! estimate is either the sample mean, an ordinary-least-squares
//! trend over the insertion sequence extrapolated one step (captures
//! drift, e.g. a user's input files growing), or a hybrid that picks
//! the trend only when it explains the data markedly better than the
//! mean — the configuration used for Figure 5.

use crate::estimator::history::HistoryStore;
use gae_hist::{ColumnPredicate, HistStore};
use gae_trace::{Feature, TaskMeta, TemplateHierarchy};
use gae_types::{GaeError, GaeResult, SimDuration, SiteId};

/// Which statistical estimate to apply to the similar-task runtimes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EstimationMethod {
    /// Sample mean of similar runtimes.
    Mean,
    /// OLS trend over insertion sequence, extrapolated one step.
    Regression,
    /// Regression when R² ≥ 0.5 and ≥ 4 samples, else mean — the
    /// paper's "mean and linear regression" combination.
    #[default]
    Hybrid,
}

/// A produced estimate, with provenance for diagnostics and the
/// Figure 5 harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeEstimate {
    /// The predicted runtime on a free CPU.
    pub runtime: SimDuration,
    /// Which template tier matched (0 = most specific).
    pub template_tier: usize,
    /// How many similar tasks contributed.
    pub samples: usize,
    /// True if the regression path produced the number.
    pub used_regression: bool,
    /// Sample standard deviation of the similar runtimes, in seconds
    /// (0 for a single sample). Smith/Taylor/Foster report this as
    /// the prediction's confidence measure; advanced users read it
    /// before trusting a steering decision.
    pub std_dev_s: f64,
}

impl RuntimeEstimate {
    /// A ±1σ interval around the prediction, clamped at zero.
    pub fn interval(&self) -> (SimDuration, SimDuration) {
        let mid = self.runtime.as_secs_f64();
        (
            SimDuration::from_secs_f64((mid - self.std_dev_s).max(0.0)),
            SimDuration::from_secs_f64(mid + self.std_dev_s),
        )
    }

    /// Coefficient of variation of the similar runtimes (σ / mean of
    /// the prediction); a rough "how much should I trust this".
    pub fn relative_spread(&self) -> f64 {
        let mid = self.runtime.as_secs_f64();
        if mid > 0.0 {
            self.std_dev_s / mid
        } else {
            0.0
        }
    }
}

/// The per-site runtime estimator.
pub struct RuntimeEstimator {
    history: HistoryStore,
    hierarchy: TemplateHierarchy,
    method: EstimationMethod,
    /// Minimum similar tasks before a template tier is accepted.
    min_matches: usize,
}

impl RuntimeEstimator {
    /// Builds an estimator with the paper's defaults: Paragon
    /// template hierarchy, hybrid mean/regression, 2-sample minimum.
    pub fn new(history: HistoryStore) -> Self {
        RuntimeEstimator {
            history,
            hierarchy: TemplateHierarchy::paragon_default(),
            method: EstimationMethod::default(),
            min_matches: 2,
        }
    }

    /// Overrides the statistical method (ablation benches).
    pub fn with_method(mut self, method: EstimationMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the template hierarchy (ablation benches).
    pub fn with_hierarchy(mut self, hierarchy: TemplateHierarchy) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// The backing history store (to record new observations).
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// Predicts the runtime of a task described by `meta`.
    pub fn estimate(&self, meta: &TaskMeta) -> GaeResult<RuntimeEstimate> {
        let snapshot = self.history.snapshot();
        if snapshot.is_empty() {
            return Err(GaeError::Estimator("history is empty".into()));
        }
        let (tier, similar) = self
            .hierarchy
            .find_similar(meta, &snapshot, self.min_matches);
        if similar.is_empty() {
            return Err(GaeError::Estimator(format!(
                "no similar task in history for login {:?}",
                meta.login
            )));
        }
        // (sequence, runtime seconds) pairs in sequence order.
        let points: Vec<(f64, f64)> = similar
            .iter()
            .map(|(rt, seq)| (*seq as f64, rt.as_secs_f64()))
            .collect();
        self.estimate_from_points(tier, points)
    }

    /// Predicts from the columnar history store instead of the legacy
    /// per-site ring. Each template tier becomes one predicate-pushdown
    /// scan (`site`, `success`, plus an equality per feature); the
    /// tier-selection rule, the point set, and the statistics are the
    /// exact ones [`RuntimeEstimator::estimate`] computes, so the two
    /// paths return bit-identical estimates for identical histories.
    pub fn estimate_columnar(
        &self,
        store: &HistStore,
        site: SiteId,
        meta: &TaskMeta,
    ) -> GaeResult<RuntimeEstimate> {
        if store.site_successes(site.raw()) == 0 {
            return Err(GaeError::Estimator("history is empty".into()));
        }
        let templates = self.hierarchy.templates();
        let mut chosen: Option<(usize, Vec<(u64, u64)>)> = None;
        for (i, tpl) in templates.iter().enumerate() {
            let mut preds = vec![
                ColumnPredicate::eq_num("site", site.raw()),
                ColumnPredicate::eq_num("success", 1),
            ];
            for feature in tpl.features() {
                preds.push(feature_predicate(*feature, meta));
            }
            let points = store.runtime_points(&preds)?;
            let enough = points.len() >= self.min_matches.max(1);
            chosen = Some((i, points));
            if enough {
                break;
            }
        }
        let (tier, raw) = chosen.expect("hierarchy has at least one template");
        if raw.is_empty() {
            return Err(GaeError::Estimator(format!(
                "no similar task in history for login {:?}",
                meta.login
            )));
        }
        // site_seq ascends in append order, mirroring the legacy seq.
        let points: Vec<(f64, f64)> = raw
            .iter()
            .map(|(seq, rt_us)| (*seq as f64, SimDuration::from_micros(*rt_us).as_secs_f64()))
            .collect();
        self.estimate_from_points(tier, points)
    }

    /// The shared statistical tail: mean / OLS / hybrid over
    /// `(sequence, runtime seconds)` points.
    fn estimate_from_points(
        &self,
        tier: usize,
        mut points: Vec<(f64, f64)>,
    ) -> GaeResult<RuntimeEstimate> {
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mean = points.iter().map(|(_, y)| y).sum::<f64>() / points.len() as f64;
        let (prediction, used_regression) = match self.method {
            EstimationMethod::Mean => (mean, false),
            EstimationMethod::Regression => (
                regression_forecast(&points).unwrap_or(mean),
                points.len() >= 2,
            ),
            EstimationMethod::Hybrid => match regression_quality(&points) {
                Some((forecast, r2)) if points.len() >= 4 && r2 >= 0.5 => (forecast, true),
                _ => (mean, false),
            },
        };
        // Runtimes are positive; a wild negative extrapolation falls
        // back to the mean.
        let prediction = if prediction > 0.0 {
            prediction
        } else {
            mean.max(1e-6)
        };
        let std_dev_s = if points.len() > 1 {
            (points.iter().map(|(_, y)| (y - mean).powi(2)).sum::<f64>()
                / (points.len() - 1) as f64)
                .sqrt()
        } else {
            0.0
        };
        Ok(RuntimeEstimate {
            runtime: SimDuration::from_secs_f64(prediction),
            template_tier: tier,
            samples: points.len(),
            used_regression,
            std_dev_s,
        })
    }
}

/// One similarity feature as a columnar equality predicate.
fn feature_predicate(feature: Feature, meta: &TaskMeta) -> ColumnPredicate {
    match feature {
        Feature::Account => ColumnPredicate::eq_str("account", &meta.account),
        Feature::Login => ColumnPredicate::eq_str("login", &meta.login),
        Feature::Executable => ColumnPredicate::eq_str("executable", &meta.executable),
        Feature::Queue => ColumnPredicate::eq_str("queue", &meta.queue),
        Feature::Partition => ColumnPredicate::eq_str("partition", &meta.partition),
        Feature::Nodes => ColumnPredicate::eq_num("nodes", meta.nodes as u64),
        Feature::JobType => ColumnPredicate::eq_str("job_type", &meta.job_type.to_string()),
    }
}

/// OLS forecast at `x = max_x + 1`. `None` for degenerate inputs.
fn regression_forecast(points: &[(f64, f64)]) -> Option<f64> {
    regression_quality(points).map(|(f, _)| f)
}

/// OLS forecast plus R². `None` if fewer than 2 points or zero
/// variance in x.
fn regression_quality(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let syy: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    let next_x = points
        .iter()
        .map(|(x, _)| *x)
        .fold(f64::NEG_INFINITY, f64::max)
        + 1.0;
    Some((intercept + slope * next_x, r2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_trace::WorkloadModel;
    use gae_types::JobType;

    fn meta(login: &str, queue: &str, nodes: u32) -> TaskMeta {
        TaskMeta {
            account: "a".into(),
            login: login.into(),
            executable: "x".into(),
            queue: queue.into(),
            partition: "p".into(),
            nodes,
            job_type: JobType::Batch,
        }
    }

    fn estimator_with(entries: &[(&str, u64)]) -> RuntimeEstimator {
        let h = HistoryStore::new(1000);
        for (login, rt) in entries {
            h.observe(meta(login, "q", 1), SimDuration::from_secs(*rt));
        }
        RuntimeEstimator::new(h)
    }

    #[test]
    fn empty_history_is_error() {
        let est = RuntimeEstimator::new(HistoryStore::new(10));
        assert!(matches!(
            est.estimate(&meta("a", "q", 1)),
            Err(GaeError::Estimator(_))
        ));
    }

    #[test]
    fn mean_of_similar_tasks() {
        let est = estimator_with(&[("alice", 100), ("alice", 120), ("bob", 9000)])
            .with_method(EstimationMethod::Mean);
        let e = est.estimate(&meta("alice", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(110));
        assert_eq!(e.samples, 2);
        assert_eq!(e.template_tier, 0);
        assert!(!e.used_regression);
    }

    #[test]
    fn falls_back_to_coarser_template() {
        let est =
            estimator_with(&[("bob", 100), ("carol", 200)]).with_method(EstimationMethod::Mean);
        // No history for dave: queue-level template matches both.
        let e = est.estimate(&meta("dave", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(150));
        assert!(e.template_tier > 0);
    }

    #[test]
    fn regression_tracks_trend() {
        // Runtimes growing 100, 200, 300, 400 -> forecast 500.
        let est = estimator_with(&[("a", 100), ("a", 200), ("a", 300), ("a", 400)])
            .with_method(EstimationMethod::Regression);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.used_regression);
        let secs = e.runtime.as_secs_f64();
        assert!((secs - 500.0).abs() < 1e-6, "forecast {secs}");
    }

    #[test]
    fn hybrid_uses_mean_for_noise() {
        // No trend: hybrid must not regress.
        let est = estimator_with(&[("a", 100), ("a", 140), ("a", 100), ("a", 140)]);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(!e.used_regression);
        assert_eq!(e.runtime, SimDuration::from_secs(120));
    }

    #[test]
    fn hybrid_uses_regression_for_strong_trend() {
        let est = estimator_with(&[("a", 100), ("a", 200), ("a", 300), ("a", 400)]);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.used_regression);
    }

    #[test]
    fn confidence_interval_reflects_spread() {
        let est = estimator_with(&[("a", 100), ("a", 140)]).with_method(EstimationMethod::Mean);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(120));
        // Sample stddev of {100, 140} is ~28.28.
        assert!((e.std_dev_s - 28.28).abs() < 0.1, "σ {}", e.std_dev_s);
        let (lo, hi) = e.interval();
        assert!(lo < e.runtime && e.runtime < hi);
        assert!((e.relative_spread() - 28.28 / 120.0).abs() < 0.01);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let est = estimator_with(&[("solo", 300)]);
        let e = est.estimate(&meta("solo", "q", 1)).unwrap();
        assert_eq!(e.std_dev_s, 0.0);
        let (lo, hi) = e.interval();
        assert_eq!(lo, hi);
    }

    #[test]
    fn negative_extrapolation_falls_back() {
        // Sharply decreasing trend would forecast below zero.
        let est = estimator_with(&[("a", 400), ("a", 200), ("a", 50), ("a", 1)])
            .with_method(EstimationMethod::Regression);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.runtime > SimDuration::ZERO);
    }

    #[test]
    fn single_sample_regression_degrades_to_mean() {
        let est = estimator_with(&[("solo", 300)]).with_method(EstimationMethod::Regression);
        // Template tier with one match is below min_matches, falls
        // through; ultimately the last template matches it alone.
        let e = est.estimate(&meta("solo", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(300));
    }

    /// The retarget contract: the columnar path must reproduce the
    /// legacy ring's estimates bit for bit — same tier, same samples,
    /// same float — and its error messages verbatim.
    #[test]
    fn columnar_estimates_are_bit_identical_to_legacy() {
        use gae_hist::{HistConfig, HistOp, HistRecord, HistStore};

        let entries: &[(&str, u64)] = &[
            ("alice", 100),
            ("alice", 123),
            ("bob", 9000),
            ("alice", 140),
            ("carol", 77),
            ("alice", 161),
        ];
        let legacy = HistoryStore::new(1000);
        let store = HistStore::new(HistConfig { segment_rows: 2 });
        for (i, (login, rt)) in entries.iter().enumerate() {
            legacy.observe(meta(login, "q", 1), SimDuration::from_secs(*rt));
            store.apply(&HistOp::Append(Box::new(HistRecord {
                task: i as u64,
                site: 1,
                nodes: 1,
                submit_us: 0,
                start_us: 0,
                finish_us: 0,
                runtime_us: rt * 1_000_000,
                success: true,
                account: "a".into(),
                login: (*login).into(),
                executable: "x".into(),
                queue: "q".into(),
                partition: "p".into(),
                job_type: "batch".into(),
            })));
        }
        let est = RuntimeEstimator::new(legacy);
        let site = SiteId::new(1);
        for target in ["alice", "bob", "dave"] {
            let m = meta(target, "q", 1);
            let a = est.estimate(&m).unwrap();
            let b = est.estimate_columnar(&store, site, &m).unwrap();
            assert_eq!(a.template_tier, b.template_tier, "{target}");
            assert_eq!(a.samples, b.samples, "{target}");
            assert_eq!(a.used_regression, b.used_regression, "{target}");
            assert_eq!(
                a.runtime.as_secs_f64().to_bits(),
                b.runtime.as_secs_f64().to_bits(),
                "{target}"
            );
            assert_eq!(a.std_dev_s.to_bits(), b.std_dev_s.to_bits(), "{target}");
        }
        // Error parity: empty store and empty site both say what the
        // legacy path says.
        let empty = HistStore::new(HistConfig::default());
        let err = est
            .estimate_columnar(&empty, site, &meta("alice", "q", 1))
            .unwrap_err();
        assert!(err.to_string().contains("history is empty"), "{err}");
        let err = est
            .estimate_columnar(&store, SiteId::new(9), &meta("alice", "q", 1))
            .unwrap_err();
        assert!(err.to_string().contains("history is empty"), "{err}");
    }

    /// The headline property behind Figure 5: on a Downey-style
    /// workload with a 100-job history, mean error over 20 probes is
    /// in the paper's ballpark (they report 13.53 %).
    #[test]
    fn figure5_mean_error_in_range() {
        let model = WorkloadModel::default();
        let (history_recs, probes) = model.figure5_split(2005);
        let h = HistoryStore::new(1000);
        h.load_trace(&history_recs);
        let est = RuntimeEstimator::new(h);
        let mut errors = Vec::new();
        for probe in probes.iter().filter(|p| p.success) {
            let actual = probe.runtime().as_secs_f64();
            let predicted = est
                .estimate(&TaskMeta::from_record(probe))
                .unwrap()
                .runtime
                .as_secs_f64();
            errors.push(((actual - predicted) / actual * 100.0).abs());
        }
        let mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            mean_error < 35.0,
            "mean error {mean_error:.2}% far outside the paper's regime"
        );
    }
}
