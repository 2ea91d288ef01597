//! Small statistics helpers for experiment reporting.

use spineless_sim::SimReport;

/// FCT and loss summary of one simulation run — the topology-agnostic
/// core of every experiment cell (Fig. 4 grids, the recovery sweep, the
/// benchmark snapshot all report these numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctSummary {
    /// Median FCT of completed flows, ms (`NaN` when none completed).
    pub median_ms: f64,
    /// 99th-percentile FCT of completed flows, ms (`NaN` when none).
    pub p99_ms: f64,
    /// Mean FCT of completed flows, ms (`NaN` when none).
    pub mean_ms: f64,
    /// Flows injected.
    pub flows: usize,
    /// Flows that did not finish within the simulation horizon.
    pub unfinished: usize,
    /// Packets dropped (full queues, dead links, no-route blackholes).
    pub dropped: u64,
    /// Data segments retransmitted, summed over all flows.
    pub retransmits: u64,
    /// Retransmission timeouts fired, summed over all flows.
    pub timeouts: u64,
}

impl FctSummary {
    /// Summarizes a [`SimReport`].
    pub fn from_report(report: &SimReport) -> FctSummary {
        let fcts_ms: Vec<f64> = report.fcts().iter().map(|&ns| ns_to_ms(ns)).collect();
        FctSummary {
            median_ms: median(&fcts_ms).unwrap_or(f64::NAN),
            p99_ms: percentile(&fcts_ms, 99.0).unwrap_or(f64::NAN),
            mean_ms: mean(&fcts_ms).unwrap_or(f64::NAN),
            flows: report.flows.len(),
            unfinished: report.unfinished(),
            dropped: report.dropped_packets,
            retransmits: report.flows.iter().map(|f| f.retransmits as u64).sum(),
            timeouts: report.flows.iter().map(|f| f.timeouts as u64).sum(),
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted slice.
/// Returns `None` on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.saturating_sub(1).min(v.len() - 1)])
}

/// Median via [`percentile`].
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Converts nanoseconds to milliseconds (the paper's FCT axis unit).
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 99.0), Some(5.0));
        assert_eq!(percentile(&v, 20.0), Some(1.0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[2.0, 1.0]), Some(1.0)); // nearest rank
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn summary_from_report() {
        use spineless_sim::FlowRecord;
        let mk = |id, fct, rtx, to| FlowRecord {
            id,
            src: 0,
            dst: 1,
            bytes: 100,
            start_ns: 0,
            fct_ns: fct,
            retransmits: rtx,
            timeouts: to,
        };
        let r = SimReport {
            flows: vec![
                mk(0, Some(1_000_000), 2, 1),
                mk(1, None, 5, 3),
                mk(2, Some(3_000_000), 0, 0),
            ],
            dropped_packets: 7,
            delivered_bytes: 200,
            end_ns: 9,
            events: 42,
            used_fib_cache: true,
            congestion_drops: 0,
            pause_frames: 0,
            resume_frames: 0,
            links_ever_paused: 0,
            max_ingress_backlog: 0,
        };
        let s = FctSummary::from_report(&r);
        assert_eq!(s.median_ms, 1.0);
        assert_eq!(s.p99_ms, 3.0);
        assert_eq!(s.mean_ms, 2.0);
        assert_eq!((s.flows, s.unfinished, s.dropped), (3, 1, 7));
        assert_eq!((s.retransmits, s.timeouts), (7, 4));
    }

    #[test]
    fn summary_of_empty_report_is_nan() {
        let r = SimReport {
            flows: vec![],
            dropped_packets: 0,
            delivered_bytes: 0,
            end_ns: 0,
            events: 0,
            used_fib_cache: false,
            congestion_drops: 0,
            pause_frames: 0,
            resume_frames: 0,
            links_ever_paused: 0,
            max_ingress_backlog: 0,
        };
        let s = FctSummary::from_report(&r);
        assert!(s.median_ms.is_nan() && s.p99_ms.is_nan() && s.mean_ms.is_nan());
    }

    #[test]
    fn unit_conversion() {
        assert_eq!(ns_to_ms(1_500_000), 1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_percentile() {
        percentile(&[1.0], 150.0);
    }
}
