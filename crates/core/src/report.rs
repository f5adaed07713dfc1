//! Plain-text and CSV rendering of experiment output.

use crate::experiment::EvalRow;
use dpdp_rl::EpisodePoint;

/// Renders evaluation rows as an aligned text table.
pub fn render_table(title: &str, rows: &[EvalRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<12} {:>6} {:>12} {:>12} {:>8} {:>9} {:>10}\n",
        "algo", "NUV", "TC", "TTL(km)", "served", "rejected", "wall(s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12.1} {:>12.1} {:>8} {:>9} {:>10.3}\n",
            r.algo, r.nuv, r.total_cost, r.ttl, r.served, r.rejected, r.wall_secs
        ));
    }
    out
}

/// Renders evaluation rows as CSV with a header (the `rej_*` columns are
/// the per-reason rejection breakdown streamed by the evaluation probe,
/// including the disruption outcomes `rej_cancelled` / `rej_vehicle_lost`).
pub fn rows_to_csv(rows: &[EvalRow]) -> String {
    let mut out = String::from(
        "algo,nuv,total_cost,ttl_km,served,rejected,\
         rej_no_feasible,rej_policy,rej_infeasible_choice,rej_cancelled,\
         rej_vehicle_lost,wall_secs\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{:.3},{},{},{},{},{},{},{},{:.6}\n",
            r.algo,
            r.nuv,
            r.total_cost,
            r.ttl,
            r.served,
            r.rejected,
            r.rejections.no_feasible_vehicle,
            r.rejections.policy_rejected,
            r.rejections.infeasible_choice,
            r.rejections.cancelled,
            r.rejections.vehicle_lost,
            r.wall_secs
        ));
    }
    out
}

/// Header of the convergence-curve CSV written by [`curve_to_csv`] and
/// streamed line by line by [`crate::probes::CurveProbe`].
pub const CURVE_CSV_HEADER: &str = "episode,nuv,total_cost,ttl_km,served,rejected,capacity_diff\n";

/// One convergence-curve CSV line (newline-terminated), matching
/// [`CURVE_CSV_HEADER`].
pub fn curve_csv_line(p: &EpisodePoint) -> String {
    format!(
        "{},{},{:.3},{:.3},{},{},{}\n",
        p.episode,
        p.nuv,
        p.total_cost,
        p.ttl,
        p.served,
        p.rejected,
        p.capacity_diff.map_or(String::new(), |d| format!("{d:.3}")),
    )
}

/// Renders a training convergence curve as CSV
/// (`episode,nuv,total_cost,ttl,served,rejected,capacity_diff`).
pub fn curve_to_csv(points: &[EpisodePoint]) -> String {
    let mut out = String::from(CURVE_CSV_HEADER);
    for p in points {
        out.push_str(&curve_csv_line(p));
    }
    out
}

/// Downsamples a curve to every `stride`-th point (always keeping the last),
/// for compact console output.
pub fn thin_curve(points: &[EpisodePoint], stride: usize) -> Vec<&EpisodePoint> {
    let stride = stride.max(1);
    let mut out: Vec<&EpisodePoint> = points.iter().step_by(stride).collect();
    if let Some(last) = points.last() {
        if out.last().map(|p| p.episode) != Some(last.episode) {
            out.push(last);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> EvalRow {
        EvalRow {
            algo: "ST-DDGN".into(),
            nuv: 26,
            total_cost: 11080.5,
            ttl: 1540.25,
            served: 150,
            rejected: 0,
            rejections: dpdp_sim::RejectionCounts::default(),
            wall_secs: 0.42,
            epochs: 150,
        }
    }

    fn point(e: usize) -> EpisodePoint {
        EpisodePoint {
            episode: e,
            nuv: 30,
            total_cost: 12000.0,
            ttl: 1500.0,
            served: 150,
            rejected: 0,
            capacity_diff: Some(250.0),
        }
    }

    #[test]
    fn table_contains_all_fields() {
        let s = render_table("Fig. 6", &[row()]);
        assert!(s.contains("Fig. 6"));
        assert!(s.contains("ST-DDGN"));
        assert!(s.contains("11080.5"));
        assert!(s.contains("150"));
    }

    #[test]
    fn csv_roundtrips_shape() {
        let s = rows_to_csv(&[row(), row()]);
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("algo,"));
        let c = curve_to_csv(&[point(0), point(1)]);
        assert_eq!(c.lines().count(), 3);
        assert!(c.contains("250.000"));
    }

    #[test]
    fn thin_curve_keeps_last() {
        let pts: Vec<EpisodePoint> = (0..10).map(point).collect();
        let thin = thin_curve(&pts, 4);
        let eps: Vec<usize> = thin.iter().map(|p| p.episode).collect();
        assert_eq!(eps, vec![0, 4, 8, 9]);
        assert!(thin_curve(&[], 3).is_empty());
    }
}
