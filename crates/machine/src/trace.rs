//! Execution trace export and occupancy visualization.
//!
//! With [`crate::SimConfig::record_fire_times`] enabled, a run knows when
//! every cell fired. This module renders that record two ways:
//!
//! * [`chrome_trace`] — Chrome/Perfetto trace-event JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>): one row per
//!   instruction cell, one 1-instruction-time slice per firing. The fully
//!   pipelined steady state is immediately visible as a solid brick wall
//!   of alternating slices.
//! * [`occupancy_chart`] — a terminal ASCII chart of firings per
//!   instruction time, for quick looks in examples and experiment logs.

use crate::sim::RunResult;
use valpipe_ir::Graph;

/// Render a run as Chrome trace-event JSON. Requires the run to have been
/// taken with `record_fire_times: true`; returns `None` otherwise.
pub fn chrome_trace(g: &Graph, run: &RunResult) -> Option<String> {
    let fire_times = run.fire_times.as_ref()?;
    let mut out = String::from("[\n");
    let mut first = true;
    for (i, times) in fire_times.iter().enumerate() {
        let name = format!(
            "{} {}",
            g.nodes[i].op.mnemonic(),
            g.nodes[i].label.replace('"', "'")
        );
        // Thread metadata: row label.
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        ));
        for &t in times {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{i},\"ts\":{t},\"dur\":1,\"name\":\"fire\"}}"
            ));
        }
    }
    out.push_str("\n]\n");
    Some(out)
}

/// ASCII occupancy chart: one column per instruction-time bucket, height
/// proportional to the number of firings in that bucket. `width` buckets.
pub fn occupancy_chart(run: &RunResult, width: usize) -> String {
    let Some(fire_times) = run.fire_times.as_ref() else {
        return "(enable record_fire_times for an occupancy chart)".into();
    };
    let steps = run.steps.max(1);
    let width = width.max(1);
    let bucket = (steps as usize).div_ceil(width);
    let mut counts = vec![0u64; width];
    for times in fire_times {
        for &t in times {
            let b = (t as usize / bucket).min(width - 1);
            counts[b] += 1;
        }
    }
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    const ROWS: usize = 8;
    let mut out = String::new();
    for row in (1..=ROWS).rev() {
        let threshold = peak * row as u64 / ROWS as u64;
        for &c in &counts {
            out.push(if c >= threshold.max(1) { '█' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "firings per {bucket}-instruction-time bucket, peak {peak}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ProgramInputs, Simulator};
    use crate::SimConfig;
    use valpipe_ir::value::Value;
    use valpipe_ir::Opcode;

    fn traced_run() -> (Graph, RunResult) {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let id = g.cell(Opcode::Id, "stage", &[a.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[id.into()]);
        let data: Vec<Value> = (0..20).map(|i| Value::Real(i as f64)).collect();
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", data))
            .config(SimConfig::new().record_fire_times(true))
            .run()
            .unwrap();
        (g, r)
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_events() {
        let (g, r) = traced_run();
        let json = chrome_trace(&g, &r).unwrap();
        let parsed = valpipe_util::Json::parse(&json).expect("valid JSON");
        let events = parsed.as_arr().unwrap();
        // 3 metadata rows + one slice per firing.
        let fires: u64 = r.fires.iter().sum();
        assert_eq!(events.len() as u64, 3 + fires);
        assert!(json.contains("IN[a]"));
    }

    #[test]
    fn trace_absent_without_recording() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[a.into()]);
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", vec![Value::Real(1.0)]))
            .run()
            .unwrap();
        assert!(chrome_trace(&g, &r).is_none());
        assert!(occupancy_chart(&r, 10).contains("record_fire_times"));
    }

    #[test]
    fn occupancy_chart_shape() {
        let (_, r) = traced_run();
        let chart = occupancy_chart(&r, 20);
        assert!(chart.contains('█'));
        assert!(chart.lines().count() >= 9);
    }
}
