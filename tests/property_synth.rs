//! Property test: generator synthesis is semantics-preserving for
//! arbitrary run-length control patterns and index ranges.

use valpipe::compiler::synth::synthesize_generators;
use valpipe::ir::{CtlStream, Graph, Opcode};
use valpipe::machine::{SimConfig, Simulator};
use valpipe_util::Rng;

fn random_pattern(r: &mut Rng) -> CtlStream {
    let n_runs = r.range(1, 6);
    CtlStream::from_runs((0..n_runs).map(|_| (r.flip(), r.range(1, 4) as u32)))
}

#[test]
fn synthesized_ctl_matches_primitive() {
    for case in 0..64u64 {
        let mut r = Rng::seed(0x6001).fork(case);
        let stream = random_pattern(&mut r);
        let build = |primitive: bool| {
            let mut g = Graph::new();
            let gen = g.add_node(Opcode::CtlGen(stream.clone()), "ctl");
            let _ = g.cell(Opcode::Sink("y".into()), "y", &[gen.into()]);
            if !primitive {
                synthesize_generators(&mut g);
            }
            Simulator::builder(&g)
                .config(
                    SimConfig::new()
                        .stop_outputs(vec![("y".into(), 3 * stream.wave_len() as usize + 2)])
                        .max_steps(50_000),
                )
                .run()
                .unwrap()
                .values("y")
        };
        let want = build(true);
        let got = build(false);
        let n = want.len().min(got.len());
        assert!(n >= stream.wave_len() as usize);
        assert_eq!(&got[..n], &want[..n], "pattern {stream}");
    }
}

#[test]
fn synthesized_idx_matches_primitive() {
    for case in 0..64u64 {
        let mut r = Rng::seed(0x6002).fork(case);
        let lo = r.range_i64(-5, 5);
        let len = r.range_i64(1, 9);
        let hi = lo + len - 1;
        let build = |primitive: bool| {
            let mut g = Graph::new();
            let gen = g.add_node(Opcode::IdxGen { lo, hi }, "idx");
            let _ = g.cell(Opcode::Sink("y".into()), "y", &[gen.into()]);
            if !primitive {
                synthesize_generators(&mut g);
            }
            Simulator::builder(&g)
                .config(
                    SimConfig::new()
                        .stop_outputs(vec![("y".into(), 3 * len as usize + 2)])
                        .max_steps(50_000),
                )
                .run()
                .unwrap()
                .values("y")
        };
        let want = build(true);
        let got = build(false);
        let n = want.len().min(got.len());
        assert_eq!(&got[..n], &want[..n]);
    }
}
