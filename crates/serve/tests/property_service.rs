//! Property test (satellite 3): hibernate → evict → resume at *every*
//! idle boundary of a random job sequence yields a final result
//! bit-identical to an uninterrupted session — on both kernels.
//!
//! The hibernation cycle goes through the real write path
//! (`hibernate::save`/`load` on a directory), i.e. exactly the slot
//! files that land on disk, so this also property-checks the container
//! format round trip and the alternation of the two slots.

use std::path::PathBuf;

use valpipe_machine::Kernel;
use valpipe_serve::hibernate;
use valpipe_serve::proto::kernel_to_str;
use valpipe_serve::{Advance, JobLimits, SessionCore, SessionSpec};
use valpipe_util::{Json, Rng};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("valpipe_prop_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const KERNELS: [Kernel; 2] = [Kernel::Scan, Kernel::EventDriven];

/// The paper's Fig. 6 stencil (conditional + window selection), small
/// enough to run many randomized trials in a test.
fn spec(name: &str, kernel: Kernel, waves: usize) -> SessionSpec {
    SessionSpec {
        name: name.to_string(),
        source: "param m = 4;\n\
                 input B : array[real] [0, m+1];\n\
                 input C : array[real] [0, m+1];\n\
                 A : array[real] :=\n\
                 forall i in [0, m+1]\n\
                 P : real :=\n\
                 if (i = 0)|(i = m+1) then C[i]\n\
                 else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])\n\
                 endif;\n\
                 construct B[i]*(P*P)\n\
                 endall;\n\
                 output A;"
            .to_string(),
        arrays: Json::parse(r#"{"B":[0.5,1.5,2.5,3.5,4.5,5.5],"C":[1.0,2.0,3.0,2.0,1.0,0.5]}"#)
            .unwrap(),
        waves,
        kernel,
        max_steps: 200_000,
    }
}

/// Drive a core to completion in one uninterrupted job.
fn oracle_result(kernel: Kernel, waves: usize) -> String {
    let mut core = SessionCore::open(spec("oracle", kernel, waves)).unwrap();
    match core.advance(&JobLimits::default(), 1 << 40).unwrap() {
        Advance::Done { .. } => {}
        _ => panic!("oracle run must complete"),
    }
    core.final_result.unwrap()
}

#[test]
fn hibernation_at_every_idle_boundary_is_bit_identical_across_kernels() {
    let waves = 6;
    let event_oracle = oracle_result(Kernel::EventDriven, waves);
    for kernel in KERNELS {
        let oracle = oracle_result(kernel, waves);
        // All kernels agree before any hibernation enters the picture.
        assert_eq!(
            oracle,
            event_oracle,
            "kernel {} diverges from event kernel",
            kernel_to_str(kernel)
        );

        let mut rng = Rng::seed(0xB0DA + waves as u64);
        let dir = temp_dir(&format!("boundaries_{}", kernel_to_str(kernel)));
        for trial in 0..8 {
            let name = format!("p-{}-{trial}", kernel_to_str(kernel));
            let mut core = SessionCore::open(spec(&name, kernel, waves)).unwrap();
            let mut boundaries = 0u32;
            loop {
                // A random job: advance by a random absolute increment.
                let hop = 1 + rng.below(40) as u64;
                let limits = JobLimits {
                    until: Some(core.now() + hop),
                    ..JobLimits::default()
                };
                let advance = core.advance(&limits, 1 + rng.below(16) as u64).unwrap();
                // Idle boundary: hibernate into the next slot and resume
                // from the newest one, which is the state just saved.
                let now = core.now();
                hibernate::save(&dir, &core, &mut rng).unwrap();
                core = hibernate::load(&dir, &name).unwrap_or_else(|e| {
                    panic!("container round-trip failed at boundary {boundaries}: {e}")
                });
                assert_eq!(core.now(), now, "boundary {boundaries} resumed elsewhere");
                boundaries += 1;
                match advance {
                    Advance::Done { .. } => break,
                    Advance::Paused { .. } => {}
                    _ => panic!("no budget or deadline was set"),
                }
            }
            assert!(boundaries >= 2, "trial must cross several boundaries");
            assert_eq!(
                core.final_result.as_deref().unwrap(),
                oracle.as_str(),
                "kernel {} trial {trial}: hibernated run diverged after {boundaries} boundaries",
                kernel_to_str(kernel)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Arbitrary-bytes fuzz of the container decoder: random garbage, a
/// valid magic glued onto garbage, and heavily mutated real containers,
/// in both the slot form and the single-file form of earlier releases,
/// must all come back as typed `HibernateError`s — never a panic, never
/// an accepted corruption.
#[test]
fn container_decode_survives_arbitrary_bytes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let core = SessionCore::open(spec("arb", Kernel::EventDriven, 2)).unwrap();
    let forms = [
        (hibernate::encode_slot(&core, 5), hibernate::SLOT_MAGIC),
        (hibernate::encode(&core), hibernate::HIBERNATE_MAGIC),
    ];
    let mut rng = Rng::seed(0xA5B1);
    for trial in 0..300 {
        let (good, magic) = &forms[trial / 3 % 2];
        let bytes: Vec<u8> = match trial % 3 {
            // Pure garbage, arbitrary length (including empty).
            0 => (0..rng.below(512)).map(|_| rng.below(256) as u8).collect(),
            // Correct magic, garbage body.
            1 => {
                let mut b = magic.to_vec();
                b.extend((0..rng.below(256)).map(|_| rng.below(256) as u8));
                b
            }
            // Real container with a corrupted span.
            _ => {
                let mut b = good.clone();
                let at = rng.below(b.len());
                let len = (1 + rng.below(32)).min(b.len() - at);
                for x in &mut b[at..at + len] {
                    *x = rng.below(256) as u8;
                }
                b
            }
        };
        let changed = bytes != *good;
        match catch_unwind(AssertUnwindSafe(|| hibernate::decode(&bytes).map(|_| ()))) {
            Ok(result) => {
                if changed {
                    assert!(result.is_err(), "trial {trial}: corruption decoded cleanly");
                }
            }
            Err(_) => panic!("trial {trial}: decode panicked on {} bytes", bytes.len()),
        }
    }
}

#[test]
fn container_decode_rejects_every_truncation_point_with_typed_errors() {
    let core = SessionCore::open(spec("trunc", Kernel::EventDriven, 2)).unwrap();
    for bytes in [hibernate::encode_slot(&core, 1), hibernate::encode(&core)] {
        // Sample truncation points across the whole container; each must
        // fail cleanly, never panic.
        let mut at = 0;
        while at < bytes.len() {
            let r = hibernate::decode(&bytes[..at]);
            assert!(r.is_err(), "decode accepted a {at}-byte prefix");
            at += 1 + at / 8;
        }
        // Single-bit corruption anywhere must be caught by a checksum.
        let mut rng = Rng::seed(42);
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let i = rng.below(bad.len());
            bad[i] ^= 1 << rng.below(8);
            assert!(
                hibernate::decode(&bad).is_err(),
                "flipped bit at byte {i} went undetected"
            );
        }
    }
}

/// The torn-write march: a truncation at every byte offset and a bit
/// flip at every byte offset, payload included, of either slot makes
/// that slot invalid, so `load` falls back to the other slot's state.
#[test]
fn every_torn_byte_of_either_slot_falls_back_to_the_other() {
    let dir = temp_dir("march");
    let name = "march";
    let mut core = SessionCore::open(spec(name, Kernel::EventDriven, 2)).unwrap();
    let mut rng = Rng::seed(0x7EA2);
    // Sequence 1 (slot 1) at step 0, sequence 2 (slot 0) at step 9.
    hibernate::save(&dir, &core, &mut rng).unwrap();
    let limits = JobLimits {
        until: Some(9),
        ..JobLimits::default()
    };
    core.advance(&limits, 1 << 20).unwrap();
    hibernate::save(&dir, &core, &mut rng).unwrap();
    let slots: Vec<(PathBuf, Vec<u8>)> = (0..2)
        .map(|slot| {
            let path = hibernate::slot_path(&dir, name, slot);
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    assert_eq!(hibernate::verify(&slots[0].1).unwrap(), 2);
    assert_eq!(hibernate::verify(&slots[1].1).unwrap(), 1);
    // (torn slot, the step the other slot holds)
    for (torn, fallback_now) in [(0, 0), (1, 9)] {
        let (path, good) = &slots[torn];
        for at in 0..good.len() {
            assert!(
                hibernate::verify(&good[..at]).is_err(),
                "slot {torn}: a {at}-byte prefix verified"
            );
            let mut flipped = good.clone();
            flipped[at] ^= 1 << (at % 8);
            assert!(
                hibernate::verify(&flipped).is_err(),
                "slot {torn}: a flipped bit at byte {at} verified"
            );
            // On disk, for a spread of offsets: the load resumes from the
            // other slot.
            if at % (good.len() / 12) == 0 {
                for bad in [&good[..at], &flipped[..]] {
                    std::fs::write(path, bad).unwrap();
                    let loaded = hibernate::load(&dir, name).unwrap();
                    assert_eq!(loaded.now(), fallback_now, "slot {torn} torn at {at}");
                }
            }
        }
        std::fs::write(path, good).unwrap();
    }
    assert_eq!(hibernate::load(&dir, name).unwrap().now(), 9);
    let _ = std::fs::remove_dir_all(&dir);
}
