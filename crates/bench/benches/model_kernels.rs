//! Micro-benchmarks of the computational kernels behind the figures:
//! single delay queries of the hybrid model, trajectory evaluation,
//! characteristic-delay extraction, the Section V parametrization, the
//! ideal-gate merge, and one analog transient of the reference gate.
//!
//! Runs on the in-repo `mis-testkit` bench harness (offline replacement
//! for `criterion`), which prints a table and a JSON line and writes no
//! file; `scripts/ab.sh` compares every id against a base revision in
//! one session.

use mis_analog::transient::TransientOptions;
use mis_analog::NorTech;
use mis_core::charlie::CharacteristicDelays;
use mis_core::{delay, fit, HybridTrajectory, Mode, ModeSwitch, NorParams, RisingInitialVn};
use mis_digital::{gates, InertialChannel, TraceTransform};
use mis_testkit::bench::{black_box, Harness};
use mis_testkit::rng::TestRng;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf};

fn main() {
    let mut h = Harness::from_args("model_kernels");
    let p = NorParams::paper_table1();

    h.bench("falling_delay_single", || {
        delay::falling_delay(black_box(&p), black_box(ps(10.0))).expect("delay")
    });

    h.bench("rising_delay_single", || {
        delay::rising_delay(black_box(&p), black_box(ps(-10.0)), RisingInitialVn::Gnd)
            .expect("delay")
    });

    {
        let traj = HybridTrajectory::new(
            &p,
            Mode::S00,
            [p.vdd, p.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: 0.0,
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(10.0),
                    to: Mode::S11,
                },
            ],
        )
        .expect("trajectory");
        h.bench("trajectory_eval_100_points", || {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += traj.eval(ps(i as f64))[1];
            }
            black_box(acc)
        });
    }

    h.bench("characteristic_delays_model", || {
        CharacteristicDelays::of_model(black_box(&p)).expect("characteristics")
    });

    {
        let targets = CharacteristicDelays::of_model(&p.without_pure_delay()).expect("targets");
        let cfg = fit::FitConfig {
            max_evals: 800,
            ..fit::FitConfig::default()
        };
        h.bench("fit_roundtrip", || {
            fit::fit(black_box(&targets), &cfg).expect("fit")
        });
    }

    {
        // One-time gate characterization (the cost the cached channel
        // amortizes): full default config, and a coarse quick variant.
        let cfg = mis_charlib::CharConfig::default();
        h.bench("charlib_build/nor_default", || {
            mis_charlib::CharLib::nor(black_box(&p), &cfg).expect("characterization")
        });
        let quick = mis_charlib::CharConfig {
            initial_points: 9,
            budget: ps(0.5),
            vn_fractions: vec![0.0, 0.5, 1.0],
            ..mis_charlib::CharConfig::default()
        };
        h.bench("charlib_build/nor_quick", || {
            mis_charlib::CharLib::nor(black_box(&p), &quick).expect("characterization")
        });
    }

    {
        // The fused ideal-gate + channel pass of `mis_sim::Simulator`, on
        // warm staging buffers — tracked separately from the netlist
        // benches so the fusion win is visible independently of topology
        // effects. 500 input transitions, as in `channel_throughput`.
        let pair = TraceConfig::new(ps(150.0), ps(60.0), Assignment::Local, 500)
            .generate(0xbe7)
            .expect("trace generation");
        let inertial = InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel");
        let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
        abuf.copy_trace(&pair.a);
        bbuf.copy_trace(&pair.b);
        let mut scratch = EdgeBuf::new();
        let mut out = EdgeBuf::new();
        h.bench("fused_gate_channel/nor_inertial_500", || {
            gates::combine2_into(|x, y| !(x || y), abuf.as_ref(), bbuf.as_ref(), &mut scratch)
                .expect("ideal");
            inertial
                .apply_into(scratch.as_ref(), &mut out)
                .expect("inertial");
            out.len()
        });
        // The unfused equivalent (owned ideal trace + allocating apply),
        // for the before/after of the same work.
        h.bench("fused_gate_channel/nor_inertial_500_alloc", || {
            let ideal = gates::nor(&pair.a, &pair.b).expect("ideal");
            inertial.apply(&ideal).expect("inertial").transition_count()
        });
    }

    {
        // The ideal-gate merge alone, on warm buffers: 500-transition
        // input pairs on a 5 ps grid, so about a fifth of the edges tie
        // across the two inputs. NOR masks part of the fan-in traffic;
        // XOR passes every distinct instant through.
        let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
        abuf.copy_trace(&grid_trace(0xc0b1, 500));
        bbuf.copy_trace(&grid_trace(0xc0b2, 500));
        let mut out = EdgeBuf::new();
        let nor: fn(bool, bool) -> bool = |x, y| !(x || y);
        let xor: fn(bool, bool) -> bool = |x, y| x ^ y;
        for (id, f) in [
            ("gates/combine2_into/nor_500", nor),
            ("gates/combine2_into/xor_500", xor),
        ] {
            h.bench(id, || {
                gates::combine2_into(f, abuf.as_ref(), bbuf.as_ref(), &mut out).expect("ideal");
                out.len()
            });
        }
        // A 500-transition input against one that stops after 50: the
        // merge steps through the first tenth and finishes the other
        // input's tail as one block.
        let mut short = EdgeBuf::new();
        short.copy_trace(&grid_trace(0xc0b3, 50));
        h.bench("gates/combine2_into/nor_tail_500", || {
            gates::combine2_into(nor, abuf.as_ref(), short.as_ref(), &mut out).expect("ideal");
            out.len()
        });
    }

    {
        let tech = NorTech::freepdk15_like();
        let opts = TransientOptions::default();
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).expect("trace");
        let bb = DigitalTrace::constant(false);
        h.bench("analog_transient_single_edge", || {
            tech.simulate_traces(black_box(&a), &bb, ps(700.0), &opts)
                .expect("transient")
        });
    }

    h.finish();
}

/// A seeded `edges`-transition trace on a 5 ps grid, 1–8 ticks apart.
fn grid_trace(seed: u64, edges: usize) -> DigitalTrace {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut trace = DigitalTrace::constant(rng.gen_bool(0.5));
    let mut ticks = 0u64;
    for _ in 0..edges {
        ticks += 1 + rng.gen_u64_below(8);
        let rising = !trace.final_value();
        trace
            .push_edge(ticks as f64 * ps(5.0), rising)
            .expect("monotone");
    }
    trace
}
