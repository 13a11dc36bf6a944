//! Backend agreement: one choreography, three executions.
//!
//! * The socket backend (real TCP over loopback, thread-per-node) must
//!   reproduce the simulator backend's outcome bit for bit on the same
//!   seed — same outputs, rounds, and counters (`msg_bytes` is the wire
//!   length for every protocol, so byte counters transfer).
//! * The Monte-Carlo backend must be invariant under the worker thread
//!   count: per-sample RNG streams are keyed by `(seed, sample)`, never
//!   by the executing thread.

use std::process::Command;
use std::time::Duration;

use rand::SeedableRng;
use rsbt_protocols::choreo::{
    consensus_choreo, Backend, BleChoreo, EuclidChoreo, MatchingChoreo, McBackend,
    ProtocolEstimate, RunJob, SimBackend, SocketBackend,
};
use rsbt_random::Assignment;
use rsbt_sim::{Model, PortNumbering};

const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn socket_backend_agrees_with_simulator_on_ble() {
    let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
    let model = Model::Blackboard;
    for seed in 0..4u64 {
        let job = RunJob {
            model: &model,
            alpha: &alpha,
            max_rounds: 128,
            seed,
        };
        let sim = SimBackend.run(&BleChoreo, &job).unwrap().into_run();
        let net = SocketBackend::in_process(TIMEOUT)
            .run(&BleChoreo, &job)
            .unwrap()
            .into_run();
        assert!(sim.completed, "seed {seed}: election should decide");
        assert_eq!(sim.outputs, net.outputs, "seed {seed}");
        assert_eq!(sim.rounds, net.rounds, "seed {seed}");
        assert_eq!(sim.completed, net.completed, "seed {seed}");
        assert_eq!(sim.stats, net.stats, "seed {seed}");
    }
}

#[test]
fn socket_backend_agrees_with_simulator_on_euclid() {
    let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
    let mut prng = rand::rngs::StdRng::seed_from_u64(5);
    let model = Model::MessagePassing(PortNumbering::random(5, &mut prng));
    for seed in 0..3u64 {
        let job = RunJob {
            model: &model,
            alpha: &alpha,
            max_rounds: 6000,
            seed,
        };
        let choreo = EuclidChoreo { k: 2 };
        let sim = SimBackend.run(&choreo, &job).unwrap().into_run();
        let net = SocketBackend::in_process(TIMEOUT)
            .run(&choreo, &job)
            .unwrap()
            .into_run();
        assert!(sim.completed, "seed {seed}: election should decide");
        assert_eq!(sim.outputs, net.outputs, "seed {seed}");
        assert_eq!(sim.rounds, net.rounds, "seed {seed}");
        assert_eq!(sim.stats, net.stats, "seed {seed}");
    }
}

#[test]
fn socket_backend_agrees_with_simulator_on_matching_and_consensus() {
    let alpha = Assignment::from_group_sizes(&[1, 1, 1, 1]).unwrap();
    let model = Model::MessagePassing(PortNumbering::cyclic(4));
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 256,
        seed: 11,
    };
    let choreo = MatchingChoreo { a: 2, b: 2 };
    let sim = SimBackend.run(&choreo, &job).unwrap().into_run();
    let net = SocketBackend::in_process(TIMEOUT)
        .run(&choreo, &job)
        .unwrap()
        .into_run();
    assert!(sim.completed, "matching should complete");
    assert_eq!(sim.outputs, net.outputs);
    assert_eq!(sim.stats, net.stats);

    let model = Model::Blackboard;
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 256,
        seed: 13,
    };
    let choreo = consensus_choreo(BleChoreo, vec![9, 4, 9, 6]);
    let sim = SimBackend.run(&choreo, &job).unwrap().into_run();
    let net = SocketBackend::in_process(TIMEOUT)
        .run(&choreo, &job)
        .unwrap()
        .into_run();
    assert!(sim.completed, "consensus should complete");
    assert_eq!(sim.outputs, net.outputs);
    assert_eq!(sim.outputs[0], Some(4), "minimum input wins");
    assert_eq!(sim.stats, net.stats);
}

/// Graceful degradation: spawned workers that die before the handshake
/// are declared crashed, and the backend returns a partial outcome — all
/// outputs `None`, every `crashed` flag set — instead of an error.
#[test]
fn spawn_backend_degrades_when_workers_never_connect() {
    let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
    let model = Model::Blackboard;
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 8,
        seed: 3,
    };
    // `true` exits immediately without ever dialing the coordinator.
    let net = SocketBackend::spawning(Duration::from_millis(200), |_, _| Command::new("true"))
        .run(&BleChoreo, &job)
        .unwrap()
        .into_run();
    assert!(net.crashed.iter().all(|&c| c), "every worker is crashed");
    assert!(net.outputs.iter().all(Option::is_none));
    assert_eq!(net.stats.crashes, 4);
}

/// Kill plans need a process to kill: the in-process launcher refuses.
#[test]
#[should_panic(expected = "kill plans require the Spawn launcher")]
fn in_process_backend_rejects_kill_plans() {
    let alpha = Assignment::from_group_sizes(&[1, 1]).unwrap();
    let model = Model::Blackboard;
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 4,
        seed: 0,
    };
    let _ = SocketBackend::in_process(TIMEOUT)
        .with_kill(0, 1)
        .run(&BleChoreo, &job);
}

#[test]
fn mc_backend_is_thread_count_invariant() {
    let alpha = Assignment::from_group_sizes(&[1, 3]).unwrap();
    let model = Model::Blackboard;
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 24,
        seed: 1234,
    };
    let base = McBackend {
        samples: 400,
        threads: 1,
    }
    .run(&BleChoreo, &job)
    .unwrap()
    .into_estimate();
    assert!(base.successes > 0, "some runs must complete");
    assert!(base.ci_lo <= base.p && base.p <= base.ci_hi);
    for threads in [2, 3, 8] {
        let est = McBackend {
            samples: 400,
            threads,
        }
        .run(&BleChoreo, &job)
        .unwrap()
        .into_estimate();
        assert_eq!(base.successes, est.successes, "threads={threads}");
        assert_eq!(
            base.completed_by_round, est.completed_by_round,
            "threads={threads}"
        );
        assert_eq!(base.total_posts, est.total_posts, "threads={threads}");
        assert_eq!(base.total_sends, est.total_sends, "threads={threads}");
        assert_eq!(base.max_msg_bytes, est.max_msg_bytes, "threads={threads}");
        assert_eq!(base.p, est.p, "threads={threads}");
        assert_eq!(
            (base.ci_lo, base.ci_hi),
            (est.ci_lo, est.ci_hi),
            "threads={threads}"
        );
    }
}

/// One pinned estimate: `successes`, `completed_by_round`, `total_posts`,
/// `total_sends`, `max_msg_bytes`.
type Pinned = (u64, [u64; 16], u64, u64, usize);

#[test]
fn mc_backend_estimates_are_pinned() {
    // Literal counts of 2048 samples at 16 rounds, seed 7: a change to the
    // runner, the routing core or a role that moves any draw, decision or
    // message counter shows here, at either thread count.
    let board = Model::Blackboard;
    let ble_22: Pinned = (0, [0; 16], 131_072, 0, 20);
    let ble_112: Pinned = (
        2048,
        [
            0, 1001, 1495, 1772, 1892, 1971, 2013, 2027, 2036, 2043, 2044, 2046, 2046, 2047, 2047,
            2048,
        ],
        16_960,
        0,
        19,
    );
    let euclid_112: Pinned = (
        2048,
        [
            0, 0, 748, 1305, 1663, 1847, 1947, 1995, 2017, 2031, 2038, 2044, 2045, 2046, 2046, 2048,
        ],
        0,
        83_376,
        20,
    );
    let pinned = |est: &ProtocolEstimate| -> Pinned {
        (
            est.successes,
            est.completed_by_round.clone().try_into().unwrap(),
            est.total_posts,
            est.total_sends,
            est.max_msg_bytes,
        )
    };
    for threads in [1, 2] {
        let mc = McBackend {
            samples: 2048,
            threads,
        };
        for (sizes, want) in [(&[2, 2][..], ble_22), (&[1, 1, 2][..], ble_112)] {
            let alpha = Assignment::from_group_sizes(sizes).unwrap();
            let job = RunJob {
                model: &board,
                alpha: &alpha,
                max_rounds: 16,
                seed: 7,
            };
            let est = mc.estimate(&BleChoreo, &job).unwrap();
            assert_eq!(pinned(&est), want, "BLE {sizes:?}, threads={threads}");
        }
        let alpha = Assignment::from_group_sizes(&[1, 1, 2]).unwrap();
        let ports = Model::MessagePassing(PortNumbering::cyclic(alpha.n()));
        let job = RunJob {
            model: &ports,
            alpha: &alpha,
            max_rounds: 16,
            seed: 7,
        };
        let est = mc.estimate(&EuclidChoreo { k: alpha.k() }, &job).unwrap();
        assert_eq!(
            pinned(&est),
            euclid_112,
            "Euclid [1, 1, 2], threads={threads}"
        );
    }
}

#[test]
fn mc_backend_series_is_monotone_and_bounded() {
    let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
    let model = Model::Blackboard;
    let job = RunJob {
        model: &model,
        alpha: &alpha,
        max_rounds: 16,
        seed: 7,
    };
    let est = McBackend {
        samples: 500,
        threads: 4,
    }
    .run(&BleChoreo, &job)
    .unwrap()
    .into_estimate();
    let series = est.series();
    assert_eq!(series.len(), 16);
    for w in series.windows(2) {
        assert!(w[0] <= w[1], "cumulative series must be monotone");
    }
    assert!(series.iter().all(|&p| (0.0..=1.0).contains(&p)));
    let (lo, hi) = est.round_interval(16);
    assert!(lo <= series[15] && series[15] <= hi);
}
