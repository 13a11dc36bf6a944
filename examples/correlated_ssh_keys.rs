//! The paper's motivating scenario (Section 1.2): "independent" devices
//! whose randomness sources are secretly duplicated — as in the 250,000+
//! devices found sharing SSH keys [Mat15].
//!
//! A fleet of devices must elect a coordinator over an anonymous broadcast
//! channel (the blackboard model). We sample duplication patterns and show
//! election succeeding exactly when some device has a truly unique source
//! (Theorem 4.1).
//!
//! Run with `cargo run --example correlated_ssh_keys`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsbt::core::eventual;
use rsbt::protocols::choreo::{run_with, BleChoreo};
use rsbt::protocols::leader_count;
use rsbt::random::Assignment;
use rsbt::sim::Model;
use rsbt_bench::Table;

fn main() {
    let mut rng = StdRng::seed_from_u64(2015); // the year of [Mat15]
    let devices = 5;
    let mut table = Table::new(vec!["seed pool", "fleets elected", "provably stuck"]);

    for key_pool in [2usize, 3, 100] {
        let mut ok = 0;
        let mut impossible = 0;
        const FLEETS: usize = 50;
        for _ in 0..FLEETS {
            // Each device "generates" its key by picking a seed from the
            // pool; collisions are the [Mat15] duplications.
            let seeds: Vec<usize> = (0..devices).map(|_| rng.gen_range(0..key_pool)).collect();
            let alpha = Assignment::from_sources(seeds).unwrap();
            if !eventual::blackboard_eventually_solvable(&alpha) {
                impossible += 1;
                continue;
            }
            let out = run_with(&BleChoreo, &Model::Blackboard, &alpha, 256, &mut rng)
                .expect("blackboard election projects");
            assert!(out.completed, "Theorem 4.1: a singleton source elects a.s.");
            assert_eq!(leader_count(&out.outputs), 1);
            ok += 1;
        }
        table.row(vec![
            key_pool.to_string(),
            format!("{ok}/{FLEETS}"),
            impossible.to_string(),
        ]);
    }
    println!("fleets of {devices} devices, seeds drawn from a shared firmware pool:\n");
    print!("{table}");
    println!();
    println!("Takeaway: duplicated randomness is not a performance problem but a");
    println!("*computability* problem — with no unique source, no algorithm can");
    println!("break the symmetry, no matter how long it runs (Theorem 4.1).");
}
