//! Theorem 4.2 in action: message-passing leader election succeeds for
//! every port numbering exactly when `gcd(n_1, …, n_k) = 1`.
//!
//! Runs the Euclid-style election on correlated groups under random *and*
//! adversarial port numberings, and shows the gcd = 2 configuration
//! stalling under the adversarial numbering while gcd = 1 always elects.
//!
//! Run with `cargo run --release --example gcd_leader_election`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt::protocols::choreo::{run_with, EuclidChoreo};
use rsbt::protocols::leader_count;
use rsbt::random::Assignment;
use rsbt::sim::{Model, PortNumbering};
use rsbt_bench::{fmt_sizes, Table};

fn demo(sizes: &[usize], adversarial: bool, rng: &mut StdRng, table: &mut Table) {
    let alpha = Assignment::from_group_sizes(sizes).unwrap();
    let n = alpha.n();
    let g = alpha.gcd_of_group_sizes();
    let k = sizes.len();
    let ports = if adversarial {
        PortNumbering::adversarial(n, g as usize)
    } else {
        PortNumbering::random(n, rng)
    };
    let out = run_with(
        &EuclidChoreo { k },
        &Model::MessagePassing(ports),
        &alpha,
        4000,
        rng,
    )
    .expect("euclid election projects under message passing");
    let kind = if adversarial { "adversarial" } else { "random" };
    let outcome = if out.completed {
        format!(
            "elected {} leader in {} rounds",
            leader_count(&out.outputs),
            out.rounds
        )
    } else {
        format!("STUCK after {} rounds (as predicted)", out.rounds)
    };
    table.row(vec![
        fmt_sizes(sizes),
        g.to_string(),
        kind.to_string(),
        outcome,
    ]);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut table = Table::new(vec!["sizes", "gcd", "ports", "outcome"]);

    for sizes in [vec![2usize, 3], vec![3, 4], vec![2, 2, 3]] {
        demo(&sizes, false, &mut rng, &mut table);
        demo(&sizes, true, &mut rng, &mut table);
    }
    for sizes in [vec![2usize, 2], vec![3, 3]] {
        demo(&sizes, true, &mut rng, &mut table);
    }
    demo(&[2, 2], false, &mut rng, &mut table);

    println!("Euclid-style message-passing leader election (Theorem 4.2):\n");
    print!("{table}");
    println!();
    println!("gcd = 1 rows: solvable for EVERY numbering (Theorem 4.2, 'if').");
    println!("gcd > 1 + adversarial: the numbering defeats every algorithm");
    println!("(Theorem 4.2, 'only if', via Lemma 4.3).");
    println!("gcd > 1 + random: the Euclid algorithm only exploits randomness");
    println!("groups, so it stalls here too — yet the topological framework shows");
    println!("a full-information protocol CAN often elect under random numberings");
    println!("(run exp_thm42's ablation): the impossibility is about the worst case.");
}
