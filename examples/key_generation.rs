//! Derive a stable 128-bit device key from a configurable RO PUF.
//!
//! Combines the paper's two reliability levers — margin-maximizing
//! configuration and the `Rth` threshold — with majority voting over
//! repeated reads, then checks the key at every voltage and temperature
//! corner of the paper's sweep.
//!
//! ```sh
//! cargo run --example key_generation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf::prelude::*;

const KEY_BITS: usize = 128;
const STAGES: usize = 7;
const VOTES: usize = 5;

fn majority_read(
    rng: &mut StdRng,
    enrollment: &Enrollment,
    board: &Board,
    tech: &Technology,
    env: Environment,
    probe: &DelayProbe,
) -> BitVec {
    let reads: Vec<BitVec> = (0..VOTES)
        .map(|_| enrollment.respond(rng, board, tech, env, probe))
        .collect();
    (0..reads[0].len())
        .map(|i| {
            let ones = reads.iter().filter(|r| r.get(i).expect("in range")).count();
            ones * 2 > VOTES
        })
        .collect()
}

fn main() {
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);

    // Provision 50 % extra pairs so the reliability threshold can drop
    // weak ones and still leave 128 bits.
    let pairs = KEY_BITS + KEY_BITS / 2;
    let board = sim.grow_board(&mut rng, pairs * 2 * STAGES, 32);
    let puf = ConfigurableRoPuf::tiled(board.len(), STAGES);

    // Enroll with a margin threshold: pairs under 3 ps yield no bit.
    let opts = EnrollOptions {
        threshold_ps: 3.0,
        ..EnrollOptions::default()
    }
    .validate()
    .expect("a finite, non-negative threshold");
    let enrollment = puf.enroll(
        &mut rng,
        &board,
        sim.technology(),
        Environment::nominal(),
        &opts,
    );
    println!(
        "provisioned {} pairs, {} survive the 3 ps threshold",
        pairs,
        enrollment.bit_count()
    );
    assert!(
        enrollment.bit_count() >= KEY_BITS,
        "not enough reliable pairs provisioned"
    );

    let probe = DelayProbe::new(0.25, 1);
    let reference: BitVec = enrollment.expected_bits().iter().take(KEY_BITS).collect();
    println!("key: {}", to_hex(&reference));

    // Re-derive the key at every corner of the paper's sweep.
    let mut worst = 0usize;
    for env in Environment::voltage_sweep(25.0)
        .into_iter()
        .chain(Environment::temperature_sweep(1.20))
    {
        let read = majority_read(&mut rng, &enrollment, &board, sim.technology(), env, &probe);
        let key: BitVec = read.iter().take(KEY_BITS).collect();
        let flips = key.hamming_distance(&reference).expect("same length");
        worst = worst.max(flips);
        println!("  {env}: {flips} bit errors");
    }
    println!("worst corner: {worst} bit errors out of {KEY_BITS}");
    assert_eq!(worst, 0, "key must be corner-stable");
}

fn to_hex(bits: &BitVec) -> String {
    let mut out = String::new();
    let mut nibble = 0u8;
    for (i, b) in bits.iter().enumerate() {
        nibble = (nibble << 1) | u8::from(b);
        if i % 4 == 3 {
            out.push_str(&format!("{nibble:x}"));
            nibble = 0;
        }
    }
    out
}
