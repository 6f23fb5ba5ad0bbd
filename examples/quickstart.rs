//! Quickstart: grow a chip, enroll a configurable RO PUF, read it back.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf::prelude::*;

fn main() {
    // 1. Fabricate a chip: 160 delay units on a 16-wide grid.
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(2014);
    let board = sim.grow_board(&mut rng, 160, 16);

    // 2. Floorplan: 16 pairs of 5-stage configurable rings (one bit each).
    let puf = ConfigurableRoPuf::tiled(board.len(), 5);

    // 3. Enroll at nominal conditions: calibrate every ring, pick the
    //    inverter subsets that maximize each pair's delay margin.
    let opts = EnrollOptions {
        mode: SelectionMode::Case2,
        ..EnrollOptions::default()
    }
    .validate()
    .expect("default options are consistent");
    let enrollment = puf.enroll(
        &mut rng,
        &board,
        sim.technology(),
        Environment::nominal(),
        &opts,
    );
    println!("enrolled {} bits", enrollment.bit_count());
    println!("expected response: {}", enrollment.expected_bits());
    for (i, pair) in enrollment.pairs().iter().flatten().enumerate() {
        println!(
            "  pair {i:2}: top={} bottom={} margin={:6.2} ps bit={}",
            pair.top_config(),
            pair.bottom_config(),
            pair.margin_ps(),
            u8::from(pair.expected_bit()),
        );
    }

    // 4. Read the PUF back under a low-voltage corner: the configured
    //    margins keep the response stable.
    let probe = DelayProbe::new(0.25, 1);
    let corner = Environment::new(0.98, 25.0);
    let response = enrollment.respond(&mut rng, &board, sim.technology(), corner, &probe);
    let flips = response
        .hamming_distance(&enrollment.expected_bits())
        .expect("same length");
    println!("response at {corner}: {response} ({flips} flips)");
}
