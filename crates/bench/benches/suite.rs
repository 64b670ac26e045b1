//! `cargo bench -p bench [-- FILTER] [-- --quick]`: the full
//! micro-benchmark registry, [`bench::suite::full`].

fn main() {
    let mut h = bench::harness::Harness::from_args();
    bench::suite::full(&mut h);
    h.finish();
}
