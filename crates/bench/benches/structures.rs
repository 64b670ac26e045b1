//! Micro-benchmarks of the RRS hardware structures: the latency-critical
//! operations the paper budgets (RIT lookup on every access, tracker
//! update on every activation, PRINCE < 2 ns in hardware).

use std::hint::black_box;

use bench::harness::Harness;
use rrs::core::cat::{Cat, CatConfig};
use rrs::core::prince::Prince;
use rrs::core::prng::PrinceCtrRng;
use rrs::core::rit::RowIndirectionTable;
use rrs::core::rrs::{BankRrs, RrsConfig};
use rrs::core::tracker::{CatTracker, HotRowTracker, TrackerConfig};

fn bench_prince(h: &mut Harness) {
    let cipher = Prince::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    h.bench("prince/encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(cipher.encrypt(x))
        })
    });
    h.bench("prince/decrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(cipher.decrypt(x))
        })
    });
    let mut rng = PrinceCtrRng::new(42);
    h.bench("prng/next_below_128k", |b| {
        b.iter(|| black_box(rng.next_below(128 * 1024)))
    });
}

fn bench_cat(h: &mut Harness) {
    // The paper's RIT shape: 2 tables x 256 sets x 20 ways.
    let cfg = CatConfig::rit_asplos22();
    let mut cat: Cat<u64> = Cat::new(cfg);
    for tag in 0..6_000u64 {
        cat.insert(tag, tag).unwrap();
    }
    h.bench("cat/lookup_hit", |b| {
        let mut tag = 0u64;
        b.iter(|| {
            tag = (tag + 1) % 6_000;
            black_box(cat.get(tag))
        })
    });
    h.bench("cat/lookup_miss", |b| {
        let mut tag = 1_000_000u64;
        b.iter(|| {
            tag += 1;
            black_box(cat.get(tag))
        })
    });
    h.bench("cat/insert_remove", |b| {
        let mut tag = 2_000_000u64;
        b.iter(|| {
            tag += 1;
            cat.insert(tag, 0).unwrap();
            black_box(cat.remove(tag))
        })
    });
}

fn bench_tracker(h: &mut Harness) {
    let cfg = TrackerConfig {
        entries: 1_700,
        threshold: 800,
    };
    h.bench("tracker/hot_row_access", |b| {
        let mut t = CatTracker::new(cfg);
        b.iter(|| black_box(t.record_access(7)))
    });
    h.bench("tracker/scattered_access", |b| {
        let mut t = CatTracker::new(cfg);
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 12_345) % 131_072;
            black_box(t.record_access(row))
        })
    });
}

fn bench_rit(h: &mut Harness) {
    h.bench("rit/resolve_mapped", |b| {
        let mut rit = RowIndirectionTable::new(3_400, 0x1234);
        for i in 0..1_000u64 {
            rit.swap(i, 100_000 + i).unwrap();
        }
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 1) % 1_000;
            black_box(rit.resolve(row))
        })
    });
    h.bench("rit/swap_and_back", |b| {
        let mut rit = RowIndirectionTable::new(3_400, 0x5678);
        b.iter(|| {
            rit.swap(1, 2).unwrap();
            black_box(rit.swap(1, 2).unwrap())
        })
    });
}

fn bench_bank_rrs(h: &mut Harness) {
    let cfg = RrsConfig::asplos22();
    h.bench("bank_rrs/activation_cold", |b| {
        let mut bank = BankRrs::new(cfg, 0);
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 9_973) % 131_072;
            black_box(bank.on_activation(row))
        })
    });
    h.bench("bank_rrs/hammer_with_swaps", |b| {
        b.iter_batched(
            || BankRrs::new(cfg, 0),
            |mut bank| {
                for _ in 0..1_600 {
                    black_box(bank.on_activation(7));
                }
                bank
            },
        )
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_prince(&mut h);
    bench_cat(&mut h);
    bench_tracker(&mut h);
    bench_rit(&mut h);
    bench_bank_rrs(&mut h);
    h.finish();
}
